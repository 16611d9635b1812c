"""Per-layer spans, recorded from outside the program.

install() replaces each traced function of the heckeblocks package with a
timing wrapper: module functions at their definition and at every
heckeblocks.* module that imported them, and methods on their class.  Every
call records a span (name, parent span, start, end) in flat arrays that stay
in memory until the run ends; summary() then turns them into per-function
call counts and self times (span duration minus the time its child spans
cover).  Spans under a root named by root() are attributed to that root's
kind, so set-up work and timed operations are summed apart.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# metric name -> (module, attribute path) of the traced callable
TARGETS = {
    "cyclo.value_at_one": ("cyclo", "KCyclotomic.value_at_one"),
    "cyclo.descend": ("cyclo", "CycInt.descend"),
    "cyclo.lift": ("cyclo", "CycInt.lift"),
    "cyclo.mul": ("cyclo", "CycInt.__mul__"),
    "cyclo.norm": ("cyclo", "CycInt.norm"),
    "cyclo.galois_conjugate": ("cyclo", "CycInt.galois_conjugate"),
    "cyclo.in_prime_ideal": ("cyclo", "in_prime_ideal"),
    "cyclo.prime_handle": ("cyclo", "prime_handle"),
    "schur.normalize_x_to_v": ("schur", "normalize_x_to_v"),
    "schur.validate": ("schur", "validate"),
    "schur.specialize": ("schur", "specialize"),
    "schur.a_and_A": ("schur", "a_and_A"),
    "schur.essential_monomials": ("schur", "essential_monomials"),
    "schur.essential_hyperplanes": ("schur", "essential_hyperplanes"),
    "lattice.primitive_part": ("lattice", "primitive_part"),
    "groupblocks.p_blocks": ("groupblocks", "p_blocks"),
    "groupblocks.galois_close": ("groupblocks", "galois_close"),
    "groupblocks.central_character": ("groupblocks", "central_character"),
    "engine.rouquier_from_tables": ("engine", "rouquier_from_tables"),
    "engine.hyperplanes_containing": ("engine", "hyperplanes_containing"),
    "engine.join": ("engine", "join"),
    "engine.meet": ("engine", "meet"),
    "engine.blocks_no_hyperplane": ("engine", "blocks_no_hyperplane"),
    "engine.blocks_one_hyperplane": ("engine", "blocks_one_hyperplane"),
    "clifford.descend_hyperplanes": ("clifford", "descend_hyperplanes"),
    "clifford.transport_blocks": ("clifford", "transport_blocks"),
    "store.load": ("store", "load"),
    "store.verify_db": ("store", "verify_db"),
}
ROOT_KINDS = ("op", "setup")


class Tracer:
    def __init__(self):
        self.names = list(ROOT_KINDS) + list(TARGETS)
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.meets = {kind: [0, 0] for kind in ROOT_KINDS}  # [all, refining]
        self._restore = []

    def _open(self, name_index: int) -> int:
        sid = len(self.name)
        self.name.append(name_index)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()

    @contextmanager
    def root(self, kind: str):
        sid = self._open(ROOT_KINDS.index(kind))
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, metric: str, fn):
        index = self.names.index(metric)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(index)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        if metric != "engine.meet":
            return traced

        def traced_meet(p1, p2):
            result = traced(p1, p2)
            outer = tracer.stack[1] if len(tracer.stack) > 1 else None
            if outer is not None and tracer.name[outer] < len(ROOT_KINDS):
                counts = tracer.meets[ROOT_KINDS[tracer.name[outer]]]
                counts[0] += 1
                counts[1] += result != p1
            return result

        return traced_meet

    def install(self) -> None:
        """Wrap every target; the heckeblocks modules must be imported."""
        modules = [m for n, m in sys.modules.items()
                   if n == "heckeblocks" or n.startswith("heckeblocks.")]
        for metric, (module, path) in TARGETS.items():
            owner = sys.modules[f"heckeblocks.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[attr]
                wrapper = self._wrap(metric, original)
                for key, value in list(vars(cls).items()):
                    if value is original:  # also catches __rmul__ = __mul__
                        self._replace(cls, key, value, wrapper)
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(metric, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, value, wrapper)

    def _replace(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def summary(self) -> dict:
        """{kind: {"roots": n, "span_s": total root time, "meets": n,
        "refining_meets": n, "calls": {metric: n}, "self_s": {metric: s}}}
        over closed spans; spans outside any root are not attributed."""
        count = len(self.name)
        child = [0.0] * count
        kind_of = [-1] * count
        for sid in range(count):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
                kind_of[sid] = kind_of[p]
            elif self.name[sid] < len(ROOT_KINDS):
                kind_of[sid] = self.name[sid]
        out = {kind: {"roots": 0, "span_s": 0.0,
                      "meets": self.meets[kind][0],
                      "refining_meets": self.meets[kind][1],
                      "calls": dict.fromkeys(TARGETS, 0),
                      "self_s": dict.fromkeys(TARGETS, 0.0)}
               for kind in ROOT_KINDS}
        for sid in range(count):
            if kind_of[sid] < 0:
                continue
            bucket = out[ROOT_KINDS[kind_of[sid]]]
            duration = self.end[sid] - self.start[sid]
            if self.parent[sid] < 0:
                bucket["roots"] += 1
                bucket["span_s"] += duration
                continue
            metric = self.names[self.name[sid]]
            bucket["calls"][metric] += 1
            bucket["self_s"][metric] += duration - child[sid]
        return out
