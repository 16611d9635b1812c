"""The three workloads: seeded inputs, operations and their checks.

Each workload is a closed loop with one client.  round() returns a fixed mix
of operations in a seeded order; the measuring loop runs whole rounds, so
every run sees the same mix whatever its seed and however many rounds fit.
An operation is (label, run, check): run() talks to the program and returns
what a user would see, check() compares that with the oracle.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
from math import gcd
from pathlib import Path

import oracle
import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "heckeblocks" / "data"
GOLDEN = HERE / "golden_schur.json"
CHILD_TIMEOUT_S = 60


class Op:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


# ---------------------------------------------------------------------------
# seeded exponent vectors
# ---------------------------------------------------------------------------


def _on(h, w):
    """An integer vector on the hyperplane h: w minus its projection on h."""
    dot = oracle.dot
    return [dot(h, h) * x - dot(h, w) * y for x, y in zip(w, h)]


def _reduced(v) -> tuple[int, ...]:
    d = 0
    for x in v:
        d = gcd(d, x)
    return tuple(x // d for x in v) if d else tuple(v)


def exponent_vectors(t: oracle.GroupTables, rng: random.Random, per_class: int
                     ) -> dict[str, list[tuple[int, ...]]]:
    """Vectors on no stored hyperplane, on exactly one, and on two or more.

    Each draw is shifted by a random constant per orbit, which moves it off
    no hyperplane (normals sum to zero over each orbit), so repeats are rare
    but allowed.  The last class always holds the all-zero vector (every
    hyperplane), and for G4 the published (0,1,2)."""
    normals = t.normals
    out = {"generic": [], "one": [], "multi": [(0,) * t.slot_count]}
    if t.name == "G4":
        out["multi"].append((0, 1, 2))
    while min(len(v) for v in out.values()) < per_class:
        w = [rng.randint(-9, 9) for _ in range(t.slot_count)]
        kind = rng.choice(("generic", "one", "multi"))
        if kind == "one":
            w = _on(rng.choice(normals), w)
        elif kind == "multi":
            h1, h2 = rng.sample(normals, 2)
            u = _on(h1, h2)  # the part of h2 orthogonal to h1
            w = _on(u, _on(h1, w))
        shift = [c for e in t.orbit_sizes for c in [rng.randint(-3, 3)] * e]
        n = tuple(x + c for x, c in zip(_reduced(w), shift))
        hits = len(t.hits(n))
        got = "generic" if hits == 0 else "one" if hits == 1 else "multi"
        if len(out[got]) < per_class:
            out[got].append(n)
    return out


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _render_partition(g, partition, display: str) -> str:
    """The CLI's rendering of a block partition."""
    if display == "index":
        parts = [list(p) for p in partition.parts]
    else:
        parts = [[g.characters[i - 1].render() for i in p]
                 for p in partition.parts]
    return json.dumps(parts, separators=(",", ":"))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    tail_percentile = 50.0
    min_rounds = 1
    in_process = True

    def __init__(self, seed: int, tables: dict[str, oracle.GroupTables],
                 work_dir: Path):
        self.rng = random.Random(seed)
        self.tables = tables
        self.tracer = None
        self.groups = {}

    def setup(self) -> None:
        self.groups = probe.program_setup(self.name)
        if self.in_process:
            from heckeblocks import engine, groupblocks

            self.engine, self.groupblocks = engine, groupblocks

    def trace_with(self, tracer) -> None:
        """Install tracer and set the program up again under a set-up span."""
        tracer.install()
        self.tracer = tracer
        with tracer.root("setup"):
            self.setup()

    def round(self) -> list[Op]:
        raise NotImplementedError


class TableQueries(Workload):
    """Warm table-path queries: hyperplane scan, join, CLI rendering."""

    name = "table-queries"
    tail_percentile = 95.0
    PER_CLASS = 100

    def __init__(self, seed, tables, work_dir):
        super().__init__(seed, tables, work_dir)
        self.queries = []
        for name in oracle.GROUPS:
            t = tables[name]
            for vectors in exponent_vectors(t, self.rng, self.PER_CLASS).values():
                for n in vectors:
                    display = self.rng.choice(("index", "name"))
                    self.queries.append(
                        (name, n, display, t.rouquier_lines(n, display)))

    def round(self) -> list[Op]:
        return [Op(f"rouquier {name} {n} {display}",
                   self._query(name, n, display),
                   expected.__eq__)
                for name, n, display, expected in _shuffled(self.rng, self.queries)]

    def _query(self, name, n, display):
        def run():
            engine = self.engine
            g = self.groups[name]
            spec = engine.Specialization(n)
            hit = engine.hyperplanes_containing(g.hyperplane_tables, spec)
            blocks = engine.rouquier_from_tables(g, spec)
            slots = g.slot_names()
            rendered = ", ".join(t.hyperplane.render(slots) for t in hit)
            return [f"Essential hyperplanes hit: {rendered or 'none'}",
                    _render_partition(g, blocks, display)]
        return run


class SchurHeuristic(Workload):
    """Warm Schur-path heuristic calls over a fixed job set."""

    name = "schur-heuristic"
    tail_percentile = 80.0

    def __init__(self, seed, tables, work_dir):
        super().__init__(seed, tables, work_dir)
        self.golden = oracle.load_golden(GOLDEN)

    def round(self) -> list[Op]:
        return [Op(key, self._job(key), self._check(key))
                for key in _shuffled(self.rng, sorted(self.golden))]

    def _job(self, key: str):
        kind, group, p, *rest = key.split("/")
        p = int(p)

        def run():
            engine = self.engine
            g = self.groups[group]
            if kind == "p_blocks":
                return self.groupblocks.p_blocks(g.character_table, p)
            if kind == "no_hyperplane":
                return engine.blocks_no_hyperplane(g, p)
            normal = tuple(int(c) for c in rest[0].split(","))
            return engine.blocks_one_hyperplane(g, p, engine.Hyperplane(normal))
        return run

    def _check(self, key: str):
        expected = self.golden[key]
        return lambda partition: [list(p) for p in partition.parts] == expected


class CliCold(Workload):
    """One fresh interpreter per request, as a user runs the CLI."""

    name = "cli-cold"
    tail_percentile = 70.0
    min_rounds = 2  # 38 samples, so p70 leaves at least 10 beyond it
    in_process = False

    def __init__(self, seed, tables, work_dir):
        super().__init__(seed, tables, work_dir)
        self.vectors = {
            name: [n for vs in exponent_vectors(tables[name], self.rng, 10).values()
                   for n in vs]
            for name in oracle.GROUPS
        }
        self.corrupt_db = work_dir / "corrupt_db"
        self.corrupt_db.mkdir()
        for name in oracle.GROUPS:
            shutil.copy(DATA / f"{name.lower()}.json", self.corrupt_db)
        path = self.corrupt_db / "g4.json"
        doc = json.loads(path.read_text("utf-8"))
        doc["hyperplane_tables"][1]["normal"] = [0, 1, 1]
        path.write_text(json.dumps(doc), "utf-8")
        self.spans_path = work_dir / "spans.json"
        self.stats = {"requests": 0, "cpu_s": 0.0, "import_s": 0.0,
                      "import_sympy_s": 0.0, "op": None}

    def trace_with(self, tracer) -> None:
        self.tracer = tracer

    def round(self) -> list[Op]:
        rng = self.rng
        t = self.tables
        ops = []

        def request(args, check, db=None):
            label = " ".join(args if db is None else ["HECKE_DB=corrupt", *args])
            ops.append(Op(label, self._request(args, db), check))

        for p in (0, 2, 3):
            request(["essential-hyperplanes", "G4", "--prime", str(p)],
                    _lines_as_set(t["G4"].essential_lines(p)))
        for name in ("G4", "G6", "G7"):
            for display in ("index", "name"):
                request(["all-blocks", name, "--display", display],
                        _lines(t[name].all_blocks_lines(display)))
        for name, count in (("G4", 1), ("G6", 1), ("G7", 3)):
            for _ in range(count):
                n = rng.choice(self.vectors[name])
                display = rng.choice(("index", "name"))
                request(["rouquier-blocks", name, "--exponents", _csv(n),
                         "--display", display],
                        _lines(t[name].rouquier_lines(n, display)))
        request(["verify-db"], _lines(["ok"]))
        request(["essential-hyperplanes", "G4", "--prime",
                 str(rng.choice((4, 5, 7, 9, 11, 13)))],
                _fails(2, oracle.BAD_PRIME_MESSAGE))
        request(["rouquier-blocks", "G7", "--path", "schur", "--exponents",
                 _csv(rng.choice(self.vectors["G7"]))],
                _fails(3, "full Schur payload not stored for G7"))
        wrong = rng.choice((2, 4, 5))
        request(["rouquier-blocks", "G4", "--exponents",
                 _csv(rng.randint(-5, 5) for _ in range(wrong))],
                _fails(4, f"G4 needs 3 exponents, got {wrong}"))
        request(["all-blocks", "G4", "--display", "index"],
                _fails(5, "has nonzero orbit sums"), self.corrupt_db)
        return _shuffled(rng, ops)

    def _request(self, args, db=None):
        def run():
            env = dict(os.environ, PYTHONPATH=str(SRC))
            env.pop("HECKE_DB", None)
            if db is not None:
                env["HECKE_DB"] = str(db)
            if self.tracer is None:
                cmd = [sys.executable, "-m", "heckeblocks.cli", *args]
            else:
                cmd = [sys.executable, "-X", "importtime",
                       str(HERE / "cli_child.py"), str(self.spans_path), *args]
            self.spans_path.unlink(missing_ok=True)  # no stale spans
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            stderr = proc.stderr
            if self.tracer is not None:
                stderr = self._record_child(before, stderr)
            return proc.returncode, proc.stdout, stderr
        return run

    def _record_child(self, before, stderr: str) -> str:
        """Fold one traced child's spans, CPU and import times into stats;
        return its stderr without the -X importtime lines."""
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        s = self.stats
        s["requests"] += 1
        s["cpu_s"] += (after.ru_utime + after.ru_stime
                       - before.ru_utime - before.ru_stime)
        kept = []
        for line in stderr.splitlines(keepends=True):
            if not line.startswith("import time:"):
                kept.append(line)
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue  # the header line
            seconds = int(cumulative) / 1e6
            if name.strip() == "sympy":
                s["import_sympy_s"] += seconds
            if name[1:2] != " " and name.strip().startswith("heckeblocks"):
                s["import_s"] += seconds  # top level: heckeblocks, .cli
        op = json.loads(self.spans_path.read_text("utf-8"))["op"]
        if s["op"] is None:
            s["op"] = op
        else:
            total = s["op"]
            for key in ("roots", "span_s", "meets", "refining_meets"):
                total[key] += op[key]
            for key in ("calls", "self_s"):
                for metric, value in op[key].items():
                    total[key][metric] += value
        return "".join(kept)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _lines(expected: list[str]):
    return lambda out: out[0] == 0 and out[1].splitlines() == expected


def _lines_as_set(expected: set[str]):
    """Order-free line check, as tests/test_acceptance.py pins these."""
    def check(out):
        lines = out[1].splitlines()
        return out[0] == 0 and len(lines) == len(set(lines)) and set(lines) == expected
    return check


def _fails(code: int, message: str):
    return lambda out: out[0] == code and out[1] == "" and message in out[2]


WORKLOADS = {w.name: w for w in (CliCold, TableQueries, SchurHeuristic)}
