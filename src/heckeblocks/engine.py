"""The two Rouquier-block computation paths.

The table path joins stored per-hyperplane block partitions for the
hyperplanes a specialization lies on.  The Schur path re-derives those
partitions from factorized Schur elements: coefficient divisibility,
group-theoretic p-blocks, and the constancy of a + A across deterministic
test specializations.  rouquier_blocks answers a query along either path.
The partition lattice (Partition, meet, join) lives in groupblocks and is
re-exported here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .groupblocks import Partition, join, meet, p_blocks
from .lattice import IntVector, dot, primitive_part
from .schur import (
    GroupDatum,
    a_and_A,
    bad_primes,
    essential_monomials,
    essential_normals,
    sign_canonical,
    specialize,
)

__all__ = [
    "Hyperplane",
    "HyperplaneTable",
    "Specialization",
    "meet",
    "join",
    "hyperplanes_containing",
    "rouquier_blocks",
    "rouquier_from_tables",
    "blocks_no_hyperplane",
    "blocks_one_hyperplane",
]

_SEARCH_BOXES = (1, 2, 4, 8, 16, 32, 64)
# Candidate vectors one search may examine; the shipped groups need at
# most ~1.6k, and G7's full boxes would hold 129^8.
_SEARCH_BUDGET = 100_000
_AA_ROUNDS = 5


@dataclass(frozen=True)
class Hyperplane:
    """An essential hyperplane, named by its primitive sign-canonical
    normal vector."""

    normal: IntVector

    @staticmethod
    def of(vector: IntVector) -> "Hyperplane":
        prim, content = primitive_part(vector)
        if content == 0:
            raise ValueError("zero vector does not define a hyperplane")
        return Hyperplane(sign_canonical(prim))

    def contains(self, n: IntVector) -> bool:
        return dot(self.normal, n) == 0

    def render(self, slot_names: list[str]) -> str:
        out = []
        for name, c in zip(slot_names, self.normal):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if out else "")
            mag = abs(c)
            out.append(f"{sign}{'' if mag == 1 else mag}{name[0]}_{name[1:]}")
        return "".join(out) + "=0"


@dataclass(frozen=True)
class HyperplaneTable:
    """Stored Rouquier blocks for one essential hyperplane (hyperplane=None
    is the no-essential-hyperplane baseline), with the primes for which the
    hyperplane is essential."""

    hyperplane: Hyperplane | None
    blocks: Partition
    primes: frozenset[int] = frozenset()

    @property
    def normal(self) -> IntVector | None:
        return None if self.hyperplane is None else self.hyperplane.normal


@dataclass(frozen=True)
class Specialization:
    n: IntVector


def hyperplanes_containing(
    tables, spec: Specialization
) -> list[HyperplaneTable]:
    """Stored tables whose hyperplane the specialization lies on."""
    return [
        t for t in tables
        if t.hyperplane is not None and t.hyperplane.contains(spec.n)
    ]


def _baseline_table(g: GroupDatum) -> HyperplaneTable:
    if g.hyperplane_tables is None:
        raise ValueError(f"no hyperplane tables stored for {g.name}")
    for t in g.hyperplane_tables:
        if t.hyperplane is None:
            return t
    raise ValueError(f"{g.name} tables lack the no-hyperplane baseline")


def rouquier_blocks(
    g: GroupDatum, spec: Specialization, path: str = "tables"
) -> tuple[list[Hyperplane], Partition]:
    """The essential hyperplanes the specialization lies on, and its
    Rouquier blocks, each computed once.

    path "tables": the hyperplanes of the stored tables, and the join of
    the baseline blocks with their blocks.  path "schur": the p-essential
    hyperplanes over the bad primes p of the specialization, and the join
    over those primes of the heuristic blocks off every hyperplane and on
    each hit one.  Raises ValueError when the path's data is not stored."""
    if path == "tables":
        baseline = _baseline_table(g)
        hit = hyperplanes_containing(g.hyperplane_tables, spec)
        blocks = join([baseline.blocks] + [t.blocks for t in hit])
        return [t.hyperplane for t in hit], blocks
    if path != "schur":
        raise ValueError(f"unknown path {path!r}")
    primes = sorted(bad_primes(g, spec.n))
    hit: set[IntVector] = set()
    parts = [Partition.singletons(len(g.characters))]
    for p in primes:
        parts.append(blocks_no_hyperplane(g, p))
        for normal in sorted(essential_normals(g, [p])):
            if dot(normal, spec.n) == 0:
                hit.add(normal)
                parts.append(blocks_one_hyperplane(g, p, Hyperplane(normal)))
    return [Hyperplane(v) for v in sorted(hit)], join(parts)


def rouquier_from_tables(g: GroupDatum, spec: Specialization) -> Partition:
    """Join of the baseline blocks with the blocks of every essential
    hyperplane the specialization lies on."""
    return rouquier_blocks(g, spec)[1]


# ---------------------------------------------------------------------------
# heuristic path from Schur data
# ---------------------------------------------------------------------------


def _admissible_specs(g: GroupDatum, on, off):
    """Deterministic vectors lying on every hyperplane of `on` and off
    every hyperplane of `off`, in growing boxes, lexicographic order.

    Raises RuntimeError once _SEARCH_BUDGET candidates have been examined."""
    m = g.slot_count
    examined = 0
    for box in _SEARCH_BOXES:
        for n in itertools.product(range(-box, box + 1), repeat=m):
            examined += 1
            if examined > _SEARCH_BUDGET:
                raise RuntimeError(
                    f"specialization search for {g.name} exceeded "
                    f"{_SEARCH_BUDGET} candidates"
                )
            if box > 1 and max((abs(x) for x in n), default=0) <= box // 2:
                continue  # already visited in a smaller box
            if any(dot(h, n) for h in on):
                continue
            if any(dot(h, n) == 0 for h in off):
                continue
            yield n


def _aa_partition(g: GroupDatum, avail: dict, n: IntVector) -> Partition:
    """Characters grouped by equal a + A at the specialization n; characters
    without Schur data stay singletons."""
    sums: dict[object, list[int]] = {}
    for i, s in avail.items():
        a, big_a = a_and_A(g, specialize(g, s, n))
        sums.setdefault(a + big_a, []).append(i)
    return Partition.generated_by(sums.values(), len(g.characters))


def _heuristic_blocks(g: GroupDatum, p: int, seed: list[int], on, off
                      ) -> Partition:
    """Steps 2-3 of the heuristic, from the seed part (every other
    character a singleton): meet with the group p-blocks, then with a+A
    partitions over admissible specializations until stable."""
    avail = g.stored_schur()
    current = Partition.generated_by([seed], len(g.characters))
    if g.character_table is not None:
        current = meet(current, p_blocks(g.character_table, p))
    specs = _admissible_specs(g, on, off)
    used = 0
    stable_since = 0
    for n in specs:
        refined = meet(current, _aa_partition(g, avail, n))
        used += 1
        stable_since = stable_since + 1 if refined == current else 0
        current = refined
        if used >= _AA_ROUNDS and stable_since >= 1:
            return current
    raise RuntimeError(
        f"no admissible specialization for {g.name} at p={p} within the "
        f"search bound"
    )


def blocks_no_hyperplane(g: GroupDatum, p: int) -> Partition:
    """Candidate blocks away from every essential hyperplane.

    The seed part holds the characters with stored Schur data whose
    coefficient xi has norm divisible by p; meets with the group p-blocks
    and with the a + A partitions at the tried specializations can only
    split it, and every other character stays a singleton.  The result is
    therefore no guaranteed coarsening of the true blocks: on G7, whose
    payload covers 3 of 42 characters, it is 42 singletons, finer than the
    stored 29-part baseline.  Only the stored tables are authoritative."""
    if g.group_order % p:
        return Partition.singletons(len(g.characters))
    heavy = [
        i for i, s in g.stored_schur().items() if abs(s.xi.norm()) % p == 0
    ]
    return _heuristic_blocks(g, p, heavy, on=[], off=essential_normals(g, [p]))


def blocks_one_hyperplane(g: GroupDatum, p: int, h: Hyperplane) -> Partition:
    """Candidate blocks on a single essential hyperplane, joined with the
    no-hyperplane blocks."""
    if g.group_order % p:
        return Partition.singletons(len(g.characters))
    normal = sign_canonical(h.normal)
    core = [
        i for i, s in g.stored_schur().items()
        if normal in essential_monomials(s, p)
    ]
    off = essential_normals(g, [p]) - {normal}
    lam3 = _heuristic_blocks(g, p, core, on=[normal], off=off)
    return join([lam3, blocks_no_hyperplane(g, p)])
