"""Partition algebra and the two Rouquier-block computation paths.

The table path joins stored per-hyperplane block partitions for the
hyperplanes a specialization lies on.  The Schur path re-derives those
partitions from factorized Schur elements: coefficient divisibility,
group-theoretic p-blocks, and the constancy of a + A across deterministic
test specializations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .groupblocks import Partition, p_blocks
from .lattice import IntVector, primitive_part
from .schur import (
    GroupDatum,
    a_and_A,
    bad_primes,
    essential_monomials,
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
    "rouquier_from_tables",
    "blocks_no_hyperplane",
    "blocks_one_hyperplane",
    "rouquier_from_schur",
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
        return sum(a * b for a, b in zip(self.normal, n)) == 0

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


def _check_sizes(ps: list[Partition]):
    sizes = {p.size for p in ps}
    if len(sizes) > 1:
        raise ValueError("partitions are over different index sets")


def meet(p1: Partition, p2: Partition) -> Partition:
    """Common refinement: indices grouped by their pair of part numbers."""
    _check_sizes([p1, p2])
    label = {}
    for k, part in enumerate(p2.parts):
        for i in part:
            label[i] = k
    groups: dict[tuple[int, int], list[int]] = {}
    for k, part in enumerate(p1.parts):
        for i in part:
            groups.setdefault((k, label[i]), []).append(i)
    return Partition.of(list(groups.values()), p1.size)


def join(ps: list[Partition]) -> Partition:
    """Finest common coarsening, by union-find over all parts."""
    if not ps:
        raise ValueError("join of no partitions")
    _check_sizes(ps)
    size = ps[0].size
    parent = list(range(size + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in ps:
        for part in p.parts:
            root = find(part[0])
            for i in part[1:]:
                parent[find(i)] = root
    groups: dict[int, list[int]] = {}
    for i in range(1, size + 1):
        groups.setdefault(find(i), []).append(i)
    return Partition.of(list(groups.values()), size)


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


def rouquier_from_tables(g: GroupDatum, spec: Specialization) -> Partition:
    """Join of the baseline blocks with the blocks of every essential
    hyperplane the specialization lies on."""
    baseline = _baseline_table(g)
    hit = hyperplanes_containing(g.hyperplane_tables, spec)
    return join([baseline.blocks] + [t.blocks for t in hit])


# ---------------------------------------------------------------------------
# heuristic path from Schur data
# ---------------------------------------------------------------------------


def _available_schur(g: GroupDatum) -> dict[int, object]:
    """1-based index -> SchurElement for the characters with stored data."""
    stored = g.schur_elements or {}
    return {
        i + 1: stored[c] for i, c in enumerate(g.characters) if c in stored
    }


def _p_essential_normals(g: GroupDatum, p: int) -> set[IntVector]:
    normals: set[IntVector] = set()
    for s in _available_schur(g).values():
        normals |= essential_monomials(s, p)
    return normals


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
            if any(sum(a * b for a, b in zip(h, n)) for h in on):
                continue
            if any(sum(a * b for a, b in zip(h, n)) == 0 for h in off):
                continue
            yield n


def _aa_partition(g: GroupDatum, avail: dict, n: IntVector) -> Partition:
    """Characters grouped by equal a + A at the specialization n; characters
    without Schur data stay singletons."""
    sums: dict[object, list[int]] = {}
    size = len(g.characters)
    leftover = []
    for i in range(1, size + 1):
        if i in avail:
            a, big_a = a_and_A(g, specialize(g, avail[i], n))
            sums.setdefault(a + big_a, []).append(i)
        else:
            leftover.append([i])
    return Partition.of(list(sums.values()) + leftover, size)


def _heuristic_blocks(
    g: GroupDatum, p: int, seed: Partition, on, off
) -> Partition:
    """Steps 2-3 of the heuristic: meet with the group p-blocks, then with
    a+A partitions over admissible specializations until stable."""
    avail = _available_schur(g)
    current = seed
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
    size = len(g.characters)
    if g.group_order % p:
        return Partition.singletons(size)
    avail = _available_schur(g)
    heavy = [i for i, s in avail.items() if abs(s.xi.norm()) % p == 0]
    seed = Partition.of(
        ([heavy] if heavy else [])
        + [[i] for i in range(1, size + 1) if i not in heavy],
        size,
    )
    off = _p_essential_normals(g, p)
    return _heuristic_blocks(g, p, seed, on=[], off=off)


def blocks_one_hyperplane(g: GroupDatum, p: int, h: Hyperplane) -> Partition:
    """Candidate blocks on a single essential hyperplane, joined with the
    no-hyperplane blocks."""
    size = len(g.characters)
    if g.group_order % p:
        return Partition.singletons(size)
    avail = _available_schur(g)
    normal = sign_canonical(h.normal)
    core = [
        i for i, s in avail.items() if normal in essential_monomials(s, p)
    ]
    seed = Partition.of(
        ([core] if core else [])
        + [[i] for i in range(1, size + 1) if i not in core],
        size,
    )
    off = _p_essential_normals(g, p) - {normal}
    lam3 = _heuristic_blocks(g, p, seed, on=[normal], off=off)
    return join([lam3, blocks_no_hyperplane(g, p)])


def rouquier_from_schur(g: GroupDatum, spec: Specialization) -> Partition:
    """Blocks of the cyclotomic specialization along the Schur path: join
    over the bad primes of the per-hyperplane candidate blocks."""
    size = len(g.characters)
    primes = sorted(bad_primes(g, spec.n))
    parts = [Partition.singletons(size)]
    for p in primes:
        parts.append(blocks_no_hyperplane(g, p))
        for normal in sorted(_p_essential_normals(g, p)):
            if sum(a * b for a, b in zip(normal, spec.n)) == 0:
                parts.append(blocks_one_hyperplane(g, p, Hyperplane(normal)))
    return join(parts)
