"""The two Rouquier-block computation paths.

The table path joins stored per-hyperplane block partitions for the
hyperplanes a specialization lies on.  The Schur path re-derives those
partitions from factorized Schur elements: a seed set of characters, chosen
by coefficient divisibility, split by the group-theoretic p-blocks and by
a + A, compared exactly through its weight vector.  rouquier_blocks answers
a query along either path.  Partition, meet and join live in groupblocks
and are re-exported here.
"""

from __future__ import annotations

from typing import NamedTuple

from .groupblocks import Partition, join, meet, p_blocks
from .lattice import IntVector, dot, primitive_part
from .schur import (
    GroupDatum,
    aa_weight,
    bad_primes,
    essential_monomials,
    essential_normals,
    sign_canonical,
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

class Hyperplane(NamedTuple):
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


class HyperplaneTable(NamedTuple):
    """Stored Rouquier blocks for one essential hyperplane (hyperplane=None
    is the no-essential-hyperplane baseline), with the primes for which the
    hyperplane is essential."""

    hyperplane: Hyperplane | None
    blocks: Partition
    primes: frozenset[int] = frozenset()

    @property
    def normal(self) -> IntVector | None:
        return None if self.hyperplane is None else self.hyperplane.normal


class Specialization(NamedTuple):
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
                parts.append(_hyperplane_blocks(g, p, normal))
    return [Hyperplane(v) for v in sorted(hit)], join(parts)


def rouquier_from_tables(g: GroupDatum, spec: Specialization) -> Partition:
    """Join of the baseline blocks with the blocks of every essential
    hyperplane the specialization lies on."""
    return rouquier_blocks(g, spec)[1]


# ---------------------------------------------------------------------------
# heuristic path from Schur data
# ---------------------------------------------------------------------------


def _heuristic_blocks(g: GroupDatum, p: int, seed: list[int],
                      normal: IntVector | None = None) -> Partition:
    """Steps 2-3 of the heuristic: the seed part (characters with stored
    Schur data; every other character a singleton) split by the group
    p-blocks and by a + A at every admissible specialization: off every
    essential hyperplane, or on the one with normal h only.

    mu * (a + A) at n is <w, n>, w = aa_weight.  The admissible vectors
    are the integer points of Q^m, or of h's hyperplane, off finitely many
    other hyperplanes, so they span it: two characters agree at all of
    them exactly when w_i - w_j = 0, or lies in Q * h.  So a character's
    key is its p-block number (0 with no character table) and w, on h's
    hyperplane reduced to h[k] * w - w[k] * h (k the first index with
    h[k] != 0), which is linear in w with kernel Q * h."""
    size = len(g.characters)
    if len(seed) < 2:
        return Partition.singletons(size)
    block = dict.fromkeys(seed, 0)
    if g.character_table is not None:
        for b, part in enumerate(p_blocks(g.character_table, p).parts):
            block.update((i, b) for i in part if i in block)
    stored = g.stored_schur()
    parts: dict[tuple[int, IntVector], list[int]] = {}
    for i in seed:
        w = aa_weight(stored[i])
        if normal is not None:
            hk, wk = next((c, x) for c, x in zip(normal, w) if c)
            w = tuple(hk * x - wk * c for x, c in zip(w, normal))
        parts.setdefault((block[i], w), []).append(i)
    return Partition.generated_by(parts.values(), size)


def blocks_no_hyperplane(g: GroupDatum, p: int) -> Partition:
    """Candidate blocks away from every essential hyperplane.

    The seed part holds the characters with stored Schur data whose
    coefficient xi has norm divisible by p; the group p-blocks and a + A
    can only split it, and every other character stays a singleton.  The
    result is therefore no guaranteed coarsening of the true blocks: on
    G7, whose payload covers 3 of 42 characters, it is 42 singletons,
    finer than the stored 29-part baseline.  Only the stored tables are
    authoritative."""
    if g.group_order % p:
        return Partition.singletons(len(g.characters))
    stored = g.stored_schur().items()
    heavy = [i for i, s in stored if abs(s.xi.norm()) % p == 0]
    return _heuristic_blocks(g, p, heavy)


def blocks_one_hyperplane(g: GroupDatum, p: int, h: Hyperplane) -> Partition:
    """Candidate blocks on a single essential hyperplane, joined with the
    no-hyperplane blocks."""
    on_h = _hyperplane_blocks(g, p, sign_canonical(h.normal))
    return join([on_h, blocks_no_hyperplane(g, p)])


def _hyperplane_blocks(g: GroupDatum, p: int, normal: IntVector) -> Partition:
    """blocks_one_hyperplane before the join with the no-hyperplane blocks,
    for a sign-canonical normal."""
    if g.group_order % p:
        return Partition.singletons(len(g.characters))
    core = [i for i, s in g.stored_schur().items()
            if normal in essential_monomials(s, p)]
    return _heuristic_blocks(g, p, core, normal)
