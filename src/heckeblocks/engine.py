"""The two Rouquier-block computation paths.

The table path joins stored per-hyperplane block partitions for the
hyperplanes a specialization lies on.  The Schur path re-derives those
partitions from factorized Schur elements: a seed set of characters, chosen
by coefficient divisibility, split by the group-theoretic p-blocks and by
a + A at deterministic test specializations.  rouquier_blocks answers a
query along either path.  Partition, meet and join live in groupblocks and
are re-exported here.
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

_SEARCH_BOXES = (1, 2, 4, 8, 16, 32, 64)
# Ambient box points one specialization search may pass, walked or
# skipped as part of a dropped prefix.  The shipped searches (G4, G6, G7 at
# p = 2, 3) pass at most 1553 before their last vector used; G7's full
# boxes would hold 129^8.
_SEARCH_BUDGET = 100_000
_AA_ROUNDS = 5


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
        normals = essential_normals(g, [p])
        parts.append(blocks_no_hyperplane(g, p))
        for normal in sorted(normals):
            if dot(normal, spec.n) == 0:
                hit.add(normal)
                parts.append(_hyperplane_blocks(g, p, normal, normals))
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
    every hyperplane of `off`.

    Order: for b in _SEARCH_BOXES, the points of [-b, b]^m that lie outside
    the previous box [-b/2, b/2]^m (box 1 keeps all of [-1, 1]^m), in
    lexicographic order; the admissible vectors come out exactly as a
    filter over that enumeration would yield them.  The points are walked
    depth first over the coordinates with the partial dot product of every
    normal, so a prefix is dropped once it decides a normal the wrong way
    (the normal's remaining coefficients are 0), and the last coordinate
    with a nonzero coefficient in on[0] is solved for, not enumerated.

    Raises RuntimeError once more than _SEARCH_BUDGET ambient points have
    been passed, a dropped prefix counting every point below it; so the
    error comes after the same vectors as under the filter."""
    m = g.slot_count
    normals, n_on = [*on, *off], len(on)
    columns = [[h[k] for h in normals] for k in range(m)]
    last = [max((k for k, c in enumerate(h) if c), default=-1)
            for h in normals]
    decided = [[] for _ in range(m + 1)]  # normals fixed once k are set
    for i, k in enumerate(last):
        decided[k + 1].append(i)
    solved = last[0] if n_on else -1
    vector = [0] * m
    examined = 0

    def spend(points):
        nonlocal examined
        examined += points
        if examined > _SEARCH_BUDGET:
            raise RuntimeError(
                f"specialization search for {g.name} exceeded "
                f"{_SEARCH_BUDGET} candidates"
            )

    def walk(k, sums, outer):
        """Points of the current box below the prefix vector[:k]; sums
        holds the prefix's dot product with every normal."""
        points = width ** (m - k)
        for i in decided[k]:
            if (sums[i] == 0) != (i < n_on):
                spend(points)
                return
        if k == m:
            spend(1)
            if outer:  # a point of the previous box was yielded there
                yield tuple(vector)
            return
        points //= width  # below each value of coordinate k
        xs = range(-box, box + 1)
        if k == solved:  # on[0] is 0 for exactly one value here
            x, r = divmod(-sums[0], columns[k][0])
            if r or abs(x) > box:
                spend(width * points)
                return
            spend((x + box) * points)
            xs = (x,)
        for x in xs:
            vector[k] = x
            yield from walk(k + 1, [s + c * x for s, c in
                                    zip(sums, columns[k])],
                            outer or abs(x) > inner)
        if k == solved:
            spend((box - x) * points)

    for box in _SEARCH_BOXES:  # walk reads box, width and inner
        width, inner = 2 * box + 1, box // 2
        yield from walk(0, [0] * len(normals), box == 1)


def _heuristic_blocks(g: GroupDatum, p: int, seed: list[int], on, off
                      ) -> Partition:
    """Steps 2-3 of the heuristic: the seed part (characters with stored
    Schur data; every other character a singleton) split by the group
    p-blocks, then by a + A at admissible specializations until stable,
    after at least _AA_ROUNDS of them; RuntimeError if the search ends.

    A seed character's key is its p-block number, if a character table is
    stored, then dot(aa_weight, n) = mu * (a + A) per vector n; equal keys
    make a part.  Keys only refine, so a vector leaves the partition stable
    exactly when the number of distinct keys stays the same."""
    stored = g.stored_schur()
    weights = {i: aa_weight(stored[i]) for i in seed}
    keys: dict[int, tuple[int, ...]] = dict.fromkeys(seed, ())
    if g.character_table is not None:
        blocks = p_blocks(g.character_table, p).parts
        keys = {i: (k,) for k, b in enumerate(blocks) for i in b if i in keys}
    count = len(set(keys.values()))
    for used, n in enumerate(_admissible_specs(g, on, off), start=1):
        for i, w in weights.items():
            keys[i] += (dot(w, n),)
        before, count = count, len(set(keys.values()))
        if used >= _AA_ROUNDS and count == before:
            parts: dict[tuple[int, ...], list[int]] = {}
            for i, key in keys.items():
                parts.setdefault(key, []).append(i)
            return Partition.generated_by(parts.values(), len(g.characters))
    raise RuntimeError(
        f"no admissible specialization for {g.name} at p={p} within the "
        f"search bound"
    )


def blocks_no_hyperplane(g: GroupDatum, p: int) -> Partition:
    """Candidate blocks away from every essential hyperplane.

    The seed part holds the characters with stored Schur data whose
    coefficient xi has norm divisible by p; the group p-blocks and a + A
    at the tried specializations can only split it, and every other
    character stays a singleton.  The result is therefore no guaranteed
    coarsening of the true blocks: on G7, whose payload covers 3 of 42
    characters, it is 42 singletons, finer than the stored 29-part
    baseline.  Only the stored tables are authoritative."""
    if g.group_order % p:
        return Partition.singletons(len(g.characters))
    heavy = [
        i for i, s in g.stored_schur().items() if abs(s.xi.norm()) % p == 0
    ]
    return _heuristic_blocks(g, p, heavy, on=[], off=essential_normals(g, [p]))


def blocks_one_hyperplane(g: GroupDatum, p: int, h: Hyperplane) -> Partition:
    """Candidate blocks on a single essential hyperplane, joined with the
    no-hyperplane blocks."""
    normal = sign_canonical(h.normal)
    on_h = _hyperplane_blocks(g, p, normal, essential_normals(g, [p]))
    return join([on_h, blocks_no_hyperplane(g, p)])


def _hyperplane_blocks(g: GroupDatum, p: int, normal: IntVector,
                       normals: set[IntVector]) -> Partition:
    """blocks_one_hyperplane before the join with the no-hyperplane blocks,
    for a sign-canonical normal among normals = essential_normals(g, [p])."""
    if g.group_order % p:
        return Partition.singletons(len(g.characters))
    core = [
        i for i, s in g.stored_schur().items()
        if normal in essential_monomials(s, p)
    ]
    return _heuristic_blocks(g, p, core, on=[normal], off=normals - {normal})
