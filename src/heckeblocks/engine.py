"""The two Rouquier-block computation paths.

The table path joins stored per-hyperplane block partitions for the
hyperplanes a specialization lies on; off every one it is the stored
baseline (no essential hyperplane).  store.load checks that every table
coarsens the baseline, so that join equals the join with the baseline,
and wraps the tables in StoredTables, their query index: one packed
integer product finds every hit hyperplane, and each hit set is joined
once per datum.
The Schur path re-derives those partitions from factorized Schur elements:
the seed characters, chosen by coefficient divisibility or p-essentiality,
that share a group p-block and an exact a + A weight class form groups,
which generate the partition.
rouquier_blocks answers a query along either path.  Partition, meet and
join live in groupblocks and are re-exported here.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import compress
from operator import mul, not_

from .cyclo import check_prime
from .groupblocks import Partition, join, meet, p_blocks
from .lattice import IntVector, dot
from .schur import GroupDatum, bad_primes, canonical_normal, essential_normals

__all__ = [
    "Hyperplane",
    "HyperplaneTable",
    "Specialization",
    "StoredTables",
    "meet",
    "join",
    "hyperplanes_containing",
    "rouquier_blocks",
    "rouquier_from_tables",
    "blocks_no_hyperplane",
    "blocks_one_hyperplane",
]

class Hyperplane(namedtuple("Hyperplane", "normal")):
    """An essential hyperplane, named by its primitive sign-canonical
    normal vector.  normal: IntVector."""

    __slots__ = ()

    @staticmethod
    def of(vector: IntVector) -> "Hyperplane":
        return Hyperplane(canonical_normal(vector))

    def render(self, slot_names: tuple[str, ...]) -> str:
        """The equation, e.g. c_0-2c_1+c_2=0; a list of slot_names renders
        the same.  Formatted once per (normal, slot names) pair, then read
        from a memo of one entry per pair ever rendered, each from data."""
        return _render_normal(self.normal, tuple(slot_names))


@lru_cache(maxsize=None)
def _render_normal(normal: IntVector, slot_names: tuple[str, ...]) -> str:
    out = []
    for name, c in zip(slot_names, normal):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if out else "")
        mag = abs(c)
        out.append(f"{sign}{'' if mag == 1 else mag}{name[0]}_{name[1:]}")
    return "".join(out) + "=0"


class HyperplaneTable(namedtuple("HyperplaneTable", "hyperplane blocks primes",
                                 defaults=(frozenset(),))):
    """Stored Rouquier blocks for one essential hyperplane (hyperplane=None
    is the no-essential-hyperplane baseline), with the primes for which the
    hyperplane is essential.  hyperplane: Hyperplane | None; blocks:
    Partition; primes: frozenset[int]."""

    __slots__ = ()

    @property
    def normal(self) -> IntVector | None:
        return None if self.hyperplane is None else self.hyperplane.normal


class Specialization(namedtuple("Specialization", "n")):
    """n: IntVector."""

    __slots__ = ()


class StoredTables(tuple):
    """A datum's hyperplane tables, equal to their plain tuple, with a query
    index built once: store.load builds one per datum, which queries read.

    essential holds the K tables other than the baseline, in stored order.
    packed holds their normals h_k column-wise, one int per slot j:
    P_j = sum_k h_k[j] * 2^(64k); offset is sum_k 2^63 * 2^(64k) and limit
    is (2^63 - 1) // L, L = max_k |h_k|_1.  For n with all |n_j| <= limit,
    so L * max|n_j| < 2^63, each 64-bit field of D = offset + sum_j n_j * P_j
    is exactly 2^63 + <h_k, n>, with no carry between fields, so table k is hit
    exactly when its field of D XOR offset reads 0: little-endian bytes 8k to
    8k+7 on every machine, all 0 in either byte order.  joins maps each hit
    set, the tuple of hit hyperplanes, to the join of its blocks, and () to the
    baseline: the Rouquier blocks depend on the hit set alone.  It holds at
    most one entry per flat of the stored arrangement (a set of hyperplanes
    that some vector lies on, and no other): 8, 61 and 305 for the shipped G4,
    G6 and G7.  It caches derived joins only, so the value never changes."""

    def __new__(cls, tables):
        self = super().__new__(cls, tables)
        self.essential = tuple(t for t in self if t.hyperplane is not None)
        shifts = range(0, 64 * len(self.essential), 64)
        self.offset = sum(1 << (s + 63) for s in shifts)
        self.packed = [sum(c << s for c, s in zip(column, shifts)) for column
                       in zip(*(t.normal for t in self.essential))]
        self.limit = (2**63 - 1) // max((sum(map(abs, t.normal))
                                         for t in self.essential), default=1)
        self.joins = {(): t.blocks for t in self if t.hyperplane is None}
        return self


def hyperplanes_containing(
    tables: StoredTables, spec: Specialization
) -> list[HyperplaneTable]:
    """The tables of the StoredTables store.load built whose hyperplane the
    specialization lies on, in stored order; never the baseline.  load
    checks that each table coarsens the baseline, so rouquier_blocks joins
    the blocks of these alone.  One packed product tests every table; a
    vector past its 64-bit limit takes one exact dot per table."""
    n, limit, essential = spec.n, tables.limit, tables.essential
    if n and not (-limit <= min(n) and max(n) <= limit):  # n is () without slots
        return [t for t in essential if dot(t.normal, n) == 0]
    d = sum(map(mul, n, tables.packed), tables.offset) ^ tables.offset
    fields = memoryview(d.to_bytes(8 * len(essential), "little")).cast("Q")
    return list(compress(essential, map(not_, fields)))


def rouquier_blocks(
    g: GroupDatum, spec: Specialization, path: str = "tables"
) -> tuple[list[Hyperplane], Partition]:
    """The essential hyperplanes the specialization lies on, and its
    Rouquier blocks, each computed once.

    path "tables": the hyperplanes of the stored tables, and the join of
    the baseline blocks with their blocks.  store.load checks that every
    table coarsens the baseline, so that join is the baseline when no table
    is hit, else the join of the hit tables alone (a lone hit table's own
    Partition), computed once per hit set in StoredTables.joins.  path
    "schur": the p-essential hyperplanes over the bad primes p of the
    specialization, and the join over those primes of the heuristic blocks
    off every hyperplane and on each hit one.  Raises
    ValueError when the path's data is not stored or spec has not one
    exponent per slot (BadExponents)."""
    g.check_exponents(spec.n)
    if path == "tables":
        tables = g.stored_tables()
        hit = hyperplanes_containing(tables, spec)
        key = tuple(t.hyperplane for t in hit)
        if (blocks := tables.joins.get(key)) is None:
            blocks = tables.joins[key] = join([t.blocks for t in hit])
        return list(key), blocks
    if path != "schur":
        raise ValueError(f"unknown path {path!r}")
    hit: set[IntVector] = set()
    groups: list = []
    for p in sorted(bad_primes(g, spec.n)):
        groups += _heuristic_groups(g, p)
        for normal in sorted(essential_normals(g, [p])):
            if dot(normal, spec.n) == 0:
                hit.add(normal)
                groups += _heuristic_groups(g, p, normal)
    return ([Hyperplane(v) for v in sorted(hit)],
            Partition.generated_by(groups, len(g.characters)))


def rouquier_from_tables(g: GroupDatum, spec: Specialization) -> Partition:
    """Join of the baseline blocks with the blocks of every essential
    hyperplane the specialization lies on."""
    return rouquier_blocks(g, spec)[1]


# ---------------------------------------------------------------------------
# heuristic path from Schur data
# ---------------------------------------------------------------------------


def _seed_groups(g: GroupDatum, p: int, seed: dict[int, IntVector],
                 normal: IntVector | None = None) -> list[list[int]]:
    """Steps 2-3 of the heuristic: the groups of two or more seed
    characters (seed maps each to its weight) that share a key, which
    decides their p-block and a + A at every admissible specialization:
    off every essential hyperplane, or on the one with normal h only.

    mu * (a + A) at n is <w, n>, w = aa_weight.  The admissible vectors
    are the integer points of Q^m, or of h's hyperplane, off finitely many
    other hyperplanes, so they span it: two characters agree at all of
    them exactly when w_i - w_j = 0, or lies in Q * h.  So a character's
    key is its p-block number (0 with no character table) and w, on h's
    hyperplane reduced to h[k] * w - w[k] * h (k the first index with
    h[k] != 0), which is linear in w with kernel Q * h."""
    if len(seed) < 2:
        return []
    block = dict.fromkeys(seed, 0)
    if g.character_table is not None:
        for b, part in enumerate(p_blocks(g.character_table, p).parts):
            block.update((i, b) for i in part if i in block)
    groups: dict = {}
    for i, w in seed.items():
        if normal is not None:
            hk, wk = next((c, x) for c, x in zip(normal, w) if c)
            w = tuple(hk * x - wk * c for x, c in zip(w, normal))
        groups.setdefault((block[i], w), []).append(i)
    return [group for group in groups.values() if len(group) > 1]


def _heuristic_groups(g: GroupDatum, p: int,
                      normal: IntVector | None = None) -> list[list[int]]:
    """The seed groups off every essential hyperplane (seed: N(xi) divisible
    by p) or on a primitive sign-canonical normal's (seed: it is p-essential).
    The seed walks the stored facts, not every character, and reads each
    index off Characters.positions.  Two calls' groups generate the join of
    their two partitions."""
    if g.group_order % p:
        return []
    positions = g.characters.positions
    return _seed_groups(g, p, {
        positions[c]: f.weight for c, f in (g.schur_facts or {}).items()
        if ((p, normal) in f.essential if normal else f.norm % p == 0)},
        normal)


def blocks_no_hyperplane(g: GroupDatum, p: int) -> Partition:
    """Candidate blocks away from every essential hyperplane, for a prime p
    (ValueError otherwise): the seed groups of the characters whose xi has
    norm divisible by p, every other character a singleton (all of them
    when p does not divide |G|).  So the result is no guaranteed coarsening
    of the true blocks: on G7, whose payload covers 3 of 42 characters, it
    is 42 singletons, finer than the stored 29-part baseline; only the
    stored tables are authoritative.  The norms, weights and essential
    monomials are g.schur_facts, which store.load computes once per datum."""
    check_prime(p)
    return Partition.generated_by(_heuristic_groups(g, p), len(g.characters))


def blocks_one_hyperplane(g: GroupDatum, p: int, h: Hyperplane) -> Partition:
    """Candidate blocks on a single essential hyperplane, joined with the
    no-hyperplane blocks: generated by the seed groups on h and off every
    hyperplane together.  h's normal counts up to a nonzero scalar; raises
    ValueError for a p not prime or a zero normal, BadExponents for a
    normal without one entry per slot."""
    check_prime(p)
    g.check_exponents(h.normal)
    normal = canonical_normal(h.normal)
    groups = _heuristic_groups(g, p, normal) + _heuristic_groups(g, p)
    return Partition.generated_by(groups, len(g.characters))
