"""Rouquier blocks read off hyperplane tables, stored or derived.

A query joins the block partitions of the tables whose hyperplanes a
specialization lies on; off every one it is the baseline (no essential
hyperplane), which every table coarsens, so that join equals the join with
the baseline.  StoredTables is the tables' query index: one packed integer
product gives a query's hit mask, which keys the Flat of the hit tables,
their hyperplanes and their join, built once per datum.  The tables are the
file's, which store.load checks, or those derive_tables builds at load from
a full Schur payload: the seed characters, chosen by coefficient
divisibility or p-essentiality, that share a group p-block and an exact
a + A key form groups, which generate each table's partition.  The key is
the a + A weight off every hyperplane and, on one, the weight reduced along
its normal, which SchurFacts.of stores at load.
rouquier_blocks reads either.  Partition, meet and join live in groupblocks
and are re-exported here.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import mul

from .cyclo import check_prime
from .groupblocks import Partition, join, meet, p_blocks
from .lattice import IntVector, dot
from .schur import BadExponents, GroupDatum, canonical_normal, essential_normals

__all__ = ["Hyperplane", "HyperplaneTable", "Specialization", "Flat",
           "StoredTables", "meet", "join", "hyperplanes_containing",
           "rouquier_blocks", "rouquier_from_tables", "derive_tables",
           "blocks_no_hyperplane", "blocks_one_hyperplane"]

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


class Flat(tuple):
    """The tables a vector hits, in stored order and never the baseline,
    equal to their plain tuple: one per flat of the stored arrangement (a set
    of hyperplanes that some vector lies on, and no other).  hyperplanes and
    blocks hold their hyperplanes and join, the baseline's for no table."""

    def __new__(cls, hit, blocks):
        self = super().__new__(cls, hit)
        self.hyperplanes, self.blocks = tuple(t.hyperplane for t in hit), blocks
        return self


class StoredTables(tuple):
    """A datum's hyperplane tables, equal to their plain tuple, with a query
    index store.load builds once per datum.  essential holds the K tables
    other than the baseline, in stored order; packed their normals doubled,
    column-wise: P_j = sum_k 2 h_k[j] 2^(64k).  ones = sum_k 2^(64k),
    offset = ones << 63 and limit = (2^62 - 1) // L, L = max_k |h_k|_1.
    For all |n_j| <= limit, |<h_k, n>| < 2^62, so field k (64 bits) of
    D = (offset + sum_j n_j P_j) ^ offset is 2<h_k, n> mod 2^64, with no
    carry between fields: even, and 0 exactly on h_k.  The hit mask
    (D - ones) & ~D & offset sets bit 64k + 63 exactly there: f - 1 has the
    top bit f lacks only for f = 0, and the borrow out of a zero field turns
    an even f > 0 into f - 2 >= 0.  flats maps each hit mask to its Flat (0
    to the baseline's), so it holds at most one entry per flat: 8, 61 and
    305 for the shipped G4, G6 and G7.  It caches derived values only."""

    def __new__(cls, tables):
        self = super().__new__(cls, tables)
        self.essential = tuple(t for t in self if t.hyperplane is not None)
        shifts = range(0, 64 * len(self.essential), 64)
        self.ones = sum(1 << s for s in shifts)
        self.offset = self.ones << 63
        self.packed = [sum(2 * c << s for c, s in zip(column, shifts)) for
                       column in zip(*(t.normal for t in self.essential))]
        self.limit = (2**62 - 1) // max((sum(map(abs, t.normal))
                                         for t in self.essential), default=1)
        self.flats = {0: Flat((), t.blocks) for t in self if t.hyperplane is None}
        return self


def hyperplanes_containing(tables: StoredTables, spec: Specialization) -> Flat:
    """The Flat of the specialization's hit mask in the StoredTables
    store.load built, shared by every vector on that flat.  A vector past
    the limit builds the mask from one exact dot per table.  Raises
    BadExponents when a table has a normal and n is not as long."""
    n, packed, limit = spec.n, tables.packed, tables.limit
    if packed and len(n) != len(packed):
        raise BadExponents(f"needs {len(packed)} exponents, got {len(n)}")
    if n and not (-limit <= min(n) and max(n) <= limit):  # n is () without slots
        mask = sum(1 << 64 * k + 63 for k, t in enumerate(tables.essential)
                   if dot(t.normal, n) == 0)
    else:
        d = sum(map(mul, n, packed), tables.offset) ^ tables.offset
        mask = (d - tables.ones) & ~d & tables.offset
    if (flat := tables.flats.get(mask)) is None:
        hit = [t for k, t in enumerate(tables.essential)
               if mask >> 64 * k + 63 & 1]
        flat = tables.flats[mask] = Flat(hit, join([t.blocks for t in hit]))
    return flat


def rouquier_blocks(
    g: GroupDatum, spec: Specialization, path: str = "tables"
) -> tuple[list[Hyperplane], Partition]:
    """The essential hyperplanes the specialization lies on, and its
    Rouquier blocks: the hyperplanes and the join of the Flat that
    hyperplanes_containing finds in the path's tables, the stored ones
    ("tables") or those load derived from a full Schur payload ("schur").
    Raises ValueError when the path's tables are not there or spec has not
    one exponent per slot (BadExponents)."""
    g.check_exponents(spec.n)
    if path == "tables":
        tables = g.stored_tables()
    elif path == "schur":
        tables = g.schur_tables
        if tables is None:
            raise ValueError(f"full Schur payload not stored for {g.name}")
    else:
        raise ValueError(f"unknown path {path!r}")
    flat = hyperplanes_containing(tables, spec)
    return list(flat.hyperplanes), flat.blocks


def rouquier_from_tables(g: GroupDatum, spec: Specialization) -> Partition:
    """Join of the baseline blocks with the blocks of every essential
    hyperplane the specialization lies on."""
    return rouquier_blocks(g, spec)[1]


# ---------------------------------------------------------------------------
# the heuristic: block tables from Schur data
# ---------------------------------------------------------------------------


def _seed_groups(g: GroupDatum, p: int,
                 keys: dict[int, IntVector]) -> list[list[int]]:
    """Steps 2-3 of the heuristic: the groups of two or more seed
    characters (keys maps each to its a + A key) that share their p-block
    number (0 with no character table) and key, which decides their p-block
    and a + A at every admissible specialization.  Off every essential
    hyperplane the key is the weight w itself; on one it is w reduced along
    the normal, which SchurFacts.of computed at load."""
    if len(keys) < 2:
        return []
    block = dict.fromkeys(keys, 0)
    if g.character_table is not None:
        for b, part in enumerate(p_blocks(g.character_table, p).parts):
            block.update((i, b) for i in part if i in block)
    groups: dict = {}
    for i, key in keys.items():
        groups.setdefault((block[i], key), []).append(i)
    return [group for group in groups.values() if len(group) > 1]


def _heuristic_groups(g: GroupDatum, p: int,
                      normal: IntVector | None = None) -> list[list[int]]:
    """The seed groups off every essential hyperplane (seed: N(xi) divisible
    by p, key: its weight) or on a primitive sign-canonical normal's (seed:
    it is p-essential, key: the fact's stored key at (p, normal)).  The seed
    walks the stored facts, not every character, and reads each index off
    Characters.positions.  Two calls' groups generate the join of their two
    partitions."""
    if g.group_order % p:
        return []
    positions, facts = g.characters.positions, (g.schur_facts or {}).items()
    if normal:
        pair = (p, normal)
        return _seed_groups(g, p, {positions[c]: f.essential[pair]
                                   for c, f in facts if pair in f.essential})
    return _seed_groups(g, p, {positions[c]: f.weight
                               for c, f in facts if f.norm % p == 0})


def derive_tables(g: GroupDatum) -> StoredTables:
    """The tables of a full Schur payload, which store.load builds once.
    The baseline is generated by the seed groups off every hyperplane at
    each prime of |G|; the table of each essential normal, in sorted order,
    by those and its seed groups at each prime p it is p-essential for,
    which are its primes.  So a query's join of the hit tables is generated
    by the groups at every prime: a prime that divides no N(xi) and is
    essential on no hit normal seeds none."""
    size = len(g.characters)
    essential = {p: essential_normals(g, [p]) for p in g.primes}
    groups = [group for p in g.primes for group in _heuristic_groups(g, p)]
    tables = [HyperplaneTable(None, Partition.generated_by(groups, size))]
    for normal in sorted(set().union(*essential.values())):
        primes = [p for p in g.primes if normal in essential[p]]
        on = [group for p in primes for group in _heuristic_groups(g, p, normal)]
        blocks = Partition.generated_by(groups + on, size)
        tables.append(HyperplaneTable(Hyperplane(normal), blocks, frozenset(primes)))
    return StoredTables(tables)


def blocks_no_hyperplane(g: GroupDatum, p: int) -> Partition:
    """Candidate blocks away from every essential hyperplane, for a prime p
    (ValueError otherwise): the seed groups of the characters whose xi has
    norm divisible by p, every other character a singleton (all of them
    when p does not divide |G|).  So the result is no guaranteed coarsening
    of the true blocks: on G7, whose payload covers 3 of 42 characters, it
    is 42 singletons, finer than the stored 29-part baseline; only the
    stored tables are authoritative.  The norms, weights and keys on the
    essential normals are g.schur_facts, which store.load computes once
    per datum."""
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
