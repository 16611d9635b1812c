"""Set partitions of the characters, and p-blocks of the underlying finite
group from its character table.

Partition and its lattice (meet, join and the union-find behind join) live
here; engine and clifford import them.  Partition.of validates outside
input; derived partitions come from Partition.by_key or generated_by.
Two characters lie in the same p-block when their central characters agree
modulo a prime ideal above p; it suffices to test one deterministic prime
ideal and close the partition under Galois.  CharacterTable.of computes the
central characters and the row permutations once; p_blocks reads them and
reduces each character's row of central characters in one residues call.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .cyclo import CycInt, _units, check_prime, prime_handle, residues

__all__ = ["CharacterTable", "Partition", "meet", "join", "central_character",
           "p_blocks", "galois_close"]


class Partition(namedtuple("Partition", "parts")):
    """A set partition of the 1-based character index set, in canonical
    form: each part sorted, parts ordered by least element.
    parts: tuple[tuple[int, ...], ...]."""

    __slots__ = ()

    @staticmethod
    def of(parts, size: int) -> "Partition":
        parts = [list(p) for p in parts]
        if sorted(i for p in parts for i in p) != list(range(1, size + 1)):
            raise ValueError(f"parts do not partition 1..{size}: {parts}")
        return Partition.generated_by(parts, size)

    @staticmethod
    @lru_cache(maxsize=None)
    def singletons(size: int) -> "Partition":
        """The partition of 1..size into one-element parts, built once per
        size and shared: every caller gets the same value, which is
        immutable, a tuple of tuples."""
        return Partition(tuple((i,) for i in range(1, size + 1)))

    @staticmethod
    def generated_by(groups, size: int) -> "Partition":
        """The finest partition of 1..size in which each given group of
        indices lies in one part, by union-find.  Links point to smaller
        indices, so one pass over 1..size in increasing order reads each
        root off the parent's, already found.  No groups give the
        shared singletons at once."""
        if not groups:
            return Partition.singletons(size)
        parent = list(range(size + 1))
        for group in filter(None, groups):
            root = group[0]
            while parent[root] != root:
                root = parent[root]
            for i in group[1:]:
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                if i < root:
                    parent[root] = root = i
                else:
                    parent[i] = root
        for i in range(1, size + 1):
            parent[i] = parent[parent[i]]
        return Partition.by_key(parent[1:])

    @staticmethod
    def by_key(keys) -> "Partition":
        """The partition of 1..len(keys) that puts index i in the part of
        keys[i - 1].  Indices come in increasing order, so each part is
        built sorted and the parts come out ordered by least element."""
        parts: dict[object, list[int]] = {}
        for i, key in enumerate(keys, 1):
            parts.setdefault(key, []).append(i)
        # A list, not a generator, feeds the outer tuple: growing a tuple from
        # an iterator fragmented memory (peak RSS +6% on warm queries).
        return Partition(tuple([tuple(part) for part in parts.values()]))

    @property
    def size(self) -> int:
        return sum(map(len, self.parts))

    def part_of(self, index: int) -> tuple[int, ...]:
        for part in self.parts:
            if index in part:
                return part
        raise KeyError(index)

    def as_lists(self) -> list[list[int]]:
        return [list(p) for p in self.parts]


def meet(p1: Partition, p2: Partition) -> Partition:
    """Common refinement: indices grouped by their pair of part numbers."""
    size = p1.size
    if p2.size != size:
        raise ValueError("partitions are over different index sets")
    key = [0] * size  # part numbers k1, k2 as k1 + k2 * len(p1.parts)
    for scale, p in ((1, p1), (len(p1.parts), p2)):
        for k, part in enumerate(p.parts):
            for i in part:
                key[i - 1] += k * scale
    return Partition.by_key(key)


def join(ps: list[Partition]) -> Partition:
    """Finest common coarsening; a lone partition is returned as it is.
    Singleton parts join nothing, so only longer parts reach generated_by."""
    if not ps:
        raise ValueError("join of no partitions")
    sizes = {p.size for p in ps}
    if len(sizes) > 1:
        raise ValueError("partitions are over different index sets")
    if len(ps) == 1:
        return ps[0]
    return Partition.generated_by(
        [part for p in ps for part in p.parts if len(part) > 1], sizes.pop()
    )


class CharacterTable(namedtuple(
        "CharacterTable", "conductor class_sizes values central_characters "
        "row_permutations class_order_labels", defaults=(None,))):
    """Ordinary character table; rows follow GroupDatum.characters.

    Built by of(), which checks the table and computes, once: the CycInt
    central_characters[chi][c] = central_character(table, chi, c), and
    row_permutations: for each sigma in (Z/N)^x, in ascending order, the
    1-based image of each row, so row i goes to row_permutations[k][i - 1].
    conductor: int; values, central_characters: tuple[tuple[CycInt, ...], ...];
    class_sizes and the rows of row_permutations: tuple[int, ...];
    class_order_labels: tuple[str, ...] | None."""

    __slots__ = ()

    @staticmethod
    def of(conductor: int, class_sizes, values,
           class_order_labels=None) -> "CharacterTable":
        """The table, checked as p_blocks relies on it at every prime: each
        central character is integral, and Galois conjugation permutes the
        rows.  Raises ValueError naming the corrupt row or class."""
        table = CharacterTable(conductor, class_sizes, values, (), (),
                               class_order_labels)
        central = tuple(tuple(central_character(table, chi, c)
                              for c in range(len(class_sizes)))
                        for chi in range(table.n_chars))
        return table._replace(central_characters=central,
                              row_permutations=_row_permutations(table))

    @property
    def group_order(self) -> int:
        return sum(self.class_sizes)

    @property
    def n_chars(self) -> int:
        return len(self.values)

    def degree(self, chi: int) -> int:
        return self.values[chi][0].as_int()


def central_character(t: CharacterTable, chi_index: int, class_index: int) -> CycInt:
    """omega_chi(class sum) = |C| * chi(g) / chi(1), an algebraic integer;
    CharacterTable.of computes each once, at construction, and stores it."""
    val = t.values[chi_index][class_index] * t.class_sizes[class_index]
    deg = t.degree(chi_index)
    try:
        return val.exact_div_int(deg)
    except ValueError as exc:
        raise ValueError(
            f"corrupt table: central character not integral at row "
            f"{chi_index}, class {class_index}"
        ) from exc


def _row_permutations(t: CharacterTable) -> tuple[tuple[int, ...], ...]:
    """The row permutations induced by Gal(Q(zeta_N)/Q), in the form of
    CharacterTable.row_permutations; raises ValueError unless they exist."""
    n = t.conductor
    lifted = [tuple(v.lift(n) for v in row) for row in t.values]
    rows = {tuple(v.coeffs for v in r): i + 1 for i, r in enumerate(lifted)}
    if len(rows) != t.n_chars:
        raise ValueError("corrupt table: two rows are equal")
    try:
        return tuple([tuple([rows[tuple(v.galois_conjugate(s).coeffs
                                        for v in row)] for row in lifted])
                      for s in _units(n)])
    except KeyError:
        raise ValueError("corrupt table: Galois image row not found") from None


def galois_close(t: CharacterTable, pi: Partition) -> Partition:
    """Finest coarsening of pi stable under the Galois row permutations,
    read from t.row_permutations, which CharacterTable.of computed.

    The permutations are those of every sigma in (Z/N)^x, the whole group,
    identity included.  So the join J of the images of pi coarsens pi and
    is stable, since sigma only permutes the images; and every stable
    coarsening C of pi coarsens each image sigma pi (C = sigma C), hence J."""
    return Partition.generated_by(
        [[perm[i - 1] for i in part] for perm in t.row_permutations
         for part in pi.parts if len(part) > 1], pi.size)


def p_blocks(t: CharacterTable, p: int) -> Partition:
    """Blocks of the p-modular group algebra: the characters grouped by the
    residues (equal exactly when congruent mod P) of the central characters
    that CharacterTable.of stored, at one prime ideal P above p, one
    residues call per character's row, then closed under Galois by
    galois_close, which reads the stored row permutations.
    ValueError when p is not prime; singletons when p does not divide |G|."""
    check_prime(p)
    if t.group_order % p:
        return Partition.singletons(t.n_chars)
    handle = prime_handle(p, t.conductor)
    return galois_close(t, Partition.by_key([
        residues(row, handle) for row in t.central_characters]))
