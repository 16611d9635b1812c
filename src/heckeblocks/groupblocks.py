"""Set partitions of the characters, and p-blocks of the underlying finite
group from its character table.

Partition and its lattice (meet, join and the union-find behind join) live
here; engine and clifford import them.  Two characters lie in the same
p-block when their central characters agree modulo a prime ideal above p;
it suffices to test one deterministic prime ideal and close the resulting
partition under the Galois action on the table rows.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .cyclo import CycInt, in_prime_ideal, prime_handle

__all__ = ["CharacterTable", "Partition", "meet", "join", "central_character",
           "p_blocks", "galois_close"]


class Partition(NamedTuple):
    """A set partition of the 1-based character index set, in canonical
    form: each part sorted, parts ordered by least element."""

    parts: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(parts, size: int) -> "Partition":
        canon = tuple(sorted((tuple(sorted(set(p))) for p in parts if p),
                             key=lambda part: part[0]))
        seen: list[int] = []
        for part in canon:
            seen.extend(part)
        if sorted(seen) != list(range(1, size + 1)):
            raise ValueError(f"parts do not partition 1..{size}: {parts}")
        return Partition(canon)

    @staticmethod
    def singletons(size: int) -> "Partition":
        return Partition(tuple((i,) for i in range(1, size + 1)))

    @staticmethod
    def generated_by(groups, size: int) -> "Partition":
        """The finest partition of 1..size in which each given group of
        indices lies in one part, by union-find.  Links point to smaller
        indices, so one pass over 1..size in increasing order reads each
        root off the parent's, already found."""
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
        parts: dict[int, list[int]] = {}
        for i in range(1, size + 1):
            root = parent[i] = parent[parent[i]]
            parts.setdefault(root, []).append(i)
        # Indices come in increasing order, so the parts are canonical.  A
        # list, not a generator, feeds the outer tuple: growing a tuple from
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

    def permuted(self, perm: dict[int, int]) -> "Partition":
        return Partition.of(
            [[perm[i] for i in part] for part in self.parts], self.size
        )


def meet(p1: Partition, p2: Partition) -> Partition:
    """Common refinement: indices grouped by their pair of part numbers.

    One pass over 1..size in increasing order: each part is built sorted
    and the parts come out ordered by least element, so the result is
    canonical as it stands (as in Partition.generated_by)."""
    size = p1.size
    if p2.size != size:
        raise ValueError("partitions are over different index sets")
    key = [0] * (size + 1)  # part numbers k1, k2 as k1 + k2 * len(p1.parts)
    for scale, p in ((1, p1), (len(p1.parts), p2)):
        for k, part in enumerate(p.parts):
            for i in part:
                key[i] += k * scale
    groups: dict[int, list[int]] = {}
    for i in range(1, size + 1):
        groups.setdefault(key[i], []).append(i)
    return Partition(tuple([tuple(part) for part in groups.values()]))


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


class CharacterTable(NamedTuple):
    """Ordinary character table; rows follow GroupDatum.characters."""

    conductor: int
    class_sizes: tuple[int, ...]
    values: tuple[tuple[CycInt, ...], ...]
    class_order_labels: tuple[str, ...] | None = None

    @property
    def group_order(self) -> int:
        return sum(self.class_sizes)

    @property
    def n_chars(self) -> int:
        return len(self.values)

    def degree(self, chi: int) -> int:
        return self.values[chi][0].as_int()


def central_character(t: CharacterTable, chi_index: int, class_index: int) -> CycInt:
    """omega_chi(class sum) = |C| * chi(g) / chi(1), an algebraic integer."""
    val = t.values[chi_index][class_index] * t.class_sizes[class_index]
    deg = t.degree(chi_index)
    try:
        return val.exact_div_int(deg)
    except ValueError as exc:
        raise ValueError(
            f"corrupt table: central character not integral at row "
            f"{chi_index}, class {class_index}"
        ) from exc


def _row_permutations(t: CharacterTable) -> list[dict[int, int]]:
    """1-based row permutations induced by Gal(Q(zeta_N)/Q)."""
    n = t.conductor
    rows = {tuple(v.lift(n).coeffs for v in row): i
            for i, row in enumerate(t.values)}
    perms = []
    for sigma in range(1, n + 1):
        if gcd(sigma, n) != 1:
            continue
        perm = {}
        for i, row in enumerate(t.values):
            key = tuple(_conj(v, sigma, n).coeffs for v in row)
            if key not in rows:
                raise ValueError("corrupt table: Galois image row not found")
            perm[i + 1] = rows[key] + 1
        perms.append(perm)
    return perms


def _conj(v: CycInt, sigma: int, n: int) -> CycInt:
    return v.lift(n).galois_conjugate(sigma)


def galois_close(t: CharacterTable, pi: Partition) -> Partition:
    """Finest coarsening of pi stable under the Galois row permutations.

    The permutations are those of every sigma in (Z/N)^x, the whole group,
    identity included.  So the join J of the images of pi coarsens pi; J
    is stable, since sigma only permutes the images; and every stable
    coarsening C of pi coarsens each image sigma pi (C = sigma C), hence
    J."""
    return join([pi.permuted(perm) for perm in _row_permutations(t)])


def p_blocks(t: CharacterTable, p: int) -> Partition:
    """Blocks of the p-modular group algebra via central-character
    congruences at one prime ideal above p, then Galois closure."""
    if t.group_order % p:
        return Partition.singletons(t.n_chars)
    handle = prime_handle(p, t.conductor)
    groups: list[tuple[list[CycInt], list[int]]] = []
    for chi in range(t.n_chars):
        omegas = [central_character(t, chi, c) for c in range(len(t.class_sizes))]
        for ref, members in groups:
            if all(in_prime_ideal(a - b, handle) for a, b in zip(omegas, ref)):
                members.append(chi + 1)
                break
        else:
            groups.append((omegas, [chi + 1]))
    rough = Partition.of([members for _, members in groups], t.n_chars)
    return galois_close(t, rough)
