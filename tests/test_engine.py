"""Partition lattice operations and both Rouquier-block computation paths."""

import itertools
import random
import struct
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeblocks import engine, schur
from heckeblocks.cyclo import CycInt
from heckeblocks.engine import (
    Hyperplane,
    Specialization,
    StoredTables,
    blocks_no_hyperplane,
    blocks_one_hyperplane,
    hyperplanes_containing,
    join,
    meet,
    rouquier_blocks,
    rouquier_from_tables,
)
from heckeblocks.groupblocks import Partition, p_blocks
from heckeblocks.lattice import dot
from heckeblocks.morphism import _kernel_basis
from heckeblocks.schur import (
    SchurFacts,
    a_and_A,
    aa_weight,
    essential_normals,
    specialize,
)
from heckeblocks.store import load_group

from checks import group_by_weight, on_hyperplane, patch_everywhere
from golden_jobs import load_golden, run_job


# ---------------------------------------------------------------------------
# partition lattice laws
# ---------------------------------------------------------------------------

SIZE = 6


@st.composite
def partitions(draw):
    labels = draw(st.lists(st.integers(0, 3), min_size=SIZE, max_size=SIZE))
    parts = {}
    for i, lab in enumerate(labels, start=1):
        parts.setdefault(lab, []).append(i)
    return Partition.of(list(parts.values()), SIZE)


def refines(p1, p2):
    return all(set(a) <= set(p2.part_of(a[0])) for a in p1.parts)


@given(partitions(), partitions())
@settings(max_examples=200, deadline=None)
def test_meet_refines_both_and_join_coarsens_both(p1, p2):
    m = meet(p1, p2)
    j = join([p1, p2])
    pairwise = [set(a) & set(b) for a in p1.parts for b in p2.parts]
    assert m == Partition.of(pairwise, SIZE)
    assert refines(m, p1) and refines(m, p2)
    assert refines(p1, j) and refines(p2, j)
    assert meet(p1, p1) == p1 == join([p1, p1])
    assert meet(p1, p2) == meet(p2, p1)
    assert join([p1, p2]) == join([p2, p1])


@given(partitions(), partitions(), partitions())
@settings(max_examples=100, deadline=None)
def test_meet_and_join_are_associative(p1, p2, p3):
    assert meet(meet(p1, p2), p3) == meet(p1, meet(p2, p3))
    assert join([join([p1, p2]), p3]) == join([p1, p2, p3])


def test_meet_join_degenerate():
    s = Partition.singletons(4)
    full = Partition.of([[1, 2, 3, 4]], 4)
    assert meet(s, full) == s
    assert join([s, full]) == full
    with pytest.raises(ValueError):
        join([])
    with pytest.raises(ValueError):
        meet(s, Partition.singletons(5))


# ---------------------------------------------------------------------------
# hyperplane rendering
# ---------------------------------------------------------------------------


def test_hyperplane_rendering():
    names = ["a0", "a1", "c0", "c1", "c2"]
    h = Hyperplane.of((1, -1, 2, -1, -1))
    assert h.render(names) == "a_0-a_1+2c_0-c_1-c_2=0"
    assert Hyperplane.of((0, 0, 0, 1, -1)).render(names) == "c_1-c_2=0"
    # sign canonicalization and primitivization
    assert Hyperplane.of((0, 0, 0, -2, 2)) == Hyperplane.of((0, 0, 0, 1, -1))
    with pytest.raises(ValueError):
        Hyperplane.of((0, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# table path on the stored data
# ---------------------------------------------------------------------------


def test_rouquier_from_tables_published_example(g4):
    """The hyperplanes hit; the blocks at (0, 1, 2) are criterion 3's."""
    hit = hyperplanes_containing(g4.hyperplane_tables, Specialization((0, 1, 2)))
    assert [t.normal for t in hit] == [(1, -2, 1)]  # not on (0, 1, -1)
    hit = hyperplanes_containing(g4.hyperplane_tables, Specialization((5, 2, 2)))
    assert [t.normal for t in hit] == [(0, 1, -1)]


def test_rouquier_from_tables_generic_point(g4):
    # off every essential hyperplane: the baseline (all singletons for G4)
    blocks = rouquier_from_tables(g4, Specialization((0, 1, 5)))
    assert blocks == Partition.singletons(7)


def test_rouquier_from_tables_respects_baseline(g7):
    # a generic point for G7 keeps the printed baseline pairs/triples
    blocks = rouquier_from_tables(g7, Specialization((0, 1, 0, 2, 7, 0, 11, 25)))
    assert [37, 39, 41] in blocks.as_lists()
    assert [28, 36] in blocks.as_lists()


def _table_path_oracle(g, n):
    """The table path as its definition states it: the hit tables by a
    plain scan, and the join of the baseline with their blocks."""
    tables = g.hyperplane_tables
    hit = [t for t in tables
           if t.normal is not None and sum(map(mul, t.normal, n)) == 0]
    baseline, = (t.blocks for t in tables if t.normal is None)
    return hit, join([baseline] + [t.blocks for t in hit])


@pytest.mark.parametrize("name", ["G4", "G6", "G7"])
def test_table_path_matches_the_join_with_the_baseline(name):
    """rouquier_blocks leaves the baseline out of the join, which store.load
    makes safe; on seeded vectors off every stored hyperplane, on exactly
    one and on two or more, it gives the hyperplanes and partition of the
    join with the baseline, and a lone hit table's own Partition.  k * n
    lies on the hyperplanes n lies on, so the multiples on both sides of
    the packed product's 64-bit bound L * max|n_j| < 2^63 are checked too.
    Within the bound, the packed product's one layout, its little-endian
    bytes, unpacks as <KQ to 2^63 + <h_k, n> field by field, and after the
    XOR with offset its fields read as <Q and as >Q are zero at exactly the
    hit tables."""
    g = load_group(name)
    rng = random.Random(f"table path {name}")
    normals = [t.normal for t in g.hyperplane_tables if t.normal is not None]
    vectors = [(0,) * g.slot_count]
    if name == "G4":
        vectors += [(0, 1, 2), (5, 2, 2)]
    for _ in range(150):
        n = [rng.randint(-9, 9) for _ in range(g.slot_count)]
        k = rng.randrange(3)
        if k:
            h1, h2 = rng.sample(normals, 2)
            n = on_hyperplane(h1, n)
            if k == 2:  # on h1 and on the part of h2 orthogonal to h1
                n = on_hyperplane(on_hyperplane(h1, h2), n)
        vectors.append(tuple(n))
    # <h, sign(h)> = |h|_1: at the bound's edge, h's field is at its extreme
    vectors += [tuple((c > 0) - (c < 0) for c in h) for h in normals]
    bound = max(sum(map(abs, h)) for h in normals)
    index, size = StoredTables(g.hyperplane_tables), 8 * len(normals)
    layout = f"{len(normals)}Q"
    seen = set()
    for n in vectors:
        edge = (2**63 - 1) // (bound * max(map(abs, n)) or 1)
        for k in (1, edge, -edge, edge + 1, 2**61 + 1, -(2**64 + 3), 2**200):
            kn = tuple(k * x for x in n)
            hit, expected = _table_path_oracle(g, kn)
            hyperplanes, blocks = rouquier_blocks(g, Specialization(kn))
            assert hyperplanes == [t.hyperplane for t in hit], kn
            assert blocks == expected, kn
            if len(hit) == 1:
                assert blocks is hit[0].blocks, kn
            if bound * max(map(abs, kn)) >= 2**63:
                continue
            fields = tuple(2**63 + sum(map(mul, h, kn)) for h in normals)
            d = index.offset + sum(map(mul, kn, index.packed))
            raw = d.to_bytes(size, "little")
            assert struct.unpack("<" + layout, raw) == fields, kn
            raw = (d ^ index.offset).to_bytes(size, "little")
            for order in "<>":
                zero = [not f for f in struct.unpack(order + layout, raw)]
                assert zero == [t in hit for t in index.essential], (order, kn)
        seen.add(min(len(hit), 2))
    assert seen == {0, 1, 2}


def test_join_memo_belongs_to_its_tables(g4, g6, g7):
    """The joins a datum memoizes never reach another datum: queries that
    alternate between the groups, twice over, give the answers of a freshly
    loaded datum, and a copy whose table is coarsened answers from its own
    tables after the original has filled its memo."""
    rng = random.Random("join memo")
    queries = []
    for g in (g4, g6, g7):
        normals = [t.normal for t in g.hyperplane_tables if t.normal is not None]
        h1, h2 = normals[:2]
        n = [rng.randint(-9, 9) for _ in range(g.slot_count)]
        queries += [(g, v) for v in [(0,) * g.slot_count, tuple(n),
                                     on_hyperplane(h1, n),
                                     on_hyperplane(on_hyperplane(h1, h2),
                                                   on_hyperplane(h1, n))]]
    expected = {(g.name, n): rouquier_blocks(load_group(g.name), Specialization(n))
                for g, n in queries}
    alternating = queries[0::4] + queries[1::4] + queries[2::4] + queries[3::4]
    for g, n in alternating * 2:
        assert rouquier_blocks(g, Specialization(n)) == expected[g.name, n], n
    i, table = next((i, t) for i, t in enumerate(g4.hyperplane_tables)
                    if t.normal == (1, -2, 1))
    spec = Specialization((0, 1, 2))  # on (1, -2, 1) alone
    assert rouquier_blocks(g4, spec)[1] is table.blocks
    coarse = Partition.of([list(range(1, 8))], 7)
    tables = list(g4.hyperplane_tables)
    tables[i] = table._replace(blocks=coarse)
    copy = g4._replace(hyperplane_tables=StoredTables(tables))
    for _ in range(2):
        assert rouquier_blocks(copy, spec)[1] is coarse
        assert rouquier_blocks(g4, spec)[1] is table.blocks



# Witness coefficients on a flat's kernel basis lie in [-WITNESS_RANGE,
# WITNESS_RANGE]; a flat gets WITNESS_ATTEMPTS seeded draws.
WITNESS_RANGE, WITNESS_ATTEMPTS = 9, 200


def _flats(g):
    """Every flat of g's stored arrangement (a set of stored hyperplanes
    that some vector lies on, and no other), as the frozenset of its normals'
    indices, mapped to one nonzero integer witness that lies on exactly
    those hyperplanes.  Rank closure: from the empty set, add one hyperplane
    at a time and close the set to every hyperplane that contains its
    kernel.  Raises AssertionError naming a flat that no draw witnesses."""
    normals = [t.normal for t in g.hyperplane_tables if t.normal is not None]

    def closure(indices):
        rows = [normals[i] for i in indices] or [(0,) * g.slot_count]
        kernel = _kernel_basis(rows)
        return frozenset(i for i, h in enumerate(normals)
                         if all(dot(h, k) == 0 for k in kernel)), kernel

    empty, kernel = closure(())
    kernels, todo = {empty: kernel}, [empty]
    while todo:
        flat = todo.pop()
        for i in set(range(len(normals))) - flat:
            bigger, kernel = closure(flat | {i})
            if bigger not in kernels:
                kernels[bigger] = kernel
                todo.append(bigger)
    rng = random.Random(f"flats {g.name}")
    witnesses = {}
    for flat, kernel in kernels.items():
        for _ in range(WITNESS_ATTEMPTS):
            c = [rng.randint(-WITNESS_RANGE, WITNESS_RANGE) for _ in kernel]
            w = tuple(sum(map(mul, c, column)) for column in zip(*kernel))
            if any(w) and {i for i, h in enumerate(normals)
                           if dot(h, w) == 0} == flat:
                witnesses[flat] = w
                break
        else:
            raise AssertionError(f"{g.name}: no witness for the flat of "
                                 f"{sorted(normals[i] for i in flat)}")
    return witnesses


@pytest.mark.parametrize("name, count", [("G4", 8), ("G6", 61), ("G7", 305)])
def test_every_flat_witness_takes_the_table_path(name, count):
    """The table path's answer depends on the hit set alone, so the flats
    of the stored arrangement enumerate every answer: on each flat's
    witness, and on the witness scaled past the packed product's 64-bit
    bound, rouquier_blocks gives the plain scan's hyperplanes and join.
    After every witness, a fresh datum's join memo holds one entry per flat,
    the StoredTables docstring's bound."""
    g = load_group(name)
    tables = g.hyperplane_tables
    bound = max(sum(map(abs, t.normal)) for t in tables if t.normal is not None)
    flats = _flats(g)
    assert len(flats) == count
    for w in flats.values():
        scaled = tuple(x << 63 for x in w)
        assert bound * max(map(abs, w)) < 2**63 <= bound * max(map(abs, scaled))
        for n in (w, scaled):
            hit, expected = _table_path_oracle(g, n)
            assert rouquier_blocks(g, Specialization(n)) == (
                [t.hyperplane for t in hit], expected), n
    assert len(tables.joins) == count


def test_a_datum_without_slots_hits_no_table(g4):
    """With no orbits, and so no slot, the baseline is the only table;
    the empty exponent vector hits nothing and gets the baseline."""
    baseline, = (t for t in g4.hyperplane_tables if t.hyperplane is None)
    g = g4._replace(orbits=schur.Orbits(()),
                    hyperplane_tables=StoredTables([baseline]))
    assert rouquier_blocks(g, Specialization(())) == ([], baseline.blocks)

# ---------------------------------------------------------------------------
# heuristic (Schur) path on the partial G7 payload
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", ["tables", "schur"])
@pytest.mark.parametrize("n", [(5, 5), (5, 5, 5, 5)])
def test_wrong_length_exponents_are_rejected(g4, g7_cut, path, n):
    # dot zips and truncates, so a short vector used to hit (1,-1,0) and a
    # long one every hyperplane; the Schur path is run on G7 cut to its
    # Schur characters, which has the full payload
    with pytest.raises(ValueError, match=f"^G4 needs 3 exponents, got {len(n)}$"):
        rouquier_blocks(g4, Specialization(n), path)
    with pytest.raises(ValueError, match=f"^G7 needs 8 exponents, got {len(n)}$"):
        rouquier_blocks(g7_cut, Specialization(n), path)


def test_no_hyperplane_blocks_keep_trivial_character_alone(g7):
    for p in (2, 3):
        blocks = blocks_no_hyperplane(g7, p)
        assert blocks.part_of(1) == (1,)
    # p not dividing the group order
    assert blocks_no_hyperplane(g7, 5) == Partition.singletons(42)


def test_one_hyperplane_blocks_on_difference_hyperplane(g7):
    h = Hyperplane.of((0, 0, 0, 0, 0, 1, -1, 0))
    blocks = blocks_one_hyperplane(g7, 3, h)
    # the three stored characters have pairwise different a+A on c0=c1,
    # except where the stored table joins them; the trivial character must
    # not merge with the degree-3 representative
    assert blocks.part_of(1) != blocks.part_of(39)


H_G7 = (1, -1, 2, -1, -1, 2, -1, -1)


def test_one_hyperplane_blocks_read_the_normal_up_to_scale(g7):
    """A hyperplane is the same whatever nonzero multiple names it: 2 * H
    once gave 42 singletons where H gives the part (1, 28, 39), since the
    seed was looked up by the normal as given.  A zero normal names no
    hyperplane, and a short one is not a vector of G7's 8 slots."""
    for normal in (H_G7, tuple(2 * c for c in H_G7), tuple(-c for c in H_G7)):
        blocks = blocks_one_hyperplane(g7, 2, Hyperplane(normal))
        assert blocks.part_of(1) == (1, 28, 39), normal
        assert blocks == blocks_one_hyperplane(g7, 2, Hyperplane(H_G7))
    with pytest.raises(ValueError, match="^zero vector does not define"):
        blocks_one_hyperplane(g7, 2, Hyperplane((0,) * 8))
    with pytest.raises(ValueError, match="^G7 needs 8 exponents, got 2$"):
        blocks_one_hyperplane(g7, 2, Hyperplane((1, -1)))


@pytest.mark.parametrize("p", [0, 1, 4, 6, -2])
def test_heuristic_and_p_blocks_reject_a_p_that_is_not_prime(g4, g7, p):
    """p = 1, 4, 6 and -2 once gave partitions, and p = 0 a
    ZeroDivisionError from |G| % p."""
    calls = [lambda: blocks_no_hyperplane(g7, p),
             lambda: blocks_one_hyperplane(g7, p, Hyperplane(H_G7)),
             lambda: p_blocks(g4.character_table, p)]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            call()


@pytest.mark.parametrize("p", [3.0, True])
def test_heuristic_and_p_blocks_reject_a_p_that_is_no_int(g4, g7, p):
    """3.0 once passed the primality test, and p_blocks then raised a raw
    TypeError from the prime ideal's construction."""
    calls = [lambda: blocks_no_hyperplane(g7, p),
             lambda: blocks_one_hyperplane(g7, p, Hyperplane(H_G7)),
             lambda: p_blocks(g4.character_table, p)]
    for call in calls:
        with pytest.raises(TypeError, match=f"^{p!r} is not an integer$"):
            call()


@pytest.mark.parametrize("p", [5, 7])
def test_heuristic_and_p_blocks_at_a_prime_not_dividing_the_order(
        g4, g7, p):
    assert blocks_no_hyperplane(g7, p) == Partition.singletons(42)
    assert blocks_one_hyperplane(g7, p, Hyperplane(H_G7)) == \
        Partition.singletons(42)
    assert p_blocks(g4.character_table, p) == Partition.singletons(7)


def test_unmerged_answers_are_the_shared_singletons(g4, g7):
    """A call that merges no characters returns the one singletons value
    that Partition.singletons keeps per size, not a copy of it; the value
    is a tuple of tuples, which test_value_types pins as immutable."""
    shared = Partition.singletons(42)
    assert Partition.singletons(42) is shared
    assert blocks_no_hyperplane(g7, 5) is shared
    assert blocks_one_hyperplane(
        g7, 2, Hyperplane((1, -1, 0, 0, 0, 0, 0, 0))) is shared
    assert p_blocks(g4.character_table, 5) is Partition.singletons(7)


class _Unreadable:
    """A stand-in weight that fails wherever the heuristic would use it."""

    def __hash__(self):
        raise AssertionError("weight read for a seed of fewer than two")

    __iter__ = __hash__


def test_heuristic_path_without_schur_payload_meets_group_blocks(
        g4, monkeypatch):
    # G4 ships no Schur payload: the seed is empty, so every character
    # stays a singleton, before the group p-blocks or any a + A weight is
    # read.  The same holds for a one-character seed: G4 with a stand-in
    # index whose one entry is heavy at every p (norm 0) and whose weight
    # fails when used.
    def fail(*args):
        raise AssertionError("computed for a seed of fewer than two")

    monkeypatch.setattr(engine, "p_blocks", fail)
    unread = SchurFacts(0, _Unreadable(), frozenset())
    one_seed = g4._replace(schur_facts={g4.characters[0]: unread})
    for g in (g4, one_seed):
        for p in (2, 3):
            assert blocks_no_hyperplane(g, p) == Partition.singletons(7)


def _scan_by_index(characters, by_label):
    """The full scan that Characters.positions replaced: index -> entry,
    for every character with an entry in by_label (None: no entries)."""
    return {i: by_label[c] for i, c in enumerate(characters, 1)
            if c in (by_label or {})}


def _heuristic_by_scan(g, p, normal=None):
    """blocks_no_hyperplane (blocks_one_hyperplane with a normal), its
    seeds and normals read off the full scan of g's facts."""
    facts = _scan_by_index(g.characters, g.schur_facts)
    groups = []
    for h in ([normal] if normal else []) + [None]:
        seed = {i: f.weight for i, f in facts.items()
                if ((p, h) in f.essential if h else f.norm % p == 0)}
        groups += engine._seed_groups(g, p, seed, h)
    return Partition.generated_by(groups, len(g.characters))


def _views_of_g7(g7, g7_cut):
    """G7 as loaded, and as the tests cut, reorder or re-index it, each with
    its Characters, so "reversed" and "reversed Characters" are one view."""
    def view(labels):
        return g7._replace(characters=schur.Characters(labels))
    return {
        "loaded": g7,
        "cut": g7_cut,
        "reversed cut": view(g7_cut.characters[::-1]),
        "reversed": view(g7.characters[::-1]),
        "reversed Characters": view(g7.characters[::-1]),
        "facts copy": g7._replace(schur_facts={
            c: f._replace(norm=0) for c, f in g7.schur_facts.items()}),
    }


@pytest.mark.parametrize("view", ["loaded", "cut", "reversed cut", "reversed",
                                  "reversed Characters", "facts copy"])
def test_stored_indices_match_the_full_scan(g7, g7_cut, view):
    """The label -> index map never serves a stale view: both heuristic
    calls on each view of G7 agree with the full scan over its
    characters."""
    g = _views_of_g7(g7, g7_cut)[view]
    facts = _scan_by_index(g.characters, g.schur_facts)
    assert sorted(facts) == {"loaded": [1, 28, 39], "cut": [1, 2, 3],
                             "reversed cut": [1, 2, 3],
                             "reversed": [4, 15, 42],
                             "reversed Characters": [4, 15, 42],
                             "facts copy": [1, 28, 39]}[view]
    for p in (2, 3):
        assert blocks_no_hyperplane(g, p) == _heuristic_by_scan(g, p), p
        normals = {h for f in facts.values() for q, h in f.essential if q == p}
        assert normals, p
        for h in sorted(normals):
            assert blocks_one_hyperplane(g, p, Hyperplane(h)) == \
                _heuristic_by_scan(g, p, h), (p, h)


@pytest.mark.parametrize("name", ["G4", "G6", "G7"])
def test_loaded_characters_carry_their_positions(name):
    """load stores the characters as a Characters, equal to its plain
    tuple, whose positions number the labels from 1."""
    characters = load_group(name).characters
    assert isinstance(characters, schur.Characters)
    assert characters == tuple(characters)
    assert characters.positions == {c: i for i, c
                                    in enumerate(tuple(characters), 1)}


# ---------------------------------------------------------------------------
# the sampled specialisation search, kept as an independent oracle
# ---------------------------------------------------------------------------

_SEARCH_BOXES = (1, 2, 4, 8, 16, 32, 64)
# ambient box points one search may examine; the searches below examine at
# most 1800 for their first 20 vectors
_SEARCH_BUDGET = 100_000
_AA_ROUNDS = 5


def _brute_force_specs(g, on, off):
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


def _oracle_specs(g, p, normal=None):
    """The admissible vectors of a heuristic call: on the hyperplane of
    `normal`, if given, and off every other p-essential hyperplane."""
    normals = essential_normals(g, [p])
    if normal is None:
        return _brute_force_specs(g, [], normals)
    return _brute_force_specs(g, [normal], normals - {normal})


def _aa_partition_by_specialization(g, n):
    """Characters grouped by equal a + A, read off the specialized Schur
    elements of every stored character."""
    sums = {}
    for i, s in _scan_by_index(g.characters, g.schur_elements).items():
        a, big_a = a_and_A(g, specialize(g, s, n))
        sums.setdefault(a + big_a, []).append(i)
    return Partition.generated_by(sums.values(), len(g.characters))


def _heuristic_by_meets(g, p, seed, normal=None,
                        grouping=_aa_partition_by_specialization):
    """The heuristic as a loop of partition meets over sampled vectors:
    the seed part (every other character a singleton) meets the group
    p-blocks, then grouping(g, n) at each admissible vector n, for
    _AA_ROUNDS vectors and then until a meet changes nothing."""
    current = Partition.generated_by([seed], len(g.characters))
    if g.character_table is not None:
        current = meet(current, p_blocks(g.character_table, p))
    for used, n in enumerate(_oracle_specs(g, p, normal), start=1):
        refined = meet(current, grouping(g, n))
        if used >= _AA_ROUNDS and refined == current:
            return current
        current = refined
    raise AssertionError("the oracle search ran out of vectors")


def test_aa_partition_matches_specialized_a_plus_A(g7):
    """Grouping by dot(aa_weight(s), n) against grouping by a + A of the
    specialized elements, at the first 20 admissible vectors of every
    heuristic call on G7."""
    weights = {i: aa_weight(s) for i, s
               in _scan_by_index(g7.characters, g7.schur_elements).items()}
    searches = [(p, h) for p in (2, 3)
                for h in [None, *sorted(essential_normals(g7, [p]))]]
    assert len(searches) == 2 + 13
    merged = 0
    for p, h in searches:
        vectors = list(itertools.islice(_oracle_specs(g7, p, h), 20))
        assert len(vectors) == 20
        for n in vectors:
            got = group_by_weight(weights, n, len(g7.characters))
            expected = _aa_partition_by_specialization(g7, n)
            assert got == expected, (p, h, n)
            merged += len(expected.parts) < len(g7.characters)
    assert merged  # some vector puts two characters in one part


# ---------------------------------------------------------------------------
# the exact a + A key against the meet loop over sampled vectors
# ---------------------------------------------------------------------------


def _keyed(g, p, seed, normal=None):
    """The partition that engine._seed_groups gives the seed characters,
    with their weights read off g's facts, every other character a
    singleton: the heuristic's result for one seed."""
    facts = _scan_by_index(g.characters, g.schur_facts)
    groups = engine._seed_groups(g, p, {i: facts[i].weight for i in seed},
                                 normal)
    return Partition.generated_by(groups, len(g.characters))


def _groups_by_meets(g, p, seed, normal=None):
    """engine._seed_groups' answer read off the meet loop: the oracle's
    parts of two or more characters."""
    oracle = _heuristic_by_meets(g, p, list(seed), normal)
    return [list(part) for part in oracle.parts if len(part) > 1]


def _heuristic_calls(g, monkeypatch):
    """(p, seed, normal) of every _seed_groups call made by the
    no-hyperplane and one-hyperplane jobs at p = 2, 3 and 5."""
    calls, real = [], engine._seed_groups

    def record(g, p, seed, normal=None):
        calls.append((p, list(seed), normal))
        return real(g, p, seed, normal)

    with monkeypatch.context() as m:
        m.setattr(engine, "_seed_groups", record)
        for p in (2, 3, 5):
            blocks_no_hyperplane(g, p)
            for h in sorted(essential_normals(g, [p])):
                blocks_one_hyperplane(g, p, Hyperplane(h))
    return calls


@pytest.mark.parametrize("name", ["G4", "G6", "G7"])
def test_heuristic_blocks_match_specialized_grouping(name, monkeypatch):
    """Every heuristic call of every job gives the meet loop's partition."""
    g = load_group(name)
    calls = _heuristic_calls(g, monkeypatch)
    assert len(calls) == {"G4": 2, "G6": 2, "G7": 28}[name]
    for call in calls:
        assert _keyed(g, *call) == _heuristic_by_meets(g, *call), call


def _one_hyperplane_by_meets(g, p, normal,
                             grouping=_aa_partition_by_specialization):
    """blocks_one_hyperplane as it was: the join of the meet-loop oracle on
    the normal's hyperplane and off every hyperplane, singletons when p
    does not divide |G|."""
    if g.group_order % p:
        return Partition.singletons(len(g.characters))
    facts = _scan_by_index(g.characters, g.schur_facts)
    core = [i for i, f in facts.items() if (p, normal) in f.essential]
    heavy = [i for i, f in facts.items() if f.norm % p == 0]
    return join([_heuristic_by_meets(g, p, core, normal, grouping),
                 _heuristic_by_meets(g, p, heavy, None, grouping)])


def _index_grouping(g, n):
    """Characters grouped by <w, n>, w their weight in g's facts."""
    weights = {i: f.weight for i, f
               in _scan_by_index(g.characters, g.schur_facts).items()}
    return group_by_weight(weights, n, len(g.characters))


@pytest.mark.parametrize("name", ["G4", "G6", "G7", "G7 cut", "G7 stand-in"])
def test_one_hyperplane_blocks_match_the_joined_meet_loops(name, g7_cut):
    """blocks_one_hyperplane, which lets the seed groups on h and off every
    hyperplane generate one partition, against the join of the two
    meet-loop partitions, at every essential normal (every stored one on
    G4 and G6, which have no Schur data) and p = 2, 3, 5.  The shipped
    data never give a group off every hyperplane, so the stand-in G7 makes
    every norm 0 and character 39's weight character 1's: off every
    hyperplane at p = 2 and 3, 1 and 39 form a group."""
    g, grouping = load_group(name.split()[0]), _aa_partition_by_specialization
    if name.endswith("cut"):
        g = g7_cut
    if name.endswith("stand-in"):
        w = g.schur_facts[g.characters[0]].weight
        g = g._replace(schur_facts={
            label: f._replace(norm=0, weight=w if label == g.characters[38]
                              else f.weight)
            for label, f in g.schur_facts.items()})
        grouping = _index_grouping
        assert engine._heuristic_groups(g, 2) == [[1, 39]]
        assert engine._heuristic_groups(g, 3) == [[1, 39]]
    normals = essential_normals(g, [2, 3]) | {
        t.normal for t in g.stored_tables() if t.hyperplane is not None}
    assert normals
    for p in (2, 3, 5):
        for h in sorted(normals):
            assert blocks_one_hyperplane(g, p, Hyperplane(h)) == \
                _one_hyperplane_by_meets(g, p, h, grouping), (p, h)


def test_golden_jobs_match_the_meet_loop(monkeypatch):
    """Every recorded Schur-path job gives its recorded partition, and so
    does the same job with the meet loop in place of the exact key."""
    golden = load_golden()
    assert len(golden) == 20
    groups = {name: load_group(name) for name in ("G4", "G7")}
    for key, expected in golden.items():
        assert run_job(groups, key).as_lists() == expected, key
        with monkeypatch.context() as m:
            m.setattr(engine, "_seed_groups", _groups_by_meets)
            assert run_job(groups, key).as_lists() == expected, key


def test_heuristic_jobs_read_the_loaded_index(monkeypatch):
    """The 18 heuristic jobs of golden_schur.json give their recorded
    partitions with CycInt.norm, essential_monomials and aa_weight raising
    once the groups are loaded: the Schur path reads g.schur_facts and
    recomputes none of them per call."""
    golden = load_golden()
    jobs = {k: v for k, v in golden.items() if not k.startswith("p_blocks/")}
    assert len(jobs) == 18
    groups = {name: load_group(name) for name in ("G4", "G7")}

    def fail(*args):
        raise AssertionError("Schur fact recomputed after load")

    monkeypatch.setattr(CycInt, "norm", fail)
    for original in (schur.essential_monomials, schur.aa_weight):
        patch_everywhere(monkeypatch, original, fail)
    for key, expected in jobs.items():
        assert run_job(groups, key).as_lists() == expected, key


def test_heuristic_blocks_key_by_group_p_blocks(g7, monkeypatch):
    """The p-block step, which the shipped data never exercises with more
    than one seed character (G4 has a character table and no Schur data,
    G7 the reverse): G7 with stand-in p-blocks that keep its three stored
    characters 1, 28 and 39 together or split one or two of them off."""
    calls = [c for c in _heuristic_calls(g7, monkeypatch) if len(c[1]) > 1]
    assert calls
    for blocks in ([[1, 39], [2, 28]], [[1, 28, 39]], [[28, 39]]):
        stand_in = Partition.generated_by(blocks, len(g7.characters))
        monkeypatch.setattr(engine, "p_blocks", lambda t, p: stand_in)
        monkeypatch.setitem(globals(), "p_blocks", lambda t, p: stand_in)
        g = g7._replace(character_table="stand-in table")
        block_of = {i: k for k, part in enumerate(stand_in.parts)
                    for i in part}
        for call in calls:
            keyed = _keyed(g, *call)
            assert keyed == _heuristic_by_meets(g, *call), (blocks, call)
            for part in keyed.parts:  # none crosses a stand-in block
                assert len({block_of[i] for i in part}) == 1, (blocks, call)


# H_MERGE is relevant at p = 2, where the shipped weights put characters 1,
# 28 and 39 in one part on it.  D_FIFTH is orthogonal to the first four
# admissible vectors on H_MERGE and not to the fifth; D_BLIND to the first
# five, since each of them has n[1] = 0.  Neither is parallel to H_MERGE.
H_MERGE = H_G7
D_FIFTH = (-1, -1, 0, 0, 0, -1, 0, 0)
D_BLIND = (0, 1, 0, 0, 0, 0, 0, 0)


def _stand_in_weights(g7, other):
    """G7 whose facts keep character 1's weight w and give character 39
    the weight other(w), with the grouping of characters 1 and 39 by a + A
    under those weights, for the meet-loop oracle."""
    w = aa_weight(g7.schur_elements[g7.characters[0]])
    weights = {1: w, 39: other(w)}
    label = g7.characters[39 - 1]
    facts = {**g7.schur_facts,
             label: g7.schur_facts[label]._replace(weight=weights[39])}
    return g7._replace(schur_facts=facts), \
        lambda g, n: group_by_weight(weights, n, len(g.characters))


def _shifted(d):
    return lambda w: tuple(x + c for x, c in zip(w, d))


@pytest.mark.parametrize("case, together, used", [
    ("equal", True, 5), ("opposite", False, 5), ("split-at-fifth", False, 6),
    ("multiple-of-h", True, 5),
])
def test_heuristic_blocks_on_stand_in_weights(g7, case, together, used):
    """Stored characters 1 and 39 on H_MERGE, with w = aa_weight of
    character 1 and a stand-in weight for 39: w itself; -w, whose a + A
    has the opposite sign wherever it is nonzero (grouping by absolute
    value would keep the two together); w + D_FIFTH, which the meet loop
    splits off only at the fifth vector; and w - 3 * H_MERGE, whose a + A
    equals w's everywhere on H_MERGE.  The exact key and the meet loop
    agree on all four; the meet loop takes `used` vectors, a sixth for
    w + D_FIFTH to see the partition stable after the fifth splits it."""
    assert blocks_one_hyperplane(g7, 2, Hyperplane(H_MERGE)).part_of(1) == (
        1, 28, 39)
    first = list(itertools.islice(_oracle_specs(g7, 2, H_MERGE), 5))
    assert [dot(D_FIFTH, n) != 0 for n in first] == [False] * 4 + [True]
    other = {"equal": lambda w: w,
             "opposite": lambda w: tuple(-x for x in w),
             "split-at-fifth": _shifted(D_FIFTH),
             "multiple-of-h": _shifted(tuple(-3 * c for c in H_MERGE)),
             }[case]
    (g, grouping), taken = _stand_in_weights(g7, other), []

    def counted(g, n):
        taken.append(n)
        return grouping(g, n)

    blocks = _keyed(g, 2, [1, 39], H_MERGE)
    assert blocks.part_of(39) == ((1, 39) if together else (39,))
    assert blocks == _heuristic_by_meets(g, 2, [1, 39], H_MERGE, counted)
    assert len(taken) == used


def test_exact_key_splits_what_the_sampled_vectors_merge(g7):
    """The change from sampled vectors to the exact key: with weights w and
    w + D_BLIND, the two a + A agree at the first five admissible vectors
    on H_MERGE, so the meet loop stops after five rounds with 1 and 39 in
    one part.  They differ at most vectors of H_MERGE, since D_BLIND is not
    parallel to it, and the exact key splits them."""
    first = list(itertools.islice(_oracle_specs(g7, 2, H_MERGE), 5))
    assert [dot(D_BLIND, n) for n in first] == [0] * 5
    assert any(D_BLIND[k] * H_MERGE[0] != D_BLIND[0] * H_MERGE[k]
               for k in range(len(H_MERGE)))
    g, grouping = _stand_in_weights(g7, _shifted(D_BLIND))
    sampled = _heuristic_by_meets(g, 2, [1, 39], H_MERGE, grouping)
    assert sampled.part_of(39) == (1, 39)
    exact = _keyed(g, 2, [1, 39], H_MERGE)
    assert exact.part_of(39) == (39,)
