"""Partition lattice operations and both Rouquier-block computation paths."""

import itertools
import random
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeblocks import engine, schur
from heckeblocks.cyclo import CycInt, factorint
from heckeblocks.engine import (
    Hyperplane,
    Specialization,
    StoredTables,
    blocks_no_hyperplane,
    blocks_one_hyperplane,
    derive_tables,
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
    BadExponents,
    SchurFacts,
    a_and_A,
    aa_weight,
    essential_normals,
    schur_facts,
    specialize,
)
from heckeblocks.store import load_group

from checks import group_by_weight, on_hyperplane, patch_everywhere
from golden_jobs import (
    TABLE_GROUPS,
    load_golden,
    run_job,
    schur_case_fails,
    schur_cases,
    table_case_fails,
    table_cases,
)


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
    the packed product's bound L * max|n_j| < 2^62 are checked too.  G4's
    (1, 0, 0) lies on c_1-c_2=0 alone, and the next stored table's dot
    product there is 1: packed undoubled, its field would read 1, which the
    borrow out of the zero field below it turns into a hit.  On every
    multiple the StoredTables memo keys the Flat the query returns by the
    hit mask of the plain scan, and within the bound field k of the packed
    product XOR offset is 2<h_k, n> mod 2^64."""
    g = load_group(name)
    rng = random.Random(f"table path {name}")
    normals = [t.normal for t in g.hyperplane_tables if t.normal is not None]
    vectors = [(0,) * g.slot_count]
    if name == "G4":
        vectors += [(0, 1, 2), (5, 2, 2), (1, 0, 0)]
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
    index = StoredTables(g.hyperplane_tables)
    seen = set()
    for n in vectors:
        edge = (2**62 - 1) // (bound * max(map(abs, n)) or 1)
        for k in (1, edge, -edge, edge + 1, 2**61 + 1, -(2**64 + 3), 2**200):
            kn = tuple(k * x for x in n)
            hit, expected = _table_path_oracle(g, kn)
            hyperplanes, blocks = rouquier_blocks(g, Specialization(kn))
            assert hyperplanes == [t.hyperplane for t in hit], kn
            assert blocks == expected, kn
            if len(hit) == 1:
                assert blocks is hit[0].blocks, kn
            mask = sum(1 << 64 * i + 63 for i, t in enumerate(index.essential)
                       if t in hit)
            flat = hyperplanes_containing(index, Specialization(kn))
            assert index.flats[mask] is flat and list(flat) == hit, kn
            if bound * max(map(abs, kn)) >= 2**62:
                continue
            d = sum(map(mul, kn, index.packed), index.offset) ^ index.offset
            assert d == sum(2 * dot(h, kn) % 2**64 << 64 * i
                            for i, h in enumerate(normals)), kn
        seen.add(min(len(hit), 2))
    assert seen == {0, 1, 2}


def test_join_memo_belongs_to_its_tables(g4, g6, g7):
    """The Flats a datum memoizes never reach another datum: queries that
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
    witness, and on the witness scaled past the packed product's bound
    L * max|n_j| < 2^62, rouquier_blocks gives the plain scan's hyperplanes
    and join.  After every witness, and again after every scaled one, a
    fresh datum's memo holds one Flat per flat, the StoredTables
    docstring's bound: the packed product and the exact dots key it alike."""
    g = load_group(name)
    tables = g.hyperplane_tables
    bound = max(sum(map(abs, t.normal)) for t in tables if t.normal is not None)
    flats = _flats(g)
    assert len(flats) == count
    for scale in (0, 63):
        for w in flats.values():
            n = tuple(x << scale for x in w)
            assert (bound * max(map(abs, n)) < 2**62) == (scale == 0), n
            hit, expected = _table_path_oracle(g, n)
            assert rouquier_blocks(g, Specialization(n)) == (
                [t.hyperplane for t in hit], expected), n
        assert len(tables.flats) == count


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_golden_table_cases_pass_in_process(name):
    """The table-path cases tests/golden_jobs.py replays without pytest: on
    every stored group, each gives the plain scan's hyperplanes and join."""
    g = load_group(name)
    cases = table_cases(g)
    assert len(cases) >= 45
    assert [n for n in cases if table_case_fails(g, n)] == []


def test_golden_schur_cases_pass_in_process(g7_cut):
    """The Schur-path cases tests/golden_jobs.py replays without pytest: on
    the cut G7, each gives the plain scan's hyperplanes and the join of the
    heuristic blocks, generic vectors and vectors on a hyperplane alike."""
    cases = schur_cases(g7_cut)
    assert len(cases) == 69
    assert {min(1, len(rouquier_blocks(g7_cut, Specialization(n), "schur")[0]))
            for n in cases} == {0, 1}
    assert [n for n in cases if schur_case_fails(g7_cut, n)] == []


@pytest.mark.parametrize("n", [(0, 1), (), (0, 1, 2, 3)])
def test_hit_test_rejects_a_vector_of_the_wrong_length(g4, n):
    """hyperplanes_containing reads a vector as long as the stored normals
    or raises BadExponents: a zip would truncate the product, so (0, 1)
    would hit c_0-c_2=0 as (0, 1, 0) does, and () every table."""
    with pytest.raises(BadExponents, match=f"^needs 3 exponents, got {len(n)}$"):
        hyperplanes_containing(g4.hyperplane_tables, Specialization(n))


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


def _oracle_bad_primes(g, n):
    """The primes of the norm of every specialized coefficient psi_chi,
    multiplied out and factorised."""
    out = set()
    for c in g.characters:
        sp = specialize(g, g.schur_elements[c], n)
        out |= set(factorint(abs(sp.psi_coeff.norm())))
    return out


def _per_query_route(g, n):
    """The Schur path as it ran per query: the hyperplanes hit, found by
    exact dot products among the p-essential normals of each prime p of
    _oracle_bad_primes, and the partition generated by the seed groups at
    each such p, off every hyperplane and on each hit one."""
    hit, groups = set(), []
    for p in sorted(_oracle_bad_primes(g, n)):
        groups += engine._heuristic_groups(g, p)
        for normal in essential_normals(g, [p]):
            if dot(normal, n) == 0:
                hit.add(normal)
                groups += engine._heuristic_groups(g, p, normal)
    return ([Hyperplane(h) for h in sorted(hit)],
            Partition.generated_by(groups, len(g.characters)))


def _schur_path_vectors(g, rng):
    """n = 0, 100 generic vectors, two on each essential normal and two on
    each pair of them, and each of those scaled by 2^70, past the packed
    product's bound."""
    normals = sorted(essential_normals(g, g.primes))

    def draw():
        return tuple(rng.randint(-5, 5) for _ in range(g.slot_count))

    vectors = [(0,) * g.slot_count] + [draw() for _ in range(100)]
    for _ in range(2):
        vectors += [on_hyperplane(h, draw()) for h in normals]
        vectors += [on_hyperplane(on_hyperplane(h1, h2), on_hyperplane(h1, draw()))
                    for h1, h2 in itertools.combinations(normals, 2)]
    return vectors + [tuple(x << 70 for x in n) for n in vectors]


def _schur_payload(g7_cut, payload):
    """G7 cut to its Schur characters; the cut with every xi set to 1,
    where only the vanishing monomials add primes; or a stand-in with every
    xi set to 3 and phi{3,6}'s element set to phi{1,0}'s, so that off every
    hyperplane at p = 3 the two share a group.  The last two rebuild their
    facts and tables."""
    if payload == "cut":
        return g7_cut
    first, _, last = g7_cut.characters
    xi = CycInt.rational(1 if payload == "xi = 1" else 3)
    elements = {c: s._replace(xi=xi) for c, s in g7_cut.schur_elements.items()}
    if payload == "stand-in":
        elements[last] = elements[first]._replace(char=last)
    g = g7_cut._replace(
        schur_elements=elements,
        schur_facts={c: schur_facts(g7_cut, s) for c, s in elements.items()})
    return g._replace(schur_tables=derive_tables(g))


@pytest.mark.parametrize("payload", ["cut", "xi = 1", "stand-in"])
def test_schur_path_answers_as_the_per_query_route(g7_cut, payload):
    """rouquier_blocks on the tables load derived against the per-query
    route they replaced, at every vector of _schur_path_vectors."""
    g = _schur_payload(g7_cut, payload)
    vectors = _schur_path_vectors(g, random.Random(f"schur path {payload}"))
    assert max(max(map(abs, n)) for n in vectors) > g.schur_tables.limit
    answers = set()
    for n in vectors:
        hit, blocks = rouquier_blocks(g, Specialization(n), "schur")
        assert (hit, blocks) == _per_query_route(g, n), n
        answers.add(blocks)
    assert len(answers) > 1


@pytest.mark.parametrize("payload", ["xi = 1", "stand-in"])
def test_a_prime_outside_the_bad_primes_adds_no_group(g7_cut, payload):
    """A prime of |G| outside _oracle_bad_primes seeds no group off every
    hyperplane and is essential on no hyperplane hit, so derive_tables,
    which reads every prime of |G|, adds nothing the per-query route,
    which read the bad primes alone, did not.  (On the cut itself some
    N(xi) is divisible by 2 and some by 3, so both primes are always bad.)"""
    g = _schur_payload(g7_cut, payload)
    reached = set()
    for n in _schur_path_vectors(g, random.Random(f"schur path {payload}")):
        bad = _oracle_bad_primes(g, n)
        reached.add(frozenset(bad))
        for p in set(g.primes) - bad:
            assert engine._heuristic_groups(g, p) == [], (p, n)
            assert all(dot(h, n) for h in essential_normals(g, [p])), (p, n)
    # the xi = 1 variant reaches the monomial branch: no prime at a generic
    # vector, each prime alone on some normal, both at n = 0
    assert reached == {"xi = 1": {frozenset(), frozenset({2}), frozenset({3}),
                                  frozenset({2, 3})},
                       "stand-in": {frozenset({3}), frozenset({2, 3})}}[payload]


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
        raise AssertionError("weight read where the heuristic needs none")

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
    unread = SchurFacts(0, _Unreadable(), {})
    one_seed = g4._replace(schur_facts={g4.characters[0]: unread})
    for g in (g4, one_seed):
        for p in (2, 3):
            assert blocks_no_hyperplane(g, p) == Partition.singletons(7)


def test_one_hyperplane_blocks_read_no_weight_on_the_hyperplane(g7):
    """On a hyperplane the heuristic keys its seeds by the keys stored at
    load: G7 whose facts keep their keys but carry a weight that fails when
    used, and norm 1, so that no seed lies off every hyperplane, gives
    G7's blocks with the norms alone changed, at every essential normal;
    6 of those calls have two or more seeds."""
    norm_one = {c: f._replace(norm=1) for c, f in g7.schur_facts.items()}
    unread = {c: f._replace(weight=_Unreadable()) for c, f in norm_one.items()}
    seeded = 0
    for p in (2, 3):
        for h in sorted(essential_normals(g7, [p])):
            seeded += sum((p, h) in f.essential for f in norm_one.values()) > 1
            assert blocks_one_hyperplane(
                g7._replace(schur_facts=unread), p, Hyperplane(h)) == \
                blocks_one_hyperplane(
                    g7._replace(schur_facts=norm_one), p, Hyperplane(h)), (p, h)
    assert seeded == 6


def _parallel(d, m):
    """Whether d is a rational multiple of m != 0: every 2x2 minor of the
    pair vanishes."""
    return all(d[i] * m[j] == d[j] * m[i]
               for i, j in itertools.combinations(range(len(m)), 2))


@pytest.mark.parametrize("name", ["G7", "G7 cut"])
def test_stored_keys_agree_exactly_on_multiples_of_the_normal(
        name, g7, g7_cut):
    """The keys load stores: each fact of G7 and of the cut G7 is the one
    SchurFacts.of builds from its norm, weight and pairs, and at each
    (p, M) two keys are equal exactly when w - w' is a rational multiple
    of M.  The weights compared are those of the facts with the pair and,
    built through SchurFacts.of, w + 3M, w - 2M and w plus each unit
    vector; the stored characters 1, 28 and 39 share a key on some M."""
    g = g7 if name == "G7" else g7_cut
    facts = list(g.schur_facts.values())
    shared = 0
    for f in facts:
        assert SchurFacts.of(f.norm, f.weight, f.essential) == f
    for pair in {pair for f in facts for pair in f.essential}:
        m = pair[1]
        stored = [(f.weight, f.essential[pair]) for f in facts
                  if pair in f.essential]
        shared += len({key for _, key in stored}) < len(stored)
        shifts = [tuple(k * c for c in m) for k in (3, -2)] + [
            tuple(int(i == j) for i in range(len(m))) for j in range(len(m))]
        keyed = list(stored)
        for w, _ in stored:
            for d in shifts:
                v = tuple(map(sum, zip(w, d)))
                keyed.append((v, SchurFacts.of(0, v, [pair]).essential[pair]))
        for (w, key), (v, other) in itertools.combinations(keyed, 2):
            difference = tuple(x - y for x, y in zip(w, v))
            assert (key == other) == _parallel(difference, m), (pair, w, v)
    assert shared


def _scan_by_index(characters, by_label):
    """The full scan that Characters.positions replaced: index -> entry,
    for every character with an entry in by_label (None: no entries)."""
    return {i: by_label[c] for i, c in enumerate(characters, 1)
            if c in (by_label or {})}


def _scan_seed(g, p, normal=None):
    """The seed of a heuristic call read off the full scan of g's facts:
    the p-essential characters on the normal, if given, else those whose
    N(xi) p divides."""
    return [i for i, f in _scan_by_index(g.characters, g.schur_facts).items()
            if ((p, normal) in f.essential if normal else f.norm % p == 0)]


def _heuristic_by_scan(g, p, normal=None):
    """blocks_no_hyperplane (blocks_one_hyperplane with a normal), its
    seeds read off the full scan of g's facts and grouped here by group
    p-block and weight w, on the normal h's hyperplane by on_hyperplane(h,
    w): the stored key's kernel Q * h, by another map."""
    facts = _scan_by_index(g.characters, g.schur_facts)
    block = {} if g.character_table is None else {
        i: b for b, part in enumerate(p_blocks(g.character_table, p).parts)
        for i in part}
    groups = {}
    for h in ([normal] if normal else []) + [None]:
        for i in _scan_seed(g, p, h):
            w = facts[i].weight
            key = on_hyperplane(h, w) if h else w
            groups.setdefault((h, block.get(i), key), []).append(i)
    return Partition.generated_by(list(groups.values()), len(g.characters))


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
    with their keys read off g's facts (the weight, or the stored key on
    the normal), every other character a singleton: the heuristic's result
    for one seed."""
    facts = _scan_by_index(g.characters, g.schur_facts)
    groups = engine._seed_groups(g, p, {
        i: facts[i].essential[p, normal] if normal else facts[i].weight
        for i in seed})
    return Partition.generated_by(groups, len(g.characters))


def _heuristic_groups_by_meets(g, p, normal=None):
    """engine._heuristic_groups read off the meet loop: the oracle's parts
    of two or more characters, its seed read off the full scan of g's
    facts; no groups when p does not divide |G|."""
    if g.group_order % p:
        return []
    oracle = _heuristic_by_meets(g, p, _scan_seed(g, p, normal), normal)
    return [list(part) for part in oracle.parts if len(part) > 1]


def _heuristic_calls(g, monkeypatch):
    """(p, seed, normal) of every _seed_groups call made by the
    no-hyperplane and one-hyperplane jobs at p = 2, 3 and 5, the normal
    that of the _heuristic_groups call that made it."""
    calls, normals = [], []
    real_groups, real_seed = engine._heuristic_groups, engine._seed_groups

    def groups(g, p, normal=None):
        normals.append(normal)
        return real_groups(g, p, normal)

    def record(g, p, keys):
        calls.append((p, list(keys), normals[-1]))
        return real_seed(g, p, keys)

    with monkeypatch.context() as m:
        m.setattr(engine, "_heuristic_groups", groups)
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
            label: SchurFacts.of(0, w if label == g.characters[38]
                                 else f.weight, f.essential)
            for label, f in g.schur_facts.items()})
        grouping = _index_grouping
        assert engine._heuristic_groups(g, 2) == [[1, 39]]
        assert engine._heuristic_groups(g, 3) == [[1, 39]]
    normals = essential_normals(g, [2, 3]) | {
        t.normal for t in g.hyperplane_tables or () if t.hyperplane is not None}
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
            m.setattr(engine, "_heuristic_groups",
                      _heuristic_groups_by_meets)
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
    f = g7.schur_facts[label]
    facts = {**g7.schur_facts,
             label: SchurFacts.of(f.norm, weights[39], f.essential)}
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
