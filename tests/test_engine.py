"""Partition lattice operations and both Rouquier-block computation paths."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeblocks import engine
from heckeblocks.engine import (
    _SEARCH_BOXES,
    _SEARCH_BUDGET,
    Hyperplane,
    Specialization,
    blocks_no_hyperplane,
    _admissible_specs,
    blocks_one_hyperplane,
    hyperplanes_containing,
    join,
    meet,
    rouquier_from_tables,
)
from heckeblocks.groupblocks import Partition
from heckeblocks.lattice import dot
from heckeblocks.schur import a_and_A, aa_weight, essential_normals, specialize
from heckeblocks.store import load_group


@pytest.fixture(scope="module")
def g4():
    return load_group("G4")


@pytest.fixture(scope="module")
def g7():
    return load_group("G7")


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
# hyperplane rendering and membership
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


def test_hyperplane_contains():
    h = Hyperplane.of((0, 1, -1))
    assert h.contains((5, 2, 2))
    assert not h.contains((0, 1, 2))


# ---------------------------------------------------------------------------
# table path on the stored data
# ---------------------------------------------------------------------------


def test_rouquier_from_tables_published_example(g4):
    blocks = rouquier_from_tables(g4, Specialization((0, 1, 2)))
    assert blocks.as_lists() == [[1], [2, 5, 7], [3], [4], [6]]
    hit = hyperplanes_containing(g4.hyperplane_tables, Specialization((0, 1, 2)))
    assert [t.normal for t in hit] == [(1, -2, 1)]


def test_rouquier_from_tables_group_algebra_limit(g4):
    blocks = rouquier_from_tables(g4, Specialization((0, 0, 0)))
    assert blocks.as_lists() == [[1, 2, 3, 4, 5, 6, 7]]


def test_rouquier_from_tables_generic_point(g4):
    # off every essential hyperplane: the baseline (all singletons for G4)
    blocks = rouquier_from_tables(g4, Specialization((0, 1, 5)))
    assert blocks == Partition.singletons(7)


def test_rouquier_from_tables_respects_baseline(g7):
    # a generic point for G7 keeps the printed baseline pairs/triples
    blocks = rouquier_from_tables(g7, Specialization((0, 1, 0, 2, 7, 0, 11, 25)))
    assert [37, 39, 41] in blocks.as_lists()
    assert [28, 36] in blocks.as_lists()


# ---------------------------------------------------------------------------
# heuristic (Schur) path on the partial G7 payload
# ---------------------------------------------------------------------------


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


def test_heuristic_path_without_schur_payload_meets_group_blocks(g4):
    # G4 ships no Schur payload: the heuristic degenerates to the group
    # p-block meet, which keeps everything singleton
    assert blocks_no_hyperplane(g4, 3) == Partition.singletons(7)
    assert blocks_no_hyperplane(g4, 2) == Partition.singletons(7)


@pytest.mark.parametrize("group", ["g4", "g7"])
def test_specialization_search_is_bounded(group, request):
    # a hyperplane required both on and off admits no vector at all
    g = request.getfixturevalue(group)
    normal = next(t.normal for t in g.hyperplane_tables if t.normal)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="exceeded"):
        for _ in _admissible_specs(g, on=[normal], off=[normal]):
            pass
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# the specialisation search against the ambient-box filter it replaced
# ---------------------------------------------------------------------------


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


def _first(search, count=20):
    """Up to count vectors of a search, and whether it raised first."""
    out = []
    try:
        for n in search:
            out.append(n)
            if len(out) == count:
                return out, False
    except RuntimeError as exc:
        assert "exceeded" in str(exc)
        return out, True
    return out, False


def _stored_normals(g):
    return [t.normal for t in g.hyperplane_tables if t.normal]


def _assert_same_search(g, on, off):
    walked = _first(_admissible_specs(g, on, off))
    assert walked == _first(_brute_force_specs(g, on, off)), (g.name, on)


@pytest.mark.parametrize("name", ["G4", "G6", "G7"])
def test_search_order_matches_oracle_on_schur_and_table_normals(name):
    """Every search the heuristic makes on the shipped Schur data (no
    hyperplane, or one p-essential normal off the others), and every stored
    table normal with the other stored normals off."""
    g = load_group(name)
    for p in (2, 3):
        normals = essential_normals(g, [p])
        _assert_same_search(g, [], normals)
        for h in sorted(normals):
            _assert_same_search(g, [h], normals - {h})
    stored = _stored_normals(g)
    for h in stored:
        _assert_same_search(g, [h], [x for x in stored if x != h])


@pytest.mark.parametrize("name", ["G4", "G6", "G7"])
def test_search_order_matches_oracle_on_pairs_of_normals(name, monkeypatch):
    """Two stored normals on, in both orders (the first is the one solved
    for), the others off.  Most pairs admit fewer than 20 vectors, and the
    oracle takes ~0.3 s to reach the full budget, so both searches run
    under a budget of 2000 points and must also raise at the same place."""
    monkeypatch.setattr(engine, "_SEARCH_BUDGET", 2000)
    monkeypatch.setitem(globals(), "_SEARCH_BUDGET", 2000)
    g = load_group(name)
    stored = _stored_normals(g)
    for h1, h2 in itertools.permutations(stored, 2):
        _assert_same_search(g, [h1, h2], [x for x in stored if x not in (h1, h2)])


def test_search_budget_raises_after_the_oracle_prefix(g7, monkeypatch):
    monkeypatch.setattr(engine, "_SEARCH_BUDGET", 1000)
    monkeypatch.setitem(globals(), "_SEARCH_BUDGET", 1000)
    h = (1, -1, 0, 0, 0, 0, 0, 0)
    off = essential_normals(g7, [2]) - {h}
    walked, raised = _first(_admissible_specs(g7, [h], off), count=1000)
    assert walked and raised
    assert (walked, raised) == _first(_brute_force_specs(g7, [h], off), 1000)


def test_search_makes_no_dot_call(g7, monkeypatch):
    def no_dot(u, v):
        raise AssertionError("lattice.dot called in the search")

    monkeypatch.setattr(engine, "dot", no_dot)
    normals = essential_normals(g7, [2])
    h = (1, -1, 0, 0, 0, 0, 0, 0)
    assert len(_first(_admissible_specs(g7, [h], normals - {h}))[0]) == 20


# ---------------------------------------------------------------------------
# the a + A grouping against specialized Schur elements
# ---------------------------------------------------------------------------


def _aa_partition_by_specialization(g, n):
    """Characters grouped by equal a + A, read off the specialized Schur
    elements of every stored character (the grouping aa_weight replaced)."""
    sums = {}
    for i, s in g.stored_schur().items():
        a, big_a = a_and_A(g, specialize(g, s, n))
        sums.setdefault(a + big_a, []).append(i)
    return Partition.generated_by(sums.values(), len(g.characters))


def _g7_searches(g7):
    """(p, on, off) of every search the heuristic makes on G7: no
    hyperplane, and each p-essential normal with the others off."""
    out = []
    for p in (2, 3):
        normals = essential_normals(g7, [p])
        out.append((p, [], normals))
        out += [(p, [h], normals - {h}) for h in sorted(normals)]
    return out


def test_aa_partition_matches_specialized_a_plus_A(g7):
    """Grouping by dot(aa_weight(s), n), as the heuristic keys characters,
    against grouping by a + A of the specialized elements."""
    weights = {i: aa_weight(s) for i, s in g7.stored_schur().items()}
    searches = _g7_searches(g7)
    assert len(searches) == 2 + 13
    merged = 0
    for p, on, off in searches:
        vectors, raised = _first(_admissible_specs(g7, on, off))
        assert len(vectors) == 20 and not raised
        for n in vectors:
            sums = {}
            for i, w in weights.items():
                sums.setdefault(dot(w, n), []).append(i)
            got = Partition.generated_by(sums.values(), len(g7.characters))
            expected = _aa_partition_by_specialization(g7, n)
            assert got == expected, (p, on, n)
            merged += len(expected.parts) < len(g7.characters)
    assert merged  # some vector puts two characters in one part


# ---------------------------------------------------------------------------
# the keyed heuristic against the meet loop it replaced
# ---------------------------------------------------------------------------


def _heuristic_by_meets(g, p, seed, on, off):
    """The heuristic as a loop of partition meets: the seed part (every
    other character a singleton) meets the group p-blocks, then the a + A
    grouping of specialized elements at each admissible vector, for
    _AA_ROUNDS vectors and then until a meet changes nothing.

    Returns the partition, or None when the search raised or ended first,
    and the number of vectors used."""
    current = Partition.generated_by([seed], len(g.characters))
    if g.character_table is not None:
        current = meet(current, engine.p_blocks(g.character_table, p))
    used = 0
    try:
        for n in engine._admissible_specs(g, on, off):
            refined = meet(current, _aa_partition_by_specialization(g, n))
            used += 1
            if used >= engine._AA_ROUNDS and refined == current:
                return current, used
            current = refined
    except RuntimeError as exc:
        assert "exceeded" in str(exc)
    return None, used


def _heuristic_keyed(g, p, seed, on, off, monkeypatch):
    """engine._heuristic_blocks, and the number of vectors it took from
    the search; None in place of the partition when it raised."""
    search, taken = engine._admissible_specs, []

    def counted(*args):
        for n in search(*args):
            taken.append(n)
            yield n

    with monkeypatch.context() as m:
        m.setattr(engine, "_admissible_specs", counted)
        try:
            blocks = engine._heuristic_blocks(g, p, seed, on, off)
        except RuntimeError:
            blocks = None
    return blocks, len(taken)


def _heuristic_calls(g, monkeypatch):
    """(p, seed, on, off) of every _heuristic_blocks call made by the
    no-hyperplane and one-hyperplane jobs at p = 2, 3 and 5."""
    calls, real = [], engine._heuristic_blocks

    def record(g, p, seed, on, off):
        calls.append((p, list(seed), list(on), set(off)))
        return real(g, p, seed, on, off)

    with monkeypatch.context() as m:
        m.setattr(engine, "_heuristic_blocks", record)
        for p in (2, 3, 5):
            blocks_no_hyperplane(g, p)
            for h in sorted(essential_normals(g, [p])):
                blocks_one_hyperplane(g, p, Hyperplane(h))
    return calls


@pytest.mark.parametrize("name", ["G4", "G7"])
def test_heuristic_blocks_match_specialized_grouping(name, monkeypatch):
    """Every heuristic call of every job gives the meet loop's partition
    after the same number of vectors.  Under search budgets of 300 and
    1000 points some G7 calls run out of vectors: both then raise, having
    used the same vectors."""
    g = load_group(name)
    calls = _heuristic_calls(g, monkeypatch)
    assert len(calls) == (28 if name == "G7" else 2)
    raised = {}
    for budget in (_SEARCH_BUDGET, 1000, 300):
        monkeypatch.setattr(engine, "_SEARCH_BUDGET", budget)
        for call in calls:
            keyed = _heuristic_keyed(g, *call, monkeypatch)
            assert keyed == _heuristic_by_meets(g, *call), (budget, call)
            raised[budget] = raised.get(budget, 0) + (keyed[0] is None)
    assert raised[_SEARCH_BUDGET] == 0
    if name == "G7":
        assert 0 < raised[1000] < len(calls) and 0 < raised[300] < len(calls)


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
        g = g7._replace(character_table="stand-in table")
        block_of = {i: k for k, part in enumerate(stand_in.parts)
                    for i in part}
        for call in calls:
            keyed = _heuristic_keyed(g, *call, monkeypatch)
            assert keyed == _heuristic_by_meets(g, *call), (blocks, call)
            for part in keyed[0].parts:  # none crosses a stand-in block
                assert len({block_of[i] for i in part}) == 1, (blocks, call)


# D_FIFTH is orthogonal to the first four vectors of the search on H_MERGE at
# p = 2 and not to the fifth
H_MERGE = (1, -1, 2, -1, -1, 2, -1, -1)
D_FIFTH = (-1, -1, 0, 0, 0, -1, 0, 0)


@pytest.mark.parametrize("case, together, used", [
    ("equal", True, 5), ("opposite", False, 5), ("split-at-fifth", False, 6),
])
def test_heuristic_blocks_on_stand_in_weights(g7, monkeypatch, case,
                                              together, used):
    """Stored characters 1 and 39 on H_MERGE, where their own weights put
    them in one part, with w = aa_weight of character 1 and a stand-in
    weight for 39: w itself; -w, whose a + A has the opposite sign
    wherever it is nonzero (grouping by absolute value would keep the two
    together); and w + D_FIFTH, which only the fifth vector splits off, so
    a sixth is needed to see the partition stable."""
    stored = g7.stored_schur()
    w = aa_weight(stored[1])
    off = essential_normals(g7, [2]) - {H_MERGE}
    assert blocks_one_hyperplane(g7, 2, Hyperplane(H_MERGE)).part_of(1) == (
        1, 28, 39)
    first = _first(_admissible_specs(g7, [H_MERGE], off), 5)[0]
    assert [dot(D_FIFTH, n) != 0 for n in first] == [False] * 4 + [True]
    other = {"equal": w, "opposite": tuple(-x for x in w),
             "split-at-fifth": tuple(map(sum, zip(w, D_FIFTH)))}[case]
    monkeypatch.setattr(engine, "aa_weight",
                        lambda s: w if s is stored[1] else other)
    blocks, taken = _heuristic_keyed(g7, 2, [1, 39], [H_MERGE], off,
                                     monkeypatch)
    assert blocks.part_of(39) == ((1, 39) if together else (39,))
    assert taken == used
