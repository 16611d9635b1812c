"""End-to-end acceptance suite: the published query outputs, the transport
and property suites, and database validation."""

import shutil
import time

import pytest

from heckeblocks.clifford import descend_hyperplanes, transport_blocks
from heckeblocks.engine import join
from heckeblocks.groupblocks import Partition, p_blocks
from heckeblocks.schur import CharLabel, essential_monomials
from heckeblocks.store import verify_db

from cli_runner import invoke
from malformed_cases import MALFORMED, SHIPPED, rewrite
from test_groupblocks import coset_enumeration
from test_schur import PRINTED_G6, PRINTED_G7, restrict_b_to_zero


def timed_invoke(args, limit=1.0):
    start = time.monotonic()
    result = invoke(args)
    assert time.monotonic() - start < limit, args
    return result


# criterion 1 -----------------------------------------------------------------


def test_essential_hyperplanes_exact():
    all_six = {
        "c_1-c_2=0", "c_0-c_1=0", "c_0-c_2=0",
        "2c_0-c_1-c_2=0", "c_0-2c_1+c_2=0", "c_0+c_1-2c_2=0",
    }
    for p, expected in (
        ("0", all_six),
        ("2", all_six),
        ("3", {"c_1-c_2=0", "c_0-c_1=0", "c_0-c_2=0"}),
    ):
        result = timed_invoke(["essential-hyperplanes", "G4", "--prime", p])
        assert result.exit_code == 0
        assert set(result.output.splitlines()) == expected
    result = timed_invoke(["essential-hyperplanes", "G4", "--prime", "5"])
    assert result.exit_code == 2
    assert result.output.splitlines() == [
        "Error, The number p should divide the order of the group"
    ]


# criterion 2 -----------------------------------------------------------------


def test_all_blocks_exact():
    result = timed_invoke(["all-blocks", "G4", "--display", "index"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "No essential hyperplane",
        "[[1],[2],[3],[4],[5],[6],[7]]",
        "c_1-c_2=0",
        "[[1],[2,3,4],[5,6],[7]]",
        "c_0-c_1=0",
        "[[1,2,6],[3],[4,5],[7]]",
        "c_0-c_2=0",
        "[[1,3,5],[2],[4,6],[7]]",
        "2c_0-c_1-c_2=0",
        "[[1,4,7],[2],[3],[5],[6]]",
        "c_0-2c_1+c_2=0",
        "[[1],[2,5,7],[3],[4],[6]]",
        "c_0+c_1-2c_2=0",
        "[[1],[2],[3,6,7],[4],[5]]",
    ]


# criterion 3 -----------------------------------------------------------------


def test_rouquier_blocks_exact():
    result = timed_invoke(
        ["rouquier-blocks", "G4", "--exponents", "0,1,2",
         "--display", "index"],
    )
    assert result.exit_code == 0
    assert result.output.splitlines()[-1] == "[[1],[2,5,7],[3],[4],[6]]"


# criterion 4 -----------------------------------------------------------------


def test_group_algebra_limit(g4):
    result = timed_invoke(
        ["rouquier-blocks", "G4", "--exponents", "0,0,0",
         "--display", "index"],
    )
    assert result.output.splitlines()[-1] == "[[1,2,3,4,5,6,7]]"
    # independent route: join of the group-algebra 2- and 3-blocks
    table = g4.character_table
    oracle = join([p_blocks(table, 2), p_blocks(table, 3)])
    assert oracle.as_lists() == [[1, 2, 3, 4, 5, 6, 7]]


# criterion 5 -----------------------------------------------------------------


def test_schur_extraction_consistency(g7):
    reps = ("phi{1,0}", "phi{2,9}'", "phi{3,6}")
    for name in reps:
        s = g7.schur_elements[CharLabel.parse(name)]
        two = essential_monomials(s, 2)
        three = essential_monomials(s, 3)
        for normal in two | three:
            restricted = restrict_b_to_zero(normal)
            assert normal in PRINTED_G7 or (
                any(restricted) and restricted in PRINTED_G6
            ), (name, normal)
        for normal in three:
            assert normal[0] == normal[1] == 0  # difference hyperplane
            assert normal not in two
        for normal in two:
            assert not normal[0] == normal[1] == 0  # mixed hyperplane
            assert normal not in three


# criterion 6 -----------------------------------------------------------------


def test_clifford_transport_reproduces_child_tables(g6, g7):
    (link,) = g6.clifford_links
    moved = descend_hyperplanes(link, g7.hyperplane_tables, g6.slot_count)
    stored = {t.normal: t.blocks for t in g6.hyperplane_tables}
    shared = [t for t in moved if t.normal in stored]
    assert len(shared) >= 10
    for t in shared:
        assert stored[t.normal] == t.blocks, t.normal
    # spot check: induction image of the first degree-3 child character
    triple = Partition.of(
        [[37, 39, 41]] + [[i] for i in range(1, 43) if i not in (37, 39, 41)],
        42,
    )
    assert transport_blocks(link, triple) == Partition.singletons(14)
    # spot check: the a0-a1-2c0+c1+c2 block
    mixed = next(t for t in moved if t.normal == (1, -1, -2, 1, 1))
    part = mixed.blocks.part_of(3)
    assert [g6.characters[i - 1].render() for i in part] == [
        "phi{1,6}", "phi{2,5}''", "phi{2,7}", "phi{3,4}",
    ]


# criterion 7 -----------------------------------------------------------------


def test_lattice_suite():
    # the detailed suite lives in test_lattice.py; re-run its random parts
    from test_lattice import (
        test_decompose_specialization_roundtrip_random,
        test_refactor_adapted_recomposes_exactly,
        test_three_slot_worked_example,
    )

    test_three_slot_worked_example()
    test_refactor_adapted_recomposes_exactly()
    test_decompose_specialization_roundtrip_random()


# criterion 8 -----------------------------------------------------------------


def test_arithmetic_suite():
    from test_cyclo import (
        test_fast_essentiality_matches_norm_oracle_under_ten_seconds,
        test_norm_multiplicativity_on_random_pairs,
        test_reduction_is_idempotent,
    )

    start = time.monotonic()
    test_fast_essentiality_matches_norm_oracle_under_ten_seconds()
    test_norm_multiplicativity_on_random_pairs()
    test_reduction_is_idempotent()
    assert time.monotonic() - start < 10.0


# criterion 9 -----------------------------------------------------------------


def test_database_validation_and_corruptions(db_copy, g4, g7):
    ok, report = verify_db()
    assert ok, report
    assert g4.group_order == 24 == coset_enumeration(
        2, [[0] * 3, [1] * 3, [0, 1, 0, ~1, ~0, ~1]]
    )
    assert g7.group_order == 144 == coset_enumeration(
        3,
        [[0] * 2, [1] * 3, [2] * 3,
         [0, 1, 2, ~0, ~2, ~1], [0, 1, 2, ~1, ~0, ~2]],
    )
    for case in ("normal with nonzero orbit sums", "normal not primitive",
                 "overlapping table parts", "wrong schur coefficient",
                 "parent in two induction rows"):
        name, mutate, _ = MALFORMED[case]
        path = rewrite(db_copy, name, mutate)
        ok, report = verify_db(sorted(db_copy.glob("*.json")))
        assert not ok and report, case
        shutil.copy(SHIPPED / name, path)


# criterion 10 (non-blocking stretch) -----------------------------------------


@pytest.mark.skip(
    reason="schur-path parity for the three-slot group needs its full Schur "
    "payload, which is not reconstructible from the published data; the "
    "schur path itself is exercised on the partial payload in test_engine"
)
def test_schur_path_agrees_with_tables_path():
    pass
