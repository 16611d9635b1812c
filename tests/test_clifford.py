"""Transport of blocks, hyperplanes, and Schur elements along the cyclic
descent from the rank-2 triple-orbit group to its two-orbit subgroup."""

import json
import random

import pytest

from heckeblocks.clifford import (
    CliffordLink,
    descend_hyperplanes,
    transport_blocks,
    transport_schur_x,
)
from heckeblocks.cyclo import CycInt
from heckeblocks.engine import join
from heckeblocks.groupblocks import Partition
from heckeblocks.schur import (
    CharLabel,
    SchurDataError,
    SchurFactorX,
    normalize_x_to_v,
    validate,
    value_at_one,
)
from heckeblocks.store import _cycint, _parse_factor

from checks import once
from malformed_cases import SHIPPED


@pytest.fixture(scope="module")
def link(g6):
    (link,) = g6.clifford_links
    assert link.parent == "G7" and link.child == "G6"
    return link


# ---------------------------------------------------------------------------
# block transport
# ---------------------------------------------------------------------------


# test_acceptance.py's transport criterion (criterion 6) asserts three
# checks of this module too; `once` runs each of them once per session.


@once
def check_degree_three_parent_triple_lands_on_one_child(g6):
    # {39, 41, 37} is the induction image of the first degree-3 child
    # character (child index 13): transporting it creates no child join
    (link,) = g6.clifford_links
    pi = Partition.of(
        [[37, 39, 41]] + [[i] for i in range(1, 43) if i not in (37, 39, 41)],
        42,
    )
    moved = transport_blocks(link, pi)
    assert moved == Partition.singletons(14)
    rows = dict(link.induction_indices())
    assert set(rows[13]) == {37, 39, 41}


def test_degree_three_parent_triple_lands_on_one_child(g6):
    check_degree_three_parent_triple_lands_on_one_child(g6)


def test_transport_is_monotone(link, g7):
    rng = random.Random(3)
    baseline = next(
        t.blocks for t in g7.hyperplane_tables if t.hyperplane is None
    )
    for _ in range(50):
        # random coarsening of the parent baseline
        parts = baseline.as_lists()
        rng.shuffle(parts)
        k = rng.randint(1, len(parts))
        merged = [sum(parts[:k], [])] + parts[k:]
        coarser = Partition.of(merged, 42)
        fine = transport_blocks(link, baseline)
        coarse = transport_blocks(link, coarser)
        assert join([fine, coarse]) == coarse  # fine refines coarse


def test_transport_rejects_wrong_size(link):
    with pytest.raises(ValueError):
        transport_blocks(link, Partition.singletons(5))


# ---------------------------------------------------------------------------
# hyperplane descent against the stored child tables
# ---------------------------------------------------------------------------


@once
def check_descended_tables_match_stored_child_tables(g6, g7):
    (link,) = g6.clifford_links
    moved = descend_hyperplanes(link, g7.hyperplane_tables, g6.slot_count)
    stored = {t.normal: t.blocks for t in g6.hyperplane_tables}
    matched = 0
    for t in moved:
        if t.normal in stored:
            assert stored[t.normal] == t.blocks, t.normal
            matched += 1
    # baseline plus the three c-differences plus mixed restrictions
    assert matched >= 10
    assert (0, 0, 1, -1, 0) in stored
    by_normal = {t.normal: t for t in moved}
    assert (0, 0, 1, -1, 0) in by_normal


def test_descended_tables_match_stored_child_tables(g6, g7):
    check_descended_tables_match_stored_child_tables(g6, g7)


def test_b_difference_hyperplanes_restrict_into_child_baseline(link, g6, g7):
    moved = descend_hyperplanes(link, g7.hyperplane_tables, g6.slot_count)
    baseline = next(t for t in moved if t.hyperplane is None)
    stored_baseline = next(
        t for t in g6.hyperplane_tables if t.hyperplane is None
    )
    assert baseline.blocks == stored_baseline.blocks
    assert [7, 8] in baseline.blocks.as_lists()


@once
def check_spot_check_mixed_hyperplane_block(g6, g7):
    (link,) = g6.clifford_links
    moved = descend_hyperplanes(link, g7.hyperplane_tables, g6.slot_count)
    table = next(t for t in moved if t.normal == (1, -1, -2, 1, 1))
    # the a0-a1-2c0+c1+c2 block of child characters phi{1,6}, phi{2,5}'',
    # phi{2,7}, phi{3,4}
    part = table.blocks.part_of(3)
    assert part == (3, 11, 12, 14)
    assert [g6.characters[i - 1].render() for i in part] == [
        "phi{1,6}", "phi{2,5}''", "phi{2,7}", "phi{3,4}",
    ]


def test_spot_check_mixed_hyperplane_block(g6, g7):
    check_spot_check_mixed_hyperplane_block(g6, g7)


def test_colliding_restrictions_are_joined(link, g7, g6):
    # two distinct parent hyperplanes restrict to the same child normal;
    # the descended table is the join of both transports
    sources = [
        t for t in g7.hyperplane_tables
        if t.normal in ((1, -1, -1, -1, 2, -1, 2, -1),
                        (1, -1, 2, -1, -1, -1, 2, -1))
    ]
    assert len(sources) == 2
    moved = descend_hyperplanes(link, sources, g6.slot_count)
    table = next(t for t in moved if t.normal == (1, -1, -1, 2, -1))
    expected = join([transport_blocks(link, t.blocks) for t in sources])
    assert table.blocks == expected
    assert table.primes == frozenset({2})


# ---------------------------------------------------------------------------
# Schur element transport and the scaling validator
# ---------------------------------------------------------------------------


def identity_link(g7):
    labels = g7.characters
    return CliffordLink.of(
        parent="G7",
        child="G7",
        cyclic_order=1,
        parameter_spec=tuple(("slot", i) for i in range(8)),
        parent_characters=labels,
        child_characters=labels,
        induction=tuple((c, (c,)) for c in labels),
    )


_G7_SCHUR_X = json.loads((SHIPPED / "g7.json").read_text())["schur_x"]


def raw_schur_x(name):
    """The x-form entry of a G7 character, re-read from the database file so
    transport can start from printed data: coeff, lead, factors, lead_den."""
    sdoc = _G7_SCHUR_X[name]
    return (_cycint(sdoc["coeff"]), tuple(sdoc["lead"]),
            [_parse_factor(f) for f in sdoc["factors"]], sdoc.get("lead_den", 1))


def test_identity_link_transport_reproduces_the_stored_element(g7):
    # |Omega| = 1 on the identity link: the transported element, normalised,
    # is the stored one
    link = identity_link(g7)
    coeff, lead, factors, _ = raw_schur_x("phi{1,0}")
    new_coeff, new_lead, lead_den, new_factors = transport_schur_x(
        link, coeff, lead, factors, child_slots=8
    )
    moved = normalize_x_to_v(
        g7, g7.characters[0], new_coeff, new_lead, new_factors, lead_den
    )
    stored = g7.schur_elements[g7.characters[0]]
    assert moved.xi == stored.xi
    assert moved.lead == stored.lead
    assert moved.factors == stored.factors


def test_degree_three_transport_scales_by_orbit_size(link, g6, g7):
    # specializing the printed degree-3 parent element along the link must
    # give |orbit| = 3 times a child Schur element: its value at v=1 is
    # 3 * |child group| / 3 = 48
    coeff, lead, factors, _ = raw_schur_x("phi{3,6}")
    new_coeff, new_lead, lead_den, new_factors = transport_schur_x(
        link, coeff, lead, factors, child_slots=g6.slot_count
    )
    moved = normalize_x_to_v(
        g6, CharLabel(3, 2), new_coeff, new_lead, new_factors, lead_den
    )
    assert value_at_one(g6, moved) == CycInt.rational(48)


def test_every_stored_g7_element_transports_to_g6(link, g6):
    """Factors whose monomial restricts to 0 fold into the coefficient, so
    each G7 element lands on |orbit| = 3 times a valid G6 element: its value
    at v=1 is 3 * |G6| / chi(1)."""
    values = {}
    for name in _G7_SCHUR_X:
        coeff, lead, factors, lead_den = raw_schur_x(name)
        coeff, lead, lead_den, factors = transport_schur_x(
            link, coeff, lead, factors, g6.slot_count, lead_den)
        (child,) = [c for c, parents in link.induction
                    if CharLabel.parse(name) in parents]
        s = normalize_x_to_v(g6, child, coeff, lead, factors, lead_den)
        values[child.render()] = value_at_one(g6, s)
        assert validate(g6, s._replace(xi=s.xi.exact_div_int(3))) == []
    assert values == {"phi{1,0}": CycInt.rational(144),
                      "phi{2,5}''": CycInt.rational(72),
                      "phi{3,2}": CycInt.rational(48)}


def test_transport_rejects_a_factor_vanishing_on_the_child(link, g6):
    # x_c0 / x_c1 restricts to the constant zeta_3^2 along the link, a root
    # of Phi_3
    factor = SchurFactorX(3, (0, 0, 1, -1, 0, 0, 0, 0))
    with pytest.raises(SchurDataError, match="Phi_3 vanishes"):
        transport_schur_x(link, CycInt.rational(1), (0,) * 8, [factor],
                          g6.slot_count)


def test_induction_rows_reject_duplicates(g7, g6, link):
    labels = g6.characters
    bad_rows = (
        (labels[0], (g7.characters[0], g7.characters[2])),
        (labels[1], (g7.characters[0], g7.characters[5])),
    )
    with pytest.raises(ValueError):
        CliffordLink.of(
            parent="G7",
            child="G6",
            cyclic_order=2,
            parameter_spec=link.parameter_spec,
            parent_characters=g7.characters,
            child_characters=labels,
            induction=bad_rows,
        )
