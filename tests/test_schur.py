"""Factorized Schur elements: x-to-v normalization, structural validation,
essential monomials, and the a/A invariants against a brute-force Laurent
expansion."""

import cmath
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from heckeblocks.cyclo import CycInt, RootOfUnity, factorint
from heckeblocks.lattice import dot
from heckeblocks.schur import (
    BadPrimeArgument,
    CharLabel,
    SchurDataError,
    SchurFactorX,
    a_and_A,
    aa_weight,
    bad_primes,
    essential_hyperplanes,
    essential_monomials,
    generic_singleton,
    normalize_x_to_v,
    schur_facts,
    sign_canonical,
    specialize,
    validate,
    value_at_one,
)

REPRESENTATIVES = ("phi{1,0}", "phi{2,9}'", "phi{3,6}")

# The published essential-hyperplane lists, frozen here as the oracle.
# G7 slot order: a0 a1 b0 b1 b2 c0 c1 c2.
PRINTED_G7 = {
    (0, 0, 0, 0, 0, 0, 1, -1),
    (0, 0, 0, 0, 0, 1, -1, 0),
    (0, 0, 0, 0, 0, 1, 0, -1),
    (0, 0, 0, 1, -1, 0, 0, 0),
    (0, 0, 1, -1, 0, 0, 0, 0),
    (0, 0, 1, 0, -1, 0, 0, 0),
    (1, -1, -2, 1, 1, -2, 1, 1),
    (1, -1, -2, 1, 1, 1, -2, 1),
    (1, -1, -2, 1, 1, 1, 1, -2),
    (1, -1, -1, -1, 2, -1, -1, 2),
    (1, -1, -1, -1, 2, -1, 2, -1),
    (1, -1, 2, -1, -1, -1, 2, -1),
    (1, -1, 2, -1, -1, 2, -1, -1),
}
# G6 slot order: a0 a1 c0 c1 c2.  The published list; the G7 list restricts
# onto it by zeroing the middle (b) orbit.
PRINTED_G6 = {
    (0, 0, 0, 1, -1),
    (0, 0, 1, -1, 0),
    (0, 0, 1, 0, -1),
    (1, -1, -2, 1, 1),
    (1, -1, 1, -2, 1),
    (1, -1, 1, 1, -2),
    (1, -1, -1, -1, 2),
    (1, -1, -1, 2, -1),
    (1, -1, 2, -1, -1),
    (1, -1, -1, 1, 0),
    (1, -1, 0, -1, 1),
    (1, -1, 1, 0, -1),
    (1, -1, -1, 0, 1),
    (1, -1, 0, 1, -1),
    (1, -1, 1, -1, 0),
    (1, -1, 0, 0, 0),
}


def rep_elements(g7):
    return [g7.schur_elements[CharLabel.parse(n)] for n in REPRESENTATIVES]


def restrict_b_to_zero(normal):
    return (normal[0], normal[1], normal[5], normal[6], normal[7])


# ---------------------------------------------------------------------------
# normalization output is structurally sound and has the right value at v=1
# ---------------------------------------------------------------------------


def test_representatives_validate_cleanly(g7):
    for s in rep_elements(g7):
        assert validate(g7, s) == []


def test_value_at_one_is_group_order_over_degree(g7):
    for s in rep_elements(g7):
        expected = g7.group_order // s.char.degree
        assert value_at_one(g7, s) == CycInt.rational(expected)


# The v-forms of the three representatives, pinned: xi's coefficients in
# Z[zeta_12], lead, and for each monomial the roots order:exponent of its
# factors over Q(zeta_12), in stored order, every multiplicity 1.
G7_NORMALISED = {
    "phi{1,0}": ((1, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0), {
        (0, 0, 0, 0, 0, 1, -1, 0): "9:1 18:5 36:1 36:7",
        (0, 0, 0, 0, 0, 1, 0, -1): "9:2 18:1 36:5 36:11",
        (0, 0, 1, -1, 0, 0, 0, 0): "9:1 18:5 36:1 36:7",
        (0, 0, 1, 0, -1, 0, 0, 0): "9:2 18:1 36:5 36:11",
        (1, -1, 0, 0, 0, 0, 0, 0): "8:1 8:3 24:1 24:5 24:7 24:11",
        (1, -1, 1, -1, 0, 1, -1, 0): "72:1 72:7",
        (1, -1, 1, -1, 0, 1, 0, -1): "8:1 8:3 24:1 24:5 24:7 24:11",
        (1, -1, 1, 0, -1, 1, -1, 0): "8:1 8:3 24:1 24:5 24:7 24:11",
        (1, -1, 1, 0, -1, 1, 0, -1): "72:5 72:11",
        (1, -1, 2, -1, -1, 2, -1, -1): "8:1 8:3 24:1 24:5 24:7 24:11",
    }),
    "phi{2,9}'": ((0, 0, 0, 2), (-18, 18, -36, 18, 18, -36, 18, 18), {
        (0, 0, 0, 0, 0, 1, -1, 0): "9:1 18:5 36:1 36:7",
        (0, 0, 0, 0, 0, 1, 0, -1): "9:2 18:1 36:5 36:11",
        (0, 0, 1, -1, 0, 0, 0, 0): "9:1 18:5 36:1 36:7",
        (0, 0, 1, 0, -1, 0, 0, 0): "9:2 18:1 36:5 36:11",
        (1, -1, -2, 1, 1, -2, 1, 1): "8:3 24:1 24:5",
        (1, -1, 0, -1, 1, 0, -1, 1): "72:11",
        (1, -1, 0, -1, 1, 0, 1, -1): "8:3 24:1 24:5",
        (1, -1, 0, 1, -1, 0, -1, 1): "8:3 24:1 24:5",
        (1, -1, 0, 1, -1, 0, 1, -1): "72:7",
        (1, -1, 2, -1, -1, 2, -1, -1): "8:3 24:1 24:5",
    }),
    "phi{3,6}": ((3, 0, 0, 0), (-12, 12, 0, 0, 0, 0, 0, 0), {
        (1, -1, -1, -1, 2, -1, -1, 2): "24:1 24:7",
        (1, -1, -1, -1, 2, -1, 2, -1): "8:1 8:3",
        (1, -1, -1, -1, 2, 2, -1, -1): "24:5 24:11",
        (1, -1, -1, 2, -1, -1, -1, 2): "8:1 8:3",
        (1, -1, -1, 2, -1, -1, 2, -1): "24:5 24:11",
        (1, -1, -1, 2, -1, 2, -1, -1): "24:1 24:7",
        (1, -1, 0, 0, 0, 0, 0, 0): "8:1 8:3 24:1 24:5 24:7 24:11",
        (1, -1, 2, -1, -1, -1, -1, 2): "24:5 24:11",
        (1, -1, 2, -1, -1, -1, 2, -1): "24:1 24:7",
        (1, -1, 2, -1, -1, 2, -1, -1): "8:1 8:3",
    }),
}


def test_normalised_representatives_are_pinned(g7):
    for name, (xi, lead, factors) in G7_NORMALISED.items():
        s = g7.schur_elements[CharLabel.parse(name)]
        assert (s.xi.conductor, s.xi.coeffs, s.lead) == (12, xi, lead)
        roots = {}
        for fac in s.factors:
            assert (fac.psi.field_conductor, fac.mult) == (12, 1)
            roots.setdefault(fac.monomial, []).append(
                f"{fac.psi.root.order}:{fac.psi.root.exponent}")
        assert {m: " ".join(r) for m, r in roots.items()} == factors, name


def test_monomials_are_primitive_sign_canonical_zero_sum(g7):
    for s in rep_elements(g7):
        for fac in s.factors:
            assert fac.psi.root.order >= 2
            for rng in g7.orbit_ranges():
                assert sum(fac.monomial[i] for i in rng) == 0


# ---------------------------------------------------------------------------
# extracted hyperplanes lie in the published lists with the right primes
# ---------------------------------------------------------------------------


def test_extracted_hyperplanes_subset_of_published(g7):
    for s in rep_elements(g7):
        for p in (2, 3):
            for normal in essential_monomials(s, p):
                restricted = restrict_b_to_zero(normal)
                assert normal in PRINTED_G7 or (
                    any(restricted) and restricted in PRINTED_G6
                ), (s.char.render(), p, normal)


def test_difference_hyperplanes_exactly_three_essential(g7):
    for s in rep_elements(g7):
        three = essential_monomials(s, 3)
        two = essential_monomials(s, 2)
        for normal in three | two:
            is_difference = normal[0] == normal[1] == 0
            if is_difference:
                assert normal in three and normal not in two, normal
            else:
                assert normal in two and normal not in three, normal


def test_expected_essential_sets_for_each_representative(g7):
    a_diff = (1, -1, 0, 0, 0, 0, 0, 0)
    bc_diffs = {
        (0, 0, 1, -1, 0, 0, 0, 0),
        (0, 0, 1, 0, -1, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, -1, 0),
        (0, 0, 0, 0, 0, 1, 0, -1),
    }
    s1, s2, s3 = rep_elements(g7)
    assert essential_monomials(s1, 2) == {
        a_diff,
        (1, -1, 1, -1, 0, 1, 0, -1),
        (1, -1, 1, 0, -1, 1, -1, 0),
        (1, -1, 2, -1, -1, 2, -1, -1),
    }
    assert essential_monomials(s1, 3) == bc_diffs
    assert essential_monomials(s2, 2) == {
        (1, -1, -2, 1, 1, -2, 1, 1),
        (1, -1, 0, -1, 1, 0, 1, -1),
        (1, -1, 0, 1, -1, 0, -1, 1),
        (1, -1, 2, -1, -1, 2, -1, -1),
    }
    assert essential_monomials(s2, 3) == bc_diffs
    assert essential_monomials(s3, 2) == {
        a_diff,
        (1, -1, -1, -1, 2, -1, 2, -1),
        (1, -1, -1, 2, -1, -1, -1, 2),
        (1, -1, 2, -1, -1, 2, -1, -1),
    }
    assert essential_monomials(s3, 3) == set()


def test_trivial_character_is_generic_singleton(g7):
    s = g7.schur_elements[CharLabel.parse("phi{1,0}")]
    for p in (2, 3):
        assert generic_singleton(g7, s, p)


def test_generic_singleton_agrees_with_recomputation(g7):
    """generic_singleton reads the stored SchurFacts; the norm and the
    essential monomials recomputed from the element give the same answer
    off every hyperplane, on p-essential ones (either sign) and on others,
    at primes dividing |G| and not."""
    normals = sorted({h for s in g7.schur_elements.values() for p in (2, 3)
                      for h in essential_monomials(s, p)})
    off = (0, 0, 1, 0, -1, 1, 0, -1)
    assert off not in normals
    hyperplanes = [None, off, *normals, *(tuple(-c for c in h) for h in normals)]
    reasons = set()
    for s in g7.schur_elements.values():
        for p in (2, 3, 5, 7):
            for h in hyperplanes:
                if abs(s.xi.norm()) % p == 0:
                    expected, reason = False, "norm"
                elif h is not None and \
                        sign_canonical(h) in essential_monomials(s, p):
                    expected, reason = False, "on"
                else:
                    expected, reason = True, "off" if h else "generic"
                assert generic_singleton(g7, s, p, h) == expected, (s.char, p, h)
                reasons.add(reason)
    assert reasons == {"norm", "on", "off", "generic"}


def test_generic_singleton_reads_the_hyperplane_up_to_a_scalar(g7):
    """H, 2H and -H name one hyperplane: at p = 2 phi{1,0} once gave False
    for H = (1,-1,2,-1,-1,2,-1,-1) and -H but True for 2H."""
    normals = {t.normal for t in g7.hyperplane_tables if t.normal is not None}
    normals |= {h for s in g7.schur_elements.values() for p in g7.primes
                for h in essential_monomials(s, p)}
    assert (1, -1, 2, -1, -1, 2, -1, -1) in normals
    for s in g7.schur_elements.values():
        for p in g7.primes:
            for h in normals:
                answers = {generic_singleton(g7, s, p, tuple(c * k for c in h))
                           for k in (1, 2, -1)}
                assert len(answers) == 1, (s.char, p, h)
    s = g7.schur_elements[CharLabel.parse("phi{1,0}")]
    assert not generic_singleton(g7, s, 2, (2, -2, 4, -2, -2, 4, -2, -2))


@pytest.mark.parametrize("p", [0, 1, 4, 6])
def test_generic_singleton_rejects_a_p_not_prime(g7, p):
    s = g7.schur_elements[CharLabel.parse("phi{1,0}")]
    with pytest.raises(ValueError):
        generic_singleton(g7, s, p)


def test_generic_singleton_rejects_the_zero_normal(g7):
    s = g7.schur_elements[CharLabel.parse("phi{1,0}")]
    with pytest.raises(ValueError):
        generic_singleton(g7, s, 2, (0,) * 8)


# ---------------------------------------------------------------------------
# essential_hyperplanes: table fallback and the bad-prime error
# ---------------------------------------------------------------------------


def test_essential_hyperplanes_from_tables(g4):
    assert essential_hyperplanes(g4, 3) == [
        (0, 1, -1), (1, -1, 0), (1, 0, -1),
    ]
    all_six = essential_hyperplanes(g4, 0)
    assert set(all_six) == {
        (0, 1, -1), (1, -1, 0), (1, 0, -1),
        (2, -1, -1), (1, -2, 1), (1, 1, -2),
    }
    assert essential_hyperplanes(g4, 2) == all_six


def test_bad_prime_raises_verbatim_message(g4):
    with pytest.raises(BadPrimeArgument) as err:
        essential_hyperplanes(g4, 5)
    assert str(err.value) == "The number p should divide the order of the group"


# ---------------------------------------------------------------------------
# a/A invariants against a brute-force Laurent expansion
# ---------------------------------------------------------------------------


def laurent_expand(g, sp):
    """Expand a specialized Schur element as {y-power: CycInt} by multiplying
    out every factor Psi(y^delta) = prod (y^delta - zeta_d^s)."""
    big = lcm(g.field_conductor,
              *(psi.root.order for psi, _, _ in sp.terms)) if sp.terms else (
        g.field_conductor)
    poly = {sp.y_power: sp.psi_coeff.lift(lcm(sp.psi_coeff.conductor, big))}
    for psi, delta, mult in sp.terms:
        d = psi.root.order
        for _ in range(mult):
            for s in psi.orbit():
                root = CycInt.zeta(d, s).lift(big)
                nxt = {}
                for power, c in poly.items():
                    hi = nxt.get(power + delta, CycInt.rational(0)) + c
                    nxt[power + delta] = hi
                    lo = nxt.get(power, CycInt.rational(0)) - c * root
                    nxt[power] = lo
                poly = {k: v for k, v in nxt.items() if not v.is_zero()}
    return poly


LAURENT_VECTORS = [
    (0, 1, 2, 0, 1, 2, 0, 1),
    (1, 0, 0, 0, 0, 0, 0, 0),
    (2, -1, 1, 0, -1, 3, -2, -1),
]
_rng = random.Random(20070)
RANDOM_VECTORS = [tuple(_rng.randint(-4, 4) for _ in range(8))
                  for _ in range(30)]


@pytest.mark.parametrize("n", LAURENT_VECTORS)
def test_a_and_A_match_laurent_expansion(g7, n):
    for s in rep_elements(g7):
        sp = specialize(g7, s, n)
        poly = laurent_expand(g7, sp)
        assert poly, "specialized element expanded to zero"
        a, big_a = a_and_A(g7, sp)
        assert a == Fraction(min(poly), g7.mu_order)
        assert big_a == Fraction(max(poly), g7.mu_order)


@pytest.mark.parametrize("n", LAURENT_VECTORS + RANDOM_VECTORS)
def test_aa_weight_matches_laurent_expansion(g7, n):
    # y = x^(1/mu), so mu * (a + A) is the sum of the least and the greatest
    # y-power of the expanded element
    for s in g7.schur_elements.values():
        poly = laurent_expand(g7, specialize(g7, s, n))
        assert dot(aa_weight(s), n) == min(poly) + max(poly), (s.char, n)


def test_specialization_at_zero_recovers_group_order_over_degree(g7):
    n = (0,) * 8
    for s in rep_elements(g7):
        sp = specialize(g7, s, n)
        assert sp.terms == ()
        assert sp.psi_coeff == CycInt.rational(g7.group_order // s.char.degree)
        assert a_and_A(g7, sp) == (Fraction(0), Fraction(0))


def test_bad_primes_on_a_full_payload(g7):
    # G7 cut down to the characters with stored Schur data has a full payload
    g = g7._replace(characters=tuple(g7.schur_elements))
    assert g.has_full_schur and not g7.has_full_schur
    with pytest.raises(ValueError):
        bad_primes(g7, (0,) * 8)
    # at n = 0 the coefficients are |G| / chi(1) = 144, 72, 48
    assert bad_primes(g, (0,) * 8) == {2, 3}
    assert bad_primes(g, (2, -1, 1, 0, -1, 3, -2, -1)) <= {2, 3}


def _oracle_bad_primes(g, n):
    """The primes of the norm of every specialized coefficient psi_chi,
    multiplied out and factorised."""
    out = set()
    for c in g.characters:
        sp = specialize(g, g.schur_elements[c], n)
        out |= set(factorint(abs(sp.psi_coeff.norm())))
    return out


def _vector_on(normal, rng):
    """An integer vector orthogonal to the normal."""
    r = [rng.randint(-4, 4) for _ in normal]
    return tuple(dot(normal, normal) * x - dot(normal, r) * c
                 for x, c in zip(r, normal))


def test_bad_primes_read_off_the_index_agree_with_the_norms(g7):
    """On G7 cut to its Schur characters, and on the cut with every xi set
    to 1 (facts rebuilt), where only the vanishing monomials add primes."""
    cut = g7._replace(characters=tuple(g7.schur_elements))
    elements = {c: s._replace(xi=CycInt.rational(1))
                for c, s in cut.schur_elements.items()}
    unit = cut._replace(
        schur_elements=elements,
        schur_facts={c: schur_facts(cut, s) for c, s in elements.items()})
    rng = random.Random(13)
    vectors = [(0,) * 8]
    vectors += [tuple(rng.randint(-5, 5) for _ in range(8)) for _ in range(50)]
    normals = sorted({h for f in cut.schur_facts.values()
                      for _, h in f.essential})
    vectors += [_vector_on(h, rng) for h in normals]
    answers = set()
    for g in (cut, unit):
        for n in vectors:
            expected = _oracle_bad_primes(g, n)
            assert bad_primes(g, n) == expected, n
            if g is unit:
                answers.add(frozenset(expected))
    # the unit variant reaches the monomial branch: no prime at a generic
    # vector, each prime alone on some normal, both at n = 0
    assert {frozenset(), frozenset({2}), frozenset({3}),
            frozenset({2, 3})} <= answers


# ---------------------------------------------------------------------------
# x-form and v-form agree as functions of v
# ---------------------------------------------------------------------------


def _phi(n, z):
    """Phi_n(z), as the product over the primitive n-th roots of unity."""
    out = 1
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            out *= z - cmath.exp(2j * cmath.pi * k / n)
    return out


def _zeta(order, exponent):
    return cmath.exp(2j * cmath.pi * exponent / order)


def _x_power(g, v, w, q):
    """x^(w/q) at the point v, where x_(C,j)^(1/q) = zeta_(q e_C)^j *
    v_(C,j)^(mu/q)."""
    slots = [(j, e) for _, e in g.orbits for j in range(e)]
    out = 1
    for vs, ws, (j, e) in zip(v, w, slots):
        out *= _zeta(q * e, j * ws) * vs ** (g.mu_order * ws // q)
    return out


def _x_form_value(g, coeff, lead, factors, v):
    value = complex(_cycint_value(coeff)) * _x_power(g, v, lead, 1)
    for fac in factors:
        twist = _zeta(fac.twist.order, fac.twist.exponent)
        value *= _phi(fac.cyc_index, twist * _x_power(
            g, v, fac.exps_numerator, fac.exps_denominator))
    return value


def _cycint_value(c):
    return sum(a * _zeta(c.conductor, k) for k, a in enumerate(c.coeffs))


def _v_form_value(s, v):
    value = _cycint_value(s.xi)
    for vs, a in zip(v, s.lead):
        value *= vs ** a
    for fac in s.factors:
        t = 1
        for vs, a in zip(v, fac.monomial):
            t *= vs ** a
        d = fac.psi.root.order
        for e in fac.psi.orbit():
            value *= (t - _zeta(d, e)) ** fac.mult
    return value


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12])
def test_v_form_evaluates_like_the_x_form(g7, n):
    """Phi_n(x^(w/q)) with w not sign-canonical, next to a random second
    factor, at random points v on the unit torus: the v-form takes the
    x-form's values.  Inputs whose root set or unit the normalisation
    rejects are drawn again."""
    rng = random.Random(1000 + n)
    checked = 0
    while checked < 12:
        q = rng.choice([1, 1, 2, 3])
        w = [0] * 8
        while sign_canonical(w) == tuple(w):
            w = [q * rng.randint(-2, 2) for _ in range(8)]
        other = SchurFactorX(rng.choice([1, 2, 3, 4, 6]),
                             tuple(rng.randint(-1, 1) for _ in range(8)), 1,
                             RootOfUnity.of(12, rng.randrange(12)))
        factors = [SchurFactorX(n, tuple(w), q,
                                RootOfUnity.of(12, rng.randrange(12))), other]
        coeff = CycInt(12, [rng.randint(-3, 3) for _ in range(4)])
        lead = tuple(rng.randint(-2, 2) for _ in range(8))
        if coeff.is_zero() or not any(other.exps_numerator):
            continue
        try:
            s = normalize_x_to_v(g7, CharLabel(1, 0), coeff, lead, factors)
        except SchurDataError:
            continue
        for _ in range(3):
            v = [_zeta(1, rng.random()) for _ in range(8)]
            expected = _x_form_value(g7, coeff, lead, factors, v)
            assert abs(_v_form_value(s, v) - expected) < 1e-9 * abs(expected)
        checked += 1


# ---------------------------------------------------------------------------
# data-entry error detection in normalize_x_to_v
# ---------------------------------------------------------------------------


def test_root_order_one_factor_is_rejected(g7):
    # Phi_2(x_a0 / x_a1) has the root of unity part zeta_2, so tau = 1 shows
    # up in the root set: forbidden.
    bad = SchurFactorX(2, (1, -1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(SchurDataError):
        normalize_x_to_v(g7, CharLabel(1, 0), CycInt.rational(1),
                         (0,) * 8, [bad])


def test_trivial_monomial_is_rejected(g7):
    bad = SchurFactorX(2, (0, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(SchurDataError):
        normalize_x_to_v(g7, CharLabel(1, 0), CycInt.rational(1),
                         (0,) * 8, [bad])


def test_wrong_radical_twist_is_rejected(g7):
    # the cube-root factors of the degree-3 representative with the wrong
    # branch twist leave a coefficient outside Z[zeta_12]
    factors = [SchurFactorX(1, (-1, 1, 0, 0, 0, 0, 0, 0))]
    for j in range(3):
        for k in range(3):
            num = (1, -1) + tuple(-1 + 3 * (i == j) for i in range(3)) \
                + tuple(-1 + 3 * (i == k) for i in range(3))
            factors.append(SchurFactorX(1, num, 3, RootOfUnity.of(9, 1)))
    with pytest.raises(SchurDataError):
        normalize_x_to_v(g7, CharLabel(3, 6), CycInt.rational(3),
                         (0,) * 8, factors)
