"""Exact cyclotomic arithmetic: ring laws, norms, prime handles, and the
fast p-essentiality criterion against a norm oracle."""

import cmath
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import sympy
from sympy import Poly, Symbol, cyclotomic_poly

from heckeblocks import cyclo
from heckeblocks.cyclo import (
    MAX_CONDUCTOR,
    CycInt,
    KCyclotomic,
    PrimeIdealHandle,
    RootOfUnity,
    euler_phi,
    factorint,
    in_prime_ideal,
    isprime,
    is_p_essential_factor,
    prime_handle,
    residues,
    _phi_coeffs,
    _phi_factors_mod_p,
)

from checks import once

CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 12, 24]


def random_cycint(rng, conductor):
    deg = euler_phi(conductor)
    return CycInt(conductor, [rng.randint(-9, 9) for _ in range(deg)])


# ---------------------------------------------------------------------------
# basic ring structure
# ---------------------------------------------------------------------------


def test_zeta_roots_satisfy_cyclotomic_relation():
    for n in (2, 3, 4, 5, 6, 12):
        z = CycInt.zeta(n)
        assert z ** n == CycInt.rational(1)
        # primitive: no smaller power is 1
        for k in range(1, n):
            assert z ** k != CycInt.rational(1)


def test_one_minus_zeta3_product_is_three():
    z = CycInt.zeta(3)
    prod = (CycInt.rational(1) - z) * (CycInt.rational(1) - z * z)
    assert prod == CycInt.rational(3)


def test_norm_of_two_plus_zeta5_is_eleven():
    a = CycInt.rational(2) + CycInt.zeta(5)
    assert a.norm() == 11


@pytest.mark.parametrize("conductor, coeffs", [
    (3, [1.5, 0]), (3, ["2", 1]), (3, [True, 0]), (3.0, [1, 0]), (True, [1]),
])
def test_cycint_rejects_non_integers(conductor, coeffs):
    """Neither truncated (1.5 became 1) nor parsed ("2" became 2)."""
    with pytest.raises(TypeError):
        CycInt(conductor, coeffs)


@pytest.mark.parametrize("r", [1.5, "7", True])
def test_rational_rejects_non_integers(r):
    """As the constructor does: rational(1.5) gave CycInt(1, [1])."""
    with pytest.raises(TypeError):
        CycInt.rational(r)


def test_bool_operand_is_rejected():
    """zeta_3 + True gave CycInt(3, [1, 1]); a bool is not a ring element."""
    with pytest.raises(TypeError):
        CycInt.zeta(3) + True


def test_lift_descend_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.choice(CONDUCTORS)
        n = m * rng.choice([1, 2, 3, 4])
        a = random_cycint(rng, m)
        assert a.lift(n).descend(m) == a


def test_descend_rejects_foreign_elements():
    with pytest.raises(ValueError):
        CycInt.zeta(12).descend(4)


# With n = a b, a on the primes of m and b prime to m: b = 1 at (12, 72);
# a = m at (3, 12), (4, 12), (5, 15) and (4, 20); a > m with b > 1 at
# (2, 12) and (4, 24); a = 1 at (1, 12).
@pytest.mark.parametrize("m,n", [(3, 12), (4, 12), (5, 15), (4, 20), (2, 12),
                                 (4, 24), (1, 12), (12, 72)])
def test_descend_where_the_lift_needs_reduction(m, n):
    # oracle: an element of Z[zeta_n] lies in Z[zeta_m] exactly when every
    # automorphism zeta_n -> zeta_n^t with t = 1 mod m fixes it
    fixing = [t for t in range(1, n) if gcd(t, n) == 1 and t % m == 1 % m]
    rng = random.Random(m * 100 + n)
    for _ in range(100):
        a = random_cycint(rng, m)
        assert a.lift(n).descend(m) == a
        b = random_cycint(rng, n)
        if all(b.galois_conjugate(t) == b for t in fixing):
            assert b.descend(m).lift(n) == b
        else:
            with pytest.raises(ValueError):
                b.descend(m)


def fraction_descent_map(m, n):
    """An exact left inverse E/den of the lift matrix L of Z[zeta_m] ->
    Z[zeta_n], as integer rows of (index, coefficient) pairs: Gauss-Jordan
    over Fraction on [L^T | I], each pivot row divided by its pivot as it
    is chosen."""
    k, rows = euler_phi(m), euler_phi(n)
    aug = [
        [Fraction(c) for c in CycInt.zeta(m, i).lift(n).coeffs]
        + [Fraction(int(i == j)) for j in range(k)]
        for i in range(k)
    ]
    pivots = []
    for c in range(rows):
        top = len(pivots)
        if top == k:
            break
        r = next((r for r in range(top, k) if aug[r][c]), None)
        if r is None:
            continue
        aug[top], aug[r] = aug[r], aug[top]
        lead = aug[top][c]
        aug[top] = [x / lead for x in aug[top]]
        for r in range(k):
            if r != top and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[top])]
        pivots.append(c)
    e = [row[rows:] for row in aug]
    den = lcm(*(x.denominator for row in e for x in row))
    return den, tuple(
        tuple((pivots[i], int(e[i][j] * den)) for i in range(k) if e[i][j])
        for j in range(k)
    )


def test_descend_matches_fraction_gauss_jordan():
    """descend gives E y / den, and raises ValueError exactly when that is
    not integral or does not lift back to y, for lifted elements and for
    elements of Z[zeta_n] and of a ring between."""
    pairs = [(m, n) for n in range(1, 121) for m in range(1, n + 1)
             if n % m == 0]
    assert len(pairs) == 602
    rng = random.Random(19)
    for m, n in pairs:
        den, rows = fraction_descent_map(m, n)
        between = [d for d in range(m, n + 1) if n % d == 0 and d % m == 0]
        for source in (m, n, rng.choice(between)):
            y = random_cycint(rng, source).lift(n)
            values = [sum(c * y.coeffs[j] for j, c in row) for row in rows]
            if all(v % den == 0 for v in values):
                x = CycInt(m, [v // den for v in values])
                if x.lift(n) == y:
                    assert y.descend(m).coeffs == x.coeffs, (m, n, y)
                    continue
            assert source != m, (m, n, y)
            with pytest.raises(ValueError):
                y.descend(m)


def test_phi_coeffs_match_sympy():
    """n below 200, and the 23 conductors up to MAX_CONDUCTOR with four
    distinct primes, where the Moebius product divides most often."""
    x = Symbol("x")
    four_primes = [n for n in range(1, MAX_CONDUCTOR + 1)
                   if len(sympy.factorint(n)) == 4]
    assert len(four_primes) == 23 and four_primes[0] == 210
    for n in [*range(1, 200), *four_primes]:
        expected = Poly(cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(_phi_coeffs(n)) == [int(c) for c in expected], n


def test_factorint_isprime_euler_phi_match_sympy():
    for n in range(1, 2000):
        assert factorint(n) == sympy.factorint(n), n
        assert euler_phi(n) == sympy.totient(n), n
    for n in range(-5, 2000):
        assert isprime(n) == sympy.isprime(n), n


def test_factorint_stops_at_its_trial_bound():
    p = sympy.nextprime(1 << 20)
    q = sympy.nextprime(p)
    # a prime cofactor below the bound squared is recognised
    assert factorint(6 * p) == {2: 1, 3: 1, p: 1}
    assert isprime(p) and not isprime(p * 2)
    start = time.monotonic()
    with pytest.raises(ValueError):
        factorint(p * q)
    with pytest.raises(ValueError):
        isprime(p * q)
    assert time.monotonic() - start < 1.0


def test_mixed_conductor_equality():
    assert CycInt.zeta(6) == CycInt.rational(1) + CycInt.zeta(3)
    assert CycInt.zeta(4) != CycInt.zeta(8)


def test_galois_conjugate_is_ring_map():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.choice([5, 8, 12, 24])
        t = rng.choice([t for t in range(1, n) if gcd(t, n) == 1])
        a, b = random_cycint(rng, n), random_cycint(rng, n)
        assert (a * b).galois_conjugate(t) == a.galois_conjugate(
            t
        ) * b.galois_conjugate(t)
        assert (a + b).galois_conjugate(t) == a.galois_conjugate(
            t
        ) + b.galois_conjugate(t)


@given(st.lists(st.integers(-50, 50), min_size=4, max_size=4),
       st.lists(st.integers(-50, 50), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_multiplication_commutes_in_z_zeta12(u, v):
    a, b = CycInt(12, u), CycInt(12, v)
    assert a * b == b * a
    assert a + b == b + a


# test_acceptance.py's arithmetic suite (criterion 8) asserts three checks
# of this module too, within 10 s; `once` runs each of them once per session.


@once
def check_reduction_is_idempotent():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.choice(CONDUCTORS)
        raw = [rng.randint(-20, 20) for _ in range(2 * n + 1)]
        once = CycInt(n, raw)
        assert CycInt(n, once.coeffs) == once


def test_reduction_is_idempotent():
    check_reduction_is_idempotent()


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


@once
def check_norm_multiplicativity_on_random_pairs():
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.choice(CONDUCTORS)
        a, b = random_cycint(rng, n), random_cycint(rng, n)
        assert (a * b).norm() == a.norm() * b.norm()


def test_norm_multiplicativity_on_random_pairs():
    check_norm_multiplicativity_on_random_pairs()


def resultant_norm(a: CycInt) -> int:
    """Independent norm oracle: Res(Phi_N, a(x)) through sympy."""
    x = Symbol("x")
    phi = Poly(_phi_coeffs(a.conductor)[::-1], x)
    return int(phi.resultant(Poly(a.coeffs[::-1], x)))


def _sweep():
    """The K-cyclotomics over SWEEP_FIELDS with roots of order 2 to 60."""
    return {KCyclotomic.of(m, RootOfUnity.of(d, e))
            for m in SWEEP_FIELDS for d in range(2, 61) for e in range(1, d)
            if gcd(e, d) == 1}


def test_norm_matches_resultant_oracle():
    rng = random.Random(29)
    for n in CONDUCTORS:
        for _ in range(30):
            a = random_cycint(rng, n)
            if not a.is_zero():
                assert a.norm() == resultant_norm(a), a
        assert CycInt(n, [0] * euler_phi(n)).norm() == 0
    for psi in _sweep():
        value = psi.value_at_one()
        assert value.norm() == resultant_norm(value), psi


def product_value_at_one(psi: KCyclotomic) -> CycInt:
    """Oracle for value_at_one: the product of the factors 1 - zeta_d^s,
    each reduced in Z[zeta_L], L = lcm(m, d), then descended to Z[zeta_m]."""
    m, d = psi.field_conductor, psi.root.order
    acc = CycInt.rational(1)
    for s in psi.orbit():
        acc = acc * (CycInt.rational(1) - CycInt.zeta(d, s).lift(lcm(m, d)))
    return acc.descend(m)


def test_value_at_one_matches_the_reduced_product():
    for psi in _sweep():
        value, expected = psi.value_at_one(), product_value_at_one(psi)
        assert (value.conductor, value.coeffs) == \
            (expected.conductor, expected.coeffs), psi


def test_norm_of_rationals_and_units():
    assert CycInt.rational(6).norm() == 6
    for n in (3, 4, 5, 12):
        assert abs(CycInt.zeta(n).norm()) == 1


# ---------------------------------------------------------------------------
# roots of unity and K-cyclotomic polynomials
# ---------------------------------------------------------------------------


def test_root_of_unity_canonical_form():
    assert RootOfUnity.of(6, 2) == RootOfUnity.of(3, 1)
    assert RootOfUnity.of(4, 6) == RootOfUnity.of(2, 1)
    assert RootOfUnity.of(5, 0) == RootOfUnity.one()
    r = RootOfUnity.of(12, 5)
    assert r * r.inverse() == RootOfUnity.one()
    assert r ** 12 == RootOfUnity.one()


def test_kcyclotomic_degree_sums_to_phi():
    # over K = Q(zeta_m) the conjugates of all primitive d-th roots
    # partition into orbits whose sizes sum to phi(d)
    for m in (1, 3, 4, 12):
        for d in (2, 3, 5, 8, 12, 15):
            seen = set()
            total = 0
            for e in range(1, d):
                if gcd(e, d) != 1:
                    continue
                psi = KCyclotomic.of(m, RootOfUnity.of(d, e))
                if psi in seen:
                    continue
                seen.add(psi)
                total += psi.degree
            assert total == euler_phi(d)


def test_kcyclotomic_over_q_value_matches_integer_cyclotomic():
    for d in range(2, 30):
        psi = KCyclotomic.of(1, RootOfUnity.of(d, 1))
        assert psi.degree == euler_phi(d)
        assert psi.value_at_one() == CycInt.rational(int(cyclotomic_poly(d, 1)))


def complex_value(a: CycInt) -> complex:
    return sum(c * cmath.exp(2j * cmath.pi * k / a.conductor)
               for k, c in enumerate(a.coeffs))


def test_value_at_one_matches_complex_product():
    for m in (1, 3, 4, 12):
        for d in range(2, 40):
            psi = KCyclotomic.of(m, RootOfUnity.of(d, 1))
            expected = 1
            for s in psi.orbit():
                expected *= 1 - cmath.exp(2j * cmath.pi * s / d)
            value = psi.value_at_one()
            assert value.conductor == m
            assert abs(complex_value(value) - expected) < 1e-9 * max(
                1, abs(expected)), (m, d)


def test_phi1_is_rejected():
    with pytest.raises(ValueError):
        KCyclotomic.of(12, RootOfUnity.one())


# ---------------------------------------------------------------------------
# prime ideal handles
# ---------------------------------------------------------------------------


def test_prime_handle_is_deterministic_and_monic():
    h = prime_handle(2, 3)
    assert isinstance(h, PrimeIdealHandle)
    assert h.local_factor[-1] == 1
    assert h == prime_handle(2, 3)


def test_in_prime_ideal_basics():
    h3 = prime_handle(3, 3)  # (1 - zeta3) is the ramified prime over 3
    assert in_prime_ideal(CycInt.rational(3), h3)
    assert in_prime_ideal(CycInt.rational(1) - CycInt.zeta(3), h3)
    assert not in_prime_ideal(CycInt.rational(1), h3)
    h2 = prime_handle(2, 3)  # 2 is inert in Z[zeta3]
    assert in_prime_ideal(CycInt.rational(2), h2)
    assert not in_prime_ideal(CycInt.rational(1) - CycInt.zeta(3), h2)


def test_prime_handle_matches_sympy_factor_list():
    # Independent oracle: sympy's factorisation of Phi_N over GF(p).
    x = Symbol("x")
    own_seconds = 0.0
    for p in (2, 3, 5, 7, 11, 13):
        # N = 1, N = p^k and N divisible by p are in range (49 = 7^2)
        for n in range(1, 50):
            phi = Poly(cyclotomic_poly(n, x), x, modulus=p)
            expected = sorted(
                tuple(int(c) % p for c in fac.all_coeffs()[::-1])
                for fac, _mult in phi.factor_list()[1]
            )
            start = time.monotonic()
            factors = _phi_factors_mod_p(p, n)
            own_seconds += time.monotonic() - start
            assert sorted(factors) == expected, (p, n)
            factor = prime_handle(p, n).local_factor
            assert factor == expected[0], (p, n)
            assert phi.rem(Poly(factor[::-1], x, modulus=p)).is_zero, (p, n)
            m = n
            while m % p == 0:
                m //= p
            order = next(f for f in range(1, m + 1) if (p ** f - 1) % m == 0)
            assert len(factor) - 1 == order, (p, n)
        assert prime_handle(p, 1).local_factor == (p - 1, 1), p
    # the oracle itself takes about 1 s on the same pairs
    assert own_seconds < 0.5


def test_factor_splitting_is_bounded(monkeypatch):
    # Phi_7 is two cubics over GF(2) and Phi_13 four cubics over GF(3): both
    # need a split, so no attempt at all must raise
    for p, n in ((2, 7), (3, 13)):
        assert len(_phi_factors_mod_p(p, n)) == euler_phi(n) // 3
    monkeypatch.setattr(cyclo, "_SPLIT_ATTEMPTS", 0)
    for p, n in ((2, 7), (3, 13)):
        with pytest.raises(RuntimeError, match="0 attempts"):
            _phi_factors_mod_p(p, n)


@given(st.sampled_from([2, 3, 5]),
       st.lists(st.integers(-30, 30), min_size=4, max_size=4),
       st.lists(st.integers(-30, 30), min_size=4, max_size=4))
@settings(max_examples=150, deadline=None)
def test_equal_residues_are_congruence(p, a, b):
    # conductor 12: 2 and 3 ramify, 5 splits into two primes of degree 2
    h = prime_handle(p, 12)
    a, b = CycInt(12, a), CycInt(12, b)
    ra, rb = residues((a,), h), residues((b,), h)
    assert (ra == rb) == in_prime_ideal(a - b, h)
    assert residues((a + b,), h) == residues(
        (CycInt(12, ra) + CycInt(12, rb),), h)


def test_residue_matches_sympy_remainder():
    """Independent oracle: sympy's remainder over GF(p) of the element's
    coefficient polynomial by the local factor g.  An element of conductor
    d | N is sum c_i x^(i N/d) over Z[zeta_N], and g divides Phi_N mod p,
    so the remainder needs no reduction mod Phi_N first.  Seeded elements of
    every divisor conductor, 1 included, and the conductor-1 handle: the
    residues of each alone are its remainder padded to deg g, and per (p, N)
    the row of all those elements gives them concatenated."""
    x = Symbol("x")
    rng = random.Random("residue oracle")
    for p in (2, 3, 5, 7):
        for n in (1, 3, 4, 12, 15, 24, 36):
            h = prime_handle(p, n)
            g = Poly(h.local_factor[::-1], x, modulus=p)
            row, concatenated = [], []
            for d in (d for d in range(1, n + 1) if n % d == 0):
                for _ in range(6):
                    a = CycInt(d, [rng.randint(-99, 99)
                                   for _ in range(euler_phi(d))])
                    poly = sum(c * x ** (i * n // d)
                               for i, c in enumerate(a.coeffs))
                    rem = Poly(poly, x, modulus=p).rem(g).all_coeffs()[::-1]
                    expected = [int(c) % p for c in rem]
                    expected += [0] * (len(h.local_factor) - 1 - len(expected))
                    assert residues((a,), h) == tuple(expected), (p, n, a)
                    assert in_prime_ideal(a, h) == (not any(expected)), \
                        (p, n, a)
                    row.append(a)
                    concatenated += expected
            assert residues(row, h) == tuple(concatenated), (p, n)


def test_residue_rejects_a_conductor_not_dividing_the_handles():
    """The check names the handle, not lift's "multiple of the conductor",
    for one element and for a row that holds one such element."""
    h = prime_handle(2, 12)
    message = "conductor of the element must divide the handle's"
    with pytest.raises(ValueError, match=message):
        in_prime_ideal(CycInt.zeta(5), h)
    with pytest.raises(ValueError, match=message):
        residues((CycInt.rational(1), CycInt.zeta(4), CycInt.zeta(5)), h)


def test_conductor_one_handle_is_divisibility():
    h = prime_handle(5, 1)
    assert in_prime_ideal(CycInt.rational(10), h)
    assert not in_prime_ideal(CycInt.rational(6), h)


# ---------------------------------------------------------------------------
# fast p-essentiality vs the norm oracle (exhaustive small-field sweep)
# ---------------------------------------------------------------------------

SWEEP_FIELDS = (1, 2, 3, 4, 6, 12, 24)
SWEEP_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)


@once
def check_fast_essentiality_matches_norm_oracle():
    checked = 0
    for m in SWEEP_FIELDS:
        for d in range(2, 61):
            seen = set()
            for e in range(1, d):
                if gcd(e, d) != 1:
                    continue
                psi = KCyclotomic.of(m, RootOfUnity.of(d, e))
                if psi in seen:
                    continue
                seen.add(psi)
                nrm = abs(psi.value_at_one().norm())
                for p in SWEEP_PRIMES:
                    assert is_p_essential_factor(psi, p) == (nrm % p == 0), (
                        m, d, e, p, nrm,
                    )
                    checked += 1
    assert checked > 9000


def test_fast_essentiality_matches_norm_oracle_under_ten_seconds():
    start = time.monotonic()
    check_fast_essentiality_matches_norm_oracle()
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9])
def test_essentiality_rejects_p_below_two(p):
    """p = 1 once divided the root order by 1 forever; p = 0 divided by 0.
    A composite p is no prime either: 4, 6 and 9 once answered True for
    root orders 4, 6 and 9 over Q, whose Psi(1) have norms 2, 1 and 3."""
    psi = KCyclotomic.of(1, RootOfUnity.of(max(p, 4), 1))
    with pytest.raises(ValueError):
        is_p_essential_factor(psi, p)
