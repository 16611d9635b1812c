"""Exponent-lattice morphisms: Bezout cofactors, associated surjections,
adapted refactoring, and specialization decomposition."""

import random
from itertools import combinations
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeblocks.lattice import primitive_part
from heckeblocks.morphism import (
    LatticeMorphism,
    _kernel_basis,
    _section,
    associated_morphism,
    bezout_cofactors,
    compose,
    decompose_specialization,
    refactor_adapted,
)

from checks import once


def random_primitive(rng, n):
    while True:
        v = tuple(rng.randint(-6, 6) for _ in range(n))
        prim, content = primitive_part(v)
        if content == 1 and prim == v:
            return v


# test_acceptance.py's lattice suite (criterion 7) asserts these three
# checks too; `once` runs each of them once per session.


@once
def check_three_slot_worked_example():
    m = (5, -3, -2)
    cof = bezout_cofactors(m)
    assert cof == (-1, -2, 0)
    assert sum(a * b for a, b in zip(cof, m)) == 1
    phi = associated_morphism(m)
    assert phi.matrix == ((-3, -5, 0), (-2, -4, 1))
    # kernel is exactly the line through m
    assert phi.apply(m) == (0, 0)
    assert phi.is_surjective()
    # monomial-to-monomial: each basis vector maps to an integer vector,
    # and a section exists (surjectivity); kernel rank is 1
    for k in range(-3, 4):
        assert phi.apply(tuple(k * c for c in m)) == (0, 0)


@once
def check_refactor_adapted_recomposes_exactly():
    rng = random.Random(23)
    for _ in range(500):
        n = rng.randint(3, 6)
        depth = rng.randint(1, n - 1)
        phi, m = random_adapted(rng, n, depth)
        pieces = refactor_adapted(phi, m)
        # pieces are returned outermost-first; recompose
        total = pieces[-1]
        for piece in reversed(pieces[:-1]):
            total = compose(piece, total)
        assert total.matrix == phi.matrix
        # the first-applied factor is associated with the primitive part of m
        prim, _ = primitive_part(m)
        assert pieces[-1].kind == "associated"
        assert pieces[-1].kernel_generator == prim


@once
def check_decompose_specialization_roundtrip_random():
    rng = random.Random(31)
    for _ in range(500):
        n = rng.randint(2, 8)
        while True:
            v = tuple(rng.randint(-9, 9) for _ in range(n))
            if any(v):
                break
        alpha, reduced = decompose_specialization(v)
        assert alpha >= 1
        assert tuple(alpha * c for c in reduced) == v
        prim, content = primitive_part(reduced)
        assert content == 1 and prim == reduced


# ---------------------------------------------------------------------------
# worked three-slot example
# ---------------------------------------------------------------------------


def test_three_slot_worked_example():
    check_three_slot_worked_example()


def test_bezout_cofactors_contract():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(2, 6)
        v = random_primitive(rng, n)
        cof = bezout_cofactors(v)
        assert sum(a * b for a, b in zip(cof, v)) == 1


def test_bezout_rejects_imprimitive():
    with pytest.raises(ValueError):
        bezout_cofactors((2, 4, 6))


# ---------------------------------------------------------------------------
# associated morphisms
# ---------------------------------------------------------------------------


def test_associated_morphism_contract_random():
    rng = random.Random(17)
    for _ in range(500):
        n = rng.randint(2, 6)
        m = random_primitive(rng, n)
        phi = associated_morphism(m)
        assert phi.rows == n - 1 and phi.cols == n
        assert phi.apply(m) == (0,) * (n - 1)
        assert phi.is_surjective()
        assert phi.kind == "associated"
        assert phi.kernel_generator == m


def test_associated_morphism_rejects_zero_and_imprimitive():
    with pytest.raises(ValueError):
        associated_morphism((0, 0, 0))
    with pytest.raises(ValueError):
        associated_morphism((2, 2))


# ---------------------------------------------------------------------------
# refactoring of adapted morphisms
# ---------------------------------------------------------------------------


def random_adapted(rng, n, depth):
    """A composite of associated morphisms starting from Z^n, together with
    a primitive vector of its kernel."""
    kernel_seed = random_primitive(rng, n)
    phi = associated_morphism(kernel_seed)
    total = phi
    for _ in range(depth - 1):
        if total.rows < 2:
            break
        nxt = associated_morphism(random_primitive(rng, total.rows))
        total = compose(nxt, total)
    return total, kernel_seed


def test_refactor_adapted_recomposes_exactly():
    check_refactor_adapted_recomposes_exactly()


def test_refactor_accepts_scaled_kernel_vector():
    m = (5, -3, -2)
    phi = associated_morphism(m)
    pieces = refactor_adapted(phi, tuple(3 * c for c in m))
    assert pieces[-1].kernel_generator == m


def test_refactor_rejects_non_annihilated_vector():
    phi = associated_morphism((1, -1, 0))
    with pytest.raises(ValueError):
        refactor_adapted(phi, (1, 1, 1))


# ---------------------------------------------------------------------------
# specialization decomposition
# ---------------------------------------------------------------------------


def test_decompose_specialization_roundtrip_random():
    check_decompose_specialization_roundtrip_random()


def test_decompose_rejects_zero():
    with pytest.raises(ValueError):
        decompose_specialization((0, 0))


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=6))
@settings(max_examples=200, deadline=None)
def test_primitive_part_property(v):
    prim, content = primitive_part(tuple(v))
    if not any(v):
        assert content == 0
    else:
        assert content >= 1
        assert tuple(content * c for c in prim) == tuple(v)


# ---------------------------------------------------------------------------
# the column echelon's consumers against sympy
# ---------------------------------------------------------------------------


def minor_gcd(a):
    """gcd of the maximal minors; 0 if there are none (more rows than
    columns).  A is onto Z^rows exactly when it is 1."""
    m, n = len(a), len(a[0])
    g = 0
    for cols in combinations(range(n), m):
        g = gcd(g, int(sympy.Matrix([[row[j] for j in cols] for row in a]).det()))
    return g


def random_matrices(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        yield tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m))


def test_is_surjective_matches_the_minor_gcd():
    seen = set()
    for a in random_matrices(41, 400):
        surjective = LatticeMorphism(a, "adapted").is_surjective()
        assert surjective == (minor_gcd(a) == 1), a
        seen.add(surjective)
    assert seen == {True, False}


def test_kernel_basis_has_full_rank_and_is_killed():
    for a in random_matrices(43, 400):
        basis = _kernel_basis(a)
        assert len(basis) == len(a[0]) - sympy.Matrix(a).rank(), a
        for k in basis:
            assert all(sum(x * y for x, y in zip(row, k)) == 0 for row in a)


def test_section_is_a_right_inverse():
    done = 0
    for a in random_matrices(47, 400):
        if minor_gcd(a) != 1:
            with pytest.raises(ValueError):
                _section(a)
            continue
        m = len(a)
        assert sympy.Matrix(a) * sympy.Matrix(_section(a)) == sympy.eye(m), a
        done += 1
    assert done > 50


@pytest.mark.parametrize("m", [(5, 7), (-7, -5, 0)])
def test_associated_morphism_by_basis_completion(m):
    """No cofactor is +-1, so no row of I - M u^T can be dropped."""
    assert not any(abs(c) == 1 for c in bezout_cofactors(m))
    phi = associated_morphism(m)
    assert phi.rows == len(m) - 1 and phi.kernel_generator == m
    assert phi.apply(m) == (0,) * phi.rows
    # onto Z^(n-1), so of rank n - 1: the kernel is the line through m
    assert minor_gcd(phi.matrix) == 1
