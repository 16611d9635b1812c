"""Morphisms of exponent lattices.

A morphism *associated* with a primitive vector M is a surjection
Z^n -> Z^(n-1) whose kernel is exactly the line Z.M; *adapted* morphisms are
composites of associated ones.  These are the maps along which cyclotomic
specializations are decomposed.

Surjectivity, kernels, sections and basis completion all read one column
echelon form A*V = H with V unimodular.  H's first rank columns have
positive pivots in rising rows with zeros above them, a pivot 1 is the only
nonzero entry of its row, and H's other columns are 0.  So A is onto Z^rows
exactly when H = [I | 0], V's first rows columns are then a section, and
V's columns past the rank are a saturated basis of the kernel.
"""

from __future__ import annotations

from collections import namedtuple

from .lattice import IntVector, dot, primitive_part

__all__ = ["LatticeMorphism", "bezout_cofactors", "associated_morphism",
           "compose", "refactor_adapted", "decompose_specialization"]

Matrix = tuple[IntVector, ...]


class LatticeMorphism(namedtuple(
        "LatticeMorphism", "matrix kind kernel_generator", defaults=(None,))):
    """An integer matrix acting on exponent vectors (rows = image coords).
    matrix: Matrix; kind: str, "associated" or "adapted"; kernel_generator:
    IntVector | None."""

    __slots__ = ()

    @property
    def rows(self) -> int:
        return len(self.matrix)

    @property
    def cols(self) -> int:
        return len(self.matrix[0])

    def apply(self, v: IntVector) -> IntVector:
        if len(v) != self.cols:
            raise ValueError("vector length does not match morphism domain")
        return tuple(dot(row, v) for row in self.matrix)

    def is_surjective(self) -> bool:
        rank, h, _ = _column_echelon(self.matrix)
        return rank == self.rows and all(h[k][k] == 1 for k in range(rank))


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """g = a*x + b*y with g >= 0, by the standard iterative algorithm."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def bezout_cofactors(v: IntVector) -> IntVector:
    """u with <u, v> = 1, by folding the extended gcd over the entries."""
    prim, content = primitive_part(v)
    if content != 1 or prim != tuple(v):
        raise ValueError("bezout_cofactors requires a primitive vector")
    g, cof = abs(v[0]), [1 if v[0] >= 0 else -1]
    for x in v[1:]:
        if g and x % g == 0:
            cof.append(0)
            continue
        g2, s, t = _egcd(g, x)
        cof = [s * c for c in cof] + [t]
        g = g2
    assert g == 1
    return tuple(cof)


def _column_echelon(a: Matrix) -> tuple[int, list[list[int]], list[list[int]]]:
    """(rank, H, V) as lists of rows, with A*V = H as the module docstring
    says.  Each row of A in turn is gathered into the next pivot column by
    one extended gcd per entry right of it, on [A; I] at once."""
    m, n = len(a), len(a[0])
    w = [list(row) for row in a] + [[int(i == j) for j in range(n)] for i in range(n)]
    rank = 0
    for row in w[:m]:
        if rank == n:
            break
        for j in range(rank + 1, n):
            if row[j]:
                g, x, y = _egcd(row[rank], row[j])
                p, q = row[rank] // g, row[j] // g
                for r in w:
                    r[rank], r[j] = x * r[rank] + y * r[j], p * r[j] - q * r[rank]
        if row[rank] < 0:
            for r in w:
                r[rank] = -r[rank]
        if row[rank] == 1:
            for k in range(rank):
                c = row[k]
                for r in w:
                    r[k] -= c * r[rank]
        if row[rank]:
            rank += 1
    return rank, w[:m], w[m:]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    columns = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in columns) for row in a)


def _kernel_basis(a: Matrix) -> list[IntVector]:
    """Basis of the integer kernel: the columns of V past the rank."""
    rank, _, v = _column_echelon(a)
    return list(zip(*v))[rank:]


def _section(a: Matrix) -> Matrix:
    """Integer right inverse of a surjective matrix: A*V = [I | 0], so it
    is V's first rows(A) columns."""
    m = len(a)
    rank, h, v = _column_echelon(a)
    if rank < m or any(h[k][k] != 1 for k in range(m)):
        raise ValueError("matrix is not surjective over the integers")
    return tuple(tuple(row[:m]) for row in v)


def associated_morphism(m_vec: IntVector) -> LatticeMorphism:
    """A surjection of exponent lattices whose kernel is the line spanned
    by the given primitive vector.

    Construction: with cofactors u (so <u, M> = 1), the projector
    I - M u^T kills M; dropping one dependent row (least index with
    cofactor +-1, falling back to a basis completion by the column echelon
    form) leaves a surjection onto Z^(n-1).
    """
    prim, content = primitive_part(m_vec)
    if content == 0:
        raise ValueError("the zero vector has no associated morphism")
    if content != 1:
        raise ValueError("associated_morphism requires a primitive vector")
    n = len(m_vec)
    if n == 1:
        raise ValueError("need at least two slots")
    cof = bezout_cofactors(m_vec)
    drop = next((k for k, c in enumerate(cof) if abs(c) == 1), None)
    if drop is not None:
        rows = []
        for i in range(n):
            if i == drop:
                continue
            rows.append(
                tuple((1 if i == j else 0) - m_vec[i] * cof[j] for j in range(n))
            )
        matrix = tuple(rows)
    else:
        # complete M to a basis: M * V = e_1 with V unimodular, so the rows
        # of V^T after the first kill M and map onto Z^(n-1)
        _, _, v = _column_echelon((tuple(m_vec),))
        matrix = tuple(zip(*v))[1:]
    morph = LatticeMorphism(tuple(matrix), "associated", tuple(m_vec))
    if morph.apply(m_vec) != (0,) * (n - 1) or not morph.is_surjective():
        raise AssertionError("associated morphism construction failed its contract")
    return morph


def compose(phi2: LatticeMorphism, phi1: LatticeMorphism) -> LatticeMorphism:
    if phi2.cols != phi1.rows:
        raise ValueError("shape mismatch in composition")
    return LatticeMorphism(_mat_mul(phi2.matrix, phi1.matrix), "adapted")


def refactor_adapted(phi: LatticeMorphism, m_vec: IntVector) -> list[LatticeMorphism]:
    """Rewrite an adapted morphism killing M as a composite whose initial
    (rightmost, first-applied) member is associated with the primitive part
    of M.  Returned in application order phi_r, ..., phi_1."""
    prim, content = primitive_part(m_vec)
    if content == 0:
        raise ValueError("M must be nonzero")
    if phi.apply(m_vec) != (0,) * phi.rows:
        raise ValueError("morphism does not annihilate M")
    if not phi.is_surjective():
        raise ValueError("morphism is not adapted (must be surjective)")
    phi1 = associated_morphism(prim)
    section = _section(phi1.matrix)
    f_next = _mat_mul(phi.matrix, section)
    if phi.rows == phi1.rows:
        # f_next is unimodular; fold it into the associated step
        total = _mat_mul(f_next, phi1.matrix)
        return [LatticeMorphism(total, "associated", prim)]
    rest = refactor_adapted(
        LatticeMorphism(f_next, "adapted"), _kernel_basis(f_next)[0]
    )
    return rest + [phi1]


def decompose_specialization(n_vec: IntVector) -> tuple[int, IntVector]:
    """Split a nonzero exponent vector as alpha * reduced with reduced
    primitive and pointing the same way."""
    prim, content = primitive_part(n_vec)
    if content == 0:
        raise ValueError("the zero specialization must be handled by the caller")
    return content, prim
