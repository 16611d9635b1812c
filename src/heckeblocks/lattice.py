"""Integer exponent-lattice machinery.

Monomials in the Hecke parameters are identified with integer exponent
vectors.  A morphism *associated* with a primitive vector M is a surjection
Z^n -> Z^(n-1) whose kernel is exactly the line Z.M; *adapted* morphisms are
composites of associated ones.  These are the maps along which cyclotomic
specializations are decomposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul

__all__ = [
    "IntVector",
    "LatticeMorphism",
    "dot",
    "primitive_part",
    "bezout_cofactors",
    "associated_morphism",
    "compose",
    "refactor_adapted",
    "decompose_specialization",
]

IntVector = tuple[int, ...]
Matrix = tuple[IntVector, ...]


@dataclass(frozen=True)
class LatticeMorphism:
    """An integer matrix acting on exponent vectors (rows = image coords)."""

    matrix: Matrix
    kind: str  # "associated" | "adapted"
    kernel_generator: IntVector | None = None

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
        if self.rows > self.cols:
            return False
        _, s, _ = _smith(self.matrix)
        divisors = [s[i][i] for i in range(self.rows)]
        return all(abs(d) == 1 for d in divisors)


def dot(u: IntVector, v: IntVector) -> int:
    """Standard inner product of two exponent vectors."""
    return sum(map(mul, u, v))


def primitive_part(v: IntVector) -> tuple[IntVector, int]:
    """Split v = content * primitive; the zero vector has content 0."""
    content = 0
    for x in v:
        content = gcd(content, x)
    if content == 0:
        return tuple(v), 0
    return tuple(x // content for x in v), content


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


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _smith(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form with transforms: U * A * V = S, U and V unimodular."""
    s = [list(row) for row in a]
    m = len(s)
    n = len(s[0]) if m else 0
    u = _identity(m)
    v = _identity(n)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for row in s:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    while t < min(m, n):
        # find a pivot of least absolute value in the trailing block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] and (best is None or abs(s[i][j]) < best):
                    best = abs(s[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = False
        for i in range(t + 1, m):
            if s[i][t]:
                q = s[i][t] // s[t][t]
                add_row(i, t, -q)
                if s[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if s[t][j]:
                q = s[t][j] // s[t][t]
                add_col(j, t, -q)
                if s[t][j]:
                    dirty = True
        if dirty:
            continue
        # force divisibility of the remaining block by the pivot
        rem = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % s[t][t]:
                    rem = i
                    break
            if rem is not None:
                break
        if rem is not None:
            add_row(t, rem, 1)
            continue
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return (
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in s),
        tuple(tuple(r) for r in v),
    )


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    columns = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in columns) for row in a)


def _kernel_basis(a: Matrix) -> list[IntVector]:
    """Basis of the integer kernel (columns of V past the Smith rank)."""
    _, s, v = _smith(a)
    rank = sum(1 for i in range(min(len(s), len(s[0]))) if s[i][i])
    n = len(a[0])
    return [tuple(v[i][j] for i in range(n)) for j in range(rank, n)]


def _section(a: Matrix) -> Matrix:
    """Integer right inverse of a surjective matrix."""
    u, s, v = _smith(a)
    m, n = len(a), len(a[0])
    if any(abs(s[i][i]) != 1 for i in range(m)):
        raise ValueError("matrix is not surjective over the integers")
    # R = V * [D^-1; 0] * U
    mid = tuple(
        tuple(s[j][j] * u[j][k] if j < m else 0 for k in range(m)) for j in range(n)
    )
    return _mat_mul(v, mid)


def associated_morphism(m_vec: IntVector) -> LatticeMorphism:
    """A surjection of exponent lattices whose kernel is the line spanned
    by the given primitive vector.

    Construction: with cofactors u (so <u, M> = 1), the projector
    I - M u^T kills M; dropping one dependent row (least index with
    cofactor +-1, falling back to a Smith-form basis completion) leaves a
    surjection onto Z^(n-1).
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
        # complete M to a basis: U * M_col has a single unit entry at the top
        u, s, _ = _smith(tuple((x,) for x in m_vec))
        assert abs(s[0][0]) == 1
        matrix = u[1:]
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
