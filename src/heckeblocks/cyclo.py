"""Exact arithmetic in cyclotomic integer rings Z[zeta_N].

Elements are kept in the power basis 1, zeta_N, ..., zeta_N^(phi(N)-1),
reduced modulo the N-th cyclotomic polynomial.  Mixed-conductor arithmetic
lifts both operands to the least common multiple conductor first.  Descent
to a subring Z[zeta_m] applies an exact rational left inverse of the lift
map, built once per (m, N), and re-lifts the result to check membership.
The norm is the product of the Galois conjugates.

The module also provides roots of unity in exponent form, K-cyclotomic
polynomials (minimal polynomials of roots of unity over a cyclotomic field
K = Q(zeta_m), stored as a Galois orbit of root exponents), handles for
prime ideals of Z[zeta_N] above a rational prime, and the small integer
number theory all of this needs (trial-division factorisation, primality,
Euler's totient).  Everything is plain integer code except prime_handle,
which imports sympy on first use to factor Phi_N over GF(p).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = [
    "CycInt",
    "RootOfUnity",
    "KCyclotomic",
    "PrimeIdealHandle",
    "euler_phi",
    "factorint",
    "isprime",
    "prime_handle",
    "in_prime_ideal",
    "cyclotomic_value_at_one",
    "is_p_essential_factor",
]

# Every trial divisor of factorint is below this.
_TRIAL_BOUND = 1 << 20


def factorint(n: int) -> dict[int, int]:
    """Prime factorisation {p: exponent} of n >= 1, by trial division.

    Raises ValueError when a cofactor of at least _TRIAL_BOUND**2 has no
    prime factor below _TRIAL_BOUND, rather than search further."""
    if n < 1:
        raise ValueError("n must be positive")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        if p >= _TRIAL_BOUND:
            raise ValueError(f"{n} has no prime factor below {_TRIAL_BOUND}")
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def isprime(n: int) -> bool:
    """Primality by factorint; ValueError past its bound."""
    return n > 1 and factorint(n) == {n: 1}


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = 1
    for p, k in factorint(n).items():
        out *= (p - 1) * p ** (k - 1)
    return out


@lru_cache(maxsize=None)
def _phi_coeffs(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree.

    Phi_1 = x - 1; Phi_rp(x) = Phi_r(x^p) / Phi_r(x) for a prime p not
    dividing r; and Phi_n(x) = Phi_r(x^(n/r)) for the radical r of n."""
    if n < 1:
        raise ValueError("n must be positive")
    phi, rad, rest, p = [-1, 1], 1, n, 2
    while rest > 1:
        if rest % p == 0:
            phi = _exact_quotient(_at_power(phi, p), phi)
            rad *= p
            while rest % p == 0:
                rest //= p
        p += 1
    return tuple(_at_power(phi, n // rad))


def _at_power(coeffs: list[int], k: int) -> list[int]:
    """Coefficients of c(x^k) from those of c(x), ascending."""
    out = [0] * ((len(coeffs) - 1) * k + 1)
    out[::k] = coeffs
    return out


def _exact_quotient(coeffs: list[int], divisor: tuple[int, ...]) -> list[int]:
    """Quotient of coeffs (ascending) by a monic divisor that divides it
    exactly (the remainder is not checked)."""
    work = list(coeffs)
    deg = len(divisor) - 1
    quotient = [0] * (len(work) - deg)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            quotient[i - deg] = c
            for j, dc in enumerate(divisor):
                work[i - deg + j] -= c * dc
    return quotient


def _reduce_mod_phi(coeffs: list[int], n: int) -> tuple[int, ...]:
    """Remainder of a coefficient list (ascending) modulo the monic Phi_n."""
    phi = _phi_coeffs(n)
    deg = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j, pc in enumerate(phi):
                work[i - deg + j] -= c * pc
    work = work[:deg]
    work += [0] * (deg - len(work))
    return tuple(work)


class CycInt:
    """An element of Z[zeta_N] in the reduced power basis."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        if conductor < 1:
            raise ValueError("conductor must be positive")
        coeffs = list(int(c) for c in coeffs)
        deg = euler_phi(conductor)
        if len(coeffs) != deg:
            coeffs = list(_reduce_mod_phi(coeffs, conductor))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("CycInt is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(r: int) -> "CycInt":
        return CycInt(1, (int(r),))

    @staticmethod
    def zeta(order: int, exponent: int = 1) -> "CycInt":
        exponent %= order
        coeffs = [0] * (order)
        coeffs[exponent] = 1
        return CycInt(order, _reduce_mod_phi(coeffs, order))

    # -- representation ----------------------------------------------------

    def lift(self, conductor: int) -> "CycInt":
        """Rewrite in Z[zeta_M] for a multiple M of the current conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError("can only lift to a multiple of the conductor")
        step = conductor // self.conductor
        out = [0] * conductor
        for i, c in enumerate(self.coeffs):
            if c:
                out[(i * step) % conductor] += c
        return CycInt(conductor, _reduce_mod_phi(out, conductor))

    def descend(self, conductor: int) -> "CycInt":
        """Rewrite in Z[zeta_m] for a divisor m of the conductor.

        Fails if the element does not actually lie in the smaller ring.
        """
        if conductor == self.conductor:
            return self
        if self.conductor % conductor:
            raise ValueError("can only descend to a divisor of the conductor")
        den, left = _descent_map(conductor, self.conductor)
        values = [sum(c * self.coeffs[j] for j, c in row) for row in left]
        if all(v % den == 0 for v in values):
            down = CycInt(conductor, [v // den for v in values])
            if down.lift(self.conductor).coeffs == self.coeffs:
                return down
        raise ValueError(
            f"element of Z[zeta_{self.conductor}] is not in Z[zeta_{conductor}]"
        )

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_int(self) -> int:
        if not self.is_rational():
            raise ValueError("not a rational integer")
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value) -> "CycInt":
        if isinstance(value, CycInt):
            return value
        if isinstance(value, int):
            return CycInt.rational(value)
        return NotImplemented

    def _pair(self, other: "CycInt"):
        n = lcm(self.conductor, other.conductor)
        return self.lift(n), other.lift(n), n

    def __add__(self, other):
        other = CycInt._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, n = self._pair(other)
        return CycInt(n, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = CycInt._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = CycInt._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, n = self._pair(other)
        prod = [0] * (2 * len(a.coeffs))
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return CycInt(n, _reduce_mod_phi(prod, n))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined in Z[zeta_N]")
        result = CycInt.rational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def exact_div_int(self, d: int) -> "CycInt":
        """Exact division by a rational integer; error when inexact."""
        if d == 0:
            raise ZeroDivisionError
        if any(c % d for c in self.coeffs):
            raise ValueError(f"inexact division by {d}")
        return CycInt(self.conductor, tuple(c // d for c in self.coeffs))

    def galois_conjugate(self, t: int) -> "CycInt":
        """Image under zeta_N -> zeta_N^t, gcd(t, N) = 1."""
        n = self.conductor
        if gcd(t, n) != 1:
            raise ValueError("t must be coprime to the conductor")
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            if c:
                out[(i * t) % n] += c
        return CycInt(n, _reduce_mod_phi(out, n))

    # -- norm ---------------------------------------------------------------

    def norm(self) -> int:
        """Field norm over Q: the product of the images under
        zeta_N -> zeta_N^t for every t coprime to N."""
        n = self.conductor
        acc = self
        for t in range(2, n):
            if gcd(t, n) == 1:
                acc = acc * self.galois_conjugate(t)
        return acc.as_int()

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        other = CycInt._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, _ = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # mixed-conductor equality makes hashing unreliable

    def __repr__(self):
        return f"CycInt({self.conductor}, {list(self.coeffs)})"


@lru_cache(maxsize=None)
def _descent_map(m: int, n: int):
    """Exact left inverse of the lift Z[zeta_m] -> Z[zeta_n], as integer
    rows of sparse (index, coefficient) pairs over a common denominator.

    Gauss-Jordan over the rationals on [L^T | I], L the lift matrix, turns
    L^T into a reduced echelon form R = E L^T whose pivot columns P are the
    identity; then L[P] = E^-T, so x = E^T y[P] recovers x from y = L x."""
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


@dataclass(frozen=True)
class RootOfUnity:
    """zeta_order^exponent in lowest terms: gcd(exponent, order) = 1."""

    order: int
    exponent: int

    @staticmethod
    def of(order: int, exponent: int) -> "RootOfUnity":
        """Canonical (primitive) form of zeta_order^exponent."""
        if order < 1:
            raise ValueError("order must be positive")
        exponent %= order
        g = gcd(exponent, order)
        if exponent == 0:
            return RootOfUnity(1, 0)
        return RootOfUnity(order // g, exponent // g)

    @staticmethod
    def one() -> "RootOfUnity":
        return RootOfUnity(1, 0)

    def __post_init__(self):
        if self.order < 1 or not (0 <= self.exponent < max(self.order, 1)):
            raise ValueError("root of unity not in canonical form")
        if self.order > 1 and gcd(self.exponent, self.order) != 1:
            raise ValueError("root of unity not in canonical form")

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        n = lcm(self.order, other.order)
        e = self.exponent * (n // self.order) + other.exponent * (n // other.order)
        return RootOfUnity.of(n, e)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity.of(self.order, self.exponent * k)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity.of(self.order, -self.exponent)

    def is_one(self) -> bool:
        return self.order == 1

    def as_cycint(self) -> CycInt:
        return CycInt.zeta(self.order, self.exponent)


@lru_cache(maxsize=None)
def _orbit_multipliers(m: int, d: int) -> tuple[int, ...]:
    """{t mod d : t in (Z/L)^x, t = 1 mod m}, L = lcm(m, d)."""
    big = lcm(m, d)
    return tuple(sorted({t % d for t in range(1, big + 1)
                         if gcd(t, big) == 1 and t % m == 1 % m}))


@lru_cache(maxsize=None)
def _orbit(m: int, d: int, e: int) -> tuple[int, ...]:
    """Sorted exponents of the Galois orbit of zeta_d^e over Q(zeta_m)."""
    return tuple(sorted({e * t % d for t in _orbit_multipliers(m, d)}))


@dataclass(frozen=True)
class KCyclotomic:
    """Minimal polynomial over K = Q(zeta_m) of a root of unity of order >= 2.

    Represented by the field conductor and the root; the polynomial is
    Psi(T) = prod over the Galois orbit O of the root of (T - zeta_d^s).
    The root is normalised to the least exponent in its orbit.
    """

    field_conductor: int
    root: RootOfUnity

    @staticmethod
    def of(field_conductor: int, root: RootOfUnity) -> "KCyclotomic":
        if root.order < 2:
            raise ValueError("root order must be at least 2 (Phi_1 never appears)")
        d = root.order
        orbit = {root.exponent * t % d for t in _orbit_multipliers(field_conductor, d)}
        return KCyclotomic(field_conductor, RootOfUnity(d, min(orbit)))

    def orbit(self) -> tuple[int, ...]:
        return _orbit(self.field_conductor, self.root.order, self.root.exponent)

    @property
    def degree(self) -> int:
        return len(self.orbit())

    def value_at_one(self) -> CycInt:
        """Psi(1) = prod_{s in O} (1 - zeta_d^s), as an element of Z[zeta_m]."""
        return _psi_value_at_one(self)

    def inverse_root(self) -> "KCyclotomic":
        """The K-cyclotomic polynomial whose roots are the inverses."""
        return KCyclotomic.of(self.field_conductor, self.root.inverse())


@lru_cache(maxsize=None)
def _psi_value_at_one(psi: KCyclotomic) -> CycInt:
    m, d = psi.field_conductor, psi.root.order
    big = lcm(m, d)
    acc = CycInt.rational(1)
    for s in psi.orbit():
        acc = acc * (CycInt.rational(1) - CycInt.zeta(d, s).lift(big))
    return acc.descend(m)


@dataclass(frozen=True)
class PrimeIdealHandle:
    """One prime ideal of Z[zeta_N] over p, named by an irreducible factor
    of Phi_N over the p-element field (lexicographically least)."""

    rational_prime: int
    conductor: int
    local_factor: tuple[int, ...]  # ascending coefficients, monic, in [0, p)


@lru_cache(maxsize=None)
def prime_handle(p: int, conductor: int) -> PrimeIdealHandle:
    """Handle of a prime of Z[zeta_N] over p; sympy is imported here only,
    on first use, to factor Phi_N over GF(p)."""
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    if conductor == 1:
        # Degenerate convention: membership reduces to divisibility by p.
        return PrimeIdealHandle(p, 1, (0, 1))
    from sympy import Poly, Symbol

    poly = Poly(_phi_coeffs(conductor)[::-1], Symbol("T"), modulus=p)
    factors = []
    for fac, _mult in poly.factor_list()[1]:
        coeffs = [int(c) % p for c in fac.all_coeffs()[::-1]]
        factors.append(tuple(coeffs))
    return PrimeIdealHandle(p, conductor, min(factors))


def _poly_rem_mod_p(coeffs: list[int], divisor: tuple[int, ...], p: int) -> list[int]:
    """Remainder of coeffs (ascending) by a monic divisor over GF(p)."""
    work = [c % p for c in coeffs]
    deg = len(divisor) - 1
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j in range(deg + 1):
                work[i - deg + j] = (work[i - deg + j] - c * divisor[j]) % p
    return work[:deg]


def in_prime_ideal(a: CycInt, h: PrimeIdealHandle) -> bool:
    a = a.lift(lcm(a.conductor, h.conductor))
    if a.conductor != h.conductor:
        raise ValueError("conductor of the element must divide the handle's")
    rem = _poly_rem_mod_p(list(a.coeffs), h.local_factor, h.rational_prime)
    return all(c == 0 for c in rem)


@lru_cache(maxsize=None)
def cyclotomic_value_at_one(n: int) -> int:
    """Phi_n(1) for n >= 2: p when n is a power of the prime p, else 1."""
    if n < 2:
        raise ValueError("n must be at least 2")
    primes = factorint(n)
    if len(primes) == 1:
        return next(iter(primes))
    return 1


def is_p_essential_factor(psi: KCyclotomic, p: int) -> bool:
    """Whether p divides the norm of Psi(1).

    Fast path: the conjugates of Psi(1) multiply to a power of Phi_d(1),
    so the answer only depends on whether the root order is a power of p.
    """
    d = psi.root.order
    while d % p == 0:
        d //= p
    return d == 1
