"""Exact arithmetic in cyclotomic integer rings Z[zeta_N].

Elements are kept in the power basis 1, zeta_N, ..., zeta_N^(phi(N)-1),
reduced modulo the N-th cyclotomic polynomial.  Mixed-conductor arithmetic
lifts both operands to the least common multiple conductor first.  Descent
to a subring Z[zeta_m] applies an exact left inverse of the lift map, kept
as integer rows over a common denominator and built once per (m, N) by
fraction-free elimination, and re-lifts the result to check membership.
The norm is the product of the Galois conjugates.

The module also provides roots of unity in exponent form, K-cyclotomic
polynomials (minimal polynomials of roots of unity over a cyclotomic field
K = Q(zeta_m), stored as a Galois orbit of root exponents), handles for
prime ideals of Z[zeta_N] above a rational prime, and the small integer
number theory all of this needs (trial-division factorisation, primality,
Euler's totient).  Everything is plain integer code; prime_handle factors
Phi_N over GF(p) by equal-degree splitting.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # random loads only where it is used
    import random

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
    "residue",
    "cyclotomic_at_root",
    "is_p_essential_factor",
    "MAX_CONDUCTOR",
    "bounded_conductor",
]

# Every trial divisor of factorint is below this.
_TRIAL_BOUND = 1 << 20

# The largest conductor a database file may make the arithmetic work in: the
# shipped data needs 72; a Schur factor below it loads in <= 2.5 s on 2 vCPUs.
MAX_CONDUCTOR = 1000


def bounded_conductor(n: int) -> int:
    """n; raises ValueError when it exceeds MAX_CONDUCTOR."""
    if n > MAX_CONDUCTOR:
        raise ValueError(f"conductor {n} is above {MAX_CONDUCTOR}")
    return n


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
    """Remainder of a coefficient list (ascending) modulo the monic Phi_n;
    each step touches only the nonzero lower terms of Phi_n."""
    phi = _phi_coeffs(n)
    deg = len(phi) - 1
    lower = [(j - deg, pc) for j, pc in enumerate(phi[:deg]) if pc]
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j, pc in lower:
                work[i + j] -= c * pc
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

    @staticmethod
    def _reduced(conductor: int, coeffs: tuple[int, ...]) -> "CycInt":
        """An element from a tuple of phi(conductor) ints already in the
        reduced basis, as _reduce_mod_phi and the ring operations on
        reduced operands give it; no checks."""
        out = object.__new__(CycInt)
        object.__setattr__(out, "conductor", conductor)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    def __setattr__(self, *a):  # immutable
        raise AttributeError("CycInt is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(r: int) -> "CycInt":
        return CycInt._reduced(1, (int(r),))

    @staticmethod
    def zeta(order: int, exponent: int = 1) -> "CycInt":
        exponent %= order
        coeffs = [0] * (order)
        coeffs[exponent] = 1
        return CycInt._reduced(order, _reduce_mod_phi(coeffs, order))

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
        return CycInt._reduced(conductor, _reduce_mod_phi(out, conductor))

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
            down = CycInt._reduced(conductor, tuple(v // den for v in values))
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
        return CycInt._reduced(n, tuple([x + y for x, y
                                         in zip(a.coeffs, b.coeffs)]))

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(-1)

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
        if other.conductor == 1:
            return self._scaled(other.coeffs[0])
        if self.conductor == 1:
            return other._scaled(self.coeffs[0])
        a, b, n = self._pair(other)
        prod = [0] * (2 * len(a.coeffs))
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return CycInt._reduced(n, _reduce_mod_phi(prod, n))

    __rmul__ = __mul__

    def _scaled(self, c: int) -> "CycInt":
        return CycInt._reduced(self.conductor,
                               tuple([c * x for x in self.coeffs]))

    def __pow__(self, k: int):
        """Square and multiply from the lowest set bit of k: no product
        with 1 and no squaring past the highest bit, so x ** 1 is x."""
        if k < 0:
            raise ValueError("negative powers are not defined in Z[zeta_N]")
        if k == 0:
            return CycInt.rational(1)
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        result = base
        k >>= 1
        while k:
            base = base * base
            if k & 1:
                result = result * base
            k >>= 1
        return result

    def exact_div_int(self, d: int) -> "CycInt":
        """Exact division by a rational integer; error when inexact."""
        if d == 0:
            raise ZeroDivisionError
        if any(c % d for c in self.coeffs):
            raise ValueError(f"inexact division by {d}")
        return CycInt._reduced(self.conductor,
                               tuple([c // d for c in self.coeffs]))

    def galois_conjugate(self, t: int) -> "CycInt":
        """Image under zeta_N -> zeta_N^t, gcd(t, N) = 1."""
        n = self.conductor
        if gcd(t, n) != 1:
            raise ValueError("t must be coprime to the conductor")
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            if c:
                out[(i * t) % n] += c
        return CycInt._reduced(n, _reduce_mod_phi(out, n))

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

    Fraction-free Gauss-Jordan on [L^T | I], L the lift matrix: each row is
    kept as an integer multiple, by its pivot value, of the row of the
    reduced echelon form R = E L^T, whose pivot columns P are the identity.
    Then L[P] = E^-T, so x = E^T y[P] recovers x from y = L x; the common
    denominator of E is taken at the end."""
    k, rows = euler_phi(m), euler_phi(n)
    aug = [list(CycInt.zeta(m, i).lift(n).coeffs)
           + [int(i == j) for j in range(k)] for i in range(k)]
    pivots = []
    for c in range(rows):
        top = len(pivots)
        if top == k:
            break
        r = next((r for r in range(top, k) if aug[r][c]), None)
        if r is None:
            continue
        aug[top], aug[r] = aug[r], aug[top]
        pivot_row = aug[top]
        lead = pivot_row[c]
        for r in range(k):
            f = aug[r][c]
            if r != top and f:
                row = [lead * x - f * y for x, y in zip(aug[r], pivot_row)]
                content = gcd(*row)
                aug[r] = [x // content for x in row]
        pivots.append(c)
    # row i is lead_i times row i of [R | E], lead_i its pivot entry
    leads = [row[c] for row, c in zip(aug, pivots)]
    e = [row[rows:] for row in aug]
    den = lcm(*(lead // gcd(x, lead)
                for row, lead in zip(e, leads) for x in row))
    return den, tuple(
        tuple((pivots[i], e[i][j] * den // leads[i])
              for i in range(k) if e[i][j])
        for j in range(k)
    )


class RootOfUnity(NamedTuple):
    """zeta_order^exponent in lowest terms: gcd(exponent, order) = 1.

    Built by of(), which reduces to that form; the constructor does not
    check it."""

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


class KCyclotomic(NamedTuple):
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
        least = _orbit(field_conductor, root.order, root.exponent)[0]
        return KCyclotomic(field_conductor, RootOfUnity(root.order, least))

    def orbit(self) -> tuple[int, ...]:
        return _orbit(self.field_conductor, self.root.order, self.root.exponent)

    @property
    def degree(self) -> int:
        return len(self.orbit())

    def value_at_one(self) -> CycInt:
        """Psi(1) = prod_{s in O} (1 - zeta_d^s), as an element of Z[zeta_m]."""
        return _psi_value_at_one(self)


@lru_cache(maxsize=None)
def _psi_value_at_one(psi: KCyclotomic) -> CycInt:
    """prod_{s in O} (1 - zeta_d^s) in Z[zeta_m]: each factor is one
    shift-and-subtract on a coefficient list in Z[x]/(x^L - 1), L =
    lcm(m, d), which is reduced modulo Phi_L once and then descended."""
    m, d = psi.field_conductor, psi.root.order
    big = lcm(m, d)
    acc = [1] + [0] * (big - 1)
    for s in psi.orbit():
        shift = s * (big // d)
        acc = [a - b for a, b in zip(acc, acc[-shift:] + acc[:-shift])]
    return CycInt._reduced(big, _reduce_mod_phi(acc, big)).descend(m)


class PrimeIdealHandle(NamedTuple):
    """One prime ideal of Z[zeta_N] over p, named by an irreducible factor
    of Phi_N over the p-element field (lexicographically least)."""

    rational_prime: int
    conductor: int
    local_factor: tuple[int, ...]  # ascending coefficients, monic, in [0, p)


# Random candidates tried for one equal-degree split before giving up; a
# candidate fails to split with probability at most 5/9 (p = 3, two factors).
_SPLIT_ATTEMPTS = 64


@lru_cache(maxsize=None)
def prime_handle(p: int, conductor: int) -> PrimeIdealHandle:
    """Handle of a prime of Z[zeta_N] over p: the lexicographically least
    of the monic irreducible factors of Phi_N over GF(p)."""
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    if conductor == 1:
        # Degenerate convention: membership reduces to divisibility by p.
        return PrimeIdealHandle(p, 1, (0, 1))
    return PrimeIdealHandle(p, conductor, min(_phi_factors_mod_p(p, conductor)))


def _phi_factors_mod_p(p: int, n: int, attempts: int = _SPLIT_ATTEMPTS
                       ) -> list[tuple[int, ...]]:
    """The distinct monic irreducible factors of Phi_n over GF(p), as
    ascending coefficient tuples, in no particular order.

    With n = p^k m and p not dividing m, Phi_n = Phi_m^phi(p^k) mod p, and
    Phi_m is squarefree mod p with every irreducible factor of degree
    f = ord_m(p).  Equal-degree splitting (Cantor-Zassenhaus, with the
    trace; see _split_candidate) separates them.  Raises RuntimeError when
    one split fails `attempts` times."""
    m = n
    while m % p == 0:
        m //= p
    f, power = 1, p % m
    while power != 1 % m:
        power = power * p % m
        f += 1
    from random import Random
    rng = Random(p * n)  # fixes the work done, not the factors
    todo = [[c % p for c in _phi_coeffs(m)]]
    factors = []
    while todo:
        g = todo.pop()
        if len(g) - 1 == f:
            factors.append(tuple(g))
            continue
        for _ in range(attempts):
            h = _gcd_mod_p(g, _split_candidate(g, m, f, p, rng), p)
            if 1 < len(h) < len(g):
                todo += [h, _divmod_mod_p(g, h, p)[0]]
                break
        else:
            raise RuntimeError(
                f"no split of a factor of Phi_{n} mod {p} in {attempts} attempts"
            )
    return factors


def _split_candidate(g: list[int], m: int, f: int, p: int,
                     rng: random.Random) -> list[int]:
    """A polynomial whose gcd with g is a proper factor of g with
    probability at least 4/9.

    For a random a mod g, the trace t = a + a^p + ... + a^(p^(f-1)) is a
    uniform element of GF(p) modulo each irreducible factor of g,
    independently; the candidate is t for p = 2 and t^((p-1)/2) - 1 for
    odd p.  Since g divides x^m - 1 and a has coefficients in GF(p), the
    Frobenius power a^(p^i) is a(x^(p^i)), an exponent permutation mod
    x^m - 1."""
    a = [rng.randrange(p) for _ in range(len(g) - 1)]
    trace = [0] * m
    step = 1
    for _ in range(f):
        for k, c in enumerate(a):
            trace[k * step % m] += c
        step = step * p % m
    t = _divmod_mod_p(trace, g, p)[1]
    if p == 2:
        return t
    out, k = [1], (p - 1) // 2
    while k:
        if k & 1:
            out = _mul_mod_p(out, t, g, p)
        t = _mul_mod_p(t, t, g, p)
        k >>= 1
    out = out or [0]
    out[0] = (out[0] - 1) % p
    return _trim(out)


# Polynomials over GF(p) are coefficient lists, ascending, without trailing
# zeros (the zero polynomial is []).


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _divmod_mod_p(coeffs, divisor, p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of coeffs (ascending, any integers) by a monic
    divisor over GF(p)."""
    work = list(coeffs)
    deg = len(divisor) - 1
    quotient = [0] * max(len(work) - deg, 0)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i] % p
        if c:
            quotient[i - deg] = c
            for j in range(deg):
                work[i - deg + j] -= c * divisor[j]
    return quotient, _trim([c % p for c in work[:deg]])


def _mul_mod_p(a: list[int], b: list[int], g: list[int], p: int) -> list[int]:
    """a * b mod the monic g over GF(p)."""
    prod = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _divmod_mod_p(prod, g, p)[1]


def _gcd_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic greatest common divisor over GF(p) of a non-zero a and b."""
    while b:
        a, b = b, _divmod_mod_p(a, _monic(b, p), p)[1]
    return _monic(a, p)


def _monic(a: list[int], p: int) -> list[int]:
    inverse = pow(a[-1], -1, p)
    return [c * inverse % p for c in a]


def residue(a: CycInt, h: PrimeIdealHandle) -> tuple[int, ...]:
    """The image of a in the residue field of h's prime ideal P: the
    remainder of a, written over the handle's conductor, by the local factor
    over GF(p).  The map is additive, so a = b mod P exactly when their
    residues are equal.  The element's conductor must divide the handle's."""
    a = a.lift(lcm(a.conductor, h.conductor))
    if a.conductor != h.conductor:
        raise ValueError("conductor of the element must divide the handle's")
    return tuple(_divmod_mod_p(a.coeffs, h.local_factor, h.rational_prime)[1])


def in_prime_ideal(a: CycInt, h: PrimeIdealHandle) -> bool:
    """Whether a lies in the prime ideal of h: its residue is zero."""
    return not residue(a, h)


def cyclotomic_at_root(n: int, root: RootOfUnity) -> CycInt:
    """Phi_n(root), summed from the coefficients of Phi_n."""
    coeffs = [0] * root.order
    for k, c in enumerate(_phi_coeffs(n)):
        coeffs[k * root.exponent % root.order] += c
    return CycInt(root.order, coeffs)


def is_p_essential_factor(psi: KCyclotomic, p: int) -> bool:
    """Whether p divides the norm of Psi(1).

    The conjugates of Psi(1) multiply to a power of Phi_d(1), d the root
    order, which is q when d is a power of a prime q and 1 otherwise.
    """
    d = psi.root.order
    while d % p == 0:
        d //= p
    return d == 1
