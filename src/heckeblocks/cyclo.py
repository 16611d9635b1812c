"""Exact arithmetic in cyclotomic integer rings Z[zeta_N].

Elements are kept in the power basis 1, zeta_N, ..., zeta_N^(phi(N)-1),
reduced modulo the N-th cyclotomic polynomial.  Mixed-conductor arithmetic
lifts both operands to the least common multiple conductor first.  Descent
to a subring Z[zeta_m] reads the element off the ring structure: the CRT
splits Z[zeta_N] as Z[zeta_a] (x) Z[zeta_b], a the part of N on the primes
of m, and Z[zeta_a] is free over Z[zeta_m] on 1, zeta_a, ..., zeta_a^(a/m-1).
The norm is the product of the Galois conjugates.

The module also provides roots of unity in exponent form, K-cyclotomic
polynomials (minimal polynomials of roots of unity over a cyclotomic field
K = Q(zeta_m), stored as a Galois orbit of root exponents), handles (p, g)
for prime ideals P = (p, g(zeta_N)) of Z[zeta_N], g the least irreducible
factor of Phi_N mod p for every conductor, 1 included, and the small integer
number theory all of this needs (trial-division factorisation, primality,
Euler's totient).  Everything is plain integer code; prime_handle factors
Phi_N over GF(p) by equal-degree splitting, and residues reduces a row mod P
by one F_p-linear map, a phi(N) x deg g matrix built per handle.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd, lcm
from operator import mul

__all__ = [
    "CycInt",
    "RootOfUnity",
    "KCyclotomic",
    "PrimeIdealHandle",
    "euler_phi",
    "exact_int",
    "factorint",
    "isprime",
    "check_prime",
    "prime_handle",
    "in_prime_ideal",
    "residues",
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


def exact_int(x) -> int:
    """x, which must be an int: a float, a string or a bool is not
    truncated or converted but rejected with TypeError."""
    if type(x) is not int:
        raise TypeError(f"{x!r} is not an integer")
    return x


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


def check_prime(p: int) -> None:
    """Raise ValueError unless p is prime, TypeError unless it is an int."""
    if not isprime(exact_int(p)):
        raise ValueError(f"{p} is not prime")


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = 1
    for p, k in factorint(n).items():
        out *= (p - 1) * p ** (k - 1)
    return out


@lru_cache(maxsize=None)
def _phi_coeffs(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree.

    Phi_n = prod over d | n of (x^d - 1)^mu(n/d), where the Moebius
    function mu(e) is 0 unless e is squarefree, and then (-1)^r for the r
    primes of e.  The squarefree e come from the primes of factorint(n).
    Each x^(n/e) - 1 with mu(e) = +1 is multiplied in by one shift and
    subtract; each with mu(e) = -1 then divides the product exactly."""
    if n < 1:
        raise ValueError("n must be positive")
    squarefree = [(1, 1)]  # (e, mu(e))
    for q in factorint(n):
        squarefree += [(e * q, -mu) for e, mu in squarefree]
    acc = [1]
    for e, mu in sorted(squarefree, key=lambda s: -s[1]):
        d = n // e
        if mu == 1:
            acc = [a - b for a, b in zip([0] * d + acc, acc + [0] * d)]
        else:  # acc = q (x^d - 1), so q_i = q_(i-d) - acc_i
            acc = [-c for c in acc[:-d]]
            for i in range(d, len(acc)):
                acc[i] += acc[i - d]
    return tuple(acc)


def _convolve(a, b) -> list[int]:
    """Product of two ascending coefficient lists, skipping zero entries."""
    prod = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    return prod


def _power(base, k: int, mul):
    """base ** k, k >= 1, by square and multiply through mul from the lowest
    set bit of k: no product with 1, no squaring past the highest bit."""
    while not k & 1:
        base = mul(base, base)
        k >>= 1
    result = base
    k >>= 1
    while k:
        base = mul(base, base)
        if k & 1:
            result = mul(result, base)
        k >>= 1
    return result


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


def _evaluate(coeffs, order: int, k: int) -> CycInt:
    """sum_i c_i zeta_order^(i k), reduced modulo Phi_order."""
    out = [0] * order
    for i, c in enumerate(coeffs):
        if c:
            out[i * k % order] += c
    return CycInt._reduced(order, _reduce_mod_phi(out, order))


@lru_cache(maxsize=None)
def _units(n: int) -> tuple[int, ...]:
    """The unit group (Z/n)^x as its representatives 1 <= t <= n, ascending."""
    return tuple(t for t in range(1, n + 1) if gcd(t, n) == 1)


class CycInt:
    """An element of Z[zeta_N] in the reduced power basis."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        """The element sum_i coeffs[i] zeta_conductor^i.  The conductor,
        checked first, and every coefficient must pass exact_int."""
        coeffs = tuple(coeffs)
        for x in (conductor, *coeffs):
            exact_int(x)
        if conductor < 1:
            raise ValueError("conductor must be positive")
        if len(coeffs) != euler_phi(conductor):
            coeffs = _reduce_mod_phi(coeffs, conductor)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)

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
        """r in Z; like the constructor, rejects a non-int with exact_int."""
        return CycInt._reduced(1, (exact_int(r),))

    @staticmethod
    def zeta(order: int, exponent: int = 1) -> "CycInt":
        return _evaluate((0, 1), order, exponent)

    # -- representation ----------------------------------------------------

    def lift(self, conductor: int) -> "CycInt":
        """Rewrite in Z[zeta_M] for a multiple M of the current conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError("can only lift to a multiple of the conductor")
        return _evaluate(self.coeffs, conductor, conductor // self.conductor)

    def descend(self, conductor: int) -> "CycInt":
        """Rewrite in Z[zeta_m] for a divisor m of the conductor N; raises
        ValueError if the element does not lie in the smaller ring.

        With N = a b, where a has only the primes of m and b is prime to m,
        the CRT sends zeta_N to X^u Y^v in Z[X, Y]/(Phi_a(X), Phi_b(Y)), u b
        + v a = 1 mod N.  In that ring's basis X^i Y^j the element lies in
        Z[zeta_a] exactly when its terms with j >= 1 are 0.  Since rad(a)
        divides m, Phi_a(x) = Phi_m(x^(a/m)): an element of Z[zeta_a] lies
        in Z[zeta_m] exactly when its coefficients at powers of zeta_a not
        divisible by a/m are 0, and the others are its coefficients there.
        """
        m, n = conductor, self.conductor
        if m == n:
            return self
        if n % m:
            raise ValueError("can only descend to a divisor of the conductor")
        a, g = 1, gcd(n, m)
        while g > 1:
            a *= g
            g = gcd(n // a, g)
        b, coeffs, rest = n // a, self.coeffs, ()
        if b > 1:
            u, v = pow(b, -1, a), pow(a, -1, b)
            rows = [[0] * b for _ in range(a)]
            for i, c in enumerate(coeffs):
                if c:
                    rows[i * u % a][i * v % b] += c
            columns = zip(*(_reduce_mod_phi(row, b) for row in rows))
            coeffs, *rest = (_reduce_mod_phi(column, a) for column in columns)
        step = a // m
        if any(map(any, rest)) or any(c for i, c in enumerate(coeffs)
                                      if i % step):
            raise ValueError(f"element of Z[zeta_{n}] is not in Z[zeta_{m}]")
        return CycInt._reduced(m, coeffs[::step])

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
        if type(value) is int:  # not a bool, whose operation then fails
            return CycInt._reduced(1, (value,))
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
        prod = _convolve(a.coeffs, b.coeffs)
        return CycInt._reduced(n, _reduce_mod_phi(prod, n))

    __rmul__ = __mul__

    def _scaled(self, c: int) -> "CycInt":
        return CycInt._reduced(self.conductor,
                               tuple([c * x for x in self.coeffs]))

    def __pow__(self, k: int):
        """Square and multiply through *, by _power, so x ** 1 is x."""
        if k < 0:
            raise ValueError("negative powers are not defined in Z[zeta_N]")
        if k == 0:
            return CycInt.rational(1)
        return _power(self, k, lambda x, y: x * y)

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
        if gcd(t, self.conductor) != 1:
            raise ValueError("t must be coprime to the conductor")
        return _evaluate(self.coeffs, self.conductor, t)

    # -- norm ---------------------------------------------------------------

    def norm(self) -> int:
        """Field norm over Q: the product of the images under
        zeta_N -> zeta_N^t for every t coprime to N."""
        acc = self
        for t in _units(self.conductor)[1:]:
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


class RootOfUnity(namedtuple("RootOfUnity", "order exponent")):
    """zeta_order^exponent in lowest terms: gcd(exponent, order) = 1.

    Built by of(), which reduces to that form; the constructor does not
    check it.  order: int; exponent: int."""

    __slots__ = ()

    @staticmethod
    def of(order: int, exponent: int) -> "RootOfUnity":
        """Canonical (primitive) form of zeta_order^exponent."""
        if order < 1:
            raise ValueError("order must be positive")
        exponent %= order
        g = gcd(exponent, order)
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

    def rational_power(self, num: int, den: int) -> "RootOfUnity":
        """self^(num/den) on the database's branch: zeta_a^e -> zeta_(a*den)^(e*num)."""
        return RootOfUnity.of(self.order * den, self.exponent * num)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity.of(self.order, -self.exponent)

    def as_cycint(self) -> CycInt:
        return CycInt.zeta(self.order, self.exponent)


@lru_cache(maxsize=None)
def _orbit_multipliers(m: int, d: int) -> tuple[int, ...]:
    """{t mod d : t in (Z/L)^x, t = 1 mod m}, L = lcm(m, d)."""
    return tuple(sorted({t % d for t in _units(lcm(m, d)) if t % m == 1 % m}))


@lru_cache(maxsize=None)
def _orbit(m: int, d: int, e: int) -> tuple[int, ...]:
    """Sorted exponents of the Galois orbit of zeta_d^e over Q(zeta_m)."""
    return tuple(sorted({e * t % d for t in _orbit_multipliers(m, d)}))


class KCyclotomic(namedtuple("KCyclotomic", "field_conductor root")):
    """Minimal polynomial over K = Q(zeta_m) of a root of unity of order >= 2.

    Represented by the field conductor and the root; the polynomial is
    Psi(T) = prod over the Galois orbit O of the root of (T - zeta_d^s).
    The root is normalised to the least exponent in its orbit.
    field_conductor: int; root: RootOfUnity."""

    __slots__ = ()

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

    @lru_cache(maxsize=None)
    def value_at_one(self) -> CycInt:
        """Psi(1) = prod_{s in O} (1 - zeta_d^s) in Z[zeta_m]: each factor is
        one shift-and-subtract on a coefficient list in Z[x]/(x^L - 1), L =
        lcm(m, d), which is reduced modulo Phi_L once and then descended."""
        m, d = self.field_conductor, self.root.order
        big = lcm(m, d)
        acc = [1] + [0] * (big - 1)
        for s in self.orbit():
            shift = s * (big // d)
            acc = [a - b for a, b in zip(acc, acc[-shift:] + acc[:-shift])]
        return CycInt._reduced(big, _reduce_mod_phi(acc, big)).descend(m)


class PrimeIdealHandle(namedtuple("PrimeIdealHandle",
                                  "rational_prime conductor local_factor")):
    """One prime ideal of Z[zeta_N] over p, named by an irreducible factor
    of Phi_N over the p-element field (lexicographically least).
    rational_prime: int; conductor: int; local_factor: tuple[int, ...],
    ascending coefficients, monic, in [0, p)."""

    __slots__ = ()


# Random candidates tried for one equal-degree split before giving up; a
# candidate fails to split with probability at most 5/9 (p = 3, two factors).
_SPLIT_ATTEMPTS = 64


@lru_cache(maxsize=None)
def prime_handle(p: int, conductor: int) -> PrimeIdealHandle:
    """Handle of the prime (p, g(zeta_N)) over p, conductor 1 included: g is
    the lexicographically least monic irreducible factor of Phi_N mod p."""
    check_prime(p)
    return PrimeIdealHandle(p, conductor, min(_phi_factors_mod_p(p, conductor)))


def _phi_factors_mod_p(p: int, n: int) -> list[tuple[int, ...]]:
    """The distinct monic irreducible factors of Phi_n over GF(p), as
    ascending coefficient tuples, in no particular order.

    With n = p^k m and p not dividing m, Phi_n = Phi_m^phi(p^k) mod p, and
    Phi_m is squarefree mod p with every irreducible factor of degree
    f = ord_m(p).  Equal-degree splitting (Cantor-Zassenhaus, with the
    trace; see _split_candidate) separates them.  Raises RuntimeError when
    one split fails _SPLIT_ATTEMPTS times."""
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
        for _ in range(_SPLIT_ATTEMPTS):
            h = _gcd_mod_p(g, _split_candidate(g, m, f, p, rng), p)
            if 1 < len(h) < len(g):
                todo += [h, _divmod_mod_p(g, h, p)[0]]
                break
        else:
            raise RuntimeError(
                f"no split of a factor of Phi_{n} mod {p} in "
                f"{_SPLIT_ATTEMPTS} attempts"
            )
    return factors


def _split_candidate(g: list[int], m: int, f: int, p: int, rng) -> list[int]:
    """A polynomial whose gcd with g is a proper factor of g with
    probability at least 4/9.

    For a random a mod g, drawn by rng, a random.Random, the trace
    t = a + a^p + ... + a^(p^(f-1)) is a uniform element of GF(p) modulo
    each irreducible factor of g, independently; the candidate is t for
    p = 2 and t^((p-1)/2) - 1 for odd p.  Since g divides x^m - 1 and a has
    coefficients in GF(p), the Frobenius power a^(p^i) is a(x^(p^i)), an
    exponent permutation mod x^m - 1."""
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
    out = _power(t, (p - 1) // 2,
                 lambda a, b: _divmod_mod_p(_convolve(a, b), g, p)[1]) or [0]
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


def _gcd_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic greatest common divisor over GF(p) of a non-zero a and b."""
    while b:
        a, b = b, _divmod_mod_p(a, _monic(b, p), p)[1]
    return _monic(a, p)


def _monic(a: list[int], p: int) -> list[int]:
    inverse = pow(a[-1], -1, p)
    return [c * inverse % p for c in a]


@lru_cache(maxsize=None)
def _residue_columns(h: PrimeIdealHandle) -> tuple[tuple[int, ...], ...]:
    """Reduction mod h's prime as a matrix over GF(p): column k holds the x^k
    coefficients of the remainders of zeta_N^i, i < phi(N), by g."""
    g = h.local_factor
    images = [_divmod_mod_p([0] * i + [1], g, h.rational_prime)[1]
              for i in range(euler_phi(h.conductor))]
    return tuple(zip(*[r + [0] * (len(g) - 1 - len(r)) for r in images]))


def residues(elements, h: PrimeIdealHandle) -> tuple[int, ...]:
    """The images of a row of elements in the residue field of h's prime
    P = (p, g), untrimmed and concatenated, deg g entries each: an element's
    coefficients over the handle's conductor times _residue_columns(h), its
    remainder by g over GF(p).  Rows of equal length have equal residues
    exactly when they are congruent mod P entry by entry.  Each conductor
    must divide the handle's."""
    n, p, columns = h.conductor, h.rational_prime, _residue_columns(h)
    out: list[int] = []
    for a in elements:
        if n % a.conductor:
            raise ValueError("conductor of the element must divide the handle's")
        coeffs = a.lift(n).coeffs
        for column in columns:
            out.append(sum(map(mul, coeffs, column)) % p)
    return tuple(out)


def in_prime_ideal(a: CycInt, h: PrimeIdealHandle) -> bool:
    """Whether a lies in the prime ideal of h: its residue is zero."""
    return not any(residues((a,), h))


def cyclotomic_at_root(n: int, root: RootOfUnity) -> CycInt:
    """Phi_n(root), summed from the coefficients of Phi_n."""
    return _evaluate(_phi_coeffs(n), root.order, root.exponent)


def is_p_essential_factor(psi: KCyclotomic, p: int) -> bool:
    """Whether the prime p divides the norm of Psi(1); ValueError when p
    is not prime.

    The conjugates of Psi(1) multiply to a power of Phi_d(1), d the root
    order, which is q when d is a power of a prime q and 1 otherwise.
    """
    check_prime(p)
    d = psi.root.order
    while d % p == 0:
        d //= p
    return d == 1
