"""Factorized Schur elements of cyclotomic Hecke algebras.

A Schur element is stored in the canonical *v-form*

    s_chi(v) = xi * v^lead * prod_i Psi_i(M_i)^mult_i

where xi lies in Z[zeta_m], lead and the monomials M_i are integer exponent
vectors over the parameter slots, and each Psi_i is a K-cyclotomic
polynomial.  Database entry happens in the *x-form* printed in the
literature (products of cyclotomic polynomials of parameter monomials,
possibly involving radicals); normalize_x_to_v performs the change of
variables x_(C,j) = zeta_{e_C}^j * v_(C,j)^mu, rewrites each factor whose
monomial is not sign-canonical by the palindromy of Phi_n, and splits every
factor into K-irreducible pieces.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm, prod
from typing import TYPE_CHECKING, NamedTuple

from .cyclo import (
    CycInt,
    KCyclotomic,
    RootOfUnity,
    bounded_conductor,
    check_prime,
    euler_phi,
    factorint,
    is_p_essential_factor,
)
from .lattice import IntVector, dot, primitive_part

if TYPE_CHECKING:  # fractions loads only where a_and_A uses it
    from fractions import Fraction
__all__ = [
    "CharLabel",
    "GroupDatum",
    "SchurFactorX",
    "SchurFactorV",
    "SchurElement",
    "SchurFacts",
    "SpecializedSchur",
    "SchurDataError",
    "BadPrimeArgument",
    "BadExponents",
    "sign_canonical",
    "canonical_normal",
    "normalize_x_to_v",
    "validate",
    "value_at_one",
    "essential_monomials",
    "essential_normals",
    "essential_hyperplanes",
    "specialize",
    "a_and_A",
    "aa_weight",
    "schur_facts",
    "bad_primes",
    "generic_singleton",
]


class SchurDataError(ValueError):
    """A database entry violates the structure theory (bad twist, bad orbit,
    or a cyclotomic factor degenerating to root order 1)."""


class BadPrimeArgument(ValueError):
    """Raised when a prime argument does not divide the group order."""


class BadExponents(ValueError):
    """Raised when an exponent vector does not have one entry per slot."""


class CharLabel(NamedTuple):
    """An irreducible character phi_{d,b}, disambiguated by 0-3 primes."""

    degree: int
    b_invariant: int
    prime_marks: int = 0

    def render(self) -> str:
        return f"phi{{{self.degree},{self.b_invariant}}}" + "'" * self.prime_marks

    @staticmethod
    def parse(text: str) -> "CharLabel":
        body = text.strip()
        marks = len(body) - len(body.rstrip("'"))
        body = body.rstrip("'")
        if not (body.startswith("phi{") and body.endswith("}")):
            raise ValueError(f"bad character label: {text!r}")
        d, b = body[4:-1].split(",")
        return CharLabel(int(d), int(b), marks)

    def __str__(self) -> str:
        return self.render()


class GroupDatum(NamedTuple):
    """Static data of one complex reflection group and its Hecke algebra.

    Immutable; store.load builds each one once, from the header and its
    parsed sections, schur_facts included.  That index is keyed by
    CharLabel, like schur_elements, so _replace(characters=...) cuts stay
    correct.  Slots are indexed by (orbit, j) pairs flattened in orbit
    order; each orbit is named by its own letter, and its slots display
    as that letter with subscripts 0 .. e_C - 1.  mu_order = |mu(K)|, for
    K = Q(zeta_m) with m the field conductor, is derived, never stored.
    """

    name: str
    field_conductor: int
    group_order: int
    orbits: tuple[tuple[str, int], ...]
    characters: tuple[CharLabel, ...]
    schur_elements: dict | None = None  # CharLabel -> SchurElement
    schur_facts: dict | None = None  # CharLabel -> SchurFacts
    character_table: object | None = None  # groupblocks.CharacterTable
    hyperplane_tables: tuple | None = None  # engine.HyperplaneTable, ...
    clifford_links: tuple = ()

    @property
    def mu_order(self) -> int:
        """|mu(K)| = lcm(2, m): the roots of unity of Q(zeta_m) are the
        2m-th ones for odd m and the m-th ones for even m."""
        return lcm(2, self.field_conductor)

    @property
    def primes(self) -> tuple[int, ...]:
        """The primes dividing |G|, ascending: the only bad primes."""
        return tuple(sorted(factorint(self.group_order)))

    @property
    def has_full_schur(self) -> bool:
        """Whether a Schur element is stored for every character."""
        return self.schur_elements is not None and all(
            c in self.schur_elements for c in self.characters
        )

    def stored_schur(self) -> dict[int, "SchurElement"]:
        """1-based character index -> Schur element, for the characters
        with stored Schur data."""
        return _by_index(self.characters, self.schur_elements)

    def stored_facts(self) -> dict[int, "SchurFacts"]:
        """1-based character index -> SchurFacts, likewise."""
        return _by_index(self.characters, self.schur_facts)

    def stored_tables(self) -> tuple:
        """The stored hyperplane tables; raises ValueError when the datum
        has none."""
        if self.hyperplane_tables is None:
            raise ValueError(f"no hyperplane tables stored for {self.name}")
        return self.hyperplane_tables

    @property
    def slot_count(self) -> int:
        return sum(e for _, e in self.orbits)

    def check_exponents(self, n: IntVector) -> None:
        """Raise BadExponents unless n has one exponent per slot."""
        if len(n) != self.slot_count:
            raise BadExponents(f"{self.name} needs {self.slot_count} "
                               f"exponents, got {len(n)}")

    def slot_names(self) -> list[str]:
        return [f"{letter}{j}" for letter, e in self.orbits for j in range(e)]

    def orbit_ranges(self) -> list[range]:
        out, start = [], 0
        for _, e in self.orbits:
            out.append(range(start, start + e))
            start += e
        return out

    def orbit_sums(self, v: IntVector) -> list[int]:
        """The sum of v's entries over the slots of each orbit."""
        return [sum(v[rng.start:rng.stop]) for rng in self.orbit_ranges()]


def _by_index(characters, by_label: dict | None) -> dict:
    return {i + 1: by_label[c] for i, c in enumerate(characters)
            if c in by_label} if by_label else {}


class SchurFactorX(NamedTuple):
    """One printed factor Phi_n(monomial) in the parameters x_(C,j).

    The monomial is exps_numerator / exps_denominator; a denominator q > 1
    encodes radicals such as r = sqrt(...).  The branch of the radical is
    fixed by an explicit root-of-unity twist (default +1)."""

    cyc_index: int
    exps_numerator: IntVector
    exps_denominator: int = 1
    twist: RootOfUnity = RootOfUnity.one()


class SchurFactorV(NamedTuple):
    """Psi(M)^mult with Psi K-cyclotomic and M a primitive monomial whose
    exponents sum to zero over every orbit."""

    psi: KCyclotomic
    monomial: IntVector
    mult: int = 1


class SchurElement(NamedTuple):
    char: CharLabel
    xi: CycInt
    lead: IntVector
    factors: tuple[SchurFactorV, ...]


class SchurFacts(NamedTuple):
    """What the Schur path reads of one element s: |N(xi)|, aa_weight(s),
    and the pairs (p, M), M in essential_monomials(s, p), for the primes p
    dividing |G|.  A validated s has no p-essential factor at other p:
    s(1) = |G| / chi(1) would then have norm divisible by p."""

    norm: int
    weight: IntVector
    essential: frozenset[tuple[int, IntVector]]


class SpecializedSchur(NamedTuple):
    """A Schur element after u_(C,j) -> y^(n_(C,j)): a Laurent polynomial

    psi_coeff * y^y_power * prod Psi_i(y^delta_i)^mult_i  with delta_i != 0,

    where psi_coeff = xi * prod Psi_k(1)^mult_k over the factors whose
    monomial vanishes at n; it is multiplied out only when read.
    """

    xi: CycInt
    y_power: int
    terms: tuple[tuple[KCyclotomic, int, int], ...]  # (psi, delta, mult)
    constants: tuple[tuple[KCyclotomic, int], ...]  # (psi, mult), delta = 0

    @property
    def psi_coeff(self) -> CycInt:
        mults: dict[KCyclotomic, int] = {}
        for psi, mult in self.constants:
            mults[psi] = mults.get(psi, 0) + mult
        coeff = self.xi
        for psi, mult in mults.items():
            coeff = coeff * psi.value_at_one() ** mult
        return coeff


def sign_canonical(v: IntVector) -> IntVector:
    """Flip the sign so the first nonzero coordinate is positive."""
    for x in v:
        if x > 0:
            return tuple(v)
        if x < 0:
            return tuple(-y for y in v)
    return tuple(v)


def canonical_normal(v: IntVector) -> IntVector:
    """The primitive sign-canonical normal of the hyperplane v is normal
    to, which names it up to a nonzero scalar; ValueError for v = 0."""
    prim, content = primitive_part(v)
    if content == 0:
        raise ValueError("zero vector does not define a hyperplane")
    return sign_canonical(prim)


def _slot_twist(g: GroupDatum, exps: IntVector, q: int) -> RootOfUnity:
    """The root-of-unity part of x^(exps/q), where slot x_(C,j) carries
    zeta_(e_C)^j, raised to c/q on the database's branch; the slots are
    walked no further than exps."""
    slots = (RootOfUnity.of(e, j) for _, e in g.orbits for j in range(e))
    return prod((root.rational_power(c, q) for c, root in zip(exps, slots)
                 if c), start=RootOfUnity.one())


def normalize_x_to_v(
    g: GroupDatum,
    char: CharLabel,
    coeff: CycInt,
    lead_x: IntVector,
    factors: list[SchurFactorX],
    lead_den: int = 1,
) -> SchurElement:
    """Convert a printed x-form Schur element to canonical v-form; raises
    ValueError before any work that needs a conductor past MAX_CONDUCTOR.
    The roots of unity split off on the way are collected in one unit,
    which multiplies coeff once at the end."""
    mu = g.mu_order
    m = g.field_conductor
    nslots = g.slot_count

    # leading monomial: x^lead contributes a unit and v^(mu*lead/lead_den)
    if any((mu * c) % lead_den for c in lead_x):
        raise SchurDataError("leading monomial has non-integral v-exponents")
    lead = [mu * c // lead_den for c in lead_x]
    unit = _slot_twist(g, lead_x, lead_den)
    bounded_conductor(lcm(m, unit.order, coeff.conductor))

    collected: dict[tuple[KCyclotomic, IntVector], int] = {}
    for fac in factors:
        n, q, w = fac.cyc_index, fac.exps_denominator, fac.exps_numerator
        if len(w) != nslots:
            raise SchurDataError("factor exponent vector has wrong length")
        if any((mu * c) % q for c in w):
            raise SchurDataError("factor has non-integral v-exponents")
        b = tuple(mu * c // q for c in w)
        b_prim, content = primitive_part(b)
        if content == 0:
            raise SchurDataError("factor with trivial monomial")
        rho = fac.twist * _slot_twist(g, w, q)
        phi = euler_phi(n)
        # Phi_n(rho * T^content) = rho^phi * prod_(tau in S) (T - tau)
        factor_unit = rho ** phi
        if sign_canonical(b_prim) != b_prim:
            # M = v^-b_prim, c = content: Phi_n(rho * M^-c) = eps_n * rho^phi *
            # M^(-c*phi) * Phi_n(rho^-1 * M^c), as Phi_1(T) = -T * Phi_1(1/T) and
            # Phi_n is palindromic for n >= 2; so the unit gains eps_n alone
            b_prim, rho = tuple(-c for c in b_prim), rho.inverse()
            lead = [a - content * phi * c for a, c in zip(lead, b_prim)]
            factor_unit = RootOfUnity.of(2, 1) if n == 1 else RootOfUnity.one()
        # tau = zeta_big^k gives rho * tau^content = zeta_ell^(r + k)
        ell = lcm(n, rho.order)
        r = rho.exponent * (ell // rho.order)
        big = content * ell
        bounded_conductor(lcm(m, big, coeff.conductor, unit.order))
        unit = unit * factor_unit
        for psi in _root_orbits(m, n, ell, r, big):
            collected[psi, b_prim] = collected.get((psi, b_prim), 0) + 1

    bounded_conductor(lcm(m, unit.order, coeff.conductor))
    try:
        xi = coeff * unit.as_cycint()
        xi = xi.lift(lcm(xi.conductor, m)).descend(m)
    except ValueError as exc:
        raise SchurDataError(
            f"unit coefficient does not lie in Z[zeta_{m}]; "
            "check the radical twists"
        ) from exc
    out = tuple(
        SchurFactorV(psi, mono, mult) for (psi, mono), mult in sorted(
            collected.items(), key=lambda kv: (kv[0][1], kv[0][0].root)
        )
    )
    return SchurElement(char, xi, tuple(lead), out)


@lru_cache(maxsize=None)
def _root_orbits(m: int, n: int, ell: int, r: int, big: int):
    """The K-cyclotomic polynomials, K = Q(zeta_m), whose product is
    prod_(tau in S) (T - tau): one per Galois orbit over K of the root set
    S, which holds the tau = zeta_big^k with zeta_ell^(r + k) of order n.
    Raises SchurDataError when S holds 1 or an orbit leaves S."""
    remaining = {k for k in range(big) if ell // gcd(r + k, ell) == n}
    if len(remaining) != big // ell * euler_phi(n):
        raise AssertionError("root-set enumeration miscounted")
    if 0 in remaining:
        raise SchurDataError(
            "factor produces a component of root order 1 (data-entry error)"
        )
    out = []
    while remaining:
        psi = KCyclotomic.of(m, RootOfUnity.of(big, min(remaining)))
        d = psi.root.order
        orbit = {s * (big // d) for s in psi.orbit()}
        if not orbit <= remaining:
            raise SchurDataError("Galois orbit leaves the root set")
        remaining -= orbit
        out.append(psi)
    return tuple(out)


def value_at_one(g: GroupDatum, s: SchurElement) -> CycInt:
    """s_chi(1): at the zero specialization every monomial vanishes, so the
    whole element is the specialized coefficient."""
    return SpecializedSchur(s.xi, 0, (), tuple(
        (fac.psi, fac.mult) for fac in s.factors)).psi_coeff


def validate(g: GroupDatum, s: SchurElement) -> list[str]:
    """All structural invariants plus the value-at-one sanity check.

    Returns human-readable violations; an empty list means the entry is
    consistent."""
    bad: list[str] = []
    if len(s.lead) != g.slot_count:
        bad.append("leading exponent vector has wrong length")
        return bad
    for ci, total in enumerate(g.orbit_sums(s.lead)):
        if total:
            bad.append(f"leading exponents do not sum to zero on orbit {ci}")
    for fac in s.factors:
        prim, content = primitive_part(fac.monomial)
        if content != 1:
            bad.append(f"monomial {fac.monomial} is not primitive")
        if any(g.orbit_sums(fac.monomial)):
            bad.append(f"monomial {fac.monomial} has nonzero orbit sums")
        if fac.psi.root.order < 2:
            bad.append("factor of root order 1")
        if fac.mult < 1:
            bad.append("non-positive multiplicity")
        if fac.psi.field_conductor != g.field_conductor:
            bad.append("factor defined over the wrong field")
    val = value_at_one(g, s)
    expected, rem = divmod(g.group_order, s.char.degree)
    if rem:
        bad.append("character degree does not divide the group order")
    elif not (val.is_rational() and val.as_int() == expected):
        bad.append(
            f"value at v=1 is {val}, expected {expected} for {s.char.render()}"
        )
    return bad


def essential_monomials(s: SchurElement, p: int) -> set[IntVector]:
    """Sign-canonical primitive monomials of the p-essential factors."""
    return {
        sign_canonical(fac.monomial)
        for fac in s.factors
        if is_p_essential_factor(fac.psi, p)
    }


def essential_normals(g: GroupDatum, primes) -> set[IntVector]:
    """Union of essential_monomials over the stored Schur elements at the
    given primes, read off g.schur_facts; characters without Schur data
    add nothing."""
    return {normal for f in g.stored_facts().values()
            for p, normal in f.essential if p in primes}


def essential_hyperplanes(g: GroupDatum, p: int) -> list[IntVector]:
    """Normals of the p-essential hyperplanes, sorted (p = 0: every prime
    in g.primes).  Raises BadPrimeArgument unless p is 0 or in g.primes,
    so no argument is factorised.  Reads the full Schur payload if stored,
    else the hyperplane tables; raises ValueError when neither is stored."""
    if p != 0 and p not in g.primes:
        raise BadPrimeArgument("The number p should divide the order of the group")
    primes = [p] if p else g.primes
    if g.has_full_schur:
        return sorted(essential_normals(g, primes))
    return sorted({
        sign_canonical(table.normal)
        for table in g.stored_tables()
        if table.normal is not None and (p == 0 or p in table.primes)
    })


def specialize(g: GroupDatum, s: SchurElement, n: IntVector) -> SpecializedSchur:
    """Image of the Schur element under u_(C,j) -> y^(n_(C,j))."""
    g.check_exponents(n)
    y_power = dot(s.lead, n)
    terms, constants = [], []
    for fac in s.factors:
        delta = dot(fac.monomial, n)
        if delta == 0:
            constants.append((fac.psi, fac.mult))
        else:
            terms.append((fac.psi, delta, fac.mult))
    return SpecializedSchur(s.xi, y_power, tuple(terms), tuple(constants))


def a_and_A(g: GroupDatum, sp: SpecializedSchur) -> tuple[Fraction, Fraction]:
    """Valuation and degree of the specialized element in the x-scale
    (y = x^(1/mu)).

    Their sum is linear in the specialization: mu * (a + A) at n is
    <aa_weight(s), n>.  The Schur-path heuristic groups characters by that
    weight and calls neither this function nor specialize."""
    from fractions import Fraction
    val = sp.y_power
    deg = sp.y_power
    for psi, delta, mult in sp.terms:
        span = mult * psi.degree * delta
        if delta < 0:
            val += span
        else:
            deg += span
    return Fraction(val, g.mu_order), Fraction(deg, g.mu_order)


def aa_weight(s: SchurElement) -> IntVector:
    """The integer vector w with mu * (a + A) = <w, n> at every
    specialization n, namely

        w = 2 * lead + sum over the factors of mult * deg(Psi) * M.

    At n, Psi(y^delta)^mult with delta = <M, n> spans mult * deg * |delta|
    powers of y: it adds mult * deg * delta to the valuation when delta < 0
    and to the degree when delta > 0, so to their sum in either case (and
    nothing when delta = 0).  The y^lead term adds <lead, n> to both."""
    coeffs = (2, *(fac.mult * fac.psi.degree for fac in s.factors))
    # row j: lead[j] and the j-th entry of every factor's monomial
    rows = zip(s.lead, *(fac.monomial for fac in s.factors))
    return tuple(dot(coeffs, row) for row in rows)


def schur_facts(g: GroupDatum, s: SchurElement) -> SchurFacts:
    """The SchurFacts of s; store.load computes them once per element."""
    return SchurFacts(abs(s.xi.norm()), aa_weight(s), frozenset(
        (p, normal) for p in g.primes
        for normal in essential_monomials(s, p)))


def bad_primes(g: GroupDatum, n: IntVector) -> set[int]:
    """Primes p with some specialized coefficient psi_chi in a prime above
    p.  psi_chi is xi * prod Psi(1)^mult over the factors with <M, n> = 0;
    the norm is multiplicative, and N(Psi(1)) is a power of Phi_d(1), d the
    root order: p when d is a power of p, else 1.  So the primes are those
    of the indexed N(xi) and each p of an indexed (p, M) with <M, n> = 0.
    All of them occur at n = 0, where a validated psi_chi is |G| / chi(1),
    so only the primes of |G| are tested."""
    if not g.has_full_schur:
        raise ValueError(f"full Schur payload not stored for {g.name}")
    g.check_exponents(n)
    primes, out = g.primes, set()
    for f in g.stored_facts().values():
        out.update(p for p in primes if f.norm % p == 0)
        out.update(p for p, m in f.essential if dot(m, n) == 0)
    return out


def generic_singleton(
    g: GroupDatum,
    s: SchurElement,
    p: int,
    hyperplane: IntVector | None = None,
) -> bool:
    """Whether the character stays alone in its block: its Schur element
    avoids the relevant prime ideal(s), as g.schur_facts records them.
    The hyperplane's normal counts up to a nonzero scalar; raises
    ValueError for a p not prime or a zero normal."""
    check_prime(p)
    facts = g.schur_facts[s.char]
    on_essential = hyperplane is not None and (
        (p, canonical_normal(hyperplane)) in facts.essential)
    return facts.norm % p != 0 and not on_essential
