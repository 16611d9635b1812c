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

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd, lcm

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

__all__ = [
    "CharLabel",
    "Characters",
    "Orbits",
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
    "generic_singleton",
]


class SchurDataError(ValueError):
    """A database entry violates the structure theory (bad twist, bad orbit,
    or a cyclotomic factor degenerating to root order 1)."""


class BadPrimeArgument(ValueError):
    """Raised when a prime argument does not divide the group order."""


class BadExponents(ValueError):
    """Raised when an exponent vector does not have one entry per slot."""


class CharLabel(namedtuple("CharLabel", "degree b_invariant prime_marks",
                           defaults=(0,))):
    """An irreducible character phi_{d,b}, disambiguated by 0-3 primes.
    degree: int; b_invariant: int; prime_marks: int."""

    __slots__ = ()

    @lru_cache(maxsize=None)
    def render(self) -> str:
        """phi{d,b} then the prime marks.  Formatted once per label, then
        read from a memo of one entry per distinct label ever rendered: the
        labels of the database files read."""
        return f"phi{{{self.degree},{self.b_invariant}}}" + "'" * self.prime_marks

    @staticmethod
    def parse(text: str) -> "CharLabel":
        """The label that renders as text; ValueError for any other text."""
        body = text.rstrip("'")
        d, _, b = body.removeprefix("phi{").removesuffix("}").partition(",")
        if d.isdecimal() and b.isdecimal():
            label = CharLabel(int(d), int(b), len(text) - len(body))
            if label.render() == text:
                return label
        raise ValueError(f"bad character label: {text!r}")

    def __str__(self) -> str:
        return self.render()


class Characters(tuple):
    """A group's character labels, equal to their plain tuple, with
    positions, the map label -> 1-based index, built once."""

    def __new__(cls, labels):
        self = super().__new__(cls, labels)
        self.positions = {c: i for i, c in enumerate(self, 1)}
        return self


class Orbits(tuple):
    """The (letter, e_C) pairs, equal to their plain tuple, with their slot
    layout: slot_count and the conductor L = lcm(e_C) at once; slot_names,
    ranges and twists, (L / e_C) * j per slot (C, j), on first read."""

    def __new__(cls, orbits):
        self = super().__new__(cls, orbits)
        self.slot_count = sum(e for _, e in self)
        self.conductor = lcm(*(e for _, e in self))
        return self

    @cached_property
    def slot_names(self) -> tuple[str, ...]:
        return tuple(f"{letter}{j}" for letter, e in self for j in range(e))

    @cached_property
    def ranges(self) -> tuple[range, ...]:
        ends = list(accumulate((e for _, e in self), initial=0))
        return tuple(map(range, ends, ends[1:]))

    @cached_property
    def twists(self) -> tuple[int, ...]:
        return tuple(self.conductor // e * j for _, e in self for j in range(e))


class GroupDatum(namedtuple(
        "GroupDatum", "name field_conductor group_order orbits characters "
        "schur_elements schur_facts schur_tables character_table "
        "hyperplane_tables clifford_links",
        defaults=(None, None, None, None, None, ()))):
    """Static data of one complex reflection group and its Hecke algebra.

    Immutable; store.load builds each one once, from the header and its
    parsed sections; schur_elements and schur_facts are keyed by CharLabel.
    load derives, once per datum: the characters as a Characters, whose
    positions map each label to its 1-based index; the orbits as an Orbits,
    the slot layout the slot methods read; the hyperplane tables as an
    engine.StoredTables, whose memo maps each hit mask to its engine.Flat;
    schur_facts; and, for a full Schur payload only, schur_tables, the
    StoredTables engine.derive_tables builds.  A _replace view keeps each of
    them as load derived it: one with other characters passes its own
    Characters, and keeps the loaded schur_tables.  Slots are indexed by
    (orbit, j) pairs flattened in orbit order; each orbit is named by its
    own letter, and its slots display as that letter with subscripts
    0 .. e_C - 1.  mu_order = |mu(K)|, for K = Q(zeta_m) with m the field
    conductor, is derived.
    name: str; field_conductor, group_order: int; orbits: Orbits of
    (str, int) pairs; characters: Characters; schur_elements and schur_facts:
    dicts CharLabel -> SchurElement and -> SchurFacts, or None;
    schur_tables and hyperplane_tables: engine.StoredTables | None;
    character_table: groupblocks.CharacterTable | None; clifford_links:
    tuple."""

    __slots__ = ()

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

    def stored_tables(self) -> tuple:
        """The engine.StoredTables load built; raises ValueError when the
        datum has none."""
        if self.hyperplane_tables is None:
            raise ValueError(f"no hyperplane tables stored for {self.name}")
        return self.hyperplane_tables

    @property
    def slot_count(self) -> int:
        return self.orbits.slot_count

    def check_exponents(self, n: IntVector) -> None:
        """Raise BadExponents unless n has one exponent per slot."""
        if len(n) != self.orbits.slot_count:
            raise BadExponents(f"{self.name} needs {self.slot_count} "
                               f"exponents, got {len(n)}")

    def slot_names(self) -> tuple[str, ...]:
        return self.orbits.slot_names

    def orbit_sums(self, v: IntVector) -> list[int]:
        """The sum of v's entries over the slots of each orbit."""
        return [sum(v[rng.start:rng.stop]) for rng in self.orbits.ranges]


class SchurFactorX(namedtuple(
        "SchurFactorX", "cyc_index exps_numerator exps_denominator twist",
        defaults=(1, RootOfUnity.one()))):
    """One printed factor Phi_n(monomial) in the parameters x_(C,j).

    The monomial is exps_numerator / exps_denominator; a denominator q > 1
    encodes radicals such as r = sqrt(...).  The branch of the radical is
    fixed by an explicit root-of-unity twist (default +1).
    cyc_index: int; exps_numerator: IntVector; exps_denominator: int;
    twist: RootOfUnity."""

    __slots__ = ()


class SchurFactorV(namedtuple("SchurFactorV", "psi monomial mult",
                              defaults=(1,))):
    """Psi(M)^mult with Psi K-cyclotomic and M a primitive monomial whose
    exponents sum to zero over every orbit.
    psi: KCyclotomic; monomial: IntVector; mult: int."""

    __slots__ = ()


class SchurElement(namedtuple("SchurElement", "char xi lead factors")):
    """char: CharLabel; xi: CycInt; lead: IntVector; factors:
    tuple[SchurFactorV, ...]."""

    __slots__ = ()


class SchurFacts(namedtuple("SchurFacts", "norm weight essential")):
    """What the Schur path reads of one element s: |N(xi)|, w = aa_weight(s),
    and, for each pair (p, M), M in essential_monomials(s, p), p dividing
    |G|, w's key on M's hyperplane, which of computes once.  A validated s
    has no p-essential factor at other p: s(1) = |G| / chi(1) would then
    have norm divisible by p.  Iteration and membership run over the pairs.
    norm: int; weight: IntVector; essential: dict (p, M) -> IntVector."""

    __slots__ = ()

    @staticmethod
    def of(norm: int, weight: IntVector, pairs) -> "SchurFacts":
        """The facts with weight w and its key at each pair (p, M).
        mu * (a + A) at n is <w, n>.  The admissible vectors on M's
        hyperplane are its integer points off finitely many other
        hyperplanes, so they span it: two characters agree at all of them
        exactly when w - w' lies in Q * M.  So the key is M[k] * w - w[k] * M
        (k the first index with M[k] != 0), linear in w with kernel Q * M."""
        def key(normal):
            mk, wk = next((c, x) for c, x in zip(normal, weight) if c)
            return tuple(mk * x - wk * c for x, c in zip(weight, normal))
        return SchurFacts(norm, weight, {pair: key(pair[1]) for pair in pairs})


class SpecializedSchur(namedtuple("SpecializedSchur",
                                  "xi y_power terms constants")):
    """A Schur element after u_(C,j) -> y^(n_(C,j)): a Laurent polynomial

    psi_coeff * y^y_power * prod Psi_i(y^delta_i)^mult_i  with delta_i != 0,

    where psi_coeff = xi * prod Psi_k(1)^mult_k over the factors whose
    monomial vanishes at n; it is multiplied out only when read.
    xi: CycInt; y_power: int; terms: tuple[tuple[KCyclotomic, int, int], ...],
    (psi, delta, mult); constants: tuple[tuple[KCyclotomic, int], ...],
    (psi, mult) with delta = 0."""

    __slots__ = ()

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
    """The root-of-unity part of x^(exps/q), slot x_(C,j) carrying
    zeta_(e_C)^j raised to c/q on the database's branch, read no further
    than exps: zeta_(L*q)^(sum (L/e_C)*j*c), L the lcm of the orbit sizes."""
    return RootOfUnity.of(g.orbits.conductor * q,
                          sum(c * k for c, k in zip(exps, g.orbits.twists)))


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
    return {normal for f in (g.schur_facts or {}).values()
            for p, normal in f.essential if p in primes}


def essential_hyperplanes(g: GroupDatum, p: int) -> list[IntVector]:
    """Normals of the p-essential hyperplanes, sorted (p = 0: every prime
    in g.primes).  Raises BadPrimeArgument unless p is 0 or in g.primes,
    so no argument is factorised.  Reads the tables of the full Schur
    payload if load derived them, else the stored hyperplane tables, whose
    normals load keeps distinct and sign-canonical; raises ValueError when
    neither is there."""
    if p != 0 and p not in g.primes:
        raise BadPrimeArgument("The number p should divide the order of the group")
    tables = g.stored_tables() if g.schur_tables is None else g.schur_tables
    return sorted(table.normal for table in tables
                  if table.normal is not None and (p == 0 or p in table.primes))


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


def a_and_A(g: GroupDatum, sp: SpecializedSchur) -> tuple:
    """Valuation and degree of the specialized element in the x-scale
    (y = x^(1/mu)), a pair of fractions.Fraction.

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
    """The SchurFacts of s, with the key of its weight on each essential
    normal; store.load computes them once per element."""
    return SchurFacts.of(abs(s.xi.norm()), aa_weight(s), (
        (p, normal) for p in g.primes for normal in essential_monomials(s, p)))


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
