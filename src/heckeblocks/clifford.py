"""Block and hyperplane transport along cyclic Clifford descents.

A descent link records how one Hecke algebra sits inside another as the
fixed subalgebra of a finite cyclic grading: each parent parameter slot
either maps to a child slot or is frozen at a root of unity, and induction
sends each child character to a multiplicity-free sum of parent characters.
Blocks and essential hyperplanes push down along the link.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import CycInt, RootOfUnity
from .engine import Hyperplane, HyperplaneTable
from .groupblocks import Partition, join
from .lattice import IntVector
from .schur import CharLabel, GroupDatum, SchurElement, SchurFactorX

__all__ = [
    "CliffordLink",
    "transport_blocks",
    "descend_hyperplanes",
    "transport_schur_x",
    "validate_schur_scaling",
]

# parameter_spec entries: ("slot", child_slot_index) or ("root", RootOfUnity)
SpecEntry = tuple


@dataclass(frozen=True)
class CliffordLink:
    parent: str
    child: str
    cyclic_order: int
    parameter_spec: tuple[SpecEntry, ...]
    parent_characters: tuple[CharLabel, ...]
    child_characters: tuple[CharLabel, ...]
    induction: tuple[tuple[CharLabel, tuple[CharLabel, ...]], ...]

    def __post_init__(self):
        seen: set[CharLabel] = set()
        for child_label, parents in self.induction:
            if child_label not in self.child_characters:
                raise ValueError(f"unknown child character {child_label}")
            if self.cyclic_order % len(parents):
                raise ValueError(
                    f"induction row size {len(parents)} does not divide "
                    f"the cyclic order {self.cyclic_order}"
                )
            for p in parents:
                if p not in self.parent_characters:
                    raise ValueError(f"unknown parent character {p}")
                if p in seen:
                    raise ValueError(f"parent character {p} in two rows")
                seen.add(p)

    def induction_indices(self) -> list[tuple[int, tuple[int, ...]]]:
        """Rows as 1-based (child index, parent indices)."""
        return [
            (
                self.child_characters.index(child) + 1,
                tuple(self.parent_characters.index(p) + 1 for p in parents),
            )
            for child, parents in self.induction
        ]


def transport_blocks(link: CliffordLink, parent_blocks: Partition) -> Partition:
    """Push a parent block partition down to the child: two child characters
    share a block when some parent block meets both induction images."""
    if parent_blocks.size != len(link.parent_characters):
        raise ValueError("partition does not match the link's parent")
    rows = link.induction_indices()
    # child i ~ child j <=> some parent part meets Ind(i) and Ind(j)
    touched = (
        [child for child, parents in rows if set(parents) & set(block)]
        for block in parent_blocks.parts
    )
    return Partition.generated_by(touched, len(link.child_characters))


def _restrict(link: CliffordLink, exps: IntVector, child_slots: int,
              den: int = 1) -> tuple[IntVector, RootOfUnity]:
    """Push the monomial x^(exps/den) through parameter_spec: a slot entry
    adds its exponent to the child slot, a root entry multiplies its power
    into the returned twist."""
    out = [0] * child_slots
    twist = RootOfUnity.one()
    for c, (kind, payload) in zip(exps, link.parameter_spec):
        if kind == "slot":
            out[payload] += c
        elif c:
            twist = twist * _root_power(payload, c, den)
    return tuple(out), twist


def descend_hyperplanes(
    link: CliffordLink, parent_tables, child_slots: int
) -> list[HyperplaneTable]:
    """Restrict parent hyperplane tables through the link.

    Normals restricting to zero feed the child baseline; the rest are
    primitivized and deduplicated, joining blocks that collide."""
    n_child = len(link.child_characters)
    baseline_parts: list[Partition] = []
    by_normal: dict[IntVector, list[Partition]] = {}  # in first-seen order
    primes: dict[IntVector, set[int]] = {}
    for table in parent_tables:
        moved = transport_blocks(link, table.blocks)
        if table.hyperplane is None:
            baseline_parts.insert(0, moved)
            continue
        restricted, _ = _restrict(link, table.normal, child_slots)
        if not any(restricted):
            baseline_parts.append(moved)
            continue
        h = Hyperplane.of(restricted)
        by_normal.setdefault(h.normal, []).append(moved)
        primes.setdefault(h.normal, set()).update(table.primes)
    baseline = (
        join(baseline_parts) if baseline_parts else Partition.singletons(n_child)
    )
    out = [HyperplaneTable(None, baseline, frozenset())]
    for normal, moved_blocks in by_normal.items():
        out.append(
            HyperplaneTable(
                Hyperplane(normal), join(moved_blocks), frozenset(primes[normal])
            )
        )
    return out


def _root_power(root: RootOfUnity, num: int, den: int) -> RootOfUnity:
    """Canonical branch of root^(num/den): zeta_a^e -> zeta_(a*den)^(e*num)."""
    return RootOfUnity.of(root.order * den, root.exponent * num)


def transport_schur_x(
    link: CliffordLink,
    coeff: CycInt,
    lead_x: IntVector,
    factors: list[SchurFactorX],
    child_slots: int,
    lead_den: int = 1,
):
    """Specialize an x-form parent Schur element along parameter_spec."""
    new_lead, lead_twist = _restrict(link, lead_x, child_slots, lead_den)
    new_factors = []
    for fac in factors:
        num, twist = _restrict(
            link, fac.exps_numerator, child_slots, fac.exps_denominator
        )
        new_factors.append(SchurFactorX(
            fac.cyc_index, num, fac.exps_denominator, fac.twist * twist
        ))
    return coeff * lead_twist.as_cycint(), new_lead, lead_den, new_factors


def validate_schur_scaling(
    link: CliffordLink,
    child_g: GroupDatum,
    child_label: CharLabel,
    specialized_parent: SchurElement,
    child_element: SchurElement,
) -> list[str]:
    """Check s_parent|spec = |Omega| * s_child on normalized v-forms."""
    bad: list[str] = []
    omega = next(
        (len(ps) for c, ps in link.induction if c == child_label), None
    )
    if omega is None:
        return [f"{child_label} has no induction row in the link"]
    if specialized_parent.xi != child_element.xi * omega:
        bad.append(
            f"{child_label}: coefficient mismatch "
            f"({specialized_parent.xi} vs {omega} * {child_element.xi})"
        )
    if tuple(specialized_parent.lead) != tuple(child_element.lead):
        bad.append(f"{child_label}: leading monomial mismatch")
    if sorted(specialized_parent.factors, key=_factor_key) != sorted(
        child_element.factors, key=_factor_key
    ):
        bad.append(f"{child_label}: cyclotomic factor mismatch")
    return bad


def _factor_key(fac):
    return (fac.monomial, fac.psi.root.order, fac.psi.root.exponent, fac.mult)
