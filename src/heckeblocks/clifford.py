"""Block and hyperplane transport along cyclic Clifford descents.

A descent link records how one Hecke algebra sits inside another as the
fixed subalgebra of a finite cyclic grading: each parent parameter slot
either maps to a child slot or is frozen at a root of unity, and induction
sends each child character to a multiplicity-free sum of parent characters.
Blocks and essential hyperplanes push down along the link.
"""

from __future__ import annotations

from collections import namedtuple

from .cyclo import CycInt, RootOfUnity, cyclotomic_at_root
from .engine import Hyperplane, HyperplaneTable
from .groupblocks import Partition, join
from .lattice import IntVector
from .schur import CharLabel, SchurDataError, SchurFactorX

__all__ = [
    "CliffordLink",
    "transport_blocks",
    "descend_hyperplanes",
    "transport_schur_x",
]


class CliffordLink(namedtuple(
        "CliffordLink", "parent child cyclic_order parameter_spec "
        "parent_characters child_characters induction")):
    """A descent link; of() checks it, the constructor does not.
    parent, child: str; cyclic_order: int; parameter_spec: entries ("slot",
    child_slot_index) or ("root", RootOfUnity); parent_characters and
    child_characters: Characters; induction: rows (child label, parent labels)."""

    __slots__ = ()

    @staticmethod
    def of(*args, **kwargs) -> "CliffordLink":
        """The link; raises ValueError on a bad cyclic order or induction row.
        A row lists Ind chi without repeats, of degree cyclic_order x chi(1),
        and each parent character lies in a row: by Frobenius reciprocity it
        lies over some child character."""
        link = CliffordLink(*args, **kwargs)
        child_at = link.child_characters.positions
        parent_at = link.parent_characters.positions
        if link.cyclic_order < 1:
            raise ValueError(f"cyclic order {link.cyclic_order} is not positive")
        seen: set[CharLabel] = set()
        for child_label, parents in link.induction:
            if child_label not in child_at:
                raise ValueError(f"unknown child character {child_label}")
            if not parents or link.cyclic_order % len(parents):
                raise ValueError(
                    f"induction row size {len(parents)} does not divide "
                    f"the cyclic order {link.cyclic_order}"
                )
            for p in parents:
                if p not in parent_at:
                    raise ValueError(f"unknown parent character {p}")
                if p in seen:
                    raise ValueError(f"parent character {p} in two rows")
                seen.add(p)
            total = sum(p.degree for p in parents)
            if total != (need := link.cyclic_order * child_label.degree):
                raise ValueError(f"parent degrees of {child_label}'s row sum "
                                 f"to {total}, not {need}")
        for p in link.parent_characters:
            if p not in seen:
                raise ValueError(f"parent character {p} in no row")
        return link

    def induction_indices(self) -> list[tuple[int, tuple[int, ...]]]:
        """Rows as 1-based (child index, parent indices), read off the
        characters' Characters.positions."""
        child_at = self.child_characters.positions
        parent_at = self.parent_characters.positions
        return [(child_at[child], tuple(parent_at[p] for p in parents))
                for child, parents in self.induction]


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
            twist = twist * payload.rational_power(c, den)
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
    return [HyperplaneTable(None, baseline, frozenset())] + [
        HyperplaneTable(Hyperplane(h), join(moved), frozenset(primes[h]))
        for h, moved in by_normal.items()]


def transport_schur_x(
    link: CliffordLink,
    coeff: CycInt,
    lead_x: IntVector,
    factors: list[SchurFactorX],
    child_slots: int,
    lead_den: int = 1,
):
    """Specialize an x-form parent Schur element along parameter_spec.  A
    factor whose monomial restricts to 0 is the constant Phi_n(twist): it is
    folded into the coefficient, or raises SchurDataError when it is 0."""
    new_lead, lead_twist = _restrict(link, lead_x, child_slots, lead_den)
    coeff, new_factors = coeff * lead_twist.as_cycint(), []
    for fac in factors:
        num, twist = _restrict(
            link, fac.exps_numerator, child_slots, fac.exps_denominator
        )
        fac = fac._replace(exps_numerator=num, twist=fac.twist * twist)
        if any(num):
            new_factors.append(fac)
        elif (value := cyclotomic_at_root(fac.cyc_index, fac.twist)).is_zero():
            raise SchurDataError(f"factor Phi_{fac.cyc_index} vanishes on the child")
        else:
            coeff = coeff * value
    return coeff, new_lead, lead_den, new_factors

