"""JSON persistence and validation of the group database.

One group per UTF-8 JSON file.  load checks each value where it parses it
(exact ints, shapes, conductors up to MAX_CONDUCTOR, Schur values at v=1,
partitions, links), reports every violation in one StoreError and computes
GroupDatum.schur_facts; verify_db adds p_blocks' and cross-file checks.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .clifford import CliffordLink, descend_hyperplanes
from .cyclo import CycInt, RootOfUnity, bounded_conductor, factorint
from .engine import Hyperplane, HyperplaneTable
from .groupblocks import CharacterTable, Partition, p_blocks
from .lattice import primitive_part
from .schur import (
    CharLabel,
    GroupDatum,
    SchurFactorX,
    normalize_x_to_v,
    schur_facts,
    sign_canonical,
    validate,
)

__all__ = ["StoreError", "load", "load_group", "default_db_dir", "verify_db"]

_DATA_DIR = Path(__file__).parent / "data"


class StoreError(ValueError):
    """Parse or validation failure; .report lists every violation."""

    def __init__(self, path, report):
        self.path = str(path)
        self.report = list(report)
        super().__init__(
            f"{path}: " + "; ".join(self.report[:4])
            + ("; ..." if len(self.report) > 4 else "")
        )


def default_db_dir() -> Path:
    env = os.environ.get("HECKE_DB")
    return Path(env) if env else _DATA_DIR


def _int(x) -> int:
    """x, which must be an int: a float, a string or a bool is not
    truncated or converted but rejected."""
    if type(x) is not int:
        raise TypeError(f"{x!r} is not an integer")
    return x


def _cycint(doc) -> CycInt:
    if type(doc) is int:
        return CycInt.rational(doc)
    conductor, coeffs = bounded_conductor(_int(doc["conductor"])), doc["coeffs"]
    if not all(type(c) is int for c in coeffs):
        raise TypeError(f"cyclotomic integer {doc!r} needs int entries")
    return CycInt(conductor, coeffs)


def _root(doc) -> RootOfUnity:
    return RootOfUnity.of(_int(doc[0]), _int(doc[1]))


def _parse_factor(doc) -> SchurFactorX:
    return SchurFactorX(
        cyc_index=_int(doc["cyc"]),
        exps_numerator=tuple(_int(c) for c in doc["num"]),
        exps_denominator=_int(doc.get("den", 1)),
        twist=_root(doc["twist"]) if "twist" in doc else RootOfUnity.one(),
    )


def _parse_link(doc) -> CliffordLink:
    spec = []
    for entry in doc["parameter_spec"]:
        kind, payload = entry
        if kind == "slot":
            spec.append(("slot", _int(payload)))
        elif kind == "root":
            spec.append(("root", _root(payload)))
        else:
            raise ValueError(f"bad parameter_spec entry {entry!r}")
    if not all(isinstance(doc[k], str) for k in ("parent", "child")):
        raise TypeError("link parent and child must be group names")
    return CliffordLink(
        parent=doc["parent"],
        child=doc["child"],
        cyclic_order=_int(doc["cyclic_order"]),
        parameter_spec=tuple(spec),
        parent_characters=tuple(CharLabel.parse(c) for c in doc["parent_characters"]),
        child_characters=tuple(CharLabel.parse(c) for c in doc["child_characters"]),
        induction=tuple(
            (CharLabel.parse(child), tuple(CharLabel.parse(p) for p in parents))
            for child, parents in doc["induction"]
        ),
    )


# What a malformed document raises past the explicit checks: a missing key,
# an entry of the wrong type, a list too short, an unparsable value.
_MALFORMED = (KeyError, TypeError, IndexError, AttributeError, ValueError)


def load(path) -> GroupDatum:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise StoreError(path, [f"cannot parse: {exc}"]) from exc
    try:
        g = GroupDatum(
            name=doc["name"],
            field_conductor=bounded_conductor(_int(doc["field_conductor"])),
            mu_order=_int(doc["mu_order"]),
            group_order=_int(doc["group_order"]),
            orbits=tuple((o[0], _int(o[1])) for o in doc["orbits"]),
            characters=tuple(CharLabel.parse(c) for c in doc["characters"]),
        )
        if len(set(g.characters)) != len(g.characters):
            raise ValueError("character labels must be unique")
        if any(c.degree < 1 for c in g.characters):
            raise ValueError("character degrees must be at least 1")
        if any(e < 1 for _, e in g.orbits):
            raise ValueError(f"orbit sizes {g.orbits} must be at least 1")
        if not all(isinstance(s, str) for s in (g.name, *(o for o, _ in g.orbits))):
            raise TypeError("group and orbit names must be strings")
    except _MALFORMED as exc:
        raise StoreError(path, [f"bad header: {exc}"]) from exc
    report: list[str] = []
    try:
        sections = _load_sections(doc, g, report)
    except _MALFORMED as exc:
        report.append(f"malformed entry: {type(exc).__name__}: {exc}")
    if report:
        raise StoreError(path, report)
    return g._replace(**sections)


def _load_sections(doc, g: GroupDatum, report: list[str]) -> dict:
    """Parse and check the optional sections of g's document, appending
    every violation found to report; returns the parsed sections by
    GroupDatum field name."""
    size = len(g.characters)
    sections = {}

    if "hyperplane_tables" in doc:
        tables = []
        seen_baseline = False
        for tdoc in doc["hyperplane_tables"]:
            normal = tdoc.get("normal")
            if normal is None:
                if seen_baseline:
                    report.append("duplicate no-hyperplane baseline table")
                seen_baseline, hp = True, None
            elif not (isinstance(normal, list) and len(normal) == g.slot_count
                      and all(type(c) is int for c in normal)):
                report.append(f"normal {normal!r} is not a list of "
                              f"{g.slot_count} integers")
                continue
            else:
                normal = tuple(normal)
                prim, content = primitive_part(normal)
                if content != 1 or sign_canonical(normal) != normal:
                    report.append(f"normal {normal} not primitive sign-canonical")
                if any(g.orbit_sums(normal)):
                    report.append(f"normal {normal} has nonzero orbit sums")
                hp = Hyperplane(normal)
            try:
                blocks = Partition.of(
                    [[_int(i) for i in part] for part in tdoc["blocks"]], size)
            except ValueError as exc:
                report.append(str(exc))
                continue
            primes = tdoc.get("primes", [])
            if not isinstance(primes, list) or not all(
                type(p) is int and p > 1 and g.group_order % p == 0
                for p in primes
            ):
                report.append(f"primes {primes!r} are not integers > 1 "
                              f"dividing the group order {g.group_order}")
                primes = []
            tables.append(HyperplaneTable(hp, blocks, frozenset(primes)))
        if not seen_baseline:
            report.append("hyperplane tables lack the no-hyperplane baseline")
        sections["hyperplane_tables"] = tuple(tables)

    if "character_table" in doc:
        tdoc = doc["character_table"]
        conductor = bounded_conductor(_int(tdoc["conductor"]))
        class_sizes = tuple(_int(s) for s in tdoc["class_sizes"])
        values = []
        for i, row in enumerate(tdoc["values"]):
            if len(row) != len(class_sizes):
                report.append(f"character table row {i} does not have "
                              f"{len(class_sizes)} entries")
            values.append(tuple(_cycint(v).lift(conductor) for v in row))
        table = CharacterTable(
            conductor=conductor,
            class_sizes=class_sizes,
            values=tuple(values),
            class_order_labels=tuple(tdoc["class_orders"])
            if "class_orders" in tdoc else None,
        )
        if len(values) != size:
            report.append("character table row count mismatch")
        else:
            if table.group_order != g.group_order:
                report.append("class sizes do not sum to the group order")
            if any(v != CycInt.rational(1) for v in values[0]):
                report.append("first table row is not the trivial character")
            for i, c in enumerate(g.characters):
                if values[i][0] != CycInt.rational(c.degree):
                    report.append(f"table degree mismatch for {c.render()}")
        sections["character_table"] = table

    if "schur_x" in doc:
        elements = {}
        for name, sdoc in doc["schur_x"].items():
            label = CharLabel.parse(name)
            if label not in g.characters:
                report.append(f"schur entry for unknown character {name}")
                continue
            try:
                element = normalize_x_to_v(
                    g,
                    label,
                    _cycint(sdoc["coeff"]),
                    tuple(_int(c) for c in sdoc["lead"]),
                    [_parse_factor(f) for f in sdoc["factors"]],
                    lead_den=_int(sdoc.get("lead_den", 1)),
                )
            except ValueError as exc:
                report.append(f"{name}: {exc}")
                continue
            bad = validate(g, element)
            report.extend(f"{name}: {msg}" for msg in bad)
            elements[label] = element
        sections["schur_elements"] = elements
        sections["schur_facts"] = {
            label: schur_facts(g, s) for label, s in elements.items()}

    links = []
    for ldoc in doc.get("clifford_links", []):
        try:
            link = _parse_link(ldoc)
        except ValueError as exc:
            report.append(f"clifford link: {exc}")
            continue
        if link.child != g.name:
            report.append(f"link child {link.child} is not {g.name}")
        elif link.child_characters != g.characters:
            report.append("link child characters disagree with the datum")
        links.append(link)
    sections["clifford_links"] = tuple(links)
    return sections


def load_group(name: str, db_dir=None) -> GroupDatum:
    base = Path(db_dir) if db_dir else default_db_dir()
    path = base / f"{name.lower()}.json"
    if not path.exists():
        raise FileNotFoundError(f"no database file for {name} in {base}")
    return load(path)


def _cross_check_links(groups: dict[str, GroupDatum]) -> list[str]:
    report = []
    for g in groups.values():
        for link in g.clifford_links:
            parent = groups.get(link.parent)
            if parent is None:
                continue
            if link.parent_characters != parent.characters:
                report.append(
                    f"{link.parent}->{link.child}: parent characters disagree"
                )
                continue
            if len(link.parameter_spec) != parent.slot_count:
                report.append(
                    f"{link.parent}->{link.child}: parameter_spec arity"
                )
                continue
            if not link.induction:
                continue  # partial link: nothing further to check
            if parent.hyperplane_tables is None or g.hyperplane_tables is None:
                continue
            moved = descend_hyperplanes(
                link, parent.hyperplane_tables, g.slot_count
            )
            stored = {t.normal: t.blocks for t in g.hyperplane_tables}
            for t in moved:
                if t.normal not in stored:
                    continue  # hyperplane absent from the child's printed list
                if stored[t.normal] != t.blocks:
                    where = "baseline" if t.normal is None else str(t.normal)
                    report.append(
                        f"{link.parent}->{link.child}: transported blocks "
                        f"disagree with the stored table at {where}"
                    )
    return report


def verify_db(paths=None) -> tuple[bool, list[str]]:
    """Validate a set of database files plus their cross-file links, and
    run p_blocks on each character table at each prime dividing |G|."""
    if not paths:
        base = default_db_dir()
        paths = sorted(base.glob("*.json"))
    report: list[str] = []
    groups: dict[str, GroupDatum] = {}
    for path in paths:
        try:
            g = load(path)
        except StoreError as exc:
            report.extend(f"{exc.path}: {msg}" for msg in exc.report)
            continue
        groups[g.name] = g
        try:  # p_blocks' ValueError names the corrupt row and class
            for p in factorint(g.group_order) if g.character_table else ():
                p_blocks(g.character_table, p)
        except (*_MALFORMED, ArithmeticError) as exc:
            report.append(f"{path}: character table: {exc}")
    report.extend(_cross_check_links(groups))
    return not report, report
