"""JSON persistence and validation of the group database.

One group per UTF-8 JSON file.  load checks each value where it parses it
(exact ints, shapes, conductors up to MAX_CONDUCTOR, central characters,
Schur values at v=1, partitions, links) and computes GroupDatum.schur_facts;
verify_db adds the cross-file checks.  Every entry is checked, and one
malformed entry never hides another: one StoreError reports each violation
at its JSON location, e.g. schur_x["phi{3,6}"].factors[4]: missing key 'cyc'.
"""

from __future__ import annotations

import json
import os
from math import lcm
from pathlib import Path

from .clifford import CliffordLink, descend_hyperplanes
from .cyclo import CycInt, RootOfUnity, bounded_conductor, factorint
from .engine import Hyperplane, HyperplaneTable
from .groupblocks import CharacterTable, Partition, _row_permutations, central_character
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


def _parse_link(doc, g: GroupDatum) -> CliffordLink:
    spec = []
    for entry in doc["parameter_spec"]:
        kind, payload = entry
        if kind == "slot" and 0 <= _int(payload) < g.slot_count:
            spec.append(("slot", payload))
        elif kind == "root":
            spec.append(("root", _root(payload)))
        else:
            raise ValueError(f"bad parameter_spec entry {entry!r}")
    if not all(isinstance(doc[k], str) for k in ("parent", "child")):
        raise TypeError("link parent and child must be group names")
    link = CliffordLink(
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
    if link.child != g.name:
        raise ValueError(f"link child {link.child} is not {g.name}")
    if link.child_characters != g.characters:
        raise ValueError("link child characters disagree with the datum")
    return link


# What a malformed entry raises past the explicit checks: a missing key, a
# value of the wrong type, a list too short, an unparsable or zero value.
_MALFORMED = (KeyError, TypeError, IndexError, AttributeError, ValueError,
              ArithmeticError)


def _located(report: list[str], where: str, parse, *args):
    """parse(*args); or None, when that raises a _MALFORMED error, which is
    appended to report as the one line "<where>: <message>"."""
    try:
        return parse(*args)
    except _MALFORMED as exc:
        message = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        report.append(f"{where}: {message}")


def _parse_header(doc) -> GroupDatum:
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
    # the slot twists zeta_(e_C)^j live in Z[zeta_lcm(e_C)]
    bounded_conductor(lcm(*(e for _, e in g.orbits)))
    if not all(isinstance(s, str) for s in (g.name, *(o for o, _ in g.orbits))):
        raise TypeError("group and orbit names must be strings")
    factorint(g.group_order)  # raises unless |G| >= 1 factors within the bound
    return g


def _parse_tables(docs, g: GroupDatum, report: list[str]) -> tuple:
    tables = []
    for i, tdoc in enumerate(docs):
        where = f"hyperplane_tables[{i}]"
        tables.append(_located(report, where, _parse_table, tdoc, g, report, where))
    baselines = [i for i, t in enumerate(tables) if t and t.hyperplane is None]
    report.extend(f"hyperplane_tables[{i}]: duplicate no-hyperplane baseline table"
                  for i in baselines[1:])
    if not baselines and None not in tables:  # a bad table may be the baseline
        report.append("hyperplane_tables: "
                      "hyperplane tables lack the no-hyperplane baseline")
    return tuple(tables)


def _parse_table(tdoc, g: GroupDatum, report: list[str], where: str):
    normal, hp = tdoc.get("normal"), None
    if normal is not None:
        if not (isinstance(normal, list) and len(normal) == g.slot_count
                and all(type(c) is int for c in normal)):
            raise ValueError(f"normal {normal!r} is not a list of "
                             f"{g.slot_count} integers")
        normal = tuple(normal)
        if primitive_part(normal)[1] != 1 or sign_canonical(normal) != normal:
            report.append(f"{where}: normal {normal} not primitive sign-canonical")
        if any(g.orbit_sums(normal)):
            report.append(f"{where}: normal {normal} has nonzero orbit sums")
        hp = Hyperplane(normal)
    blocks = Partition.of(
        [[_int(i) for i in part] for part in tdoc["blocks"]], len(g.characters))
    primes = tdoc.get("primes", [])
    if not isinstance(primes, list) or not all(
            type(p) is int and p > 1 and g.group_order % p == 0 for p in primes):
        raise ValueError(f"primes {primes!r} are not integers > 1 "
                         f"dividing the group order {g.group_order}")
    return HyperplaneTable(hp, blocks, frozenset(primes))


def _parse_character_table(tdoc, g: GroupDatum, report: list[str]):
    conductor = bounded_conductor(_int(tdoc["conductor"]))
    class_sizes = tuple(_int(s) for s in tdoc["class_sizes"])
    values = tuple(_located(report, f"character_table.values[{i}]", _parse_row,
                            i, row, conductor, len(class_sizes))
                   for i, row in enumerate(tdoc["values"]))
    table = CharacterTable(
        conductor=conductor,
        class_sizes=class_sizes,
        values=values,
        class_order_labels=tuple(tdoc["class_orders"])
        if "class_orders" in tdoc else None,
    )
    bad = []
    if len(values) != len(g.characters):
        bad.append("character table row count mismatch")
    elif None not in values:
        if table.group_order != g.group_order:
            bad.append("class sizes do not sum to the group order")
        if any(v != CycInt.rational(1) for v in values[0]):
            bad.append("first table row is not the trivial character")
        bad.extend(f"table degree mismatch for {c.render()}"
                   for row, c in zip(values, g.characters)
                   if row[0] != CycInt.rational(c.degree))
        if not bad:
            _located(report, "character_table", _check_group_algebra, table)
    report.extend(f"character_table: {msg}" for msg in bad)
    return table


def _check_group_algebra(t: CharacterTable) -> None:
    """What p_blocks relies on at every prime, checked once: each central
    character is integral, and Galois conjugation permutes the rows.
    Raises ValueError naming the corrupt row or class."""
    for chi in range(t.n_chars):
        for c in range(len(t.class_sizes)):
            central_character(t, chi, c)
    _row_permutations(t)


def _parse_row(i: int, row, conductor: int, width: int) -> tuple:
    if len(row) != width:
        raise ValueError(f"character table row {i} does not have {width} entries")
    return tuple(_cycint(v).lift(conductor) for v in row)


def _parse_schur_x(docs, g: GroupDatum, report: list[str]) -> dict:
    elements = (_located(report, f'schur_x["{name}"]', _parse_schur,
                         name, sdoc, g, report) for name, sdoc in docs.items())
    return {s.char: s for s in elements if s is not None}


def _parse_schur(name: str, sdoc, g: GroupDatum, report: list[str]):
    """The element, normalised and validated; None if a factor is malformed."""
    where, label = f'schur_x["{name}"]', CharLabel.parse(name)
    if label not in g.characters:
        raise ValueError(f"schur entry for unknown character {name}")
    factors = [_located(report, f"{where}.factors[{j}]", _parse_factor, f)
               for j, f in enumerate(sdoc["factors"])]
    if None in factors:
        return None
    element = normalize_x_to_v(g, label, _cycint(sdoc["coeff"]),
                               tuple(_int(c) for c in sdoc["lead"]), factors,
                               lead_den=_int(sdoc.get("lead_den", 1)))
    report.extend(f"{where}: {msg}" for msg in validate(g, element))
    return element


def _parse_links(docs, g: GroupDatum, report: list[str]) -> tuple:
    return tuple(_located(report, f"clifford_links[{i}]", _parse_link, ldoc, g)
                 for i, ldoc in enumerate(docs))


def load(path) -> GroupDatum:
    """The group datum stored at path.  Every entry is checked, the character
    table as p_blocks needs it included; one malformed entry hides no other:
    each is reported and skipped, and the scan goes on, which only a malformed
    header ends.  Raises StoreError with every violation."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise StoreError(path, [f"cannot parse: {exc}"]) from exc
    report: list[str] = []
    g = _located(report, "header", _parse_header, doc)
    sections = {} if g is None else {
        field: _located(report, key, parse, doc[key], g, report)
        for key, field, parse in (
            ("hyperplane_tables", "hyperplane_tables", _parse_tables),
            ("character_table", "character_table", _parse_character_table),
            ("schur_x", "schur_elements", _parse_schur_x),
            ("clifford_links", "clifford_links", _parse_links),
        ) if key in doc}
    if report:
        raise StoreError(path, report)
    if "schur_elements" in sections:
        sections["schur_facts"] = {
            label: schur_facts(g, s) for label, s in sections["schur_elements"].items()}
    return g._replace(**sections)


def load_group(name: str, db_dir=None) -> GroupDatum:
    base = Path(db_dir) if db_dir else default_db_dir()
    path = base / f"{name.lower()}.json"
    if not path.exists():
        raise FileNotFoundError(f"no database file for {name} in {base}")
    return load(path)


def _cross_check_links(groups: dict[str, tuple[Path, GroupDatum]]) -> list[str]:
    """The links' report; groups maps names to (path, datum).  Each line
    starts with the child's path and clifford_links[i], like load's lines."""
    report = []
    for path, g in groups.values():
        for i, link in enumerate(g.clifford_links):
            if link.parent not in groups:
                continue
            parent = groups[link.parent][1]
            where = f"{path}: clifford_links[{i}]: {link.parent}->{link.child}"
            if link.parent_characters != parent.characters:
                report.append(f"{where}: parent characters disagree")
                continue
            if len(link.parameter_spec) != parent.slot_count:
                report.append(f"{where}: parameter_spec arity")
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
                    at = "baseline" if t.normal is None else str(t.normal)
                    report.append(f"{where}: transported blocks disagree "
                                  f"with the stored table at {at}")
    return report


def verify_db(paths=None) -> tuple[bool, list[str]]:
    """Load each database file, which checks it, and cross-check the
    Clifford links between the files that load."""
    if not paths:
        base = default_db_dir()
        paths = sorted(base.glob("*.json"))
    report: list[str] = []
    groups: dict[str, tuple[Path, GroupDatum]] = {}
    for path in paths:
        try:
            g = load(path)
        except StoreError as exc:
            report.extend(f"{exc.path}: {msg}" for msg in exc.report)
            continue
        groups[g.name] = (Path(path), g)
    report.extend(_cross_check_links(groups))
    return not report, report
