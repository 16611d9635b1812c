"""JSON persistence and validation of the group database.

One group per UTF-8 JSON file.  load checks each value where it parses it
(exact ints, shapes, conductors up to MAX_CONDUCTOR, Schur values at v=1,
partitions, links) and computes GroupDatum.schur_facts; the character
table's own checks (integral central characters, rows permuted by Galois)
run in CharacterTable.of, which builds it.  load also checks that every
hyperplane table coarsens the baseline, each baseline part inside one of
its parts, so the table path's answer, the join of the baseline with the
hit tables, is the join of the hit tables alone.  verify_db adds the
cross-file checks.  Every entry is checked, and one malformed entry never
hides another: one StoreError reports each violation at its JSON location,
e.g. schur_x["phi{3,6}"].factors[4]: missing key 'cyc'.
"""

from __future__ import annotations

import json
import os
from math import lcm
from pathlib import Path

from .clifford import CliffordLink, descend_hyperplanes
from .cyclo import CycInt, RootOfUnity, bounded_conductor, exact_int
from .engine import Hyperplane, HyperplaneTable, StoredTables
from .groupblocks import CharacterTable, Partition
from .lattice import primitive_part
from .schur import (
    CharLabel,
    Characters,
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


def _list(value, key: str, items: str) -> list:
    """value, which must be a JSON list: a string or an object would be read
    item by item, letter by letter or key by key.  key names it in the
    error, and items what it should list."""
    if not isinstance(value, list):
        raise ValueError(f"{key} {value!r} is not a list of {items}")
    return value


def _ints(value, key: str) -> tuple[int, ...]:
    return tuple(exact_int(c) for c in _list(value, key, "integers"))


def _cycint(doc) -> CycInt:
    if type(doc) is int:
        return CycInt.rational(doc)
    return CycInt(bounded_conductor(exact_int(doc["conductor"])),
                  _list(doc["coeffs"], "coeffs", "integers"))


def _root(doc, key: str) -> RootOfUnity:
    if not (isinstance(doc, list) and len(doc) == 2):
        raise ValueError(f"{key} {doc!r} is not an [order, exponent] pair")
    return RootOfUnity.of(exact_int(doc[0]), exact_int(doc[1]))


def _positive(key: str, value) -> int:
    """value, which must be a positive int; key names it in the error."""
    if exact_int(value) < 1:
        raise ValueError(f"{key} {value} must be a positive integer")
    return value


def _labels(value, key: str) -> Characters:
    """The labels of value, a JSON list of strings that key names in the
    error.  Every label list is read here: load builds each Characters."""
    if not (isinstance(value, list) and all(isinstance(c, str) for c in value)):
        raise ValueError(f"{key} {value!r} is not a list of character labels")
    return Characters(CharLabel.parse(c) for c in value)


def _parse_factor(doc) -> SchurFactorX:
    return SchurFactorX(
        cyc_index=exact_int(doc["cyc"]),
        exps_numerator=_ints(doc["num"], "num"),
        exps_denominator=_positive("den", doc.get("den", 1)),
        twist=_root(doc["twist"], "twist") if "twist" in doc else RootOfUnity.one(),
    )


def _parse_link(doc, g: GroupDatum, report: list[str], where: str):
    """A link stored in its child's file: the child and its characters are
    g's, and the document names only the parent.  Each parameter_spec
    entry or induction row that is not a two-item list goes into report at
    its own location, and the link is then None."""
    shapes = (("parameter_spec", "[kind, payload]"),
              ("induction", "[child, parents]"))
    bad = [f"{where}.{key}[{j}]: {item!r} is not a {shape} pair"
           for key, shape in shapes
           for j, item in enumerate(_list(doc[key], key, f"{shape} pairs"))
           if not (isinstance(item, list) and len(item) == 2)]
    if bad:
        report.extend(bad)
        return None
    spec = []
    for entry in doc["parameter_spec"]:
        kind, payload = entry
        if kind == "slot" and 0 <= exact_int(payload) < g.slot_count:
            spec.append(("slot", payload))
        elif kind == "root":
            spec.append(("root", _root(payload, "root")))
        else:
            raise ValueError(f"bad parameter_spec entry {entry!r}")
    if not isinstance(doc["parent"], str):
        raise TypeError("the link parent must be a group name")
    return CliffordLink.of(
        parent=doc["parent"],
        child=g.name,
        cyclic_order=exact_int(doc["cyclic_order"]),
        parameter_spec=tuple(spec),
        parent_characters=_labels(doc["parent_characters"], "parent_characters"),
        child_characters=g.characters,
        induction=tuple(
            (CharLabel.parse(child), _labels(parents, f"induction[{j}] parents"))
            for j, (child, parents) in enumerate(doc["induction"])
        ),
    )


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
    orbits = doc["orbits"]
    if not all(isinstance(o, list) and len(o) == 2 for o in orbits):
        raise ValueError(f"orbits {orbits!r} are not [letter, size] pairs")
    g = GroupDatum(
        name=doc["name"],
        field_conductor=bounded_conductor(exact_int(doc["field_conductor"])),
        group_order=_positive("group_order", doc["group_order"]),
        orbits=tuple((o[0], exact_int(o[1])) for o in orbits),
        characters=_labels(doc["characters"], "characters"),
    )
    if len(g.characters.positions) != len(g.characters):
        raise ValueError("character labels must be unique")
    if any(c.degree < 1 for c in g.characters):
        raise ValueError("character degrees must be at least 1")
    if any(e < 1 for _, e in g.orbits):
        raise ValueError(f"orbit sizes {g.orbits} must be at least 1")
    # the slot twists zeta_(e_C)^j live in Z[zeta_lcm(e_C)]
    bounded_conductor(lcm(*(e for _, e in g.orbits)))
    if not isinstance(g.name, str):
        raise TypeError("the group name must be a string")
    names = [o for o, _ in g.orbits]
    if not all(isinstance(o, str) and len(o) == 1 and o.isalpha()
               for o in names) or len(set(names)) != len(names):
        raise ValueError(f"orbit names {names} must be distinct single letters")
    g.primes  # raises unless |G| factors within the bound
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
    normals = [t.normal if t else None for t in tables]
    report.extend(f"hyperplane_tables[{i}]: normal {h} repeats "
                  f"hyperplane_tables[{normals.index(h)}]"
                  for i, h in enumerate(normals) if h and normals.index(h) < i)
    if len(baselines) == 1:
        baseline = tables[baselines[0]].blocks
        for i, t in enumerate(tables):
            if t is None or t.hyperplane is None:
                continue
            split = _split_part(baseline, t.blocks)
            if split:
                report.append(f"hyperplane_tables[{i}]: blocks split "
                              f"baseline part {list(split)}")
    return tuple(tables)


def _split_part(baseline: Partition, blocks: Partition):
    """The first part of baseline that lies in no one part of blocks, or
    None when blocks coarsens baseline; linear in the number of indices."""
    part_no = {i: k for k, part in enumerate(blocks.parts) for i in part}
    return next((part for part in baseline.parts if len(part) > 1
                 and len(set(map(part_no.__getitem__, part))) > 1), None)


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
        [_ints(part, f"blocks[{k}]")
         for k, part in enumerate(_list(tdoc["blocks"], "blocks", "parts"))],
        len(g.characters))
    primes, allowed = tdoc["primes"], g.primes
    if primes == []:
        raise ValueError("primes [] is empty; a table lists at least one prime")
    if not isinstance(primes, list) or not all(
            type(p) is int and p in allowed for p in primes):
        raise ValueError(f"primes {primes!r} are not primes "
                         f"dividing the group order {g.group_order}")
    return HyperplaneTable(hp, blocks, frozenset(primes))


def _parse_character_table(tdoc, g: GroupDatum, report: list[str]):
    """The table, built and checked by CharacterTable.of; None, with each
    violation in report, if it is malformed."""
    conductor = bounded_conductor(exact_int(tdoc["conductor"]))
    class_sizes = _ints(tdoc["class_sizes"], "class_sizes")
    values = tuple(_located(report, f"character_table.values[{i}]", _parse_row,
                            i, row, conductor, len(class_sizes))
                   for i, row in enumerate(_list(tdoc["values"], "values",
                                                 "table rows")))
    labels = tdoc.get("class_orders")
    bad = []
    if any(s < 1 for s in class_sizes):
        bad.append(f"class sizes {list(class_sizes)} are not all positive")
    if "class_orders" in tdoc and not (
            isinstance(labels, list) and len(labels) == len(class_sizes)
            and all(isinstance(s, str) for s in labels)):
        bad.append(f"class_orders {labels!r} is not a list of "
                   f"{len(class_sizes)} strings")
    if len(values) != len(g.characters):
        bad.append("character table row count mismatch")
    elif None not in values:
        if sum(class_sizes) != g.group_order:
            bad.append("class sizes do not sum to the group order")
        if any(v != CycInt.rational(1) for v in values[0]):
            bad.append("first table row is not the trivial character")
        bad.extend(f"table degree mismatch for {c.render()}"
                   for row, c in zip(values, g.characters)
                   if row[0] != CycInt.rational(c.degree))
        if not bad:
            return _located(report, "character_table", CharacterTable.of,
                            conductor, class_sizes, values,
                            None if labels is None else tuple(labels))
    report.extend(f"character_table: {msg}" for msg in bad)


def _parse_row(i: int, row, conductor: int, width: int) -> tuple:
    if len(_list(row, f"character table row {i}", f"{width} entries")) != width:
        raise ValueError(f"character table row {i} does not have {width} entries")
    return tuple(_cycint(v).lift(conductor) for v in row)


def _parse_schur_x(docs, g: GroupDatum, report: list[str]) -> dict:
    elements = (_located(report, f'schur_x["{name}"]', _parse_schur,
                         name, sdoc, g, report) for name, sdoc in docs.items())
    return {s.char: s for s in elements if s is not None}


def _parse_schur(name: str, sdoc, g: GroupDatum, report: list[str]):
    """The element, normalised and validated; None if a factor is malformed."""
    where, label = f'schur_x["{name}"]', CharLabel.parse(name)
    if label not in g.characters.positions:
        raise ValueError(f"schur entry for unknown character {name}")
    factors = [_located(report, f"{where}.factors[{j}]", _parse_factor, f)
               for j, f in enumerate(_list(sdoc["factors"], "factors",
                                           "Schur factors"))]
    if None in factors:
        return None
    element = normalize_x_to_v(g, label, _cycint(sdoc["coeff"]),
                               _ints(sdoc["lead"], "lead"), factors,
                               lead_den=_positive("lead_den",
                                                  sdoc.get("lead_den", 1)))
    report.extend(f"{where}: {msg}" for msg in validate(g, element))
    return element


def _parse_links(docs, g: GroupDatum, report: list[str]) -> tuple:
    links = []
    for i, ldoc in enumerate(docs):
        where = f"clifford_links[{i}]"
        links.append(_located(report, where, _parse_link, ldoc, g, report, where))
    return tuple(links)


def load(path) -> GroupDatum:
    """The group datum stored at path.  Every entry is checked, the character
    table as p_blocks needs it included; one malformed entry hides no other:
    each is reported and skipped, and the scan goes on, which only a malformed
    header ends.  File x.json holds group X, as load_group finds it: another
    header name is reported too.  Raises StoreError with every violation."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise StoreError(path, [f"cannot parse: {exc}"]) from exc
    report: list[str] = []
    g = _located(report, "header", _parse_header, doc)
    if g is not None and path.stem != g.name.lower():
        report.append(f"header: group {g.name} belongs in "
                      f"{g.name.lower()}.json, not {path.name}")
    sections = {}
    for key, field, parse, kind in (
            ("hyperplane_tables", "hyperplane_tables", _parse_tables, list),
            ("character_table", "character_table", _parse_character_table, dict),
            ("schur_x", "schur_elements", _parse_schur_x, dict),
            ("clifford_links", "clifford_links", _parse_links, list)):
        if g is not None and key in doc:
            if isinstance(doc[key], kind):
                sections[field] = _located(report, key, parse, doc[key], g, report)
            else:
                report.append(f"{key}: the section is not a JSON "
                              + ("list" if kind is list else "object"))
    if report:
        raise StoreError(path, report)
    if "hyperplane_tables" in sections:
        sections["hyperplane_tables"] = StoredTables(sections["hyperplane_tables"])
    if "schur_elements" in sections:
        sections["schur_facts"] = {
            label: schur_facts(g, s) for label, s in sections["schur_elements"].items()}
    return g._replace(**sections)


def load_group(name: str) -> GroupDatum:
    """The group called name in default_db_dir(); a path is not a name."""
    base = default_db_dir()
    path = base / f"{name.lower()}.json"
    if not name.isalnum() or not path.exists():
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
    Clifford links between the files that load.  Without paths, the files
    of the database directory; FileNotFoundError when it holds none."""
    if not paths:
        base = default_db_dir()
        paths = sorted(base.glob("*.json"))
        if not paths:
            raise FileNotFoundError(f"no database files in {base}")
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
