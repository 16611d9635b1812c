"""JSON persistence and validation of the group database.

One group per UTF-8 JSON file, checked in two stages.  One walk checks the
document against _DOCUMENT, the format: an unknown key, a missing one, a
value of another JSON type (a bool is no integer) and an integer out of its
range are faults.  Then the parsers check, in the entries the walk passed,
what the format cannot say: sizes, primes dividing |G|, derived conductors
up to MAX_CONDUCTOR, orbit sums, partitions, every table coarsening the
baseline (the table path joins the hit tables alone), Schur values at v=1,
links and, in CharacterTable.of, the character table.  verify_db adds the
cross-file checks.  One StoreError reports every violation at its JSON
location, e.g. schur_x["phi{3,6}"].factors[4]: missing key 'cyc'.
"""

from __future__ import annotations

import json
import os
import reprlib
from math import inf
from pathlib import Path

from .clifford import CliffordLink, descend_hyperplanes
from .cyclo import MAX_CONDUCTOR, CycInt, RootOfUnity, bounded_conductor, euler_phi
from .engine import Hyperplane, HyperplaneTable, StoredTables, derive_tables
from .groupblocks import CharacterTable, Partition
from .lattice import primitive_part
from .schur import (
    CharLabel,
    Characters,
    GroupDatum,
    Orbits,
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


class _OneOf(tuple):
    """A union: a value matches the one of these schemas of its JSON type."""


# The database format, which _walk checks.  int, str and None are JSON leaves,
# and a number n an integer from 1 to n; [s] is a list of s, [s, ...] a
# non-empty one, (s, t) a list of exactly an s and a t; a dict is a closed
# object, a key ending in "?" optional; {str: s} maps any string to an s.
_INTS, _ROOT = [int], (inf, int)  # a root of unity [order, exponent]
_CYCINT = _OneOf((int, {"conductor": MAX_CONDUCTOR, "coeffs": _INTS}))
_DOCUMENT = {
    "name": str, "field_conductor": MAX_CONDUCTOR, "group_order": inf,
    "orbits": [(str, inf), ...], "characters": [str],
    "hyperplane_tables?": [{"normal?": _OneOf((None, _INTS)),
                            "blocks": [_INTS], "primes": _INTS}],
    "character_table?": {"conductor": MAX_CONDUCTOR, "class_sizes": [inf],
                         "class_orders?": [str], "values": [[_CYCINT]]},
    "schur_x?": {str: {"coeff": _CYCINT, "lead": _INTS, "lead_den?": inf,
                       "factors": [{"cyc": inf, "num": _INTS, "den?": inf,
                                    "twist?": _ROOT}]}},
    "clifford_links?": [{"parent": str, "cyclic_order": inf, "parent_characters": [str],
                         "parameter_spec": [(str, _OneOf((int, _ROOT)))],
                         "induction": [(str, [str])]}],
}
_SECTIONS = ("hyperplane_tables", "character_table", "schur_x", "clifford_links")
_JSON = {type(None): type(None), list: list, tuple: list, dict: dict,
         int: int, float: int}  # a number n takes an int; int, str themselves
_NAMES = {int: "an integer", str: "a string", type(None): "null",
          list: "a JSON list", dict: "a JSON object"}
_SHOW = reprlib.Repr()
_SHOW.maxlevel = 1  # a faulty value shows its own items, not theirs


def _walk(schema, value, faults: list, at=()) -> None:
    """Append (at, message) to faults for each node of value, parsed JSON,
    that breaks schema; "".join(at) is the node's location, "" the header's.
    Never raises."""
    options = schema if type(schema) is _OneOf else (schema,)
    kinds = [_JSON.get(type(s), s) for s in options]
    if type(value) not in kinds:
        names = " or ".join(_NAMES[k] for k in kinds)
        faults.append((at, f"{_SHOW.repr(value)} is not {names}"))
        return
    schema = options[kinds.index(type(value))]
    if type(schema) in (int, float) and not 0 < value <= schema:
        wrong = "not a positive integer" if value < 1 else f"above {schema}"
        faults.append((at, f"{_SHOW.repr(value)} is {wrong}"))
    elif type(schema) is tuple and len(value) != len(schema):
        faults.append((at, f"{_SHOW.repr(value)} is not a JSON list of "
                           f"{len(schema)} items"))
    elif type(schema) is list and schema[-1] is ... and not value:
        faults.append((at, "[] is not a non-empty JSON list"))
    elif type(schema) in (list, tuple):
        items = schema if type(schema) is tuple else schema[:1] * len(value)
        for i, (item, v) in enumerate(zip(items, value)):
            if type(v) is not item:  # an item of a leaf type matches
                _walk(item, v, faults, at + (f"[{i}]",))
    elif type(schema) is dict and str in schema:
        for key, v in value.items():
            _walk(schema[str], v, faults, at + (f'["{key}"]',))
    elif type(schema) is dict:
        keys = {key.rstrip("?"): item for key, item in schema.items()}
        faults.extend((at, f"unknown key {_SHOW.repr(key)}")
                      for key in value if key not in keys)
        faults.extend((at, f"missing key {key!r}") for key in schema
                      if not key.endswith("?") and key not in value)
        for key, v in value.items():
            if key in keys:  # a section at the top, else a header field
                step = f".{key}" if at else key if key in _SECTIONS else f"header.{key}"
                _walk(keys[key], v, faults, at + (step,))


def _object(pairs: list) -> dict:
    """A JSON object; ValueError if a key repeats, as json.loads keeps its last."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ValueError(f"repeated key {_SHOW.repr(key)}")
    return doc


def _cycint(doc) -> CycInt:
    """An entry: an integer, or {conductor n, coeffs} listing phi(n) integers."""
    if type(doc) is int:
        return CycInt.rational(doc)
    n, coeffs = doc["conductor"], doc["coeffs"]
    if len(coeffs) != euler_phi(n):
        raise ValueError(f"coeffs {_SHOW.repr(coeffs)} is not a list of "
                         f"phi({n}) = {euler_phi(n)} integers")
    return CycInt(n, coeffs)


def _parse_factor(doc) -> SchurFactorX:
    return SchurFactorX(doc["cyc"], tuple(doc["num"]), doc.get("den", 1),
                        RootOfUnity.of(*doc.get("twist", (1, 0))))


def _parse_link(doc, g: GroupDatum):
    """A link stored in its child's file: the child and its characters are
    g's, and the document names only the parent.  A parameter_spec entry is
    ["slot", j] for a slot j of g or ["root", [order, exponent]]."""
    spec = []
    for kind, payload in doc["parameter_spec"]:
        if kind == "slot" and payload in range(g.slot_count):
            spec.append(("slot", payload))
        elif kind == "root" and type(payload) is list:
            spec.append(("root", RootOfUnity.of(*payload)))
        else:
            raise ValueError(f"bad parameter_spec entry {[kind, payload]!r}")
    return CliffordLink.of(
        parent=doc["parent"],
        child=g.name,
        cyclic_order=doc["cyclic_order"],
        parameter_spec=tuple(spec),
        parent_characters=Characters(map(CharLabel.parse, doc["parent_characters"])),
        child_characters=g.characters,
        induction=tuple((CharLabel.parse(child),
                         Characters(map(CharLabel.parse, parents)))
                        for child, parents in doc["induction"]),
    )


# What a parser raises past the walk: ValueError for a semantic fault (a bad
# label, coeffs not phi(n) long); the rest, a fault no check names yet.
_MALFORMED = (KeyError, TypeError, IndexError, AttributeError, ValueError,
              ArithmeticError)


def _located(report: list[str], where: str, parse, *args):
    """parse(*args); or None, when that raises a _MALFORMED error, which is
    appended to report as the one line "<where>: <message>"."""
    try:
        return parse(*args)
    except _MALFORMED as exc:
        report.append(f"{where}: {exc}")


def _parse_header(doc) -> GroupDatum:
    g = GroupDatum(
        name=doc["name"],
        field_conductor=doc["field_conductor"],
        group_order=doc["group_order"],
        orbits=Orbits(map(tuple, doc["orbits"])),
        characters=Characters(map(CharLabel.parse, doc["characters"])),
    )
    if len(g.characters.positions) != len(g.characters):
        raise ValueError("character labels must be unique")
    if any(c.degree < 1 for c in g.characters):
        raise ValueError("character degrees must be at least 1")
    # slot twists live in Z[zeta_lcm(e_C)]; checked before anything per slot
    bounded_conductor(g.orbits.conductor)
    names = [o for o, _ in g.orbits]
    if not all(len(o) == 1 and o.isalpha() for o in names) \
            or len(set(names)) != len(names):
        raise ValueError(f"orbit names {names} must be distinct single letters")
    g.primes  # raises unless |G| factors within the bound
    return g


def _parse_tables(docs, g: GroupDatum, report: list[str], rejected) -> tuple:
    tables = [None if where in rejected else _located(report, where, _parse_table, tdoc,
                                                 g, report, where)
              for i, tdoc in enumerate(docs) for where in [f"hyperplane_tables[{i}]"]]
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
        if len(normal) != g.slot_count:
            raise ValueError(f"normal {normal!r} is not a list of "
                             f"{g.slot_count} integers")
        normal = tuple(normal)
        if primitive_part(normal)[1] != 1 or sign_canonical(normal) != normal:
            report.append(f"{where}: normal {normal} not primitive sign-canonical")
        if any(g.orbit_sums(normal)):
            report.append(f"{where}: normal {normal} has nonzero orbit sums")
        hp = Hyperplane(normal)
    blocks = Partition.of(tdoc["blocks"], len(g.characters))
    primes, allowed = tdoc["primes"], g.primes
    if not primes:
        raise ValueError("primes [] is empty; a table lists at least one prime")
    if not all(p in allowed for p in primes):
        raise ValueError(f"primes {primes!r} are not primes "
                         f"dividing the group order {g.group_order}")
    return HyperplaneTable(hp, blocks, frozenset(primes))


def _parse_character_table(tdoc, g: GroupDatum, report: list[str], rejected):
    """The table, built and checked by CharacterTable.of; None, with each
    violation in report, if it is malformed or the walk found a fault."""
    if any(where.startswith("character_table.") for where in rejected):
        return None
    conductor, class_sizes = tdoc["conductor"], tuple(tdoc["class_sizes"])
    values = tuple(_located(report, f"character_table.values[{i}]", _parse_row,
                            i, row, conductor, len(class_sizes), report)
                   for i, row in enumerate(tdoc["values"]))
    labels = tdoc.get("class_orders")
    bad = []
    if labels is not None and len(labels) != len(class_sizes):
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


def _parse_row(i: int, row, conductor: int, width: int, report: list[str]):
    if len(row) != width:
        raise ValueError(f"character table row {i} does not have {width} entries")
    entries = tuple(_located(report, f"character_table.values[{i}][{j}]",
                             lambda: _cycint(v).lift(conductor))
                    for j, v in enumerate(row))
    return None if None in entries else entries


def _parse_schur_x(docs, g: GroupDatum, report: list[str], rejected) -> dict:
    elements = (_located(report, f'schur_x["{name}"]', _parse_schur,
                         name, sdoc, g, report)
                for name, sdoc in docs.items() if f'schur_x["{name}"]' not in rejected)
    return {s.char: s for s in elements if s is not None}


def _parse_schur(name: str, sdoc, g: GroupDatum, report: list[str]):
    """The element, normalised and validated."""
    where, label = f'schur_x["{name}"]', CharLabel.parse(name)
    if label not in g.characters.positions:
        raise ValueError(f"schur entry for unknown character {name}")
    factors = [_parse_factor(f) for f in sdoc["factors"]]
    element = normalize_x_to_v(g, label, _cycint(sdoc["coeff"]),
                               tuple(sdoc["lead"]), factors,
                               lead_den=sdoc.get("lead_den", 1))
    report.extend(f"{where}: {msg}" for msg in validate(g, element))
    return element


def _parse_links(docs, g: GroupDatum, report: list[str], rejected) -> tuple:
    return tuple(None if f"clifford_links[{i}]" in rejected else
                 _located(report, f"clifford_links[{i}]", _parse_link, ldoc, g)
                 for i, ldoc in enumerate(docs))


def load(path) -> GroupDatum:
    """The group datum stored at path, file x.json holding group X.  The walk
    checks the document, then the parsers each entry it passed (the header,
    each table, the character table as p_blocks needs it, each Schur element
    and link).  A malformed entry is reported and skipped; only a malformed
    header ends the scan.  StoreError lists every violation, the walk's first.
    A full Schur payload also gets schur_tables, which derive_tables builds."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_object)
    except (OSError, ValueError, RecursionError) as exc:
        raise StoreError(path, [f"cannot parse: {exc}"]) from exc
    faults = []
    _walk(_DOCUMENT, doc, faults)
    report = [f"{''.join(at) or 'header'}: {message}" for at, message in faults]
    if any(not at or at[0] not in _SECTIONS for at, _ in faults):
        raise StoreError(path, report)
    rejected = {"".join(at[:2]) for at, _ in faults}  # the entries to skip
    g = _located(report, "header", _parse_header, doc)
    if g is not None and path.stem != g.name.lower():
        report.append(f"header: group {g.name} belongs in "
                      f"{g.name.lower()}.json, not {path.name}")
    sections = {}
    for key, field, parse in (
            ("hyperplane_tables", "hyperplane_tables", _parse_tables),
            ("character_table", "character_table", _parse_character_table),
            ("schur_x", "schur_elements", _parse_schur_x),
            ("clifford_links", "clifford_links", _parse_links)):
        if g is not None and key in doc and key not in rejected:
            sections[field] = _located(report, key, parse, doc[key], g, report,
                                       rejected)
    if report:
        raise StoreError(path, report)
    if "hyperplane_tables" in sections:
        sections["hyperplane_tables"] = StoredTables(sections["hyperplane_tables"])
    if "schur_elements" in sections:
        sections["schur_facts"] = {
            label: schur_facts(g, s) for label, s in sections["schur_elements"].items()}
    g = g._replace(**sections)
    return g._replace(schur_tables=derive_tables(g)) if g.has_full_schur else g


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
    Clifford links between the files that load.  A file named twice is read
    once, whatever its spelling; a second file of one group is reported.
    Without paths, the files of the database directory; FileNotFoundError
    when it holds none."""
    if not paths:
        base = default_db_dir()
        paths = sorted(base.glob("*.json"))
        if not paths:
            raise FileNotFoundError(f"no database files in {base}")
    report: list[str] = []
    groups: dict[str, tuple[Path, GroupDatum]] = {}
    seen: set[Path] = set()
    for path in map(Path, paths):
        if (real := path.resolve()) in seen:
            continue
        seen.add(real)
        try:
            g = load(path)
        except StoreError as exc:
            report.extend(f"{exc.path}: {msg}" for msg in exc.report)
            continue
        if g.name in groups:
            report.append(f"{path}: header: group {g.name} is also in "
                          f"{groups[g.name][0]}")
            continue
        groups[g.name] = (path, g)
    report.extend(_cross_check_links(groups))
    return not report, report
