"""The malformed-database cases, each ending in StoreError and exit 5.
MALFORMED holds the faults a parser finds: each row mutates one shipped
file, which once escaped store.load as a raw exception, loaded silently, or
pins a load check, and lists every located line load reports for it.
sweep() generates the schema walk's faults from _DOCUMENT.  A walk over
every item of the shipped files, and of a G7 copy with one coeff in object
form, sweeps each schema node, and each branch of a union, where it first
meets it: each JSON type the node does not take (7.0, "7" and true, which a
lax reader takes for 7); for an integer with a range, 0 and, if it has one,
its bound plus 1; for an object each required key dropped, a misspelt key
added, and each optional key it lacks added with each of those values; for
a pair one item more and one fewer.  Each is one whole line at the node's
location.  tests/test_store_cli.py runs both in process; run as a script,
with the standard library alone, this module replays MALFORMED against an
installed console script, runs the sweep in process, prints both counts,
and exits 1, naming each case that failed and each node of a swept document
that no sweep case reached:

    python tests/malformed_cases.py /path/to/bin/heckeblocks
"""

import json
import os
import reprlib
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import heckeblocks
from heckeblocks.store import _DOCUMENT, StoreError, _OneOf, load

SHIPPED = Path(heckeblocks.__file__).parent / "data"

# Where in a document a report line says it found its fault.
LOCATIONS = ("header", "hyperplane_tables", "character_table", "schur_x",
             "clifford_links")


def rewrite(db_dir, name, mutate):
    path = db_dir / name
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    return path


def matches(lines, report):
    """Whether lines are the report, line by line.  A report line ending in
    a space pins the start only: "cannot parse: " the location, where the
    message is Python's own words, which vary with its version."""
    return len(lines) == len(report) and all(
        line.startswith(want) if want.endswith(" ") else line == want
        for line, want in zip(lines, report))


def _parent(doc, keys):
    for key in keys[:-1]:
        doc = doc[key]
    return doc


def _set(*keys, value):
    """Set the node at doc[keys[0]][keys[1]]... to value."""
    return lambda doc: _parent(doc, keys).__setitem__(keys[-1], value)


def _drop(*keys):
    """Delete the node at doc[keys[0]][keys[1]]..."""
    return lambda doc: _parent(doc, keys).__delitem__(keys[-1])


def _rename(key, new):
    """Rename the top-level key to new."""
    return lambda doc: doc.__setitem__(new, doc.pop(key))


def _factor(factor):
    """Append factor to phi{1,0}'s Schur factors in G7."""
    return lambda doc: doc["schur_x"]["phi{1,0}"]["factors"].append(factor)


def _degree_zero(doc):
    """G7 with phi{1,0} renamed phi{0,0}, in the label and the schur_x key."""
    doc["characters"][doc["characters"].index("phi{1,0}")] = "phi{0,0}"
    doc["schur_x"]["phi{0,0}"] = doc["schur_x"].pop("phi{1,0}")


def _lead_twist_of_order_eight(doc):
    """G7 whose phi{2,9}' has the leading monomial x_a0^(1/4) x_a1^(-1/4),
    whose twist zeta_8 does not lie in Q(zeta_12)."""
    doc["schur_x"]["phi{2,9}'"].update(lead=[1, -1, 0, 0, 0, 0, 0, 0],
                                       lead_den=4)


def _unit_past_the_bound(doc):
    """_lead_twist_of_order_eight, and a factor Phi_83(x_b0 / x_b1) whose
    twist zeta_3 cancels the slot twist, so its root set has conductor
    12 * 83 = 996."""
    _lead_twist_of_order_eight(doc)
    doc["schur_x"]["phi{2,9}'"]["factors"].append(
        {"cyc": 83, "num": [0, 0, 1, -1, 0, 0, 0, 0], "twist": [3, 1]})


def _no_orbits(doc):
    """G4 with no orbit, so no parameter, and without the tables and link
    that would name a slot: only its baseline table is left."""
    doc["orbits"] = []
    del doc["hyperplane_tables"][1:], doc["clifford_links"]


def _split_baseline_block(doc):
    """G7 whose c_1-c_2=0 table splits the baseline block [23, 33]."""
    blocks = doc["hyperplane_tables"][1]["blocks"]
    blocks.remove([23, 33])
    blocks += [[23], [33]]


def _three_faults(doc):
    """G7 with three faults, in two hyperplane tables and a Schur factor."""
    doc["hyperplane_tables"][3]["blocks"][0][0] = "x"
    doc["hyperplane_tables"][5]["normal"] = [1, -1]
    del doc["schur_x"]["phi{3,6}"]["factors"][4]["cyc"]


_TABLE_1 = ("hyperplane_tables", 1)
_VALUES = ("character_table", "values")
_PHI_1_0 = ("schur_x", "phi{1,0}")
_LINK = ("clifford_links", 0)
_ROOT_ORDER_1 = 'schur_x["phi{1,0}"]: factor produces a component of root ' \
                "order 1 (data-entry error)"

# name -> (file, mutate, the lines store.load reports)
MALFORMED = {
    "normal of the wrong length": (
        "g4.json", _set(*_TABLE_1, "normal", value=[1, -1]),
        ["hyperplane_tables[1]: normal [1, -1] is not a list of 3 integers"]),
    "normal with nonzero orbit sums": (
        "g4.json", _set(*_TABLE_1, "normal", value=[0, 1, 1]),
        ["hyperplane_tables[1]: normal (0, 1, 1) has nonzero orbit sums"]),
    "normal not primitive": (
        "g4.json", _set(*_TABLE_1, "normal", value=[0, 2, -2]),
        ["hyperplane_tables[1]: normal (0, 2, -2) not primitive "
         "sign-canonical"]),
    "overlapping table parts": (
        "g4.json",
        _set(*_TABLE_1, "blocks", value=[[1, 2], [2, 3, 4], [5, 6], [7]]),
        ["hyperplane_tables[1]: parts do not partition 1..7: "
         "[[1, 2], [2, 3, 4], [5, 6], [7]]"]),
    "table row one entry short": (
        "g4.json", _drop(*_VALUES, 1, 6),
        ["character_table.values[1]: character table row 1 does not have 7 "
         "entries"]),
    # 1 * (-1) / 2 at the class of size 1: not an algebraic integer
    "non-integral central character": (
        "g4.json", _set(*_VALUES, 3, 1, value=-1),
        ["character_table: corrupt table: central character not integral "
         "at row 3, class 1"]),
    # rows 2 and 3 are Galois conjugates; zeta_3 in place of zeta_3^2 makes
    # row 3 equal to row 2 at that class, so row 2's image is missing
    "missing galois image row": (
        "g4.json",
        _set(*_VALUES, 2, 3, value={"conductor": 3, "coeffs": [0, 1]}),
        ["character_table: corrupt table: Galois image row not found"]),
    # coeffs [] read as 0, and the table then lacked a Galois image row
    "coeffs fewer than phi(conductor)": (
        "g4.json",
        _set(*_VALUES, 2, 3, value={"conductor": 3, "coeffs": []}),
        ["character_table.values[2][3]: coeffs [] is not a list of phi(3) = 2 "
         "integers"]),
    "wrong schur coefficient": (
        "g7.json", _set(*_PHI_1_0, "coeff", value=2),
        ['schur_x["phi{1,0}"]: value at v=1 is CycInt(12, [288, 0, 0, 0]), '
         "expected 144 for phi{1,0}"]),
    # phi{1,0} heads the first induction row too
    "parent in two induction rows": (
        "g6.json", _set(*_LINK, "induction", 1, 1, 0, value="phi{1,0}"),
        ["clifford_links[0]: parent character phi{1,0} in two rows"]),
    "empty induction row": (
        "g6.json", _set(*_LINK, "induction", 12, 1, value=[]),
        ["clifford_links[0]: induction row size 0 does not divide the "
         "cyclic order 3"]),
    # verify-db's transport check once indexed the child's slots with it
    "link slot outside the child": (
        "g6.json", _set(*_LINK, "parameter_spec", 0, 1, value=99),
        ["clifford_links[0]: bad parameter_spec entry ['slot', 99]"]),
    # slots render as <orbit name>_<j>: an orbit "cc" printed c_c1-c_c2=0,
    # and two orbits "a" printed a_1-a_2=0 for slots of different orbits
    "orbit name of two letters": (
        "g4.json", _set("orbits", 0, 0, value="cc"),
        ["header: orbit names ['cc'] must be distinct single letters"]),
    # verify-db said ok, and rouquier-blocks could parse no exponent vector
    "no orbits": ("g4.json", _no_orbits,
                  ["header.orbits: [] is not a non-empty JSON list"]),
    "repeated orbit name": (
        "g7.json", _set("orbits", 1, 0, value="a"),
        ["header: orbit names ['a', 'a', 'c'] must be distinct single "
         "letters"]),
    # checks that run in store.load, not when a value is constructed
    "duplicate character label": (
        "g4.json", _set("characters", 1, value="phi{1,0}"),
        ["header: character labels must be unique"]),
    # a label is exactly the rendering of what it parses to: these gave
    # Python's unpacking and int() errors, and " phi{1,0}" loaded as
    # phi{1,0}, so one of the two Schur elements was dropped
    **{name: (file, _set(*keys, value=label),
              [f"{where}: bad character label: {label!r}"])
       for name, file, keys, where, label in [
           ("label of one number", "g4.json", ("characters", 1), "header",
            "phi{1}"),
           ("label with a letter", "g4.json", ("characters", 1), "header",
            "phi{a,4}"),
           ("induction child label with a letter", "g6.json",
            (*_LINK, "induction", 0, 0), "clifford_links[0]", "phi{1,x}")]},
    "schur key with a leading space": (
        "g7.json", lambda doc: doc["schur_x"].update(
            {" phi{1,0}": doc["schur_x"]["phi{1,0}"]}),
        ['schur_x[" phi{1,0}"]: bad character label: \' phi{1,0}\'']),
    # schur.validate divides |G| by the degree: a ZeroDivisionError
    "degree-zero character": (
        "g7.json", _degree_zero,
        ["header: character degrees must be at least 1"]),
    "empty table list": (
        "g4.json", _set("hyperplane_tables", value=[]),
        ["hyperplane_tables: hyperplane tables lack the no-hyperplane "
         "baseline"]),
    # conductors past MAX_CONDUCTOR: this one once made load run past half
    # a minute
    "schur factor past the conductor bound": (
        "g7.json", _set(*_PHI_1_0, "factors", 0, "cyc", value=1009),
        ['schur_x["phi{1,0}"]: conductor 24216 is above 1000']),
    # caught by the check made once the leading monomial is read, before
    # any factor: the coefficient zeta_997^0, of conductor lcm(12, 997)
    "leading monomial past the conductor bound": (
        "g7.json",
        _set("schur_x", "phi{2,9}'", "coeff",
             value={"conductor": 997, "coeffs": [1] + [0] * 995}),
        ['schur_x["phi{2,9}\'"]: conductor 11964 is above 1000']),
    # each alone is within the bound: lcm(12, 8) for the leading twist and
    # lcm(12, 996) for the factor; but the unit collected before the factor
    # holds zeta_8, and lcm(12, 8, 996) = 1992
    "collected unit past the conductor bound": (
        "g7.json", _unit_past_the_bound,
        ['schur_x["phi{2,9}\'"]: conductor 1992 is above 1000']),
    # the checks normalize_x_to_v makes on the root set and the unit
    "schur factor of root order 1": (
        "g7.json", _factor({"cyc": 2, "num": [1, -1, 0, 0, 0, 0, 0, 0]}),
        [_ROOT_ORDER_1]),
    "root order 1 factor with den 1": (
        "g7.json",
        _factor({"cyc": 2, "num": [1, -1, 0, 0, 0, 0, 0, 0], "den": 1}),
        [_ROOT_ORDER_1]),
    "galois orbit leaving the root set": (
        "g7.json",
        _factor({"cyc": 1, "num": [0, 0, 1, -1, 0, 0, 0, 0], "twist": [7, 1]}),
        ['schur_x["phi{1,0}"]: Galois orbit leaves the root set']),
    "unit outside the field": (
        "g7.json", _lead_twist_of_order_eight,
        ['schur_x["phi{2,9}\'"]: unit coefficient does not lie in '
         "Z[zeta_12]; check the radical twists"]),
    # the slot twists live in Z[zeta_lcm(e_C)]: an orbit of size 10**9
    # once made load build a list of every slot and run out of memory; the
    # conductor is the lcm with the two orbits of size 3
    "orbit size 10**9": ("g7.json", _set("orbits", 0, 1, value=10**9),
                         ["header: conductor 3000000000 is above 1000"]),
    "orbit size 10**30": ("g7.json", _set("orbits", 0, 1, value=10**30),
                          [f"header: conductor {3 * 10**30} is above 1000"]),
    # file x.json holds group X: a G7 file named G6 loaded, and verify-db
    # then checked G6's link to G4 against it
    "header name of another group": (
        "g7.json", _set("name", value="G6"),
        ["header: group G6 belongs in g6.json, not g7.json"]),
    # the induction rows name the child's and the link's parent characters
    "induction row naming a character G6 lacks": (
        "g6.json", _set(*_LINK, "induction", 0, 0, value="phi{9,9}"),
        ["clifford_links[0]: unknown child character phi{9,9}"]),
    "induction row naming a character G7 lacks": (
        "g6.json", _set(*_LINK, "induction", 0, 1, 0, value="phi{9,9}"),
        ["clifford_links[0]: unknown parent character phi{9,9}"]),
    # Ind phi{2,1} has degree 3 x 2, but row 0 lists three linear characters
    "induction row of the wrong degree": (
        "g6.json", _set(*_LINK, "induction", 0, 0, value="phi{2,1}"),
        ["clifford_links[0]: parent degrees of phi{2,1}'s row sum to 3, "
         "not 6"]),
    # every parent character lies over some child character, so in some
    # row: a link without rows loaded, and verify-db skipped it
    "link without induction rows": (
        "g4.json", _set(*_LINK, "induction", value=[]),
        ["clifford_links[0]: parent character phi{1,0} in no row"]),
    "induction row dropped": (
        "g6.json", _drop(*_LINK, "induction", 1),
        ["clifford_links[0]: parent character phi{1,4}' in no row"]),
    # 4 divides |G4| = 24 but is no prime: essential-hyperplanes G4
    # --prime 2 then dropped the table's hyperplane
    **{name: ("g4.json", _set(*_TABLE_1, "primes", value=primes),
              [f"hyperplane_tables[1]: primes {primes!r} are not primes "
               "dividing the group order 24"])
       for name, primes in [("table prime 4", [4]), ("table prime 5", [5])]},
    # a table at no prime loaded and verified: essential-hyperplanes G4
    # --prime 0 listed its hyperplane, and no --prime p did
    "table at no prime": (
        "g4.json", _set(*_TABLE_1, "primes", value=[]),
        ["hyperplane_tables[1]: primes [] is empty; a table lists at least "
         "one prime"]),
    # the table path joins the hit tables without the baseline, so a table
    # that splits a baseline block would change its answers; the copy
    # loaded and verified ok, and the join hid the split
    "table splits a baseline block": (
        "g7.json", _split_baseline_block,
        ["hyperplane_tables[1]: blocks split baseline part [23, 33]"]),
    # one malformed entry hides no other: each fault is one located line,
    # the schema walk's before the semantic checks'
    "three faults in one file": (
        "g7.json", _three_faults,
        ["hyperplane_tables[3].blocks[0][0]: 'x' is not an integer",
         'schur_x["phi{3,6}"].factors[4]: missing key \'cyc\'',
         "hyperplane_tables[5]: normal [1, -1] is not a list of 8 integers"]),
    # a misspelt key loaded, without the data it named, and verify-db said
    # ok: every object is closed
    "misspelt hyperplane_tables key": (
        "g4.json", _rename("hyperplane_tables", "hyperplane_tabels"),
        ["header: unknown key 'hyperplane_tabels'"]),
    "misspelt clifford_links key": (
        "g6.json", _rename("clifford_links", "clifford_link"),
        ["header: unknown key 'clifford_link'"]),
    # the table path printed c_1-c_2=0 and its blocks twice; verify-db said ok
    "repeated hyperplane table": (
        "g4.json", lambda doc: doc["hyperplane_tables"].append(
            doc["hyperplane_tables"][1]),
        ["hyperplane_tables[7]: normal (0, 1, -1) repeats "
         "hyperplane_tables[1]"]),
}

# The rows whose whole report is the schema walk's.  The sweep adds a
# misspelt key beside the real one; these rename an optional section, whose
# absence alone is legal, and pin the fault that once dropped its data.  The
# sweep gives no list an empty value; "no orbits" pins the one list that
# must not be empty.
WALK_ROWS = {"misspelt hyperplane_tables key", "misspelt clifford_links key",
             "no orbits"}

# One value of each JSON type, as json.loads gives it; a lax reader would
# take 7.0, "7" and true for an integer.
_SAMPLES = {"null": None, "bool": True, "int": 7, "float": 7.0,
            "string": "7", "list": [], "object": {}}
_JSON_TYPES = {type(None): "null", bool: "bool", int: "int", float: "float",
               str: "string", list: "list", dict: "object"}
# How a report line names the JSON types a node takes.
_TAKES = {"null": "null", "int": "an integer", "string": "a string",
          "list": "a JSON list", "object": "a JSON object"}
_SHOW = reprlib.Repr()
_SHOW.maxlevel = 1  # a faulty value shows its own items, not theirs


def _json_type(schema) -> str:
    """The JSON type of a value that matches the schema node; a number n
    stands for an integer from 1 to n."""
    if type(schema) in (int, float):
        return "int"
    if schema is None or schema in (int, str):
        return _JSON_TYPES[type(schema) if schema is None else schema]
    return "object" if type(schema) is dict else "list"


def _options(schema) -> tuple:
    return schema if type(schema) is _OneOf else (schema,)


def misspelt(key: str) -> str:
    """key with its second and third letters swapped."""
    return key[0] + key[2] + key[1] + key[3:]


def _field(where: str, key: str) -> str:
    """The location of key in the object at where."""
    if where != "header":
        return f"{where}.{key}"
    return key if key in LOCATIONS else f"header.{key}"


def _nodes(schema, parent, key, where, shape):
    """(parent, key, location, (shape, JSON type), schema, branch) for the
    node parent[key] of a shipped document and each node below it, every
    item of every list and map; the shape is the location with each list
    index and map key read as *, and branch the option of schema it takes."""
    value = parent[key]
    kind = _JSON_TYPES[type(value)]
    branch = next(s for s in _options(schema) if _json_type(s) == kind)
    yield parent, key, where, (shape, kind), schema, branch
    children = []  # (key, location, shape, schema) of each child
    if type(branch) is tuple:
        children = [(i, f"{where}[{i}]", f"{shape}[{i}]", s)
                    for i, s in enumerate(branch)]
    elif type(branch) is list:
        children = [(i, f"{where}[{i}]", f"{shape}[*]", branch[0])
                    for i in range(len(value))]
    elif type(branch) is dict and str in branch:
        children = [(k, f'{where}["{k}"]', f"{shape}[*]", branch[str])
                    for k in value]
    elif type(branch) is dict:
        children = [(k, _field(where, k), _field(shape, k),
                     branch.get(k, branch.get(f"{k}?"))) for k in value]
    for k, place, form, item in children:
        yield from _nodes(item, value, k, place, form)


def _documents():
    """(file, document) for each shipped file, then for a G7 copy whose
    phi{1,0} coeff c is written {"conductor": 1, "coeffs": [c]}: the same
    value, in the form that no shipped coeff takes."""
    for path in sorted(SHIPPED.glob("*.json")):
        yield path.name, json.loads(path.read_text())
    doc = json.loads((SHIPPED / "g7.json").read_text())
    element = doc["schur_x"]["phi{1,0}"]
    element["coeff"] = {"conductor": 1, "coeffs": [element["coeff"]]}
    yield "g7.json", doc


def _shipped():
    """(file, box, node) for each node _nodes gives of _documents();
    box[0] is the document, read once."""
    for file, doc in _documents():
        box = [doc]
        for node in _nodes(_DOCUMENT, box, 0, "header", "header"):
            yield file, box, node


def _wrong(where: str, schema) -> list:
    """(what, value, line) for each JSON type schema does not take, and for
    a range, each integer just outside it."""
    takes = [_json_type(s) for s in _options(schema)]
    names = " or ".join(_TAKES[t] for t in takes)
    cases = [(kind, sample, f"{where}: {sample!r} is not {names}")
             for kind, sample in _SAMPLES.items() if kind not in takes]
    if type(schema) in (int, float):
        cases.append(("0", 0, f"{where}: 0 is not a positive integer"))
    if type(schema) is int:
        cases.append((f"{schema + 1}", schema + 1,
                      f"{where}: {schema + 1} is above {schema}"))
    return cases


def _cases(where: str, node, schema, branch) -> list:
    """(what, replacement, line) for each walk fault swept at the node."""
    cases = _wrong(where, schema)
    if type(branch) is tuple:
        cases += [(what, items, f"{where}: {_SHOW.repr(items)} is not a JSON "
                                f"list of {len(branch)} items")
                  for what, items in [("one item more", node + [7]),
                                      ("one item fewer", node[:-1])]]
    elif type(branch) is dict and str not in branch:
        for k, item in branch.items():
            key = k.rstrip("?")
            if k == key:
                cases.append((f"without {key}",
                              {n: v for n, v in node.items() if n != key},
                              f"{where}: missing key {key!r}"))
            elif key not in node:
                cases += [(f"with {key} {what}", {**node, key: value}, line)
                          for what, value, line
                          in _wrong(_field(where, key), item)]
        key = misspelt(next(iter(branch)).rstrip("?"))
        cases.append((f"with {key}", {**node, key: 0},
                      f"{where}: unknown key {key!r}"))
    return cases


def sweep():
    """(name, file, document, line, node) for each generated walk fault in
    the shipped files, each node swept where _nodes first meets it; line is
    the one line load must report.  The document is a shipped one changed
    in place, and changed back for the next case."""
    seen = set()
    for file, box, (parent, key, where, node, schema, branch) in _shipped():
        if node in seen:
            continue
        seen.add(node)
        value = parent[key]
        for what, replacement, line in _cases(where, value, schema, branch):
            parent[key] = replacement
            yield f"{file} {where} {what}", file, box[0], line, node
        parent[key] = value


def sweep_faults() -> tuple[list[str], list[str]]:
    """The name of each sweep() case; and each that load did not reject
    with its one line, with what load reported, and each node of the
    shipped files that no case reached."""
    names, faults, swept = [], [], set()
    with tempfile.TemporaryDirectory() as tmp:
        for name, file, doc, line, node in sweep():
            names.append(name)
            swept.add(node)
            path = Path(tmp) / file
            path.write_text(json.dumps(doc))
            try:
                load(path)
                report = ["it loaded"]
            except StoreError as err:
                report = err.report
            if report != [line]:
                faults.append(f"{name}: {report}")
    held = {node for _, _, (_, _, _, node, _, _) in _shipped()}
    return names, faults + [f"unswept node {shape} ({kind})"
                            for shape, kind in sorted(held - swept)]


def _replay(script, case):
    """What went wrong when the console script ran verify-db and all-blocks
    on a copy of the database with the case's mutation: an empty list when
    each exited 5 within 10 s, without a traceback, printing the case's
    lines, each after the file's path."""
    name, mutate, report = MALFORMED[case]
    faults = []
    with tempfile.TemporaryDirectory() as tmp:
        for path in SHIPPED.glob("*.json"):
            shutil.copy(path, tmp)
        path = rewrite(Path(tmp), name, mutate)
        expected = [f"{path}: {line}" for line in report]
        located = tuple(f"{path}: {where}" for where in LOCATIONS)
        env = dict(os.environ, HECKE_DB=tmp)
        for args in (["verify-db"], ["all-blocks", name[:-5].upper()]):
            try:
                run = subprocess.run([script, *args], env=env, timeout=10,
                                     capture_output=True, text=True)
            except subprocess.TimeoutExpired:
                faults.append(f"{args[0]}: no exit within 10 s")
                continue
            output = run.stdout + run.stderr
            lines = output.splitlines()
            if run.returncode != 5:
                faults.append(f"{args[0]}: exit {run.returncode}")
            if "Traceback" in output:
                faults.append(f"{args[0]}: traceback")
            if not all(line.startswith(located) for line in lines):
                faults.append(f"{args[0]}: a line names no location")
            if not matches(lines, expected):
                faults.append(f"{args[0]}: printed {lines}")
    return faults


def main(script):
    failed = 0
    for case in MALFORMED:
        if faults := _replay(script, case):
            failed += 1
            print(f"FAIL {case}: " + "; ".join(faults))
    print(f"{len(MALFORMED) - failed} of {len(MALFORMED)} rows passed")
    names, faults = sweep_faults()
    for fault in faults:
        print(f"FAIL sweep {fault}")
    print(f"{len(names)} sweep cases, {len(faults)} faults")
    return int(failed > 0 or bool(faults))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: python {sys.argv[0]} CONSOLE_SCRIPT")
    sys.exit(main(sys.argv[1]))
