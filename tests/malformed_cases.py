"""The malformed-database cases: each mutates one shipped file, which once
escaped store.load as a raw exception, loaded silently, or pins a load
check, and lists every located line load reports for it.  Each must end in
StoreError, and the command line in exit 5.  sweep() generates the type
faults from the format's schema: every JSON type a node does not take, every
required key dropped, a misspelt key added to every object.  Each of those
is one line at its node's location.  tests/test_store_cli.py loads the
cases in process; run as a script, with the standard library alone, this
module replays MALFORMED against an installed console script, then loads
the sweep in process, and exits 1, naming each case that failed:

    python tests/malformed_cases.py /path/to/bin/heckeblocks
"""

import json
import os
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


def _append(*keys, value):
    """Append value to the list at doc[keys[0]][keys[1]]..."""
    return lambda doc: _parent(doc, keys)[keys[-1]].append(value)


def _rename(key, new):
    """Rename the top-level key to new."""
    return lambda doc: doc.__setitem__(new, doc.pop(key))


def _as_object(key):
    """Replace the list doc[key] with an object that maps "0", "1", ... to
    its items."""
    return lambda doc: doc.__setitem__(
        key, {str(i): item for i, item in enumerate(doc[key])})


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
    "table without blocks": ("g4.json", _drop(*_TABLE_1, "blocks"),
                             ["hyperplane_tables[1]: missing key 'blocks'"]),
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
    "non-numeric table entry": (
        "g4.json", _set(*_VALUES, 1, 1, value="x"),
        ["character_table.values[1][1]: 'x' is not an integer or a JSON "
         "object"]),
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
    "empty orbit": ("g4.json", _set("orbits", value=[["c", 0]]),
                    ["header: orbit sizes (('c', 0),) must be at least 1"]),
    "schur factor without cyc": (
        "g7.json", _drop(*_PHI_1_0, "factors", 0, "cyc"),
        ['schur_x["phi{1,0}"].factors[0]: missing key \'cyc\'']),
    "wrong schur coefficient": (
        "g7.json", _set(*_PHI_1_0, "coeff", value=2),
        ['schur_x["phi{1,0}"]: value at v=1 is CycInt(12, [288, 0, 0, 0]), '
         "expected 144 for phi{1,0}"]),
    "link without parent": ("g4.json", _drop(*_LINK, "parent"),
                            ["clifford_links[0]: missing key 'parent'"]),
    # phi{1,0} heads the first induction row too
    "parent in two induction rows": (
        "g6.json", _set(*_LINK, "induction", 1, 1, 0, value="phi{1,0}"),
        ["clifford_links[0]: parent character phi{1,0} in two rows"]),
    # found by the mutation test in tests/test_store_cli.py
    "float conductor": (
        "g4.json", _set(*_VALUES, 4, 5, "conductor", value=1.5),
        ["character_table.values[4][5].conductor: 1.5 is not an integer"]),
    "empty induction row": (
        "g6.json", _set(*_LINK, "induction", 12, 1, value=[]),
        ["clifford_links[0]: induction row size 0 does not divide the "
         "cyclic order 3"]),
    "link parent not a name": (
        "g4.json", _set(*_LINK, "parent", value={}),
        ["clifford_links[0].parent: {} is not a string"]),
    # verify-db's transport check once indexed the child's slots with it
    "link slot outside the child": (
        "g6.json", _set(*_LINK, "parameter_spec", 0, 1, value=99),
        ["clifford_links[0]: bad parameter_spec entry ['slot', 99]"]),
    # Python's "too many values to unpack (expected 2)" named neither the
    # key nor the shape it expected
    "induction row of three items": (
        "g6.json", _append(*_LINK, "induction", 0, value="junk"),
        ["clifford_links[0].induction[0]: ['phi{1,0}', [...], 'junk'] is not "
         "a JSON list of 2 items"]),
    "parameter_spec entry of three items": (
        "g6.json", _append(*_LINK, "parameter_spec", 0, value="junk"),
        ["clifford_links[0].parameter_spec[0]: ['slot', 0, 'junk'] is not a "
         "JSON list of 2 items"]),
    "group name not a string": ("g7.json", _set("name", value={}),
                                ["header.name: {} is not a string"]),
    "orbit name not a string": ("g4.json", _set("orbits", value=[[7, 3]]),
                                ["header.orbits[0][0]: 7 is not a string"]),
    # slots render as <orbit name>_<j>: an orbit "cc" printed c_c1-c_c2=0,
    # and two orbits "a" printed a_1-a_2=0 for slots of different orbits
    "orbit name of two letters": (
        "g4.json", _set("orbits", 0, 0, value="cc"),
        ["header: orbit names ['cc'] must be distinct single letters"]),
    "repeated orbit name": (
        "g7.json", _set("orbits", 1, 0, value="a"),
        ["header: orbit names ['a', 'a', 'c'] must be distinct single "
         "letters"]),
    # every induction row size divides 0, so the row check passed vacuously
    "link cyclic order zero": (
        "g6.json", _set(*_LINK, "cyclic_order", value=0),
        ["clifford_links[0]: cyclic order 0 is not positive"]),
    "negative link cyclic order": (
        "g6.json", _set(*_LINK, "cyclic_order", value=-3),
        ["clifford_links[0]: cyclic order -3 is not positive"]),
    # numbers must be ints: int() would truncate 24.9 to 24 and load
    "fractional group order": (
        "g4.json", _set("group_order", value=24.9),
        ["header.group_order: 24.9 is not an integer"]),
    "boolean orbit size": ("g4.json", _set("orbits", value=[["c", True]]),
                           ["header.orbits[0][1]: True is not an integer"]),
    "float lead_den": (
        "g7.json", _set(*_PHI_1_0, "lead_den", value=1.0),
        ['schur_x["phi{1,0}"].lead_den: 1.0 is not an integer']),
    # radical denominators: -1 and -2 ended in "order must be positive",
    # and 0 in "integer modulo by zero", naming neither the key nor the fault
    **{f"{key} {value}": ("g7.json", mutate, [f"{where}: {key} {value} must "
                                              "be a positive integer"])
       for key, value, mutate, where in [
           ("den", 0, _set(*_PHI_1_0, "factors", 0, "den", value=0),
            'schur_x["phi{1,0}"].factors[0]'),
           ("den", -2, _set(*_PHI_1_0, "factors", 0, "den", value=-2),
            'schur_x["phi{1,0}"].factors[0]'),
           ("lead_den", 0, _set(*_PHI_1_0, "lead_den", value=0),
            'schur_x["phi{1,0}"]'),
           ("lead_den", -1, _set(*_PHI_1_0, "lead_den", value=-1),
            'schur_x["phi{1,0}"]')]},
    # the third entry was ignored, and the file verified ok
    "orbit entry of three items": (
        "g4.json", _set("orbits", value=[["c", 3, "junk"]]),
        ["header.orbits[0]: ['c', 3, 'junk'] is not a JSON list of 2 "
         "items"]),
    # factorint's "n must be positive" named no key
    "group order zero": ("g4.json", _set("group_order", value=0),
                         ["header: group_order 0 must be a positive integer"]),
    "boolean block index": (
        "g4.json", _set("hyperplane_tables", 0, "blocks", 0, 0, value=True),
        ["hyperplane_tables[0].blocks[0][0]: True is not an integer"]),
    "float block index": (
        "g4.json", _set("hyperplane_tables", 0, "blocks", 1, 0, value=2.0),
        ["hyperplane_tables[0].blocks[1][0]: 2.0 is not an integer"]),
    # checks that run in store.load, not when a value is constructed
    "duplicate character label": (
        "g4.json", _set("characters", 1, value="phi{1,0}"),
        ["header: character labels must be unique"]),
    "root of order zero": (
        "g7.json", _set(*_PHI_1_0, "factors", 0, "twist", value=[0, 1]),
        ['schur_x["phi{1,0}"].factors[0]: order must be positive']),
    # schur.validate divides |G| by the degree: a ZeroDivisionError
    "degree-zero character": (
        "g7.json", _degree_zero,
        ["header: character degrees must be at least 1"]),
    "empty table list": (
        "g4.json", _set("hyperplane_tables", value=[]),
        ["hyperplane_tables: hyperplane tables lack the no-hyperplane "
         "baseline"]),
    # conductors past MAX_CONDUCTOR: the first three once made load run
    # past half a minute
    "schur factor past the conductor bound": (
        "g7.json", _set(*_PHI_1_0, "factors", 0, "cyc", value=1009),
        ['schur_x["phi{1,0}"]: conductor 24216 is above 1000']),
    "table conductor past the bound": (
        "g4.json", _set("character_table", "conductor", value=2999949),
        ["character_table: conductor 2999949 is above 1000"]),
    "field conductor past the bound": (
        "g7.json", _set("field_conductor", value=12108),
        ["header: conductor 12108 is above 1000"]),
    # caught by the check made once the leading monomial is read, before
    # any factor: the coefficient's conductor lcm(12, 997)
    "leading monomial past the conductor bound": (
        "g7.json",
        _set("schur_x", "phi{2,9}'", "coeff",
             value={"conductor": 997, "coeffs": [1]}),
        ['schur_x["phi{2,9}\'"]: conductor 11964 is above 1000']),
    # this one failed fast before: 2999949 does not divide the table's 3
    "table entry conductor past the bound": (
        "g4.json", _set(*_VALUES, 4, 5, "conductor", value=2999949),
        ["character_table.values[4]: conductor 2999949 is above 1000"]),
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
    **{name: ("g4.json", _set(*_TABLE_1, "primes", value=primes), [line])
       for name, primes, line in [
           ("table prime true", [True],
            "hyperplane_tables[1].primes[0]: True is not an integer"),
           ("table prime a string", [2, "3"],
            "hyperplane_tables[1].primes[1]: '3' is not an integer"),
           ("table primes a string", "23",
            "hyperplane_tables[1].primes: '23' is not a JSON list"),
           ("table primes an integer", 3,
            "hyperplane_tables[1].primes: 3 is not a JSON list")]},
    # a string is a sequence: its 7 letters loaded as the 7 class labels
    "class_orders a string": (
        "g4.json", _set("character_table", "class_orders", value="abcdefg"),
        ["character_table.class_orders: 'abcdefg' is not a JSON list"]),
    # a table at no prime loaded and verified: essential-hyperplanes G4
    # --prime 0 listed its hyperplane, and no --prime p did
    "table without primes": ("g4.json", _drop(*_TABLE_1, "primes"),
                             ["hyperplane_tables[1]: missing key 'primes'"]),
    "table at no prime": (
        "g4.json", _set(*_TABLE_1, "primes", value=[]),
        ["hyperplane_tables[1]: primes [] is empty; a table lists at least "
         "one prime"]),
    # both sum to |G4| = 24: each loaded, verified and gave p-blocks
    "negative class size": (
        "g4.json",
        _set("character_table", "class_sizes", value=[1, 1, 6, 4, -4, 12, 4]),
        ["character_table: class sizes [1, 1, 6, 4, -4, 12, 4] are not all "
         "positive"]),
    "class size zero": (
        "g4.json",
        _set("character_table", "class_sizes", value=[1, 1, 6, 0, 4, 8, 4]),
        ["character_table: class sizes [1, 1, 6, 0, 4, 8, 4] are not all "
         "positive"]),
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
    # the table path printed c_1-c_2=0 and its blocks twice, and verify-db
    # said ok
    "repeated hyperplane table": (
        "g4.json",
        lambda doc: doc["hyperplane_tables"].append(
            doc["hyperplane_tables"][1]),
        ["hyperplane_tables[7]: normal (0, 1, -1) repeats "
         "hyperplane_tables[1]"]),
    # a string or an object was read item by item: a label letter by
    # letter, a section by its keys
    **{name: (file, _set(*keys, value=value), [line])
       for name, file, keys, value, line in [
           ("characters a string", "g4.json", ("characters",), "phi{1,0}",
            "header.characters: 'phi{1,0}' is not a JSON list"),
           ("parent_characters a string", "g6.json",
            (*_LINK, "parent_characters"), "phi{1,0}",
            "clifford_links[0].parent_characters: 'phi{1,0}' is not a JSON "
            "list"),
           ("induction parents a string", "g6.json",
            (*_LINK, "induction", 0, 1), "phi{1,0}",
            "clifford_links[0].induction[0][1]: 'phi{1,0}' is not a JSON "
            "list"),
           # each of these named a letter or an item it did not expect, or
           # gave Python's own words: one line per letter of "ab", "row 0
           # does not have 7 entries" for the key "x", "string indices must
           # be integers"
           ("induction a string", "g6.json", (*_LINK, "induction"), "ab",
            "clifford_links[0].induction: 'ab' is not a JSON list"),
           ("parameter_spec a string", "g6.json", (*_LINK, "parameter_spec"),
            "ab", "clifford_links[0].parameter_spec: 'ab' is not a JSON list"),
           ("root payload a string", "g6.json",
            (*_LINK, "parameter_spec", 0), ["root", "31"],
            "clifford_links[0].parameter_spec[0][1]: '31' is not an integer "
            "or a JSON list"),
           ("table values an object", "g4.json", _VALUES, {"x": [1]},
            "character_table.values: {'x': [...]} is not a JSON list"),
           ("table row a string", "g4.json", (*_VALUES, 0), "1111111",
            "character_table.values[0]: '1111111' is not a JSON list"),
           ("table entry coeffs a string", "g4.json", (*_VALUES, 2, 3),
            {"conductor": 3, "coeffs": "01"},
            "character_table.values[2][3].coeffs: '01' is not a JSON list"),
           ("class_sizes a string", "g4.json",
            ("character_table", "class_sizes"), "1338",
            "character_table.class_sizes: '1338' is not a JSON list"),
           ("schur factors an object", "g7.json", (*_PHI_1_0, "factors"),
            {"cyc": 1},
            'schur_x["phi{1,0}"].factors: {\'cyc\': 1} is not a JSON list'),
           ("schur lead a string", "g7.json", (*_PHI_1_0, "lead"), "10000000",
            'schur_x["phi{1,0}"].lead: \'10000000\' is not a JSON list'),
           ("schur factor num a string", "g7.json",
            (*_PHI_1_0, "factors", 0, "num"), "1",
            'schur_x["phi{1,0}"].factors[0].num: \'1\' is not a JSON list'),
           ("schur factor twist a string", "g7.json",
            (*_PHI_1_0, "factors", 0, "twist"), "31",
            'schur_x["phi{1,0}"].factors[0].twist: \'31\' is not a JSON '
            "list"),
           ("table blocks a string", "g4.json",
            ("hyperplane_tables", 0, "blocks"), "12",
            "hyperplane_tables[0].blocks: '12' is not a JSON list"),
           ("table part a string", "g4.json",
            ("hyperplane_tables", 0, "blocks", 0), "1",
            "hyperplane_tables[0].blocks[0]: '1' is not a JSON list"),
           # each of these gave Python's words: "'str' object has no
           # attribute 'get'", "list indices must be integers or slices"
           ("table a string", "g4.json", _TABLE_1, "ab",
            "hyperplane_tables[1]: 'ab' is not a JSON object"),
           ("table entry a list", "g4.json", (*_VALUES, 2, 3), [3, 1],
            "character_table.values[2][3]: [3, 1] is not an integer or a "
            "JSON object"),
           ("schur element a list", "g7.json", _PHI_1_0, [1],
            'schur_x["phi{1,0}"]: [1] is not a JSON object'),
           ("link a string", "g6.json", _LINK, "ab",
            "clifford_links[0]: 'ab' is not a JSON object")]},
    "hyperplane_tables an object": (
        "g4.json", _as_object("hyperplane_tables"),
        ["hyperplane_tables: {'0': {...}, '1': {...}, '2': {...}, '3': {...}, "
         "...} is not a JSON list"]),
    "clifford_links an object": (
        "g4.json", _as_object("clifford_links"),
        ["clifford_links: {'0': {...}} is not a JSON list"]),
    "schur_x a list": (
        "g7.json", lambda doc: doc.update(schur_x=list(doc["schur_x"])),
        ['schur_x: [\'phi{1,0}\', "phi{2,9}\'", \'phi{3,6}\'] is not a JSON '
         "object"]),
    # a misspelt key loaded, without the data it named, and verify-db said
    # ok: every object is closed
    "misspelt hyperplane_tables key": (
        "g4.json", _rename("hyperplane_tables", "hyperplane_tabels"),
        ["header: unknown key 'hyperplane_tabels'"]),
    "misspelt clifford_links key": (
        "g6.json", _rename("clifford_links", "clifford_link"),
        ["header: unknown key 'clifford_link'"]),
    "misspelt table key": (
        "g7.json", _set(*_TABLE_1, "blokcs", value=[[1]]),
        ["hyperplane_tables[1]: unknown key 'blokcs'"]),
}


# One value of each JSON type, as json.loads gives it.
_SAMPLES = {"null": None, "bool": True, "int": 7, "float": 1.5,
            "string": "ab", "list": [], "object": {}}
_JSON_TYPES = {type(None): "null", bool: "bool", int: "int", float: "float",
               str: "string", list: "list", dict: "object"}


def _json_type(schema) -> str:
    """The JSON type of a value that matches the schema node."""
    if schema is None or schema in (int, str):
        return _JSON_TYPES[type(schema) if schema is None else schema]
    return "object" if type(schema) is dict else "list"


def misspelt(key: str) -> str:
    """key with its second and third letters swapped."""
    return key[0] + key[2] + key[1] + key[3:]


def _nodes(schema, parent, key=0, where="header", shape=()):
    """(parent, key, location, shape, the JSON types it takes, schema) for
    each node parent[key] of a shipped document, its lists and maps sampled
    at the first and last item; the shape is its path with each sampled
    index or map key read as 0, first, or -1, last."""
    value = parent[key]
    options = schema if type(schema) is _OneOf else (schema,)
    schema = next(s for s in options
                  if _json_type(s) == _JSON_TYPES[type(value)])
    yield parent, key, where, shape, {_json_type(s) for s in options}, schema
    children = []
    if type(schema) is tuple:
        children = [(i, f"[{i}]", i, item) for i, item in enumerate(schema)]
    elif type(schema) is list and value:
        children = [(i, f"[{i}]", -1 if i else 0, schema[0])
                    for i in sorted({0, len(value) - 1})]
    elif type(schema) is dict and str in schema:
        keys = dict.fromkeys([*value][:1] + [*value][-1:])
        children = [(k, f'["{k}"]', -1 if i else 0, schema[str])
                    for i, k in enumerate(keys)]
    elif type(schema) is dict:
        children = [(k, f".{k}", k, schema.get(k, schema.get(f"{k}?")))
                    for k in value]
    for k, step, tag, item in children:
        place = (where + step if shape
                 else k if k in LOCATIONS else f"header.{k}")
        yield from _nodes(item, value, k, place, shape + (tag,))


def sweep():
    """(name, file, document, line) for each generated type fault in the
    nodes of the shipped files, each node shape once: a value of each JSON
    type the node does not take, and for an object each required key
    dropped and a misspelt key added.  line is the one line load must
    report, for a value of another type its start.  The document is a
    shipped one changed in place, and changed back for the next case."""
    seen = set()
    for path in sorted(SHIPPED.glob("*.json")):
        box = [json.loads(path.read_text())]
        for parent, key, where, shape, takes, schema in _nodes(_DOCUMENT, box):
            if shape in seen:
                continue
            seen.add(shape)
            node = parent[key]
            cases = [(kind, sample, f"{where}: {sample!r} is not ")
                     for kind, sample in _SAMPLES.items() if kind not in takes]
            if type(schema) is dict and str not in schema:
                cases += [(f"without {k}", {n: v for n, v in node.items()
                                            if n != k},
                           f"{where}: missing key {k!r}")
                          for k in schema if not k.endswith("?")]
                k = misspelt(next(iter(schema)).rstrip("?"))
                cases.append((f"with {k}", {**node, k: 0},
                              f"{where}: unknown key {k!r}"))
            for what, replacement, line in cases:
                parent[key] = replacement
                yield f"{path.name} {where} {what}", path.name, box[0], line
            parent[key] = node


def sweep_faults() -> tuple[int, list[str]]:
    """How many sweep() cases there are, and each that load did not reject
    with its one line, with what load reported."""
    count, faults = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        for name, file, doc, line in sweep():
            count += 1
            path = Path(tmp) / file
            path.write_text(json.dumps(doc))
            try:
                load(path)
                report = ["it loaded"]
            except StoreError as err:
                report = err.report
            if not matches(report, [line]):
                faults.append(f"{name}: {report}")
    return count, faults


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
    print(f"{len(MALFORMED) - failed} of {len(MALFORMED)} cases passed")
    count, faults = sweep_faults()
    for fault in faults:
        print(f"FAIL sweep {fault}")
    print(f"{count - len(faults)} of {count} sweep cases passed")
    return int(failed > 0 or bool(faults))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: python {sys.argv[0]} CONSOLE_SCRIPT")
    sys.exit(main(sys.argv[1]))
