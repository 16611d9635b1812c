"""The malformed-database cases: each mutates one shipped file, which once
escaped store.load as a raw exception, loaded silently, or pins a load
check, and lists every located line load reports for it.  Each must end in
StoreError, and the command line in exit 5.  tests/test_store_cli.py loads
the cases in process; run as a script, with the standard library alone,
this module replays them against an installed console script and exits 1,
naming each case that failed:

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
    ": " pins the location only, where the message is Python's own words,
    which vary with its version."""
    return len(lines) == len(report) and all(
        line.startswith(want) if want.endswith(": ") else line == want
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
    # Python words this message differently across versions
    "non-numeric table entry": ("g4.json", _set(*_VALUES, 1, 1, value="x"),
                                ["character_table.values[1]: "]),
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
        ["character_table.values[4]: 1.5 is not an integer"]),
    "empty induction row": (
        "g6.json", _set(*_LINK, "induction", 12, 1, value=[]),
        ["clifford_links[0]: induction row size 0 does not divide the "
         "cyclic order 3"]),
    "link parent not a name": (
        "g4.json", _set(*_LINK, "parent", value={}),
        ["clifford_links[0]: the link parent must be a group name"]),
    # verify-db's transport check once indexed the child's slots with it
    "link slot outside the child": (
        "g6.json", _set(*_LINK, "parameter_spec", 0, 1, value=99),
        ["clifford_links[0]: bad parameter_spec entry ['slot', 99]"]),
    "group name not a string": ("g7.json", _set("name", value={}),
                                ["header: the group name must be a string"]),
    "orbit name not a string": (
        "g4.json", _set("orbits", value=[[7, 3]]),
        ["header: orbit names [7] must be distinct single letters"]),
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
    "fractional group order": ("g4.json", _set("group_order", value=24.9),
                               ["header: 24.9 is not an integer"]),
    "boolean orbit size": ("g4.json", _set("orbits", value=[["c", True]]),
                           ["header: True is not an integer"]),
    "float lead_den": ("g7.json", _set(*_PHI_1_0, "lead_den", value=1.0),
                       ['schur_x["phi{1,0}"]: 1.0 is not an integer']),
    "boolean block index": (
        "g4.json", _set("hyperplane_tables", 0, "blocks", 0, 0, value=True),
        ["hyperplane_tables[0]: True is not an integer"]),
    "float block index": (
        "g4.json", _set("hyperplane_tables", 0, "blocks", 1, 0, value=2.0),
        ["hyperplane_tables[0]: 2.0 is not an integer"]),
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
    # 4 divides |G4| = 24 but is no prime: essential-hyperplanes G4
    # --prime 2 then dropped the table's hyperplane
    **{name: ("g4.json", _set(*_TABLE_1, "primes", value=primes),
              [f"hyperplane_tables[1]: primes {primes!r} are not primes "
               "dividing the group order 24"])
       for name, primes in [
           ("table prime 4", [4]), ("table prime 5", [5]),
           ("table prime true", [True]), ("table prime a string", [2, "3"]),
           ("table primes a string", "23"), ("table primes an integer", 3)]},
    # a string is a sequence: its 7 letters loaded as the 7 class labels
    "class_orders a string": (
        "g4.json", _set("character_table", "class_orders", value="abcdefg"),
        ["character_table: class_orders 'abcdefg' is not a list of 7 "
         "strings"]),
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
    # one malformed entry hides no other: each fault is one located line
    "three faults in one file": (
        "g7.json", _three_faults,
        ["hyperplane_tables[3]: 'x' is not an integer",
         "hyperplane_tables[5]: normal [1, -1] is not a list of 8 integers",
         'schur_x["phi{3,6}"].factors[4]: missing key \'cyc\'']),
}


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
    return int(failed > 0)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: python {sys.argv[0]} CONSOLE_SCRIPT")
    sys.exit(main(sys.argv[1]))
