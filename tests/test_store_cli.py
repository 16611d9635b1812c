"""Database loading, validation (including seeded corruptions), and the
command-line surface with its exit-code contract."""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heckeblocks
from heckeblocks.cyclo import factorint
from heckeblocks.engine import (
    Hyperplane,
    blocks_no_hyperplane,
    blocks_one_hyperplane,
)
from heckeblocks.schur import aa_weight, essential_monomials, essential_normals
from heckeblocks.store import StoreError, default_db_dir, load, load_group, verify_db

from cli_runner import invoke


@pytest.fixture()
def db_copy(tmp_path):
    for path in default_db_dir().glob("*.json"):
        shutil.copy(path, tmp_path / path.name)
    return tmp_path


def rewrite(db_dir, name, mutate):
    path = db_dir / name
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------


def test_shipped_database_verifies():
    ok, report = verify_db()
    assert ok and report == []


def test_loading_shipped_groups():
    g4 = load_group("G4")
    assert len(g4.characters) == 7
    assert g4.orbits == (("c", 3),)
    g7 = load_group("G7")
    assert len(g7.characters) == 42
    assert len(g7.schur_elements) == 3


def test_missing_file_raises_filenotfound(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_group("G99", tmp_path)


def test_corruption_bad_orbit_sum(db_copy):
    path = rewrite(
        db_copy, "g4.json",
        lambda d: d["hyperplane_tables"][1].__setitem__("normal", [0, 1, 1]),
    )
    ok, report = verify_db([path])
    assert not ok and any("orbit sums" in line for line in report)


def test_corruption_non_primitive_normal(db_copy):
    path = rewrite(
        db_copy, "g4.json",
        lambda d: d["hyperplane_tables"][1].__setitem__("normal", [0, 2, -2]),
    )
    ok, report = verify_db([path])
    assert not ok and any("primitive" in line for line in report)


def test_corruption_overlapping_parts(db_copy):
    path = rewrite(
        db_copy, "g4.json",
        lambda d: d["hyperplane_tables"][1].__setitem__(
            "blocks", [[1, 2], [2, 3, 4], [5, 6], [7]]
        ),
    )
    ok, report = verify_db([path])
    assert not ok and any("partition" in line for line in report)


def test_corruption_wrong_schur_coefficient(db_copy):
    path = rewrite(
        db_copy, "g7.json",
        lambda d: d["schur_x"]["phi{1,0}"].__setitem__("coeff", 2),
    )
    ok, report = verify_db([path])
    assert not ok and any("value at v=1" in line for line in report)


def test_corruption_broken_clifford_row(db_copy):
    def mutate(doc):
        # duplicate a parent character across two induction rows
        rows = doc["clifford_links"][0]["induction"]
        rows[1][1][0] = rows[0][1][0]

    path = rewrite(db_copy, "g6.json", mutate)
    ok, report = verify_db([path])
    assert not ok and any("two rows" in line for line in report)


def test_corruption_root_order_one_factor(db_copy):
    path = rewrite(
        db_copy, "g7.json",
        lambda d: d["schur_x"]["phi{1,0}"]["factors"].append(
            {"cyc": 2, "num": [1, -1, 0, 0, 0, 0, 0, 0], "den": 1}
        ),
    )
    ok, report = verify_db([path])
    assert not ok and any("root order 1" in line for line in report)


@pytest.mark.parametrize("row, column, value, message", [
    # 1 * (-1) / 2 at the class of size 1: not an algebraic integer
    (3, 1, -1, "central character not integral"),
    # rows 2 and 3 are Galois conjugates; zeta_3 in place of zeta_3^2 makes
    # row 3 equal to row 2 at that class, so row 2's image is missing
    (2, 3, {"conductor": 3, "coeffs": [0, 1]}, "Galois image row not found"),
], ids=["non-integral-central-character", "missing-galois-image"])
def test_corruption_character_table(db_copy, row, column, value, message):
    def mutate(doc):
        doc["character_table"]["values"][row][column] = value

    path = rewrite(db_copy, "g4.json", mutate)
    with pytest.raises(StoreError):
        load(path)
    ok, report = verify_db([path])
    assert not ok and any(message in line for line in report)
    result = invoke(["verify-db", str(path)])
    assert result.exit_code == 5 and message in result.output


def test_corruption_transport_mismatch(db_copy):
    def mutate(doc):
        # swap two parts in a stored table the transport cross-check covers
        table = next(
            t for t in doc["hyperplane_tables"]
            if t.get("normal") == [0, 0, 1, -1, 0]
        )
        table["blocks"] = [[1, 4], [2], [3, 5], [9, 10, 11, 12], [7, 8],
                           [6], [13], [14]]

    path = rewrite(db_copy, "g6.json", mutate)
    ok, report = verify_db(sorted(db_copy.glob("*.json")))
    assert not ok and any(
        line.startswith(f"{path}: clifford_links[0]: G7->G6: ")
        and "disagree with the stored table" in line for line in report)


@pytest.mark.parametrize("primes", ["23", [2, "3"], [5], [True], 3])
def test_corruption_bad_table_primes(db_copy, primes):
    path = rewrite(
        db_copy, "g4.json",
        lambda d: d["hyperplane_tables"][1].__setitem__("primes", primes),
    )
    with pytest.raises(StoreError) as err:
        load(path)
    assert any("primes" in line for line in err.value.report)
    result = invoke(["verify-db", str(path)])
    assert result.exit_code == 5


def _degree_zero(doc):
    """G7 with phi{1,0} renamed phi{0,0}, in the label and the schur_x key."""
    doc["characters"][doc["characters"].index("phi{1,0}")] = "phi{0,0}"
    doc["schur_x"]["phi{0,0}"] = doc["schur_x"].pop("phi{1,0}")


def _lead_past_the_bound(doc):
    """G7 with mu 12 * 1009 and phi{2,9}' a bare leading monomial over
    lead_den 1009, whose root of unity has order 3 * 1009."""
    doc["mu_order"] = 12 * 1009
    doc["schur_x"]["phi{2,9}'"].update(lead_den=1009, factors=[])


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


# Each mutation once escaped store.load as a raw exception or loaded
# silently; every one must end in StoreError, and the CLI in exit 5.
_MALFORMED = {
    "table without blocks": (
        "g4.json", lambda d: d["hyperplane_tables"][1].pop("blocks")),
    "normal of the wrong length": (
        "g4.json",
        lambda d: d["hyperplane_tables"][1].__setitem__("normal", [1, -1])),
    "non-numeric table entry": (
        "g4.json",
        lambda d: d["character_table"]["values"][1].__setitem__(1, "x")),
    "table row one entry short": (
        "g4.json", lambda d: d["character_table"]["values"][1].pop()),
    "empty orbit": ("g4.json", lambda d: d.__setitem__("orbits", [["c", 0]])),
    "schur factor without cyc": (
        "g7.json",
        lambda d: d["schur_x"]["phi{1,0}"]["factors"][0].pop("cyc")),
    "link without parent": (
        "g4.json", lambda d: d["clifford_links"][0].pop("parent")),
    # found by the mutation test below
    "float conductor": (
        "g4.json",
        lambda d: d["character_table"]["values"][4][5].__setitem__(
            "conductor", 1.5)),
    "empty induction row": (
        "g6.json",
        lambda d: d["clifford_links"][0]["induction"][12].__setitem__(1, [])),
    "link parent not a name": (
        "g4.json", lambda d: d["clifford_links"][0].__setitem__("parent", {})),
    # verify-db's transport check once indexed the child's slots with it
    "link slot outside the child": (
        "g6.json",
        lambda d: d["clifford_links"][0]["parameter_spec"][0].__setitem__(1, 99)),
    "group name not a string": ("g7.json", lambda d: d.__setitem__("name", {})),
    "orbit name not a string": (
        "g4.json", lambda d: d.__setitem__("orbits", [[7, 3]])),
    # numbers must be ints: int() would truncate 24.9 to 24 and load
    "fractional group order": (
        "g4.json", lambda d: d.__setitem__("group_order", 24.9)),
    "boolean orbit size": (
        "g4.json", lambda d: d.__setitem__("orbits", [["c", True]])),
    "float lead_den": (
        "g7.json",
        lambda d: d["schur_x"]["phi{1,0}"].__setitem__("lead_den", 1.0)),
    "boolean block index": (
        "g4.json",
        lambda d: d["hyperplane_tables"][0]["blocks"][0].__setitem__(0, True)),
    "float block index": (
        "g4.json",
        lambda d: d["hyperplane_tables"][0]["blocks"][1].__setitem__(0, 2.0)),
    # checks that run in store.load, not when a value is constructed
    "duplicate character label": (
        "g4.json",
        lambda d: d["characters"].__setitem__(1, d["characters"][0])),
    "root of order zero": (
        "g7.json",
        lambda d: d["schur_x"]["phi{1,0}"]["factors"][0].__setitem__(
            "twist", [0, 1])),
    # schur.validate divides |G| by the degree: a ZeroDivisionError
    "degree-zero character": ("g7.json", _degree_zero),
    "empty table list": (
        "g4.json", lambda d: d.__setitem__("hyperplane_tables", [])),
    # conductors past MAX_CONDUCTOR: the first three once made load run
    # past half a minute
    "schur factor past the conductor bound": (
        "g7.json",
        lambda d: d["schur_x"]["phi{1,0}"]["factors"][0].__setitem__(
            "cyc", 1009)),
    "table conductor past the bound": (
        "g4.json",
        lambda d: d["character_table"].__setitem__("conductor", 2999949)),
    "field conductor past the bound": (
        "g7.json", lambda d: d.__setitem__("field_conductor", 12108)),
    # with no factor to bound it, the leading twist alone took 9 s to load
    # at mu = 12 * 100003 (2 vCPUs)
    "leading monomial past the conductor bound": (
        "g7.json", _lead_past_the_bound),
    # this one failed fast before: 2999949 does not divide the table's 3
    "table entry conductor past the bound": (
        "g4.json",
        lambda d: d["character_table"]["values"][4][5].__setitem__(
            "conductor", 2999949)),
    # each alone is within the bound: lcm(12, 8) for the leading twist and
    # lcm(12, 996) for the factor; but the unit collected before the factor
    # holds zeta_8, and lcm(12, 8, 996) = 1992
    "collected unit past the conductor bound": (
        "g7.json", _unit_past_the_bound),
    # the checks normalize_x_to_v makes on the root set and the unit
    "schur factor of root order 1": (
        "g7.json",
        lambda d: d["schur_x"]["phi{1,0}"]["factors"].append(
            {"cyc": 2, "num": [1, -1, 0, 0, 0, 0, 0, 0]})),
    "galois orbit leaving the root set": (
        "g7.json",
        lambda d: d["schur_x"]["phi{1,0}"]["factors"].append(
            {"cyc": 1, "num": [0, 0, 1, -1, 0, 0, 0, 0], "twist": [7, 1]})),
    "unit outside the field": ("g7.json", _lead_twist_of_order_eight),
    # the slot twists live in Z[zeta_lcm(e_C)]: an orbit of size 10**9
    # once made load build a list of every slot and run out of memory
    "orbit size 10**9": (
        "g7.json", lambda d: d["orbits"][0].__setitem__(1, 10**9)),
    "orbit size 10**30": (
        "g7.json", lambda d: d["orbits"][0].__setitem__(1, 10**30)),
}

# The report line a case must give, where it is pinned: its JSON location,
# then its message.
_MALFORMED_MESSAGE = {
    "normal of the wrong length":
        "hyperplane_tables[1]: normal [1, -1] is not a list of 3 integers",
    "table row one entry short": "character_table.values[1]: "
                                 "character table row 1 does not have 7 entries",
    "empty table list":
        "hyperplane_tables: hyperplane tables lack the no-hyperplane baseline",
    "schur factor past the conductor bound":
        'schur_x["phi{1,0}"]: conductor 24216 is above 1000',
    "table conductor past the bound":
        "character_table: conductor 2999949 is above 1000",
    "field conductor past the bound": "header: conductor 12108 is above 1000",
    "table entry conductor past the bound":
        "character_table.values[4]: conductor 2999949 is above 1000",
    "leading monomial past the conductor bound":
        'schur_x["phi{2,9}\'"]: conductor 12108 is above 1000',
    "collected unit past the conductor bound":
        'schur_x["phi{2,9}\'"]: conductor 1992 is above 1000',
    "schur factor of root order 1":
        'schur_x["phi{1,0}"]: factor produces a component '
        "of root order 1 (data-entry error)",
    "galois orbit leaving the root set":
        'schur_x["phi{1,0}"]: Galois orbit leaves the root set',
    "unit outside the field":
        'schur_x["phi{2,9}\'"]: unit coefficient does not lie in '
        "Z[zeta_12]; check the radical twists",
    "schur factor without cyc":
        'schur_x["phi{1,0}"].factors[0]: missing key \'cyc\'',
    "link slot outside the child":
        "clifford_links[0]: bad parameter_spec entry ['slot', 99]",
    # lcm with the two orbits of size 3
    "orbit size 10**9": "header: conductor 3000000000 is above 1000",
    "orbit size 10**30": f"header: conductor {3 * 10**30} is above 1000",
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_document_ends_in_store_error(db_copy, monkeypatch, case):
    """Also after a good load of the same file has filled the memos."""
    name, mutate = _MALFORMED[case]
    load(db_copy / name)
    path = rewrite(db_copy, name, mutate)
    start = time.monotonic()
    with pytest.raises(StoreError) as err:
        load(path)
    assert time.monotonic() - start < 1.0
    assert err.value.report
    if case in _MALFORMED_MESSAGE:
        assert _MALFORMED_MESSAGE[case] in err.value.report
    result = invoke(["verify-db", str(path)])
    assert result.exit_code == 5
    monkeypatch.setenv("HECKE_DB", str(db_copy))
    group = name.removesuffix(".json").upper()
    zeros = ",".join("0" * (8 if group == "G7" else 3))
    result = invoke(["rouquier-blocks", group, "--exponents", zeros])
    assert result.exit_code == 5


def _node_paths(node, path=()):
    """Every path into a JSON document, the root excluded."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


_SHIPPED = {path.name: json.loads(path.read_text())
            for path in sorted(default_db_dir().glob("*.json"))}
_TARGETS = [(name, path) for name, doc in _SHIPPED.items()
            for path in _node_paths(doc)]
_OTHER_TYPES = [None, "x", 1.5, -7, True, [], {}, [1, "x"], {"k": 0}]
_LOCATIONS = ("header", "hyperplane_tables", "character_table", "schur_x",
              "clifford_links", "cannot parse")


@st.composite
def _mutated_document(draw):
    """A shipped document with one key dropped, one value replaced by one
    of another type, or one list truncated, and whether an int was replaced
    by a float, a string or a bool."""
    name, path = draw(st.sampled_from(_TARGETS))
    doc = copy.deepcopy(_SHIPPED[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, node = path[-1], parent[path[-1]]
    kinds = ["drop", "retype"] + (["truncate"] if isinstance(node, list) and node else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = draw(st.sampled_from(
            [v for v in _OTHER_TYPES if type(v) is not type(node)]
            + ([float(node)] if type(node) is int else [])))
    else:
        parent[key] = node[:draw(st.integers(0, len(node) - 1))]
    retyped_int = kind == "retype" and type(node) is int and \
        type(parent[key]) in (float, str, bool)
    return name, doc, retyped_int


@settings(max_examples=60, deadline=timedelta(seconds=5), derandomize=True)
@given(_mutated_document())
def test_mutated_documents_load_or_raise_store_error(mutated):
    name, doc, retyped_int = mutated
    with tempfile.TemporaryDirectory() as tmp:
        db = Path(tmp)
        for other, shipped in _SHIPPED.items():
            (db / other).write_text(json.dumps(doc if other == name else shipped))
        try:
            load(db / name)
        except StoreError as err:
            # each line names where in the document it was found
            assert all(line.startswith(_LOCATIONS) for line in err.report), \
                err.report
        else:
            # every int is read exactly: 2.0, "2" and true are not 2 or 1
            assert not retyped_int, "a retyped int loaded"
        group = name.removesuffix(".json").upper()
        zeros = ",".join("0" * (8 if group == "G7" else 3))
        for args in (["verify-db"], ["all-blocks", group],
                     ["rouquier-blocks", group, "--exponents", zeros],
                     ["essential-hyperplanes", group, "-p", "2"]):
            result = invoke(args, env={"HECKE_DB": tmp})
            assert result.exit_code in (0, 2, 3, 4, 5), (args, result.exception)


def _three_faults(doc):
    """G7 with a block index "x" in hyperplane_tables[3], a 2-entry normal
    in hyperplane_tables[5] and no cyc in phi{3,6}'s factors[4]."""
    doc["hyperplane_tables"][3]["blocks"][0][0] = "x"
    doc["hyperplane_tables"][5]["normal"] = [1, -1]
    del doc["schur_x"]["phi{3,6}"]["factors"][4]["cyc"]


_THREE_FAULT_LINES = [
    "hyperplane_tables[3]: 'x' is not an integer",
    "hyperplane_tables[5]: normal [1, -1] is not a list of 8 integers",
    'schur_x["phi{3,6}"].factors[4]: missing key \'cyc\'',
]


def test_store_error_collects_reports(db_copy):
    """One malformed entry hides no other: each fault is one located line."""
    path = rewrite(db_copy, "g7.json", _three_faults)
    with pytest.raises(StoreError) as err:
        load(path)
    assert err.value.report == _THREE_FAULT_LINES
    result = invoke(["verify-db", str(path)])
    assert result.exit_code == 5
    assert result.output.splitlines() == [
        f"{path}: {line}" for line in _THREE_FAULT_LINES]


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_essential_hyperplanes_listing():
    result = invoke(["essential-hyperplanes", "G4", "--prime", "3"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "c_1-c_2=0", "c_0-c_1=0", "c_0-c_2=0",
    ]


@pytest.mark.parametrize("prime", ["1", "-3", "1000000000000000000000007"])
def test_cli_prime_outside_the_group_order_exits_two_quickly(prime):
    start = time.monotonic()
    result = invoke(["essential-hyperplanes", "G4", "-p", prime])
    assert time.monotonic() - start < 1.0
    assert result.exit_code == 2
    assert "Error, The number p should divide the order of the group" \
        in result.output


@pytest.mark.parametrize("args, message", [
    (["rouquier-blocks", "G4", "--exponents", "0,1,2", "--display", "foo"],
     "argument --display: invalid choice: 'foo'"),
    (["rouquier-blocks", "G4"],
     "the following arguments are required: --exponents"),
    (["essential-hyperplanes", "G4", "-p", "x"], "invalid int value: 'x'"),
    (["no-such-command"], "invalid choice: 'no-such-command'"),
], ids=["bad display", "missing exponents", "non-integer prime",
        "unknown command"])
def test_cli_usage_errors_exit_four(args, message):
    # the README gives 4 to malformed arguments and 2 to an invalid prime
    result = invoke(args)
    assert result.exit_code == 4
    assert result.stdout == ""
    assert "usage: heckeblocks" in result.stderr and message in result.stderr


@pytest.mark.parametrize("args", [
    ["--help"], ["rouquier-blocks", "--help"], ["verify-db", "--help"],
])
def test_cli_help_exits_zero(args):
    result = invoke(args)
    assert result.exit_code == 0 and "usage: heckeblocks" in result.stdout


@pytest.mark.parametrize("args", [
    ["verify-db", "/no/such/file.json"], [],
], ids=["missing verify-db path", "no command"])
def test_cli_usage_errors_without_a_query_exit_four(args):
    result = invoke(args)
    assert result.exit_code == 4 and result.stdout == ""


def _fresh_env():
    """os.environ with the package importable."""
    env = dict(os.environ)
    src = str(Path(heckeblocks.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_fresh(code, *args, site=True):
    """Run Python code in a fresh interpreter with the package importable;
    site=False starts it with -S, without the site module."""
    return subprocess.run(
        [sys.executable, *([] if site else ["-S"]), "-c", code, *args],
        env=_fresh_env(), capture_output=True, text=True, timeout=60,
    )


def test_cli_usage_error_exit_code_reaches_the_process():
    result = _run_fresh("from heckeblocks.cli import main; main()",
                        "rouquier-blocks", "G4")
    assert result.returncode == 4
    assert "the following arguments are required: --exponents" \
        in result.stderr


# Runs the CLI in a fresh interpreter and reports at exit whether sympy
# was ever imported, and which modules the request imported from
# site-packages. Modules already loaded at start-up, such as those a .pth
# file imports, do not count.
_IMPORT_PROBE = (
    "import atexit, os, sys, sysconfig\n"
    "before = set(sys.modules)\n"
    "paths = [sysconfig.get_path(k) for k in ('purelib', 'platlib')]\n"
    "roots = tuple(path + os.sep for path in paths)\n"
    "def report():\n"
    "    print('sympy loaded:', 'sympy' in sys.modules)\n"
    "    print('site-packages modules:', sorted(\n"
    "        name for name, m in list(sys.modules.items()) if name not in before\n"
    "        and (getattr(m, '__file__', None) or '').startswith(roots)))\n"
    "atexit.register(report)\n"
    "from heckeblocks.cli import main\n"
    "main()\n"
)


@pytest.mark.parametrize("args", [
    ["all-blocks", "G7"],
    ["rouquier-blocks", "G4", "--path", "tables", "--exponents", "0,1,2"],
    ["essential-hyperplanes", "G4", "-p", "0"],
    ["verify-db"],
    # G4 stores no Schur payload, so this one exits 3
    ["rouquier-blocks", "G4", "--path", "schur", "--exponents", "0,1,2"],
])
def test_cli_table_queries_never_import_sympy(args):
    result = _run_fresh(_IMPORT_PROBE, *args)
    assert result.returncode == (3 if "schur" in args else 0), result.stderr
    assert result.stdout.splitlines()[-2:] == [
        "sympy loaded: False", "site-packages modules: []"]


# Runs the CLI in a fresh interpreter and prints at exit which of
# dataclasses and inspect the request imported, beyond those loaded at
# start-up.
_DATACLASSES_PROBE = (
    "import atexit, sys\n"
    "before = set(sys.modules)\n"
    "atexit.register(lambda: print('added:', sorted(\n"
    "    {'dataclasses', 'inspect'} & set(sys.modules) - before)))\n"
    "from heckeblocks.cli import main\n"
    "main()\n"
)


@pytest.mark.parametrize("args", [["all-blocks", "G7"], ["verify-db"]])
def test_cli_does_not_import_dataclasses(args):
    result = _run_fresh(_DATACLASSES_PROBE, *args)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "added: []"


# Runs the CLI in a fresh interpreter and prints at exit which of fractions,
# decimal and random are loaded.  It runs without the site module, because
# the .pth files site reads may import any of them before the request.
_STDLIB_PROBE = (
    "import atexit, sys\n"
    "atexit.register(lambda: print('loaded:', sorted(\n"
    "    {'fractions', 'decimal', 'random'} & set(sys.modules))))\n"
    "from heckeblocks.cli import main\n"
    "main()\n"
)


@pytest.mark.parametrize("args", [
    ["all-blocks", "G4"],
    # a G7 load normalises and validates its Schur elements
    ["all-blocks", "G7"],
    ["rouquier-blocks", "G7", "--exponents", "1,2,3,4,5,6,7,8"],
    # load checks the character tables without p_blocks and its primes
    ["verify-db"],
], ids=" ".join)
def test_cli_table_query_loads_no_fractions_or_random(args):
    result = _run_fresh(_STDLIB_PROBE, *args, site=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "loaded: []"


# p-blocks and the Schur-path heuristic on G4 in an interpreter where any
# import of sympy fails.
_NO_SYMPY_BLOCKS = (
    "import json, sys\n"
    "sys.modules['sympy'] = None\n"
    "from heckeblocks.engine import blocks_no_hyperplane\n"
    "from heckeblocks.groupblocks import p_blocks\n"
    "from heckeblocks.store import load_group\n"
    "g4 = load_group('G4')\n"
    "for p in (2, 3):\n"
    "    print(json.dumps([p_blocks(g4.character_table, p).as_lists(),\n"
    "                      blocks_no_hyperplane(g4, p).as_lists()]))\n"
)


def test_p_blocks_and_heuristic_run_without_sympy():
    result = _run_fresh(_NO_SYMPY_BLOCKS)
    assert result.returncode == 0, result.stderr
    singletons = [[i] for i in range(1, 8)]
    assert [json.loads(line) for line in result.stdout.splitlines()] == [
        [[[1, 2, 3, 4, 5, 6, 7]], singletons],
        [[[1, 2, 3], [4, 5, 6], [7]], singletons],
    ]


def test_cli_all_blocks_name_mode():
    result = invoke(["all-blocks", "G4"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "No essential hyperplane"
    assert lines[1] == (
        '[["phi{1,0}"],["phi{1,4}"],["phi{1,8}"],["phi{2,5}"],'
        '["phi{2,3}"],["phi{2,1}"],["phi{3,2}"]]'
    )


def test_cli_index_and_name_modes_agree():
    by_index = invoke(["all-blocks", "G6", "--display", "index"])
    by_name = invoke(["all-blocks", "G6", "--display", "name"])
    assert by_index.exit_code == by_name.exit_code == 0
    g6 = load_group("G6")
    names = [c.render() for c in g6.characters]
    translated = []
    for line in by_index.output.splitlines():
        if line.startswith("["):
            blocks = json.loads(line)
            translated.append(json.dumps(
                [[names[i - 1] for i in part] for part in blocks],
                separators=(",", ":"),
            ))
        else:
            translated.append(line)
    assert translated == by_name.output.splitlines()


def test_cli_rouquier_blocks_and_arity():
    result = invoke(
        ["rouquier-blocks", "G4", "--exponents", "0,1,2", "--display", "index"],
    )
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "Essential hyperplanes hit: c_0-2c_1+c_2=0",
        "[[1],[2,5,7],[3],[4],[6]]",
    ]
    result = invoke(["rouquier-blocks", "G4", "--exponents", "0,1"])
    assert result.exit_code == 4
    result = invoke(["rouquier-blocks", "G4", "--exponents", "a,b,c"])
    assert result.exit_code == 4


@pytest.mark.parametrize("exponents", [
    ["--exponents", "-1,0,1"], ["--exponents=-1,0,1"],
], ids=["separate", "attached"])
def test_cli_exponents_may_start_with_a_minus(exponents):
    result = invoke(["rouquier-blocks", "G4", *exponents, "--display", "index"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "Essential hyperplanes hit: c_0-2c_1+c_2=0",
        "[[1],[2,5,7],[3],[4],[6]]",
    ]


@pytest.fixture()
def g7_schur_db(tmp_path):
    """G7 cut down to its three characters with Schur data: a full Schur
    payload, no hyperplane tables and no links."""
    doc = json.loads((Path(heckeblocks.__file__).parent / "data" / "g7.json")
                     .read_text())
    doc["characters"] = list(doc["schur_x"])
    del doc["hyperplane_tables"]
    (tmp_path / "g7.json").write_text(json.dumps(doc))
    return tmp_path


_G7_SCHUR_HIT_AT_ZERO = (
    "Essential hyperplanes hit: c_0-c_1=0, c_0-c_2=0, b_0-b_1=0, b_0-b_2=0, "
    "a_0-a_1-2b_0+b_1+b_2-2c_0+c_1+c_2=0, a_0-a_1-b_0-b_1+2b_2-c_0+2c_1-c_2=0, "
    "a_0-a_1-b_0+2b_1-b_2-c_0-c_1+2c_2=0, a_0-a_1-b_1+b_2+c_1-c_2=0, "
    "a_0-a_1=0, a_0-a_1+b_1-b_2-c_1+c_2=0, a_0-a_1+b_0-b_1+c_0-c_2=0, "
    "a_0-a_1+b_0-b_2+c_0-c_1=0, a_0-a_1+2b_0-b_1-b_2+2c_0-c_1-c_2=0"
)


@pytest.mark.parametrize("exponents, expected", [
    ("0,0,0,0,0,0,0,0", [_G7_SCHUR_HIT_AT_ZERO, "[[1,2,3]]"]),
    ("2,-1,1,0,-1,3,-2,-1", [
        "Essential hyperplanes hit: a_0-a_1-b_0+2b_1-b_2-c_0-c_1+2c_2=0",
        "[[1],[2],[3]]",
    ]),
])
def test_cli_schur_path_end_to_end(g7_schur_db, monkeypatch, exponents,
                                   expected):
    monkeypatch.setenv("HECKE_DB", str(g7_schur_db))
    originals = {
        "blocks_no_hyperplane": heckeblocks.engine.blocks_no_hyperplane,
        "essential_normals": heckeblocks.schur.essential_normals,
        "bad_primes": heckeblocks.schur.bad_primes,
    }
    calls = {name: [] for name in originals}

    def counting(name):
        def counted(*args):
            result = originals[name](*args)
            calls[name].append((args[1:], result))
            return result
        return counted

    for name, original in originals.items():
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("heckeblocks") and \
                    vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counting(name))
    result = invoke(["rouquier-blocks", "G7", "--path", "schur",
                     "--display", "index", "--exponents", exponents])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == expected
    # the bad primes once per query, the no-hyperplane blocks once per prime
    [(_, primes)] = calls["bad_primes"]
    assert [args for args, _ in calls["blocks_no_hyperplane"]] == \
        [(p,) for p in sorted(primes)]
    # the p-essential normals once per prime, to find the hyperplanes hit
    assert len(calls["essential_normals"]) == len(primes)


def test_schur_index_agrees_with_recomputation(g7_schur_db):
    """Every indexed norm, weight and essential set of G4, G6, G7 and the
    cut G7 database equals its recomputation, and G7 cut by _replace reads
    the same entries, by label, as the cut database loaded fresh."""
    g7, cut = load_group("G7"), load(g7_schur_db / "g7.json")
    for g in (load_group("G4"), load_group("G6"), g7, cut):
        elements = g.schur_elements or {}
        assert set(g.schur_facts or {}) == set(elements)
        primes = set(factorint(g.group_order))
        for label, s in elements.items():
            facts = g.schur_facts[label]
            assert facts.norm == abs(s.xi.norm())
            assert facts.weight == aa_weight(s)
            assert {p for p, _ in facts.essential} <= primes
            for p in sorted(primes) + [5, 7, 11]:
                assert {h for q, h in facts.essential if q == p} == \
                    essential_monomials(s, p), (label, p)
    assert len(g7.schur_facts) == 3
    by_replace = g7._replace(characters=tuple(g7.schur_elements))
    for p in (2, 3, 5):
        assert blocks_no_hyperplane(by_replace, p) == \
            blocks_no_hyperplane(cut, p)
        for h in sorted(essential_normals(cut, [p])):
            assert blocks_one_hyperplane(by_replace, p, Hyperplane(h)) == \
                blocks_one_hyperplane(cut, p, Hyperplane(h))


def _drop_tables(doc):
    del doc["hyperplane_tables"]


def _unbalance_normal(doc):
    doc["hyperplane_tables"][1]["normal"] = [0, 1, 1]


# One row per library error the command line maps to an exit code, each run
# against a copy of the database, rewritten where a row names a file.
@pytest.mark.parametrize("args, rewritten, code, message", [
    (["essential-hyperplanes", "G4", "--prime", "5"], None, 2,
     "Error, The number p should divide the order of the group"),
    (["all-blocks", "G99"], None, 3, "no database file for G99 in {db}"),
    (["rouquier-blocks", "G7", "--path", "schur",
      "--exponents", "0,0,0,0,0,0,0,0"], None, 3,
     "full Schur payload not stored for G7"),
    # the datum's name, not the name as typed
    (["all-blocks", "g7"], ("g7.json", _drop_tables), 3,
     "no hyperplane tables stored for G7"),
    (["essential-hyperplanes", "G4"], ("g4.json", _drop_tables), 3,
     "no hyperplane tables stored for G4"),
    (["rouquier-blocks", "G4", "--exponents", "a,b,c"], None, 4,
     "cannot parse exponents 'a,b,c'"),
    (["rouquier-blocks", "g4", "--exponents", "1,2"], None, 4,
     "G4 needs 3 exponents, got 2"),
    (["all-blocks", "G4"], ("g4.json", _unbalance_normal), 5,
     "{db}/g4.json: hyperplane_tables[1]: "
     "normal (0, 1, 1) has nonzero orbit sums"),
], ids=["bad prime", "unknown group", "schur path on full G7",
        "no tables", "no tables, essential hyperplanes",
        "unparsable exponents", "wrong arity", "corrupt file"])
def test_cli_exit_code_and_message(db_copy, monkeypatch, args, rewritten,
                                   code, message):
    if rewritten is not None:
        rewrite(db_copy, *rewritten)
    monkeypatch.setenv("HECKE_DB", str(db_copy))
    result = invoke(args)
    assert result.exception is None
    assert (result.exit_code, result.stdout, result.stderr) == \
        (code, "", message.format(db=db_copy) + "\n")


@pytest.mark.parametrize("args", [
    ["all-blocks", "G4"],
    ["all-blocks", "G7", "--display", "name"],
    ["verify-db", "{db}/g4.json"],
], ids=["at main's flush", "while printing", "failed verify-db"])
def test_cli_closed_output_pipe_exits_one_without_traceback(db_copy, args):
    """A reader that closes its end before reading, as `| head -1` may, with
    stdout block-buffered (PYTHONUNBUFFERED unset): all-blocks G4 meets the
    closed pipe at main's flush, all-blocks G7 (8.5 kB) while printing, and
    verify-db on a corrupt file before it exits 5."""
    rewrite(db_copy, "g4.json", _unbalance_normal)
    env = _fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", "from heckeblocks.cli import main; main()",
         *(arg.format(db=db_copy) for arg in args)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""


def test_cli_verify_db_ok_and_corrupt(db_copy):
    result = invoke(["verify-db"])
    assert result.exit_code == 0 and result.output.strip() == "ok"
    path = rewrite(
        db_copy, "g4.json",
        lambda d: d["hyperplane_tables"][1].__setitem__("normal", [0, 1, 1]),
    )
    result = invoke(["verify-db", str(path)])
    assert result.exit_code == 5 and result.output.strip()


def test_cli_honours_hecke_db_env(db_copy, monkeypatch):
    rewrite(
        db_copy, "g4.json",
        lambda d: d.__setitem__("group_order", 24) or
        d["hyperplane_tables"].pop(),
    )
    monkeypatch.setenv("HECKE_DB", str(db_copy))
    result = invoke(["all-blocks", "G4", "--display", "index"])
    assert result.exit_code == 0
    # the env-modified copy lost its last table
    assert len(result.output.splitlines()) == 12
