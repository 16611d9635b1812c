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
    assert not ok and any("disagree with the stored table" in line
                          for line in report)


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
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_document_ends_in_store_error(db_copy, monkeypatch, case):
    name, mutate = _MALFORMED[case]
    path = rewrite(db_copy, name, mutate)
    with pytest.raises(StoreError) as err:
        load(path)
    assert err.value.report
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
        except StoreError:
            pass
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


def test_store_error_collects_reports(db_copy):
    path = rewrite(
        db_copy, "g4.json",
        lambda d: d["hyperplane_tables"][1].__setitem__("normal", [0, 2, -2]),
    )
    with pytest.raises(StoreError) as err:
        load(path)
    assert err.value.report


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_essential_hyperplanes_listing():
    result = invoke(["essential-hyperplanes", "G4", "--prime", "3"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "c_1-c_2=0", "c_0-c_1=0", "c_0-c_2=0",
    ]


def test_cli_essential_hyperplanes_bad_prime():
    result = invoke(["essential-hyperplanes", "G4", "--prime", "5"])
    assert result.exit_code == 2
    assert "Error, The number p should divide the order of the group" \
        in result.output


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


def _run_fresh(code, *args, site=True):
    """Run Python code in a fresh interpreter with the package importable;
    site=False starts it with -S, without the site module."""
    env = dict(os.environ)
    src = str(Path(heckeblocks.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *([] if site else ["-S"]), "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=60,
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


def test_cli_table_query_loads_no_fractions_or_random():
    result = _run_fresh(_STDLIB_PROBE, "all-blocks", "G4", site=False)
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


def test_cli_schur_path_requires_full_payload():
    result = invoke(
        ["rouquier-blocks", "G7", "--exponents", "0,0,0,0,0,0,0,0",
         "--path", "schur"],
    )
    assert result.exit_code == 3


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


def test_cli_unknown_group_exits_three():
    result = invoke(["all-blocks", "G99"])
    assert result.exit_code == 3


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
