"""Database loading, validation (including seeded corruptions), and the
command-line surface with its exit-code contract."""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import heckeblocks
from heckeblocks.cli import main
from heckeblocks.store import StoreError, default_db_dir, load, load_group, verify_db


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
def test_corruption_bad_table_primes(db_copy, runner, primes):
    path = rewrite(
        db_copy, "g4.json",
        lambda d: d["hyperplane_tables"][1].__setitem__("primes", primes),
    )
    with pytest.raises(StoreError) as err:
        load(path)
    assert any("primes" in line for line in err.value.report)
    result = runner.invoke(main, ["verify-db", str(path)])
    assert result.exit_code == 5


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


@pytest.fixture()
def runner():
    return CliRunner()


def test_cli_essential_hyperplanes_listing(runner):
    result = runner.invoke(main, ["essential-hyperplanes", "G4", "--prime", "3"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "c_1-c_2=0", "c_0-c_1=0", "c_0-c_2=0",
    ]


def test_cli_essential_hyperplanes_bad_prime(runner):
    result = runner.invoke(main, ["essential-hyperplanes", "G4", "--prime", "5"])
    assert result.exit_code == 2
    assert "Error, The number p should divide the order of the group" \
        in result.output


@pytest.mark.parametrize("prime", ["1", "-3", "1000000000000000000000007"])
def test_cli_prime_outside_the_group_order_exits_two_quickly(runner, prime):
    start = time.monotonic()
    result = runner.invoke(main, ["essential-hyperplanes", "G4", "-p", prime])
    assert time.monotonic() - start < 1.0
    assert result.exit_code == 2
    assert "Error, The number p should divide the order of the group" \
        in result.output


# Runs the CLI in a fresh interpreter and reports at exit whether sympy
# was ever imported.
_SYMPY_PROBE = (
    "import atexit, sys\n"
    "atexit.register(lambda: print('sympy loaded:', 'sympy' in sys.modules))\n"
    "from heckeblocks.cli import main\n"
    "main()\n"
)


@pytest.mark.parametrize("args", [
    ["all-blocks", "G7"],
    ["rouquier-blocks", "G4", "--path", "tables", "--exponents", "0,1,2"],
    ["essential-hyperplanes", "G4", "-p", "0"],
    ["verify-db"],
])
def test_cli_table_queries_never_import_sympy(args):
    env = dict(os.environ)
    src = str(Path(heckeblocks.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _SYMPY_PROBE, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "sympy loaded: False"


def test_cli_all_blocks_name_mode(runner):
    result = runner.invoke(main, ["all-blocks", "G4"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "No essential hyperplane"
    assert lines[1] == (
        '[["phi{1,0}"],["phi{1,4}"],["phi{1,8}"],["phi{2,5}"],'
        '["phi{2,3}"],["phi{2,1}"],["phi{3,2}"]]'
    )


def test_cli_index_and_name_modes_agree(runner):
    by_index = runner.invoke(main, ["all-blocks", "G6", "--display", "index"])
    by_name = runner.invoke(main, ["all-blocks", "G6", "--display", "name"])
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


def test_cli_rouquier_blocks_and_arity(runner):
    result = runner.invoke(
        main,
        ["rouquier-blocks", "G4", "--exponents", "0,1,2", "--display", "index"],
    )
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "Essential hyperplanes hit: c_0-2c_1+c_2=0",
        "[[1],[2,5,7],[3],[4],[6]]",
    ]
    result = runner.invoke(main, ["rouquier-blocks", "G4", "--exponents", "0,1"])
    assert result.exit_code == 4
    result = runner.invoke(main, ["rouquier-blocks", "G4", "--exponents", "a,b,c"])
    assert result.exit_code == 4


def test_cli_schur_path_requires_full_payload(runner):
    result = runner.invoke(
        main,
        ["rouquier-blocks", "G7", "--exponents", "0,0,0,0,0,0,0,0",
         "--path", "schur"],
    )
    assert result.exit_code == 3


def test_cli_unknown_group_exits_three(runner):
    result = runner.invoke(main, ["all-blocks", "G99"])
    assert result.exit_code == 3


def test_cli_verify_db_ok_and_corrupt(runner, db_copy):
    result = runner.invoke(main, ["verify-db"])
    assert result.exit_code == 0 and result.output.strip() == "ok"
    path = rewrite(
        db_copy, "g4.json",
        lambda d: d["hyperplane_tables"][1].__setitem__("normal", [0, 1, 1]),
    )
    result = runner.invoke(main, ["verify-db", str(path)])
    assert result.exit_code == 5 and result.output.strip()


def test_cli_honours_hecke_db_env(runner, db_copy, monkeypatch):
    rewrite(
        db_copy, "g4.json",
        lambda d: d.__setitem__("group_order", 24) or
        d["hyperplane_tables"].pop(),
    )
    monkeypatch.setenv("HECKE_DB", str(db_copy))
    result = runner.invoke(main, ["all-blocks", "G4", "--display", "index"])
    assert result.exit_code == 0
    # the env-modified copy lost its last table
    assert len(result.output.splitlines()) == 12
