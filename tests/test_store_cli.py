"""Database loading, validation (including seeded corruptions), and the
command-line surface with its exit-code contract."""

import copy
import functools
import json
import shutil
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

import cli_probes
from cli_probes import MAIN, PIPES, REQUESTS, pipe, run_fresh
from cli_runner import invoke
from malformed_cases import LOCATIONS, MALFORMED, SHIPPED, matches, rewrite

# file name -> the shipped document
_SHIPPED = {path.name: json.loads(path.read_text())
            for path in sorted(SHIPPED.glob("*.json"))}


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


@pytest.mark.parametrize("name, mu", [("G4", 6), ("G6", 12), ("G7", 12)])
def test_mu_order_is_derived_from_the_field(name, mu):
    """|mu(K)| = lcm(2, m) for K = Q(zeta_m); no file stores it."""
    assert load_group(name).mu_order == mu
    assert "mu_order" not in _SHIPPED[f"{name.lower()}.json"]


def test_links_name_only_their_parent():
    """A link lives in its child's file: the child is the file's group."""
    for name in ("G4", "G6"):
        assert all({"child", "child_characters"}.isdisjoint(link)
                   for link in _SHIPPED[f"{name.lower()}.json"]["clifford_links"])
        g = load_group(name)
        link, = g.clifford_links
        assert (link.child, link.child_characters) == (name, g.characters)


def test_a_file_holding_another_group_is_rejected(db_copy, monkeypatch):
    """A copy of g6.json saved as g7.json once verified and printed G6's
    tables for all-blocks G7."""
    shutil.copy(db_copy / "g6.json", db_copy / "g7.json")
    ok, report = verify_db(sorted(db_copy.glob("*.json")))
    assert not ok and report == [
        f"{db_copy / 'g7.json'}: header: group G6 belongs in g6.json, "
        "not g7.json"]
    monkeypatch.setenv("HECKE_DB", str(db_copy))
    assert invoke(["all-blocks", "G7"]).exit_code == 5


def test_missing_file_raises_filenotfound(tmp_path, monkeypatch):
    monkeypatch.setenv("HECKE_DB", str(tmp_path))
    with pytest.raises(FileNotFoundError):
        load_group("G4")


@pytest.mark.parametrize("group", ["{db}/g4", "../data/g4"],
                         ids=["absolute path", "relative path"])
def test_group_is_a_name_not_a_path(db_copy, monkeypatch, group):
    """GROUP was joined onto the database directory: an absolute path
    loaded a copy outside the database, and ../data/g4 the shipped G4."""
    monkeypatch.delenv("HECKE_DB", raising=False)
    group = group.format(db=db_copy)
    result = invoke(["all-blocks", group])
    assert (result.exit_code, result.stdout, result.stderr) == \
        (3, "", f"no database file for {group} in {default_db_dir()}\n")


def _swap_g6_parts(doc):
    """Swap two parts of G6's c_0-c_1=0 table, which both links check: G7's
    tables transport onto it, and it transports onto G4's c_0-c_1=0."""
    table = next(t for t in doc["hyperplane_tables"]
                 if t.get("normal") == [0, 0, 1, -1, 0])
    table["blocks"] = [[1, 4], [2], [3, 5], [9, 10, 11, 12], [7, 8],
                       [6], [13], [14]]


_DISAGREE = "transported blocks disagree with the stored table at"


@pytest.mark.parametrize("name, mutate, report", [
    ("g6.json", _swap_g6_parts, [
        f"{{db}}/g4.json: clifford_links[0]: G6->G4: {_DISAGREE} (1, -1, 0)",
        f"{{db}}/g6.json: clifford_links[0]: G7->G6: {_DISAGREE} "
        "(0, 0, 1, -1, 0)"]),
    # g4.json's link stored no induction rows, and verify-db skipped it
    ("g4.json", lambda doc: doc["hyperplane_tables"][1].update(
        blocks=[[1], [2, 3], [4], [5, 6], [7]]),
     [f"{{db}}/g4.json: clifford_links[0]: G6->G4: {_DISAGREE} (0, 1, -1)"]),
], ids=["G6 table", "G4 table"])
def test_corruption_transport_mismatch(db_copy, name, mutate, report):
    """Each copy loads; verify-db's cross-check of the links finds it."""
    rewrite(db_copy, name, mutate)
    ok, lines = verify_db(sorted(db_copy.glob("*.json")))
    assert not ok and lines == [line.format(db=db_copy) for line in report]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_ends_in_store_error(db_copy, monkeypatch, case):
    """Also after a good load of the same file has filled the memos."""
    name, mutate, report = MALFORMED[case]
    load(db_copy / name)
    path = rewrite(db_copy, name, mutate)
    start = time.monotonic()
    with pytest.raises(StoreError) as err:
        load(path)
    assert time.monotonic() - start < 1.0
    assert matches(err.value.report, report), err.value.report
    result = invoke(["verify-db", str(path)])
    assert result.exit_code == 5
    assert matches(result.stdout.splitlines(),
                   [f"{path}: {line}" for line in report]), result.output
    monkeypatch.setenv("HECKE_DB", str(db_copy))
    group = name.removesuffix(".json").upper()
    zeros = ",".join("0" * (8 if group == "G7" else 3))
    result = invoke(["rouquier-blocks", group, "--exponents", zeros])
    assert result.exit_code == 5


def test_deeply_nested_document_ends_in_store_error(db_copy, monkeypatch):
    """200 000 nested lists, which json.dumps cannot write and so
    MALFORMED cannot hold: json.loads raised RecursionError, and the
    command line died with a traceback and exit 1."""
    path = db_copy / "g4.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    with pytest.raises(StoreError) as err:
        load(path)
    assert matches(err.value.report, ["cannot parse: "]), err.value.report
    monkeypatch.setenv("HECKE_DB", str(db_copy))
    for args in (["verify-db"], ["all-blocks", "G4"]):
        run = run_fresh(MAIN, *args)
        assert run.returncode == 5, run.stderr
        assert "Traceback" not in run.stderr
        assert matches((run.stdout + run.stderr).splitlines(),
                       [f"{path}: cannot parse: "]), run.stdout + run.stderr


def _node_paths(node, path=()):
    """Every path into a JSON document, the root excluded."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


_TARGETS = [(name, path) for name, doc in _SHIPPED.items()
            for path in _node_paths(doc)]
_OTHER_TYPES = [None, "x", 1.5, -7, True, [], {}, [1, "x"], {"k": 0}]
_LOCATIONS = LOCATIONS + ("cannot parse",)


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


def test_cli_usage_error_exit_code_reaches_the_process():
    result = run_fresh(MAIN, "rouquier-blocks", "G4")
    assert result.returncode == 4
    assert "the following arguments are required: --exponents" \
        in result.stderr


# Each row's fresh interpreter starts once; the tests below read its faults.
probe = functools.cache(cli_probes.probe)


@pytest.mark.parametrize("case", REQUESTS)
def test_cli_request_imports_no_watched_module(case):
    assert probe(case) == []


# Earlier tests of one to three watched modules, kept under their names and
# ids: each now reads its row's probe of all six and of site-packages.
@pytest.mark.parametrize("args", [case.split() for case in [
    "all-blocks G7", "rouquier-blocks G4 --path tables --exponents 0,1,2",
    "essential-hyperplanes G4 -p 0", "verify-db",
    "rouquier-blocks G4 --path schur --exponents 0,1,2"]])
def test_cli_table_queries_never_import_sympy(args):
    assert probe(" ".join(args)) == []


@pytest.mark.parametrize("args", [["all-blocks", "G7"], ["verify-db"]])
def test_cli_does_not_import_dataclasses(args):
    assert probe(" ".join(args)) == []


@pytest.mark.parametrize("case", [
    "all-blocks G4", "all-blocks G7",
    "rouquier-blocks G7 --exponents 1,2,3,4,5,6,7,8", "verify-db"])
def test_cli_table_query_loads_no_fractions_or_random(case):
    assert probe(case) == []


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
    result = run_fresh(_NO_SYMPY_BLOCKS)
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


def test_cli_index_and_name_modes_agree(g6):
    by_index = invoke(["all-blocks", "G6", "--display", "index"])
    by_name = invoke(["all-blocks", "G6", "--display", "name"])
    assert by_index.exit_code == by_name.exit_code == 0
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
    doc = copy.deepcopy(_SHIPPED["g7.json"])
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
        "_heuristic_groups": heckeblocks.engine._heuristic_groups,
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
    # the bad primes once per query, the seed groups off every hyperplane
    # once per prime
    [(_, primes)] = calls["bad_primes"]
    assert [args for args, _ in calls["_heuristic_groups"]
            if len(args) == 1] == [(p,) for p in sorted(primes)]
    # the p-essential normals once per prime, to find the hyperplanes hit
    assert len(calls["essential_normals"]) == len(primes)


def test_schur_index_agrees_with_recomputation(g7_schur_db, g4, g6, g7):
    """Every indexed norm, weight and essential set of G4, G6, G7 and the
    cut G7 database equals its recomputation, and G7 cut by _replace reads
    the same entries, by label, as the cut database loaded fresh."""
    cut = load(g7_schur_db / "g7.json")
    for g in (g4, g6, g7, cut):
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


def _emptied(db):
    for path in db.glob("*.json"):
        path.unlink()
    return db


_unbalance_normal = MALFORMED["normal with nonzero orbit sums"][1]
_, _split_baseline_block, [_SPLIT_LINE] = \
    MALFORMED["table splits a baseline block"]


def test_table_splitting_a_baseline_block_is_one_located_line(db_copy):
    """The copy loaded and verified ok, and a query on the split table
    exited 0 with the baseline joined back over the split; stdout and
    stderr together are the one located line."""
    path = rewrite(db_copy, "g7.json", _split_baseline_block)
    with pytest.raises(StoreError) as err:
        load(path)
    assert err.value.report == [_SPLIT_LINE]
    result = invoke(["verify-db", str(path)])
    assert (result.exit_code, result.output) == (5, f"{path}: {_SPLIT_LINE}\n")


# One row per library error the command line maps to an exit code, each run
# against a copy of the database, rewritten or replaced as the row says.
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
    (["rouquier-blocks", "G7", "--exponents", "0,0,0,0,0,0,1,1"],
     ("g7.json", _split_baseline_block), 5, "{db}/g7.json: " + _SPLIT_LINE),
    # verify-db once printed ok for a database of no files
    (["verify-db"], _emptied, 3, "no database files in {db}"),
    (["verify-db"], lambda db: db / "missing", 3,
     "no database files in {db}/missing"),
], ids=["bad prime", "unknown group", "schur path on full G7",
        "no tables", "no tables, essential hyperplanes",
        "unparsable exponents", "wrong arity", "corrupt file",
        "table splitting a baseline block", "empty database directory",
        "missing database directory"])
def test_cli_exit_code_and_message(db_copy, monkeypatch, args, rewritten,
                                   code, message):
    db = db_copy
    if callable(rewritten):
        db = rewritten(db_copy)
    elif rewritten is not None:
        rewrite(db_copy, *rewritten)
    monkeypatch.setenv("HECKE_DB", str(db))
    result = invoke(args)
    assert result.exception is None
    assert (result.exit_code, result.stdout, result.stderr) == \
        (code, "", message.format(db=db_copy) + "\n")


@pytest.mark.parametrize("case", PIPES)
def test_cli_closed_output_pipe_exits_one_without_traceback(case):
    assert pipe(case) == []


def test_cli_verify_db_ok_and_corrupt(db_copy):
    result = invoke(["verify-db"])
    assert result.exit_code == 0 and result.output.strip() == "ok"
    path = rewrite(db_copy, "g4.json", _unbalance_normal)
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
