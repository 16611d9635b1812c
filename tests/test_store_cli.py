"""Database loading, validation (including seeded corruptions), and the
command-line surface with its exit-code contract."""

import copy
import json
import random
import shlex
import shutil
import tempfile
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeblocks import engine, store
from heckeblocks.cyclo import factorint
from heckeblocks.engine import (
    Hyperplane,
    blocks_no_hyperplane,
    blocks_one_hyperplane,
)
from heckeblocks.schur import (Characters, aa_weight, essential_monomials,
                               essential_normals)
from heckeblocks.store import StoreError, default_db_dir, load, load_group, verify_db

from checks import once, patch_everywhere, write_g7_cut
from cli_probes import (HEAP, IMPORTS, MAIN, PIPES, REQUESTS, heap, imports,
                        pipe, probe, run_fresh)
from cli_runner import invoke
from malformed_cases import (
    LOCATIONS,
    MALFORMED,
    SHIPPED,
    WALK_ROWS,
    matches,
    misspelt,
    rewrite,
    sweep_faults,
)

# file name -> the shipped document
_SHIPPED = {path.name: json.loads(path.read_text())
            for path in sorted(SHIPPED.glob("*.json"))}


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------


# test_acceptance.py's database criterion (criterion 9) asserts this check
# too; `once` runs it once per session.
@once
def check_shipped_database_verifies():
    ok, report = verify_db()
    assert ok and report == []


def test_shipped_database_verifies():
    check_shipped_database_verifies()


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


@pytest.mark.parametrize("name", ["G4", "G6", "G7"])
def test_slot_layout_matches_the_raw_header(name):
    """The slot layout load builds once per datum gives the slot count,
    names, orbit ranges and orbit sums that the raw header's orbits spell
    out, and a _replace view reads the same layout.  Each orbit's slots are
    found by their letter, which the header keeps distinct."""
    g = load_group(name)
    orbits = _SHIPPED[f"{name.lower()}.json"]["orbits"]
    names = [letter + str(j) for letter, e in orbits for j in range(e)]
    slots = [[k for k, slot in enumerate(names) if slot[0] == letter]
             for letter, _ in orbits]
    assert g.slot_count == len(names) == sum(e for _, e in orbits)
    assert g.slot_names() == tuple(names)
    assert [list(r) for r in g.orbits.ranges] == slots
    rng = random.Random(f"slot layout {name}")
    for _ in range(20):
        v = tuple(rng.randint(-9, 9) for _ in names)
        assert g.orbit_sums(v) == [sum(v[k] for k in ks) for ks in slots]
    view = g._replace(hyperplane_tables=None)
    assert view.orbits is g.orbits and view.slot_names() is g.slot_names()


def _equation(normal, orbits) -> str:
    """The README's spelling of the hyperplane with this normal: for each
    nonzero coefficient c at slot j of orbit C, the sign of c, then |c|
    unless it is 1, then C_j; the leading + dropped, then =0."""
    slots = [f"{letter}_{j}" for letter, e in orbits for j in range(e)]
    terms = "".join(("-" if c < 0 else "+")
                    + (str(abs(c)) if abs(c) != 1 else "") + slot
                    for slot, c in zip(slots, normal) if c)
    return terms.removeprefix("+") + "=0"


@pytest.mark.parametrize("name", ["G4", "G6", "G7"])
def test_labels_and_stored_hyperplanes_render_as_the_raw_file(name):
    """Each label renders as the file spells it and each stored hyperplane
    as _equation spells its raw normal; rendering again returns the same
    str object, read from the memo, and a list of slot names renders as
    their tuple does."""
    doc = _SHIPPED[f"{name.lower()}.json"]
    g = load_group(name)
    assert [c.render() for c in g.characters] == doc["characters"]
    assert all(c.render() is c.render() is str(c) for c in g.characters)
    names = g.slot_names()
    normals = [t.get("normal") for t in doc["hyperplane_tables"]]
    assert len(normals) == len(g.hyperplane_tables)
    for hyperplane, normal in zip((t.hyperplane for t in g.hyperplane_tables),
                                  normals):
        if normal is None:
            assert hyperplane is None
            continue
        text = hyperplane.render(names)
        assert text == _equation(normal, doc["orbits"])
        assert hyperplane.render(names) is text
        assert hyperplane.render(list(names)) is text


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


def test_a_group_in_two_files_is_one_located_line(db_copy):
    """A clean G6 named after the corrupt one once replaced it, and verify-db
    printed ok; a path named twice is read once."""
    clean = db_copy / "b" / "g6.json"
    clean.parent.mkdir()
    shutil.copy(db_copy / "g6.json", clean)
    rewrite(db_copy, "g6.json", _swap_g6_parts)
    paths = [str(db_copy / name) for name in ("g4.json", "g6.json", "g7.json")]
    result = invoke(["verify-db", *paths, paths[0], str(clean)])
    assert (result.exit_code, result.stdout.splitlines()) == (5, [
        f"{clean}: header: group G6 is also in {db_copy / 'g6.json'}",
        f"{db_copy / 'g4.json'}: clifford_links[0]: G6->G4: {_DISAGREE} "
        "(1, -1, 0)",
        f"{db_copy / 'g6.json'}: clifford_links[0]: G7->G6: {_DISAGREE} "
        "(0, 0, 1, -1, 0)"])


@pytest.mark.parametrize("spelling, report", [
    ("{db}/a/../g6.json", []),
    ("{db}/link/g6.json", []),
    ("{db}/b/g6.json", ["{db}/b/g6.json: header: group G6 is also in "
                        "{db}/g6.json"]),
], ids=["dot-dot", "symlinked directory", "second file"])
def test_one_file_under_two_spellings_is_read_once(db_copy, spelling, report):
    """a/../g6.json was read again and reported as a second file of G6."""
    (db_copy / "a").mkdir()
    (db_copy / "b").mkdir()
    shutil.copy(db_copy / "g6.json", db_copy / "b")
    (db_copy / "link").symlink_to(db_copy)
    paths = [str(db_copy / name) for name in ("g4.json", "g6.json", "g7.json")]
    result = invoke(["verify-db", *paths, spelling.format(db=db_copy)])
    lines = [line.format(db=db_copy) for line in report]
    assert (result.exit_code, result.stdout.splitlines()) == \
        ((5, lines) if lines else (0, ["ok"]))


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
    # a fault the schema walk alone reports is the sweep's, not a row's,
    # but for the named WALK_ROWS
    faults = []
    store._walk(store._DOCUMENT, json.loads(path.read_text()), faults)
    walk_only = report == [f"{''.join(at) or 'header'}: {message}"
                           for at, message in faults]
    assert walk_only == (case in WALK_ROWS), "a walk-only row"
    result = invoke(["verify-db", str(path)])
    assert result.exit_code == 5
    assert matches(result.stdout.splitlines(),
                   [f"{path}: {line}" for line in report]), result.output
    monkeypatch.setenv("HECKE_DB", str(db_copy))
    group = name.removesuffix(".json").upper()
    zeros = ",".join("0" * (8 if group == "G7" else 3))
    result = invoke(["rouquier-blocks", group, "--exponents", zeros])
    assert result.exit_code == 5


def test_generated_type_faults_are_one_located_line():
    """malformed_cases.sweep(): each wrong JSON type, integer out of its
    range, dropped required key, misspelt key, added optional key and wrong
    pair length, at every node a shipped file has."""
    names, faults = sweep_faults()
    assert not faults, faults[:10]
    for part in ["].conductor float", "].coeffs string", "] with lead_den ",
                 " one item more", " one item fewer", "] with lead_den 0",
                 ".twist[0] 0", ".coeff.conductor 1001",
                 "g4.json header.field_conductor 0",
                 "g4.json character_table.conductor 0"]:
        assert any(part in name for name in names), part


# The sweep gives each range 0 and its bound plus 1; these values lie
# further out.  Both once escaped as other faults: a field conductor of -12 verified
# ok, and a table conductor of -3 gave seven lines of Python's own words.
@pytest.mark.parametrize("name, mutate, line", [
    ("g6.json", lambda doc: doc.update(field_conductor=-12),
     "header.field_conductor: -12 is not a positive integer"),
    ("g4.json", lambda doc: doc["character_table"].update(conductor=-3),
     "character_table.conductor: -3 is not a positive integer"),
], ids=["field conductor -12", "table conductor -3"])
def test_integer_far_below_its_range_is_one_located_line(db_copy, name,
                                                         mutate, line):
    path = rewrite(db_copy, name, mutate)
    with pytest.raises(StoreError) as err:
        load(path)
    assert err.value.report == [line]
    result = invoke(["verify-db", str(path)])
    assert (result.exit_code, result.output) == (5, f"{path}: {line}\n")


def _schema_keys(schema):
    """Every object key the database schema names."""
    if isinstance(schema, dict):
        for key, item in schema.items():
            if key is not str:
                yield key.rstrip("?")
            yield from _schema_keys(item)
    elif isinstance(schema, (list, tuple)):
        for item in schema:
            yield from _schema_keys(item)


def test_readme_names_every_schema_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Database format")[1].split("\n## ")[0]
    missing = {key for key in _schema_keys(store._DOCUMENT)
               if f"`{key}`" not in section}
    assert not missing, sorted(missing)


def _readme_examples():
    """A pytest.param of (arguments, expected lines), named by the
    arguments, for each `$ heckeblocks ...` example of README's "Command
    line" block: the lines under it up to a blank line."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```text\n")[1]
    for example in block.split("```")[0].strip().split("\n\n"):
        command, *lines = example.splitlines()
        args = command.removeprefix("$ heckeblocks ")
        yield pytest.param(shlex.split(args), lines, id=args)


@pytest.mark.parametrize("args, lines", _readme_examples())
def test_readme_command_examples_print_what_the_readme_shows(monkeypatch,
                                                             args, lines):
    """Line by line on the shipped database; a ... line ends the example's
    lines, which are then a prefix of the output."""
    monkeypatch.delenv("HECKE_DB", raising=False)
    result = invoke(args)
    assert result.exit_code == 0 and result.stderr == "", result.output
    printed = result.stdout.splitlines()
    if lines[-1:] == ["..."]:
        lines, printed = lines[:-1], printed[:len(lines) - 1]
    assert printed == lines


def _unparsable(db_copy, monkeypatch, path, line):
    """path, written as JSON text that json.dumps cannot give and so
    MALFORMED cannot hold, ends in the one line in process, and in fresh
    interpreters in exit 5 without a traceback."""
    with pytest.raises(StoreError) as err:
        load(path)
    assert matches(err.value.report, [line]), err.value.report
    monkeypatch.setenv("HECKE_DB", str(db_copy))
    group = path.stem.upper()
    for args in (["verify-db"], ["all-blocks", group]):
        run = run_fresh(MAIN, *args)
        assert run.returncode == 5, run.stderr
        assert "Traceback" not in run.stderr
        assert matches((run.stdout + run.stderr).splitlines(),
                       [f"{path}: {line}"]), run.stdout + run.stderr


def test_deeply_nested_document_ends_in_store_error(db_copy, monkeypatch):
    """200 000 nested lists: json.loads raised RecursionError, and the
    command line died with a traceback and exit 1."""
    path = db_copy / "g4.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    _unparsable(db_copy, monkeypatch, path, "cannot parse: ")


def _repeat_phi_1_0(text):
    """G7's text with phi{1,0}'s Schur element stated twice."""
    element = json.dumps(_SHIPPED["g7.json"]["schur_x"]["phi{1,0}"])
    return text.replace('"schur_x": {', f'"schur_x": {{"phi{{1,0}}": {element}, ')


# json.loads kept the last of two equal keys: a G4 header that read
# "group_order": 48, "group_order": 24 verified ok
@pytest.mark.parametrize("name, repeat, key", [
    ("g4.json", lambda text: text.replace(
        '"group_order": 24', '"group_order": 48, "group_order": 24'),
     "group_order"),
    ("g7.json", _repeat_phi_1_0, "phi{1,0}"),
], ids=["header key", "schur_x label"])
def test_repeated_key_ends_in_store_error(db_copy, monkeypatch, name, repeat,
                                          key):
    path = db_copy / name
    text = json.dumps(_SHIPPED[name])
    path.write_text(repeat(text))
    assert path.read_text() != text
    _unparsable(db_copy, monkeypatch, path, f"cannot parse: repeated key {key!r}")


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
    """A shipped document with one key dropped or renamed, one value
    replaced by one of another type, or one list truncated, and why it must
    not load, if it must not: an int replaced by a float, a string or a
    bool, or a key renamed."""
    name, path = draw(st.sampled_from(_TARGETS))
    doc = copy.deepcopy(_SHIPPED[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, node = path[-1], parent[path[-1]]
    kinds = ["drop", "retype"]
    kinds += ["truncate"] if isinstance(node, list) and node else []
    kinds += ["rename"] if isinstance(parent, dict) else []
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = draw(st.sampled_from(
            [v for v in _OTHER_TYPES if type(v) is not type(node)]
            + ([float(node)] if type(node) is int else [])))
    elif kind == "rename":
        parent[misspelt(key)] = parent.pop(key)
    else:
        parent[key] = node[:draw(st.integers(0, len(node) - 1))]
    if kind == "retype" and type(node) is int and \
            type(parent[key]) in (float, str, bool):
        return name, doc, "a retyped int loaded"
    return name, doc, "a renamed key loaded" if kind == "rename" else None


@settings(max_examples=60, deadline=timedelta(seconds=5), derandomize=True)
@given(_mutated_document())
def test_mutated_documents_load_or_raise_store_error(mutated):
    name, doc, must_fail = mutated
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
            # every int is read exactly: 2.0, "2" and true are not 2 or 1;
            # and every object is closed
            assert must_fail is None, must_fail
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
    (["essential-hyperplanes", "G4", "-p", "\u0663"],
     "invalid int value: '\u0663'"),
    (["essential-hyperplanes", "G4", "-p", "1_1"], "invalid int value: '1_1'"),
    (["no-such-command"], "invalid choice: 'no-such-command'"),
], ids=["bad display", "missing exponents", "non-integer prime",
        "non-ASCII digit prime", "underscored prime", "unknown command"])
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


@pytest.mark.parametrize("case", REQUESTS)
def test_cli_request_imports_no_watched_module(case):
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
    """A database of G7 cut down to its three characters with Schur data:
    a full Schur payload, no hyperplane tables and no links."""
    write_g7_cut(tmp_path)
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
    """Loading derives the tables once; the query reads them through one
    hyperplanes_containing call and runs no heuristic."""
    monkeypatch.setenv("HECKE_DB", str(g7_schur_db))
    calls = {"derive_tables": 0, "hyperplanes_containing": 0}
    derive, scan = engine.derive_tables, engine.hyperplanes_containing

    def no_heuristic(*args):
        raise AssertionError("a query ran the heuristic")

    def deriving(g):
        calls["derive_tables"] += 1
        tables = derive(g)
        monkeypatch.setattr(engine, "_heuristic_groups", no_heuristic)
        return tables

    def scanning(tables, spec):
        calls["hyperplanes_containing"] += 1
        return scan(tables, spec)

    patch_everywhere(monkeypatch, derive, deriving)
    patch_everywhere(monkeypatch, scan, scanning)
    result = invoke(["rouquier-blocks", "G7", "--path", "schur",
                     "--display", "index", "--exponents", exponents])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == expected
    assert calls == {"derive_tables": 1, "hyperplanes_containing": 1}


def test_cli_all_blocks_prints_the_derived_tables(g7_schur_db, g7_cut,
                                                  monkeypatch):
    """all-blocks on a file with a full Schur payload and no stored tables
    prints the tables load derived: the baseline, then the 13 derived
    hyperplanes, in the order essential-hyperplanes lists them, each with
    its partition."""
    monkeypatch.setenv("HECKE_DB", str(g7_schur_db))
    result = invoke(["all-blocks", "G7", "--display", "index"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert len(lines) == 2 * (1 + 13)
    assert lines[:2] == ["No essential hyperplane", "[[1],[2],[3]]"]
    listed = invoke(["essential-hyperplanes", "G7"])
    assert listed.exit_code == 0, listed.output
    assert lines[2::2] == listed.output.splitlines()
    assert lines[1::2] == [json.dumps(t.blocks.as_lists(), separators=(",", ":"))
                           for t in g7_cut.schur_tables]


def test_schur_index_agrees_with_recomputation(g4, g6, g7, g7_cut):
    """Every indexed norm, weight and essential set of G4, G6, G7 and the
    cut G7 database equals its recomputation, and G7 cut by _replace reads
    the same entries, by label, as the cut database loaded fresh."""
    for g in (g4, g6, g7, g7_cut):
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
    view = g7._replace(characters=Characters(g7.schur_elements))
    for p in (2, 3, 5):
        assert blocks_no_hyperplane(view, p) == blocks_no_hyperplane(g7_cut, p)
        for h in sorted(essential_normals(g7_cut, [p])):
            assert blocks_one_hyperplane(view, p, Hyperplane(h)) == \
                blocks_one_hyperplane(g7_cut, p, Hyperplane(h))


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
    # int() alone reads these as (10, 2, 3) and (3, 1, 2)
    (["rouquier-blocks", "G4", "--exponents", "1_0,2,3"], None, 4,
     "cannot parse exponents '1_0,2,3'"),
    (["rouquier-blocks", "G4", "--exponents", "\u0663,1,2"], None, 4,
     "cannot parse exponents '\u0663,1,2'"),
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
        "unparsable exponents", "underscore in exponents",
        "non-ASCII digit in exponents", "wrong arity", "corrupt file",
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


@pytest.mark.parametrize("case", HEAP)
def test_cli_heap_frozen_at_exit_by_main_alone_once(case):
    assert heap(case) == []


@pytest.mark.parametrize("case", IMPORTS)
def test_module_loads_only_the_package_modules_it_imports(case):
    assert imports(case) == []


def test_cli_verify_db_ok_and_corrupt():
    """The corrupt half is every MALFORMED case of
    test_malformed_document_ends_in_store_error."""
    result = invoke(["verify-db"])
    assert result.exit_code == 0 and result.output.strip() == "ok"


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
