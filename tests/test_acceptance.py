"""End-to-end acceptance suite: the published query outputs, the transport
and property suites, and database validation.  Where a unit module's test
asserts a check of a criterion too, both call one cached check_* function
of that module, so the check runs once per session."""

import ast
import builtins
import time
from pathlib import Path

import pytest

from heckeblocks.engine import join
from heckeblocks.groupblocks import p_blocks

from cli_runner import invoke
from test_clifford import (
    check_degree_three_parent_triple_lands_on_one_child,
    check_descended_tables_match_stored_child_tables,
    check_spot_check_mixed_hyperplane_block,
)
from test_cyclo import (
    check_fast_essentiality_matches_norm_oracle,
    check_norm_multiplicativity_on_random_pairs,
    check_reduction_is_idempotent,
)
from test_lattice import (
    check_decompose_specialization_roundtrip_random,
    check_refactor_adapted_recomposes_exactly,
    check_three_slot_worked_example,
)
from test_schur import (
    check_difference_hyperplanes_exactly_three_essential,
    check_extracted_hyperplanes_subset_of_published,
)
from test_store_cli import check_shipped_database_verifies


def timed_invoke(args, limit=1.0):
    start = time.monotonic()
    result = invoke(args)
    assert time.monotonic() - start < limit, args
    return result


# criterion 1 -----------------------------------------------------------------


def test_essential_hyperplanes_exact():
    all_six = [
        "c_1-c_2=0", "c_0-2c_1+c_2=0", "c_0-c_1=0",
        "c_0-c_2=0", "c_0+c_1-2c_2=0", "2c_0-c_1-c_2=0",
    ]
    for p, expected in (
        ("0", all_six),
        ("2", all_six),
        ("3", ["c_1-c_2=0", "c_0-c_1=0", "c_0-c_2=0"]),
    ):
        result = timed_invoke(["essential-hyperplanes", "G4", "--prime", p])
        assert result.exit_code == 0
        assert result.output.splitlines() == expected
    result = timed_invoke(["essential-hyperplanes", "G4", "--prime", "5"])
    assert result.exit_code == 2
    assert result.output.splitlines() == [
        "Error, The number p should divide the order of the group"
    ]


# criterion 2 -----------------------------------------------------------------


def test_all_blocks_exact():
    result = timed_invoke(["all-blocks", "G4", "--display", "index"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "No essential hyperplane",
        "[[1],[2],[3],[4],[5],[6],[7]]",
        "c_1-c_2=0",
        "[[1],[2,3,4],[5,6],[7]]",
        "c_0-c_1=0",
        "[[1,2,6],[3],[4,5],[7]]",
        "c_0-c_2=0",
        "[[1,3,5],[2],[4,6],[7]]",
        "2c_0-c_1-c_2=0",
        "[[1,4,7],[2],[3],[5],[6]]",
        "c_0-2c_1+c_2=0",
        "[[1],[2,5,7],[3],[4],[6]]",
        "c_0+c_1-2c_2=0",
        "[[1],[2],[3,6,7],[4],[5]]",
    ]


# criterion 3 -----------------------------------------------------------------


def test_rouquier_blocks_exact():
    result = timed_invoke(
        ["rouquier-blocks", "G4", "--exponents", "0,1,2",
         "--display", "index"],
    )
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "Essential hyperplanes hit: c_0-2c_1+c_2=0",
        "[[1],[2,5,7],[3],[4],[6]]",
    ]


# criterion 4 -----------------------------------------------------------------


def test_group_algebra_limit(g4):
    result = timed_invoke(
        ["rouquier-blocks", "G4", "--exponents", "0,0,0",
         "--display", "index"],
    )
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "Essential hyperplanes hit: c_1-c_2=0, c_0-c_1=0, c_0-c_2=0, "
        "2c_0-c_1-c_2=0, c_0-2c_1+c_2=0, c_0+c_1-2c_2=0",
        "[[1,2,3,4,5,6,7]]",
    ]
    # independent route: join of the group-algebra 2- and 3-blocks
    table = g4.character_table
    oracle = join([p_blocks(table, 2), p_blocks(table, 3)])
    assert oracle.as_lists() == [[1, 2, 3, 4, 5, 6, 7]]


# criterion 5 -----------------------------------------------------------------


def test_schur_extraction_consistency(g7):
    # the extracted hyperplanes lie in the published lists, the differences
    # essential for 3 alone and the mixed ones for 2 alone; test_schur.py
    # asserts each check too, and it runs once
    check_extracted_hyperplanes_subset_of_published(g7)
    check_difference_hyperplanes_exactly_three_essential(g7)


# criterion 6 -----------------------------------------------------------------


def test_clifford_transport_reproduces_child_tables(g6, g7):
    # the descended tables equal the stored child tables, and two spot
    # checks; test_clifford.py asserts each check too, and it runs once
    check_descended_tables_match_stored_child_tables(g6, g7)
    check_degree_three_parent_triple_lands_on_one_child(g6)
    check_spot_check_mixed_hyperplane_block(g6, g7)


# criterion 7 -----------------------------------------------------------------


def test_lattice_suite():
    # the worked three-slot example, adapted refactoring, and specialization
    # decomposition; test_lattice.py asserts each check too, and it runs once
    check_three_slot_worked_example()
    check_refactor_adapted_recomposes_exactly()
    check_decompose_specialization_roundtrip_random()


# criterion 8 -----------------------------------------------------------------


def test_arithmetic_suite():
    # fast p-essentiality against the norm oracle, the norm's
    # multiplicativity and idempotent reduction; test_cyclo.py asserts each
    # check too, and it runs once
    start = time.monotonic()
    check_fast_essentiality_matches_norm_oracle()
    check_norm_multiplicativity_on_random_pairs()
    check_reduction_is_idempotent()
    assert time.monotonic() - start < 10.0


# criterion 9 -----------------------------------------------------------------


def test_database_validation_and_corruptions():
    """The shipped database verifies with nothing to report.  Its seeded
    corruptions are test_store_cli's: every MALFORMED case ends in its
    located lines and exit 5, and each link cross-check finds a table that
    its transport contradicts."""
    check_shipped_database_verifies()


# criterion 10 (non-blocking stretch) -----------------------------------------


@pytest.mark.skip(
    reason="schur-path parity for G4 needs its Schur payload, and g4.json "
    "ships none; deriving one from G7's stored elements is ROADMAP items 9 "
    "and 13.  The schur path itself is exercised on G7's partial payload in "
    "test_engine"
)
def test_schur_path_agrees_with_tables_path():
    pass


# each check once -------------------------------------------------------------


def test_no_test_module_imports_another_modules_tests():
    """pytest collects every test_* function a test module's namespace
    holds, so an imported one runs twice; the helpers stay importable."""
    here = Path(__file__).parent
    modules = {path.stem for path in here.glob("*.py")}
    found = []
    for path in sorted(here.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in modules:
                found += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names
                          if alias.name.startswith("test_") or alias.name == "*"]
    assert found == []


def _unused_imports(path):
    """The names that path's module-level imports bind and that occur
    nowhere else in it as a name, nor in its __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    bound = [(alias.asname or alias.name).partition(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names if alias.name != "*"]
    return [name for name in bound if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    """An import nothing reads costs a cold start its load and a reader a
    false lead."""
    here = Path(__file__).parent
    package = here.parent / "src" / "heckeblocks"
    paths = sorted(here.glob("*.py")) + sorted(package.glob("*.py"))
    found = [f"{path.name}: {name}" for path in paths
             for name in _unused_imports(path)]
    assert found == []


def _unbound_annotation_names(path):
    """The names that path's annotations read first (n of n.attr, a quoted
    annotation parsed) and that neither the module's top level nor the
    builtins bind: under `from __future__ import annotations`, names that
    typing.get_type_hints would fail on."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set(dir(builtins))
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).partition(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound |= {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations.append(node.returns)
            annotations += [a.annotation for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                args.vararg, args.kwarg) if a is not None]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = []
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                node = ast.parse(node.value, mode="eval")
                names += [n.id for n in ast.walk(node) if isinstance(n, ast.Name)]
            elif isinstance(node, ast.Name):
                names.append(node.id)
    return sorted(set(names) - bound)


def test_no_annotation_names_what_its_module_never_binds():
    """An annotation is a claim a reader and typing.get_type_hints check;
    one naming an unbound name misleads the one and fails the other."""
    here = Path(__file__).parent
    package = here.parent / "src" / "heckeblocks"
    paths = sorted(here.glob("*.py")) + sorted(package.glob("*.py"))
    found = [f"{path.name}: {name}" for path in paths
             for name in _unbound_annotation_names(path)]
    assert found == []
