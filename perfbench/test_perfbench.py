"""Tests of the benchmark itself: python3 -m pytest perfbench

A minimal run of each workload must pass every check at the current commit
and print exactly the metrics BENCHMARK.json names; each oracle must reject
a planted wrong answer; the tracer must count calls and restore what it
replaced; and the benchmark must refuse to run without the program source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def tables():
    return oracle.load_tables(workloads.DATA)


def make(name, tables, tmp_path, seed=3):
    return workloads.WORKLOADS[name](seed, tables, tmp_path)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_minimal_run_passes_every_check(name):
    proc = run_bench("--workload", name, "--seed", "11", "--seconds", "0.1",
                     "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    report = json.loads(proc.stdout.splitlines()[-2])
    assert result["failed"] == 0 and result["correct"], report["failures"]
    assert report["fail_ratio"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_layer_metric():
    proc = run_bench("--workload", "table-queries", "--seed", "5",
                     "--seconds", "0.2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["engine.rouquier_from_tables.calls"] == 1
    assert all(metrics[k] == 0 for k in metrics
               if k.startswith("cyclo.") and not k.startswith("setup."))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = run_bench("--workload", "table-queries", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# planted wrong answers
# ---------------------------------------------------------------------------


def merge_first_two(lists):
    return [lists[0] + lists[1]] + lists[2:]


def test_table_oracle_rejects_merged_block_and_dropped_hyperplane(tables, tmp_path):
    w = make("table-queries", tables, tmp_path)
    t = tables["G7"]
    name, n, display, expected = next(
        q for q in w.queries
        if q[0] == "G7" and len(t.hits(q[1])) >= 2 and len(t.blocks(q[1])) >= 2)
    op = next(op for op in w.round() if op.label == f"rouquier {name} {n} {display}")
    assert op.check(list(expected))
    merged = t.render_partition(merge_first_two(t.blocks(n)), display)
    assert not op.check([expected[0], merged])
    dropped = ", ".join(t.render_hyperplane(h) for h in t.hits(n)[1:])
    assert not op.check([f"Essential hyperplanes hit: {dropped}", expected[1]])


def test_schur_oracle_rejects_merged_block(tables, tmp_path):
    w = make("schur-heuristic", tables, tmp_path)
    ops = {op.label: op for op in w.round()}

    class Answer:
        def __init__(self, parts):
            self.parts = tuple(tuple(p) for p in parts)

    for key in ("no_hyperplane/G7/2", "p_blocks/G4/3"):
        golden = w.golden[key]
        assert ops[key].check(Answer(golden))
        assert not ops[key].check(Answer(merge_first_two(golden)))


def test_cli_oracle_rejects_wrong_exit_code_and_dropped_hyperplane(tables, tmp_path):
    w = make("cli-cold", tables, tmp_path)
    ops = {op.label: op for op in w.round()}
    ess = ops["essential-hyperplanes G4 --prime 3"]
    lines = sorted(oracle.PINNED_ESSENTIAL_G4[3])
    assert ess.check((0, "\n".join(lines) + "\n", ""))
    assert not ess.check((0, "\n".join(lines[1:]) + "\n", ""))
    assert not ess.check((1, "\n".join(lines) + "\n", ""))
    blocks = ops["all-blocks G4 --display index"]
    pinned = oracle.PINNED_ALL_BLOCKS_G4_INDEX
    assert blocks.check((0, "\n".join(pinned) + "\n", ""))
    assert not blocks.check((0, "\n".join(pinned[:-2]) + "\n", ""))
    verify = ops["verify-db"]
    assert verify.check((0, "ok\n", "")) and not verify.check((5, "ok\n", ""))
    bad_prime = next(op for label, op in ops.items()
                     if label.startswith("essential-hyperplanes G4 --prime")
                     and label.split()[-1] not in ("0", "2", "3"))
    message = oracle.BAD_PRIME_MESSAGE + "\n"
    assert bad_prime.check((2, "", message))
    assert not bad_prime.check((3, "", message))


def test_oracle_self_check_catches_a_wrong_table(tables):
    g4 = oracle.GroupTables(json.loads((workloads.DATA / "g4.json").read_text()))
    normal, parts, primes = g4.tables[1]
    g4.tables[1] = (normal, merge_first_two(parts), primes)
    with pytest.raises(RuntimeError, match="all-blocks G4"):
        oracle.self_check({**tables, "G4": g4})


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_tracer_counts_nested_calls_and_restores(tables):
    from heckeblocks import clifford, engine, store

    g = store.load_group("G4")
    original = engine.join
    tracer = Tracer()
    tracer.install()
    try:
        assert clifford.join is engine.join is not original
        with tracer.root("op"):
            engine.rouquier_from_tables(g, engine.Specialization((0, 1, 2)))
        engine.join([g.hyperplane_tables[0].blocks])  # outside any root
    finally:
        tracer.uninstall()
    assert engine.join is original and clifford.join is original
    op = tracer.summary()["op"]
    assert op["roots"] == 1
    assert op["calls"]["engine.rouquier_from_tables"] == 1
    assert op["calls"]["engine.join"] == 1
    assert op["calls"]["engine.hyperplanes_containing"] == 1
    total = sum(op["self_s"].values())
    assert 0 < total <= op["span_s"]


# ---------------------------------------------------------------------------
# speed calibration
# ---------------------------------------------------------------------------


def test_speed_factor_is_the_median_kernel_time_around_a_segment():
    meter = calib.SpeedMeter()
    nominal = calib.KERNEL_NOMINAL_S
    # a fast machine, one disturbed burst, then twice as slow
    meter.refs.extend(k * nominal for k in (1, 1, 5, 1, 2, 2, 2, 2))
    factors = meter.factors()
    assert len(factors) == len(meter.refs)
    assert factors[1] == pytest.approx(1) and factors[3] == pytest.approx(1)
    assert factors[7] == pytest.approx(2)  # the burst of 5 was outvoted


def test_meter_measures_between_operations():
    meter = calib.SpeedMeter()
    first = meter.segment()
    assert first == 1 and len(meter.refs) == 1 and meter.refs[0] > 0
    assert meter.segment() == first  # within INTERVAL_S: same segment
    meter.tick()
    assert len(meter.factors()) == 2
    child = calib.SpeedMeter(child=True)
    assert child.segment() == 1 and child.segment() == 2  # before every op
