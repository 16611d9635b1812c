"""heckeblocks benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ./src, so
nothing needs installing.  --trace 0 measures the end-to-end metrics; --trace
1 measures the untraced loop for half the time and the traced loop for the
other half, and prints the per-layer metrics plus the tracing overhead.
Times are normalised to the machine's speed by interleaved reference work
(calib.py).  Every operation is checked against the oracle in this
directory.  The last line of stdout is the result object; the line before it
is a report with the versions, sample counts and failures behind it.  See
README.md here.
"""

from __future__ import annotations

import argparse
from array import array
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

from calib import CHILD_NOMINAL_S, SpeedMeter, child_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_LAYERS = ("store.load", "cyclo.descend", "cyclo.value_at_one",
                "schur.normalize_x_to_v", "schur.validate")


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def measure(workload, seconds: float, probe=None) -> dict:
    """Whole rounds of the workload's operations until `seconds` have
    passed, and at least the workload's min_rounds; each operation is timed
    alone and then checked.

    A SpeedMeter times reference work between operations (calib.py): the
    kernel for an in-process workload, a reference child for cli-cold.
    Each duration is normalised to the machine's speed around it.

    With `probe`, SETUP_REPEATS set-up probes run spread evenly over the
    measured time, between operations, so setup_s sees the same machine as
    the operations; their time is left out of wall_s."""
    tracer = workload.tracer if workload.in_process else None
    meter = SpeedMeter(child=not workload.in_process)
    durations = array("d")  # 8 bytes a sample, so RSS barely grows with ops
    segments = array("l")
    failures: list[str] = []
    setups: list[tuple[float, float]] = []  # (raw, normalised)
    rounds = 0
    paused = 0.0
    start = perf_counter()
    while True:
        for op in workload.round():
            due = len(setups) * seconds / SETUP_REPEATS
            elapsed = perf_counter() - start - paused
            if probe and len(setups) < SETUP_REPEATS and elapsed >= due:
                t0 = perf_counter()
                setups.append(probe())
                paused += perf_counter() - t0
            segments.append(meter.segment())
            t0 = perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.root("op"):
                        out = op.run()
                durations.append(perf_counter() - t0)
                ok = op.check(out)
            except Exception as exc:  # a crash is a failed operation
                durations.append(perf_counter() - t0)
                ok = False
                op.label += f" raised {type(exc).__name__}: {exc}"
            if not ok:
                failures.append(op.label)
        rounds += 1
        if (perf_counter() - start - paused >= seconds
                and rounds >= workload.min_rounds):
            break
    wall = perf_counter() - start - paused
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # before sorting
    while probe and len(setups) < SETUP_REPEATS:
        setups.append(probe())
    meter.tick()  # closes the last segment
    factors = meter.factors()
    return {"wall_s": wall, "rounds": rounds, "durations": durations,
            "normalised": array("d", (d / factors[s]
                                      for d, s in zip(durations, segments))),
            "speed_factor": statistics.median(factors[1:]),
            "failures": failures,
            "setups": [raw for raw, _ in setups],
            "setups_normalised": [norm for _, norm in setups],
            "peak_rss_mb": peak_rss_mb}


def setup_probe(workload_name: str):
    """A callable timing one fresh set-up process (probe.py) by wall clock;
    it returns the raw time and the time normalised by a reference child
    run just before and just after (calib.py)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("HECKE_DB", None)
    cmd = [sys.executable, str(HERE / "probe.py"), workload_name]

    def run() -> tuple[float, float]:
        before = child_time()
        t0 = perf_counter()
        # Pipes, not DEVNULL: with pipes the wait ends when the child closes
        # them, while a bare wait with a timeout polls every 50 ms.
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       capture_output=True, timeout=120)
        raw = perf_counter() - t0
        reference = (before + child_time()) / 2
        return raw, raw * CHILD_NOMINAL_S / reference
    return run


def json_parse_s() -> float:
    """Median over five repeats of json.loads on the three database files."""
    texts = [p.read_text("utf-8")
             for p in sorted((SRC / "heckeblocks" / "data").glob("*.json"))]
    times = []
    for _ in range(5):
        t0 = perf_counter()
        for text in texts:
            json.loads(text)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def end_to_end(workload, run: dict) -> tuple[dict, dict]:
    """The bounded metrics, from normalised times (calib.py); the raw
    wall-clock figures go to the report."""
    q = workload.tail_percentile
    figures = {}
    for kind, setups in (("normalised", "setups_normalised"),
                         ("durations", "setups")):
        values = sorted(run[kind])
        figures[kind] = {
            "setup_s": (statistics.median(run[setups]), "s"),
            "ops_per_s": (len(values) / math.fsum(values), "1/s"),
            "op_p50_ms": (1e3 * percentile(values, 50), "ms"),
            "op_tail_ms": (1e3 * percentile(values, q), "ms"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
    values = run["normalised"]
    n = len(values)
    tail = percentile(sorted(values), q)
    beyond = sum(v > tail for v in values)
    samples = {"op_p50_ms": {"percentile": 50, "samples": n},
               "op_tail_ms": {"percentile": q, "samples": n,
                              "samples_beyond": beyond,
                              "enough": beyond >= 10},
               "setup_s": {"samples": len(run["setups"]),
                           "values": run["setups_normalised"],
                           "raw_values": run["setups"]},
               "speed_factor": run["speed_factor"],
               "raw": {name: value for name, (value, _) in figures["durations"].items()}}
    return figures["normalised"], samples


def per_layer(workload, untraced: dict, traced: dict) -> dict:
    from tracer import TARGETS

    if workload.in_process:
        summary = workload.tracer.summary()
        op, setup = summary["op"], summary["setup"]
        cli = None
    else:
        cli = workload.stats
        op, setup = cli["op"], None
    ops = max(op["roots"], 1)
    metrics = {}
    for name in TARGETS:
        metrics[f"{name}.calls"] = (op["calls"][name] / ops, "calls/op")
        metrics[f"{name}.self_s"] = (op["self_s"][name] / ops, "s/op")
    metrics["engine.meet.refining_ratio"] = (
        op["refining_meets"] / op["meets"] if op["meets"] else 0.0, "ratio")
    metrics["store.json_parse_s"] = (json_parse_s(), "s")
    for key, stat in (("import_s", "import_s"),
                      ("import_sympy_s", "import_sympy_s"),
                      ("child_cpu_s", "cpu_s")):
        metrics[f"cli.{key}"] = (cli[stat] / cli["requests"] if cli else 0.0, "s/op")
    for name in SETUP_LAYERS:
        metrics[f"setup.{name}.self_s"] = (setup["self_s"][name] if setup else 0.0, "s")
    metrics["setup.span_s"] = (setup["span_s"] if setup else 0.0, "s")
    plain = statistics.fmean(untraced["normalised"])
    with_trace = statistics.fmean(traced["normalised"])
    metrics["trace.untraced_op_mean_ms"] = (1e3 * plain, "ms")
    metrics["trace.op_mean_ms"] = (1e3 * with_trace, "ms")
    metrics["trace.overhead_pct"] = (100 * (with_trace / plain - 1), "%")
    return metrics


def commit_id() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"commit": commit_id(), "python": platform.python_version(),
            "sympy": version("sympy"), "click": version("click"),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "heckeblocks" / "__init__.py").is_file():
        print(f"no program source at {SRC / 'heckeblocks'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oracle
    from tracer import Tracer
    from workloads import DATA, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    tables = oracle.load_tables(DATA)
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        workload = WORKLOADS[args.workload](args.seed, tables, work_dir)
        probe = setup_probe(args.workload)
        probe()  # compiles bytecode and warms file caches; not counted
        workload.setup()
        if args.trace:
            untraced = measure(workload, args.seconds / 2)
            workload.trace_with(Tracer())
            traced = measure(workload, args.seconds / 2)
            runs = [untraced, traced]
            metrics = per_layer(workload, untraced, traced)
            samples = {"untraced_ops": len(untraced["durations"]),
                       "traced_ops": len(traced["durations"]),
                       "traced_op_mean_raw_ms":
                           1e3 * statistics.fmean(traced["durations"])}
        else:
            run = measure(workload, args.seconds, probe)
            runs = [run]
            metrics, samples = end_to_end(workload, run)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(len(r["durations"]) for r in runs)
    failures = [label for r in runs for label in r["failures"]]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, **environment(),
        "rounds": [r["rounds"] for r in runs],
        "wall_s": [r["wall_s"] for r in runs],
        "samples": samples,
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:10],
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
