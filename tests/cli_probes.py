"""The command line probed in fresh interpreters.  Each row of REQUESTS runs
one request under PROBE, which lists at exit the watched modules and the
site-packages modules the request imported: both lists must be empty, and
the request must exit with the row's code.  Each row of PIPES runs one
request whose reader closed the output pipe before reading: it must exit 1
and leave stderr empty.  tests/test_store_cli.py runs each row as a test;
run as a script, with the standard library alone, this module replays every
row against the package the running interpreter imports, and exits 1,
naming each row that failed:

    python tests/cli_probes.py
"""

import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import heckeblocks
from malformed_cases import MALFORMED, SHIPPED, rewrite

MAIN = "from heckeblocks.cli import main; main()"

# Run as `python -S -c PROBE ARGS`: without the site module, whose .pth
# files may import a watched module before the request does.  PYTHONPATH
# holds the package's directory, then the site-packages directories, so a
# request that imports sympy still finds it, and the probe sees it.  A
# request needs none of the watched modules; sympy costs a cold start its
# import time, and which stdlib modules import the others varies with the
# Python version.
PROBE = """\
import atexit, os, sys
before = set(sys.modules)
def report():
    added = set(sys.modules) - before
    roots = tuple(path + os.sep for path in
                  os.environ["PYTHONPATH"].split(os.pathsep)[1:])
    print(sorted(added & {"sympy", "dataclasses", "inspect", "fractions",
                          "decimal", "random"}))
    print(sorted(name for name in added
                 if name.partition(".")[0] != "heckeblocks"
                 and (getattr(sys.modules.get(name), "__file__", None)
                      or "").startswith(roots)))
atexit.register(report)
""" + MAIN

# id -> (args, exit code)
REQUESTS = {" ".join(args): (args, code) for args, code in [
    (["all-blocks", "G4"], 0),
    # a G7 load normalises and validates its Schur elements
    (["all-blocks", "G7"], 0),
    (["rouquier-blocks", "G4", "--path", "tables", "--exponents", "0,1,2"], 0),
    (["rouquier-blocks", "G4", "--exponents", "-1,0,1"], 0),
    (["rouquier-blocks", "G7", "--exponents", "1,2,3,4,5,6,7,8"], 0),
    (["essential-hyperplanes", "G4", "-p", "0"], 0),
    # load checks the character tables without p_blocks and its primes
    (["verify-db"], 0),
    # G4 stores no Schur payload
    (["rouquier-blocks", "G4", "--path", "schur", "--exponents", "0,1,2"], 3),
    (["no-such-command"], 4),
]}

# id -> args, {db} standing for a copy of the database whose g4.json is
# corrupt.  With stdout block-buffered, all-blocks G4 meets the closed pipe
# at main's flush, all-blocks G7 (8.5 kB) while printing, and verify-db on
# the corrupt file before it exits 5.
PIPES = {
    "at main's flush": ["all-blocks", "G4"],
    "while printing": ["all-blocks", "G7", "--display", "name"],
    "failed verify-db": ["verify-db", "{db}/g4.json"],
}


def _env():
    """os.environ, with PYTHONPATH the package's directory and then the
    site-packages directories, and PYTHONUNBUFFERED unset."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    paths = [str(Path(heckeblocks.__file__).resolve().parents[1])]
    paths += [sysconfig.get_path(key) for key in ("purelib", "platlib")]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_fresh(program, *args):
    """`python -S -c program args` in a fresh interpreter, with _env()."""
    return subprocess.run([sys.executable, "-S", "-c", program, *args],
                          env=_env(), capture_output=True, text=True,
                          timeout=60)


def probe(case):
    """What went wrong when the request of REQUESTS[case] ran under PROBE:
    an empty list when it exited with its code and imported no watched and
    no site-packages module."""
    args, code = REQUESTS[case]
    run = run_fresh(PROBE, *args)
    faults = [] if run.returncode == code else \
        [f"exit {run.returncode}, not {code}: {run.stderr[-500:]}"]
    lists = run.stdout.splitlines()[-2:]
    if lists != ["[]", "[]"]:
        faults.append("watched, site-packages modules imported: "
                      + ", ".join(line[:200] for line in lists))
    return faults


def pipe(case):
    """What went wrong when the request of PIPES[case] wrote to a pipe its
    reader had closed: an empty list when it exited 1 with stderr empty."""
    name, mutate, _ = MALFORMED["normal with nonzero orbit sums"]
    with tempfile.TemporaryDirectory() as tmp:
        for path in SHIPPED.glob("*.json"):
            shutil.copy(path, tmp)
        rewrite(Path(tmp), name, mutate)
        args = [arg.format(db=tmp) for arg in PIPES[case]]
        proc = subprocess.Popen([sys.executable, "-S", "-c", MAIN, *args],
                                env=_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=60)
    faults = [] if code == 1 else [f"exit {code}, not 1"]
    return faults + ([f"stderr {stderr[-500:]!r}"] if stderr else [])


def main():
    rows = [(case, probe) for case in REQUESTS] + \
        [(case, pipe) for case in PIPES]
    failed = 0
    for case, check in rows:
        if faults := check(case):
            failed += 1
            print(f"FAIL {case}: " + "; ".join(faults))
    print(f"{len(rows) - failed} of {len(rows)} rows passed")
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
