"""The command line probed in fresh interpreters.  Each row of REQUESTS runs
one request under PROBE, which lists at exit the watched modules and the
site-packages modules the request imported: both lists must be empty, and
the request must exit with the row's code.  Each row of PIPES runs one
request whose reader closed the output pipe before reading: it must exit 1
and leave stderr empty.  Both run under FREEZE_CHECK, so each request must
also leave the heap frozen when the interpreter finalises.  Each row of
HEAP runs one program that must exit 0 with the row's stderr: a process
that only imports the command line freezes nothing, and two requests in
one process call gc.freeze once at exit.  Each row of IMPORTS imports one
package module alone, which must load exactly the row's package modules.
tests/test_store_cli.py runs each row as a test; run as a script, with the
standard library alone, this module replays every row against the package
the running interpreter imports, and exits 1, naming each row that failed:

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

# Run before main: atexit runs its callbacks last in, first out, so this
# one runs after the gc.freeze that main registers, and says on stderr when
# it finds no more frozen than at start (CPython 3.12 starts with some).
NOT_FROZEN = "heap not frozen at exit"
FREEZE_CHECK = f"""\
import atexit, gc, sys
frozen_at_start = gc.get_freeze_count()
def check_frozen():
    if gc.get_freeze_count() <= frozen_at_start:
        print({NOT_FROZEN!r}, file=sys.stderr)
atexit.register(check_frozen)
"""

# Run as `python -S -c PROBE ARGS`: without the site module, whose .pth
# files may import a watched module before the request does.  PYTHONPATH
# holds the package's directory, then the site-packages directories, so a
# request that imports sympy still finds it, and the probe sees it.  A
# request needs none of the watched modules; sympy and typing cost a cold
# start their import time, and which stdlib modules import the others
# varies with the Python version.
PROBE = FREEZE_CHECK + """\
import os
before = set(sys.modules)
def report():
    added = set(sys.modules) - before
    roots = tuple(path + os.sep for path in
                  os.environ["PYTHONPATH"].split(os.pathsep)[1:])
    print(sorted(added & {"sympy", "dataclasses", "inspect", "fractions",
                          "decimal", "random", "typing"}))
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
    # on c_1-c_2 = 0, past the 64-bit bound of the packed hyperplane test
    (["rouquier-blocks", "G7", "--exponents",
      "1,2,3,4,5,6,1180591620717411303424,1180591620717411303424"], 0),
    (["essential-hyperplanes", "G4", "-p", "0"], 0),
    # load checks the character tables without p_blocks and its primes
    (["verify-db"], 0),
    # G4 stores no Schur payload
    (["rouquier-blocks", "G4", "--path", "schur", "--exponents", "0,1,2"], 3),
    (["no-such-command"], 4),
    (["rouquier-blocks", "G4"], 4),
]}

# id -> (program, stderr).  The second counts the calls of gc.freeze at
# exit, not atexit._ncallbacks(), which on Python 3.10 to 3.13 also counts
# callbacks since unregistered.
HEAP = {
    "import only": (FREEZE_CHECK + "import heckeblocks.cli\n",
                    NOT_FROZEN + "\n"),
    "two requests in one process": ("""\
import atexit, gc, sys
calls = []
atexit.register(lambda: print("gc.freeze calls:", len(calls), file=sys.stderr))
freeze = gc.freeze
gc.freeze = lambda: calls.append(freeze())
from heckeblocks.cli import main
main(["all-blocks", "G4"])
main(["verify-db"])
""", "gc.freeze calls: 1\n"),
}

# Run as `python -S -c IMPORT heckeblocks.MODULE`: prints the package
# modules that importing that one module loaded.
IMPORT = """\
import importlib, sys
importlib.import_module(sys.argv[1])
print(sorted(name.partition(".")[2] for name in sys.modules
             if name.startswith("heckeblocks.")))
"""

# module -> the package modules its import loads, itself included.  The
# package's __init__ imports nothing, so a module loads only its own imports.
_ENGINE = {"cyclo", "groupblocks", "lattice", "schur", "engine"}
IMPORTS = {
    "lattice": {"lattice"},
    # no command imports morphism: the cli row below lacks it
    "morphism": {"lattice", "morphism"},
    "cyclo": {"cyclo"},
    "schur": {"cyclo", "lattice", "schur"},
    "groupblocks": {"cyclo", "groupblocks"},
    "engine": _ENGINE,
    "clifford": _ENGINE | {"clifford"},
    "store": _ENGINE | {"clifford", "store"},
    "cli": _ENGINE | {"clifford", "store", "cli"},
}

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
    an empty list when it exited with its code, imported no watched and no
    site-packages module and left the heap frozen."""
    args, code = REQUESTS[case]
    run = run_fresh(PROBE, *args)
    faults = [] if run.returncode == code else \
        [f"exit {run.returncode}, not {code}: {run.stderr[-500:]}"]
    if NOT_FROZEN in run.stderr:
        faults.append(NOT_FROZEN)
    lists = run.stdout.splitlines()[-2:]
    if lists != ["[]", "[]"]:
        faults.append("watched, site-packages modules imported: "
                      + ", ".join(line[:200] for line in lists))
    return faults


def pipe(case):
    """What went wrong when the request of PIPES[case] wrote to a pipe its
    reader had closed: an empty list when it exited 1 with stderr empty,
    which FREEZE_CHECK's line would not leave."""
    name, mutate, _ = MALFORMED["normal with nonzero orbit sums"]
    with tempfile.TemporaryDirectory() as tmp:
        for path in SHIPPED.glob("*.json"):
            shutil.copy(path, tmp)
        rewrite(Path(tmp), name, mutate)
        args = [arg.format(db=tmp) for arg in PIPES[case]]
        proc = subprocess.Popen([sys.executable, "-S", "-c",
                                 FREEZE_CHECK + MAIN, *args],
                                env=_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=60)
    faults = [] if code == 1 else [f"exit {code}, not 1"]
    return faults + ([f"stderr {stderr[-500:]!r}"] if stderr else [])


def heap(case):
    """What went wrong when the program of HEAP[case] ran: an empty list when
    it exited 0 with the row's stderr."""
    program, stderr = HEAP[case]
    run = run_fresh(program)
    faults = [] if run.returncode == 0 else [f"exit {run.returncode}, not 0"]
    return faults + ([] if run.stderr == stderr else
                     [f"stderr {run.stderr[-500:]!r}, not {stderr!r}"])


def imports(case):
    """What went wrong when heckeblocks.<case> was imported alone: an empty
    list when it loaded exactly the package modules of IMPORTS[case]."""
    run = run_fresh(IMPORT, f"heckeblocks.{case}")
    if run.returncode != 0:
        return [f"exit {run.returncode}, not 0: {run.stderr[-500:]}"]
    loaded, want = run.stdout.strip(), str(sorted(IMPORTS[case]))
    return [] if loaded == want else [f"loaded {loaded}, not {want}"]


def main():
    rows = [(case, probe) for case in REQUESTS] + \
        [(case, pipe) for case in PIPES] + [(case, heap) for case in HEAP] + \
        [(case, imports) for case in IMPORTS]
    failed = 0
    for case, check in rows:
        if faults := check(case):
            failed += 1
            print(f"FAIL {case}: " + "; ".join(faults))
    print(f"{len(rows) - failed} of {len(rows)} rows passed")
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
