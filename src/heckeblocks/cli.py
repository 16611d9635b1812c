"""Command-line queries against the shipped (or HECKE_DB) group database: the
commands parse and render, and main alone maps library errors to exit codes.

A process that calls main freezes its heap at exit, however main ends.  main
registers gc.freeze with atexit, once per process; the interpreter runs
atexit callbacks before its shutdown collections, which then skip every
frozen object.  A process about to end needs nothing they would free.
Importing this module freezes nothing."""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import re
import sys

from .engine import Hyperplane, Specialization, rouquier_blocks
from .groupblocks import Partition
from .schur import BadExponents, BadPrimeArgument, essential_hyperplanes
from .store import StoreError, load_group, verify_db

EXIT_BAD_PRIME = 2
EXIT_MISSING_PAYLOAD = 3
EXIT_BAD_ARITY = 4
EXIT_VALIDATION = 5


def _render_partition(g, partition: Partition, display: str) -> str:
    if display == "index":
        return json.dumps(partition.as_lists(), separators=(",", ":"))
    names = [
        [g.characters[i - 1].render() for i in part]
        for part in partition.parts
    ]
    return json.dumps(names, separators=(",", ":"))


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit EXIT_BAD_ARITY, as the
    README says; argparse's own code for them, 2, is an invalid prime here.
    An argument that starts like a negative number, such as the exponents
    "-1,0,1", is a value, not an unknown option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, add_help=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")
        self.add_argument("--help", action="help",
                          help="Show this message and exit.")

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_ARITY, f"{self.prog}: error: {message}\n")


def _integer(text: str) -> int:
    """text as an int: a sign, ASCII digits only (not "1_0"), space around."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def cli_essential_hyperplanes(group: str, prime: int):
    """List the p-essential hyperplanes of GROUP, one per line."""
    g = load_group(group)
    normals = essential_hyperplanes(g, prime)
    names = g.slot_names()
    for normal in normals:
        print(Hyperplane(normal).render(names))


def cli_all_blocks(group: str, display: str):
    """Print the block partition for every essential hyperplane: the stored
    tables, or those derived from a full Schur payload if none are stored."""
    g = load_group(group)
    names = g.slot_names()
    derived = g.hyperplane_tables is None and g.schur_tables is not None
    for table in g.schur_tables if derived else g.stored_tables():
        if table.hyperplane is None:
            print("No essential hyperplane")
        else:
            print(table.hyperplane.render(names))
        print(_render_partition(g, table.blocks, display))


def cli_rouquier_blocks(group: str, exponents: str, which: str, display: str):
    """Rouquier blocks of the cyclotomic specialization with the given
    exponents."""
    g = load_group(group)
    try:
        n = tuple(map(_integer, exponents.split(",")))
    except argparse.ArgumentTypeError:
        raise BadExponents(f"cannot parse exponents {exponents!r}") from None
    hit, blocks = rouquier_blocks(g, Specialization(n), which)
    names = g.slot_names()
    rendered = ", ".join(h.render(names) for h in hit)
    print(f"Essential hyperplanes hit: {rendered or 'none'}")
    print(_render_partition(g, blocks, display))


def cli_verify_db(paths: list[str]):
    """Validate database files (default: the shipped database)."""
    ok, report = verify_db(paths or None)
    print("ok" if ok else "\n".join(report), flush=True)  # sys.exit skips main's
    if not ok:
        sys.exit(EXIT_VALIDATION)


def _existing_path(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"path {path!r} does not exist")
    return path


def _parser(prog: str) -> _Parser:
    parser = _Parser(prog=prog, description=main.__doc__)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, run):
        sub = commands.add_parser(name, help=run.__doc__,
                                  description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    def display_option(sub):
        sub.add_argument("--display", choices=["index", "name"],
                         default="name", help="[default: %(default)s]")

    sub = command("essential-hyperplanes", cli_essential_hyperplanes)
    sub.add_argument("group", metavar="GROUP")
    sub.add_argument("--prime", "-p", type=_integer, default=0,
                     help="0 lists the hyperplanes for every bad prime. "
                          "[default: %(default)s]")
    sub = command("all-blocks", cli_all_blocks)
    sub.add_argument("group", metavar="GROUP")
    display_option(sub)
    sub = command("rouquier-blocks", cli_rouquier_blocks)
    sub.add_argument("group", metavar="GROUP")
    sub.add_argument("--exponents", required=True,
                     help="comma-separated integers n_(C,j), one per slot")
    sub.add_argument("--path", dest="which", choices=["tables", "schur"],
                     default="tables", help="[default: %(default)s]")
    display_option(sub)
    sub = command("verify-db", cli_verify_db)
    sub.add_argument("paths", metavar="PATHS", nargs="*", type=_existing_path)
    return parser


def main(args=None, prog_name: str = "heckeblocks"):
    """Rouquier blocks of cyclotomic Hecke algebras from stored data."""
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    options = vars(_parser(prog_name).parse_args(args))
    try:
        options.pop("run")(**options)
        sys.stdout.flush()
        return
    except BrokenPipeError:
        # the reader left (`| head`): as Python's SIGPIPE note says, devnull
        # takes stdout so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except StoreError as exc:
        message = "\n".join(f"{exc.path}: {line}" for line in exc.report)
        code = EXIT_VALIDATION
    except BadPrimeArgument as exc:
        message, code = f"Error, {exc}", EXIT_BAD_PRIME
    except BadExponents as exc:
        message, code = str(exc), EXIT_BAD_ARITY
    except (FileNotFoundError, ValueError) as exc:
        message, code = str(exc), EXIT_MISSING_PAYLOAD
    print(message, file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
