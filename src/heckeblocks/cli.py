"""Command-line queries against the shipped (or HECKE_DB) group database."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import NoReturn

from .engine import Hyperplane, Specialization, rouquier_blocks
from .groupblocks import Partition
from .schur import BadPrimeArgument, essential_hyperplanes
from .store import StoreError, load_group, verify_db

EXIT_BAD_PRIME = 2
EXIT_MISSING_PAYLOAD = 3
EXIT_BAD_ARITY = 4
EXIT_VALIDATION = 5


def _fail(message: str, code: int) -> NoReturn:
    print(message, file=sys.stderr)
    sys.exit(code)


def _load(group: str):
    try:
        return load_group(group)
    except FileNotFoundError as exc:
        _fail(str(exc), EXIT_MISSING_PAYLOAD)
    except StoreError as exc:
        _fail("\n".join(f"{exc.path}: {line}" for line in exc.report),
              EXIT_VALIDATION)


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

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_ARITY, f"{self.prog}: error: {message}\n")


def cli_essential_hyperplanes(group: str, prime: int):
    """List the p-essential hyperplanes of GROUP, one per line."""
    g = _load(group)
    try:
        normals = essential_hyperplanes(g, prime)
    except BadPrimeArgument as exc:
        _fail(f"Error, {exc}", EXIT_BAD_PRIME)
    except ValueError as exc:
        _fail(str(exc), EXIT_MISSING_PAYLOAD)
    names = g.slot_names()
    for normal in normals:
        print(Hyperplane(normal).render(names))


def cli_all_blocks(group: str, display: str):
    """Print the stored block partition for every essential hyperplane."""
    g = _load(group)
    if g.hyperplane_tables is None:
        _fail(f"no hyperplane tables stored for {group}", EXIT_MISSING_PAYLOAD)
    names = g.slot_names()
    for table in g.hyperplane_tables:
        if table.hyperplane is None:
            print("No essential hyperplane")
        else:
            print(table.hyperplane.render(names))
        print(_render_partition(g, table.blocks, display))


def cli_rouquier_blocks(group: str, exponents: str, which: str, display: str):
    """Rouquier blocks of the cyclotomic specialization with the given
    exponents."""
    g = _load(group)
    try:
        n = tuple(int(tok) for tok in exponents.split(","))
    except ValueError:
        _fail(f"cannot parse exponents {exponents!r}", EXIT_BAD_ARITY)
    if len(n) != g.slot_count:
        _fail(f"{group} needs {g.slot_count} exponents, got {len(n)}",
              EXIT_BAD_ARITY)
    try:
        hit, blocks = rouquier_blocks(g, Specialization(n), which)
    except ValueError as exc:
        _fail(str(exc), EXIT_MISSING_PAYLOAD)
    names = g.slot_names()
    rendered = ", ".join(h.render(names) for h in hit)
    print(f"Essential hyperplanes hit: {rendered or 'none'}")
    print(_render_partition(g, blocks, display))


def cli_verify_db(paths: list[str]):
    """Validate database files (default: the shipped database)."""
    ok, report = verify_db(paths or None)
    if ok:
        print("ok")
        return
    for line in report:
        print(line)
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
    sub.add_argument("--prime", "-p", type=int, default=0,
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
    options = vars(_parser(prog_name).parse_args(args))
    options.pop("run")(**options)


if __name__ == "__main__":
    main()
