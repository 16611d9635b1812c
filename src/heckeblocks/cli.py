"""Command-line queries against the shipped (or HECKE_DB) group database."""

from __future__ import annotations

import json
import sys

import click

from .engine import Hyperplane, Specialization, rouquier_blocks
from .groupblocks import Partition
from .schur import BadPrimeArgument, essential_hyperplanes
from .store import StoreError, load, load_group, verify_db

EXIT_BAD_PRIME = 2
EXIT_MISSING_PAYLOAD = 3
EXIT_BAD_ARITY = 4
EXIT_VALIDATION = 5


def _load(group: str):
    try:
        return load_group(group)
    except FileNotFoundError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_MISSING_PAYLOAD)
    except StoreError as exc:
        for line in exc.report:
            click.echo(f"{exc.path}: {line}", err=True)
        sys.exit(EXIT_VALIDATION)


def _render_partition(g, partition: Partition, display: str) -> str:
    if display == "index":
        return json.dumps(partition.as_lists(), separators=(",", ":"))
    names = [
        [g.characters[i - 1].render() for i in part]
        for part in partition.parts
    ]
    return json.dumps(names, separators=(",", ":"))


class _Commands(click.Group):
    """The command group, with usage errors exiting EXIT_BAD_ARITY as the
    README says; click's own code for them, 2, is an invalid prime here."""

    def make_context(self, *args, **kwargs):
        return _usage_exits_bad_arity(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _usage_exits_bad_arity(super().invoke, ctx)


def _usage_exits_bad_arity(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = EXIT_BAD_ARITY
        raise


@click.group(cls=_Commands)
def main():
    """Rouquier blocks of cyclotomic Hecke algebras from stored data."""


@main.command("essential-hyperplanes")
@click.argument("group")
@click.option("--prime", "-p", default=0, type=int, show_default=True,
              help="0 lists the hyperplanes for every bad prime.")
def cli_essential_hyperplanes(group: str, prime: int):
    """List the p-essential hyperplanes of GROUP, one per line."""
    g = _load(group)
    try:
        normals = essential_hyperplanes(g, prime)
    except BadPrimeArgument as exc:
        click.echo(f"Error, {exc}", err=True)
        sys.exit(EXIT_BAD_PRIME)
    except ValueError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_MISSING_PAYLOAD)
    names = g.slot_names()
    for normal in normals:
        click.echo(Hyperplane(normal).render(names))


@main.command("all-blocks")
@click.argument("group")
@click.option("--display", type=click.Choice(["index", "name"]),
              default="name", show_default=True)
def cli_all_blocks(group: str, display: str):
    """Print the stored block partition for every essential hyperplane."""
    g = _load(group)
    if g.hyperplane_tables is None:
        click.echo(f"no hyperplane tables stored for {group}", err=True)
        sys.exit(EXIT_MISSING_PAYLOAD)
    names = g.slot_names()
    for table in g.hyperplane_tables:
        if table.hyperplane is None:
            click.echo("No essential hyperplane")
        else:
            click.echo(table.hyperplane.render(names))
        click.echo(_render_partition(g, table.blocks, display))


@main.command("rouquier-blocks")
@click.argument("group")
@click.option("--exponents", required=True,
              help="comma-separated integers n_(C,j), one per slot")
@click.option("--path", "which", type=click.Choice(["tables", "schur"]),
              default="tables", show_default=True)
@click.option("--display", type=click.Choice(["index", "name"]),
              default="name", show_default=True)
def cli_rouquier_blocks(group: str, exponents: str, which: str, display: str):
    """Rouquier blocks of the cyclotomic specialization with the given
    exponents."""
    g = _load(group)
    try:
        n = tuple(int(tok) for tok in exponents.split(","))
    except ValueError:
        click.echo(f"cannot parse exponents {exponents!r}", err=True)
        sys.exit(EXIT_BAD_ARITY)
    if len(n) != g.slot_count:
        click.echo(
            f"{group} needs {g.slot_count} exponents, got {len(n)}", err=True
        )
        sys.exit(EXIT_BAD_ARITY)
    try:
        hit, blocks = rouquier_blocks(g, Specialization(n), which)
    except ValueError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_MISSING_PAYLOAD)
    names = g.slot_names()
    rendered = ", ".join(h.render(names) for h in hit)
    click.echo(f"Essential hyperplanes hit: {rendered or 'none'}")
    click.echo(_render_partition(g, blocks, display))


@main.command("verify-db")
@click.argument("paths", nargs=-1, type=click.Path(exists=True))
def cli_verify_db(paths):
    """Validate database files (default: the shipped database)."""
    ok, report = verify_db(list(paths) or None)
    if ok:
        click.echo("ok")
        return
    for line in report:
        click.echo(line)
    sys.exit(EXIT_VALIDATION)


if __name__ == "__main__":
    main()
