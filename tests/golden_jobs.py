"""The recorded Schur-path jobs: each key of perfbench/golden_schur.json
names a job, a p_blocks, no-hyperplane or one-hyperplane heuristic run on a
group at a prime (and, for the last, a hyperplane normal), and holds the
partition it gave.  Beside them, CYCLIC_CASES: p_blocks on the character
table of a cyclic group C_n, against the closed form of cyclic_blocks.
The tests load the jobs and the cases in process; run as a script, with the
standard library alone, this module replays every job against the
installed package, each one-hyperplane job also with its normal doubled and
negated (a normal is read up to a nonzero scalar), and every cyclic-table
case, and exits 1, naming each job or case that failed:

    python tests/golden_jobs.py
"""

import json
import sys
from pathlib import Path

from heckeblocks.engine import (
    Hyperplane,
    blocks_no_hyperplane,
    blocks_one_hyperplane,
)
from heckeblocks.cyclo import RootOfUnity
from heckeblocks.groupblocks import CharacterTable, p_blocks
from heckeblocks.store import load_group

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden_schur.json"


def load_golden():
    """key -> the recorded partition, as lists of character indices."""
    return json.loads(GOLDEN.read_text())["partitions"]


# (n, p) with p dividing n, so that p_blocks reduces central characters
CYCLIC_CASES = [(4, 2), (6, 2), (6, 3), (8, 2), (12, 2), (12, 3)]


def cyclic_table(n):
    """The character table of C_n = <g>, built by CharacterTable.of: row
    a + 1 is chi_a(g^j) = zeta_n^(a j), each entry written at its own
    order's conductor, so chi_a(1) is CycInt.rational(1) and the central
    characters (class sizes and degrees are 1) lie in Z[zeta_d] for every
    divisor d of n."""
    return CharacterTable.of(
        conductor=n, class_sizes=(1,) * n,
        values=tuple(tuple(RootOfUnity.of(n, a * j).as_cycint()
                           for j in range(n)) for a in range(n)))


def cyclic_blocks(n, p):
    """The p-blocks of C_n in closed form, as lists of row numbers: chi_a
    and chi_b share a block exactly when a = b modulo the p'-part of n."""
    m = n
    while m % p == 0:
        m //= p
    return [list(range(r + 1, n + 1, m)) for r in range(m)]


def run_job(groups, key):
    """The partition of the job a key names, on the loaded groups."""
    kind, name, p, *normal = key.split("/")
    g, p = groups[name], int(p)
    if kind == "p_blocks":
        return p_blocks(g.character_table, p)
    if kind == "no_hyperplane":
        return blocks_no_hyperplane(g, p)
    h = Hyperplane(tuple(map(int, normal[0].split(","))))
    return blocks_one_hyperplane(g, p, h)


def main():
    golden = load_golden()
    if len(golden) != 20:
        print(f"FAIL {len(golden)} recorded jobs, not 20: {sorted(golden)}")
        return 1
    names = {key.split("/")[1] for key in golden}
    groups = {name: load_group(name) for name in names}
    failed = []
    for key, expected in golden.items():
        jobs = [key]
        if key.startswith("one_hyperplane/"):
            head, normal = key.rsplit("/", 1)
            h = [int(c) for c in normal.split(",")]
            jobs += [f"{head}/{','.join(str(s * c) for c in h)}"
                     for s in (2, -1)]
        failed += [job for job in jobs
                   if run_job(groups, job).as_lists() != expected]
    failed += [f"p_blocks/C{n}/{p}" for n, p in CYCLIC_CASES
               if p_blocks(cyclic_table(n), p).as_lists()
               != cyclic_blocks(n, p)]
    for job in failed:
        print(f"FAIL {job}")
    print(f"{len(golden)} recorded jobs and {len(CYCLIC_CASES)} cyclic-table "
          f"cases replayed, {len(failed)} runs failed")
    return int(bool(failed))


if __name__ == "__main__":
    sys.exit(main())
