"""The recorded Schur-path jobs: each key of perfbench/golden_schur.json
names a job, a p_blocks, no-hyperplane or one-hyperplane heuristic run on a
group at a prime (and, for the last, a hyperplane normal), and holds the
partition it gave.  The tests load the jobs in process; run as a script,
with the standard library alone, this module replays every job against the
installed package, each one-hyperplane job also with its normal doubled and
negated (a normal is read up to a nonzero scalar), and exits 1, naming each
job that failed:

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
from heckeblocks.groupblocks import p_blocks
from heckeblocks.store import load_group

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden_schur.json"


def load_golden():
    """key -> the recorded partition, as lists of character indices."""
    return json.loads(GOLDEN.read_text())["partitions"]


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
    for job in failed:
        print(f"FAIL {job}")
    print(f"{len(golden)} recorded jobs replayed, {len(failed)} runs failed")
    return int(bool(failed))


if __name__ == "__main__":
    sys.exit(main())
