"""The recorded Schur-path jobs: each key of perfbench/golden_schur.json
names a job, a p_blocks, no-hyperplane or one-hyperplane heuristic run on a
group at a prime (and, for the last, a hyperplane normal), and holds the
partition it gave.  Beside them, CYCLIC_CASES: p_blocks on the character
table of a cyclic group C_n, against the closed form of cyclic_blocks.
And table_cases: table-path queries on each stored group, against a plain
dot-product scan and the join of the hit tables with the baseline.  And
schur_cases: Schur-path queries on G7 cut to its Schur characters, a full
payload, against a plain dot-product scan of its essential normals and the
join over the primes of |G| of the no-hyperplane and hit one-hyperplane
heuristic blocks.  The tests load the jobs and the cases in process; run as
a script, with the standard library alone, this module replays every job
against the installed package, each one-hyperplane job also with its
normal doubled and negated (a normal is read up to a nonzero scalar),
every cyclic-table case, every table-path case and, on the cut G7 written
to a temporary directory, every Schur-path case, and exits 1, naming each
job or case that failed:

    python tests/golden_jobs.py
"""

import json
import random
import sys
import tempfile
from operator import mul
from pathlib import Path

from heckeblocks.engine import (
    Hyperplane,
    Specialization,
    blocks_no_hyperplane,
    blocks_one_hyperplane,
    join,
    rouquier_blocks,
)
from heckeblocks.cyclo import RootOfUnity
from heckeblocks.groupblocks import CharacterTable, p_blocks
from heckeblocks.schur import essential_normals
from heckeblocks.store import load, load_group

from checks import on_hyperplane, write_g7_cut

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


# per stored group, TABLE_VECTORS seeded vectors on no stored hyperplane, as
# many on exactly one and as many on two or more
TABLE_GROUPS, TABLE_VECTORS = ("G4", "G6", "G7"), 5


def table_cases(g):
    """Seeded exponent vectors for g's table path: TABLE_VECTORS on 0, on 1
    and on 2 or more stored hyperplanes, G4's (1, 0, 0), on c_1-c_2=0 alone
    with a dot product of 1 on the next stored normal, and each vector's
    multiples on both sides of the packed product's bound
    L * max|n_j| < 2^62, L the largest |h|_1 of a stored normal.  Raises
    AssertionError when the draws miss a class."""
    normals = [t.normal for t in g.hyperplane_tables if t.normal is not None]
    rng = random.Random(f"golden table path {g.name}")
    by_hits = {0: [], 1: [], 2: []}
    for _ in range(100 * TABLE_VECTORS):
        n = tuple(rng.randint(-9, 9) for _ in range(g.slot_count))
        k = rng.randrange(3)
        if k:
            h1, h2 = rng.sample(normals, 2)
            n = on_hyperplane(h1, n)
            if k == 2:  # on h1 and on the part of h2 orthogonal to h1
                n = on_hyperplane(on_hyperplane(h1, h2), n)
        hits = min(sum(sum(map(mul, h, n)) == 0 for h in normals), 2)
        if any(n) and len(by_hits[hits]) < TABLE_VECTORS:
            by_hits[hits].append(n)
    assert all(len(v) == TABLE_VECTORS for v in by_hits.values()), g.name
    vectors = [n for drawn in by_hits.values() for n in drawn]
    if g.name == "G4":
        vectors.append((1, 0, 0))
    return _past_the_bound(vectors, normals)


def _past_the_bound(vectors, normals):
    """Each vector with its multiples on both sides of the packed product's
    bound L * max|n_j| < 2^62, L the largest |h|_1 of the normals."""
    bound = max(sum(map(abs, h)) for h in normals)
    cases = []
    for n in vectors:
        edge = (2**62 - 1) // (bound * max(map(abs, n)))
        cases += [tuple(k * x for x in n) for k in (1, edge, -edge - 1)]
    return cases


# on a full Schur payload, SCHUR_VECTORS seeded generic vectors, and one
# vector on each essential normal
SCHUR_VECTORS = 10


def schur_cases(g):
    """Seeded exponent vectors for g's Schur path, g a full payload:
    SCHUR_VECTORS generic ones and one on each essential normal, each with
    its multiples on both sides of the packed product's bound."""
    normals = sorted(essential_normals(g, g.primes))
    rng = random.Random(f"golden schur path {g.name}")

    def draw():
        return tuple(rng.randint(-9, 9) for _ in range(g.slot_count))

    vectors = [draw() for _ in range(SCHUR_VECTORS)]
    vectors += [on_hyperplane(h, draw()) for h in normals]
    return _past_the_bound([n for n in vectors if any(n)], normals)


def schur_case_fails(g, n):
    """Whether the Schur path's hyperplanes or blocks at n differ from the
    essential normals n lies on, by plain dot products, and the join over
    the primes p of |G| of blocks_no_hyperplane and blocks_one_hyperplane
    on each p-essential normal hit."""
    hit, parts = set(), []
    for p in g.primes:
        parts.append(blocks_no_hyperplane(g, p))
        for h in essential_normals(g, [p]):
            if sum(map(mul, h, n)) == 0:
                hit.add(h)
                parts.append(blocks_one_hyperplane(g, p, Hyperplane(h)))
    return rouquier_blocks(g, Specialization(n), "schur") != (
        [Hyperplane(h) for h in sorted(hit)], join(parts))


def table_case_fails(g, n):
    """Whether the table path's hyperplanes or blocks at n differ from the
    stored tables' plain scan and the join of the hit ones with the
    baseline."""
    hit = [t for t in g.hyperplane_tables
           if t.normal is not None and sum(map(mul, t.normal, n)) == 0]
    baseline, = (t.blocks for t in g.hyperplane_tables if t.normal is None)
    blocks = join([baseline] + [t.blocks for t in hit])
    return rouquier_blocks(g, Specialization(n)) != (
        [t.hyperplane for t in hit], blocks)


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
    cases = 0
    for name in TABLE_GROUPS:
        g = load_group(name)
        for n in table_cases(g):
            cases += 1
            if table_case_fails(g, n):
                failed.append(f"rouquier_blocks/{name}/{','.join(map(str, n))}")
    with tempfile.TemporaryDirectory() as db:
        cut = load(write_g7_cut(Path(db)))
    schur = schur_cases(cut)
    failed += [f"rouquier_blocks/schur/G7 cut/{','.join(map(str, n))}"
               for n in schur if schur_case_fails(cut, n)]
    for job in failed:
        print(f"FAIL {job}")
    print(f"{len(golden)} recorded jobs, {len(CYCLIC_CASES)} cyclic-table "
          f"cases, {cases} table-path cases and {len(schur)} Schur-path cases "
          f"replayed, {len(failed)} runs failed")
    return int(bool(failed))


if __name__ == "__main__":
    sys.exit(main())
