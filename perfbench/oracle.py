"""Expected answers, computed without the program under test.

Everything here reads the shipped JSON database with the json module and
re-derives the answers with its own code: hyperplane rendering, the finest
common coarsening of the stored block tables (connected components), and
the exact CLI text.  The outputs that README.md and tests/test_acceptance.py
pin for G4 are kept literally and checked against the derived answers once,
so a mistake in this module shows up as a failed self-check rather than as a
silently wrong oracle.
"""

from __future__ import annotations

import json
from pathlib import Path

GROUPS = ("G4", "G6", "G7")

# Pinned by README.md and tests/test_acceptance.py.
PINNED_ESSENTIAL_G4 = {
    0: {"c_1-c_2=0", "c_0-c_1=0", "c_0-c_2=0",
        "2c_0-c_1-c_2=0", "c_0-2c_1+c_2=0", "c_0+c_1-2c_2=0"},
    3: {"c_1-c_2=0", "c_0-c_1=0", "c_0-c_2=0"},
}
PINNED_ESSENTIAL_G4[2] = PINNED_ESSENTIAL_G4[0]
PINNED_ALL_BLOCKS_G4_INDEX = [
    "No essential hyperplane",
    "[[1],[2],[3],[4],[5],[6],[7]]",
    "c_1-c_2=0",
    "[[1],[2,3,4],[5,6],[7]]",
    "c_0-c_1=0",
    "[[1,2,6],[3],[4,5],[7]]",
    "c_0-c_2=0",
    "[[1,3,5],[2],[4,6],[7]]",
    "2c_0-c_1-c_2=0",
    "[[1,4,7],[2],[3],[5],[6]]",
    "c_0-2c_1+c_2=0",
    "[[1],[2,5,7],[3],[4],[6]]",
    "c_0+c_1-2c_2=0",
    "[[1],[2],[3,6,7],[4],[5]]",
]
PINNED_ROUQUIER_G4 = {
    (0, 1, 2): ["Essential hyperplanes hit: c_0-2c_1+c_2=0",
                "[[1],[2,5,7],[3],[4],[6]]"],
    (0, 0, 0): [None, "[[1,2,3,4,5,6,7]]"],
}
BAD_PRIME_MESSAGE = "Error, The number p should divide the order of the group"


class GroupTables:
    """The stored tables of one group, straight from its JSON file."""

    def __init__(self, doc: dict):
        self.name = doc["name"]
        self.orbit_sizes = [int(e) for _, e in doc["orbits"]]
        self.slot_names = [
            f"{letter}{j}" for letter, e in doc["orbits"] for j in range(e)
        ]
        self.characters = list(doc["characters"])
        self.tables = [
            (None if t.get("normal") is None else tuple(t["normal"]),
             [list(part) for part in t["blocks"]],
             frozenset(t.get("primes", [])))
            for t in doc["hyperplane_tables"]
        ]

    @property
    def slot_count(self) -> int:
        return len(self.slot_names)

    @property
    def normals(self) -> list[tuple[int, ...]]:
        return [n for n, _, _ in self.tables if n is not None]

    def hits(self, n) -> list[tuple[int, ...]]:
        """Stored normals the exponent vector lies on, in file order."""
        return [h for h in self.normals if dot(h, n) == 0]

    def blocks(self, n) -> list[list[int]]:
        """Connected components of the graph joining characters that share a
        part in the baseline table or in the table of a hit hyperplane."""
        hit = set(self.hits(n))
        size = len(self.characters)
        neighbours: dict[int, set[int]] = {i: set() for i in range(1, size + 1)}
        for normal, parts, _ in self.tables:
            if normal is None or normal in hit:
                for part in parts:
                    for i in part:
                        neighbours[i].update(part)
        seen: set[int] = set()
        out = []
        for start in range(1, size + 1):
            if start in seen:
                continue
            component, stack = [], [start]
            seen.add(start)
            while stack:
                i = stack.pop()
                component.append(i)
                for j in neighbours[i] - seen:
                    seen.add(j)
                    stack.append(j)
            out.append(sorted(component))
        return out

    def render_hyperplane(self, normal) -> str:
        terms = []
        for name, c in zip(self.slot_names, normal):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if terms else "")
            mag = "" if abs(c) == 1 else str(abs(c))
            terms.append(f"{sign}{mag}{name[0]}_{name[1:]}")
        return "".join(terms) + "=0"

    def render_partition(self, parts, display: str) -> str:
        parts = sorted((sorted(p) for p in parts), key=lambda p: p[0])
        if display == "name":
            parts = [[self.characters[i - 1] for i in p] for p in parts]
        return json.dumps(parts, separators=(",", ":"))

    def rouquier_lines(self, n, display: str) -> list[str]:
        hit = ", ".join(self.render_hyperplane(h) for h in self.hits(n))
        return [f"Essential hyperplanes hit: {hit or 'none'}",
                self.render_partition(self.blocks(n), display)]

    def all_blocks_lines(self, display: str) -> list[str]:
        lines = []
        for normal, parts, _ in self.tables:
            lines.append("No essential hyperplane" if normal is None
                         else self.render_hyperplane(normal))
            lines.append(self.render_partition(parts, display))
        return lines

    def essential_lines(self, p: int) -> set[str]:
        return {self.render_hyperplane(n) for n, _, primes in self.tables
                if n is not None and (p == 0 or p in primes)}


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def load_tables(data_dir: Path) -> dict[str, GroupTables]:
    out = {}
    for name in GROUPS:
        doc = json.loads((data_dir / f"{name.lower()}.json").read_text("utf-8"))
        out[name] = GroupTables(doc)
    self_check(out)
    return out


def self_check(tables: dict[str, GroupTables]) -> None:
    """Raise unless the derived answers reproduce every pinned G4 output."""
    g4 = tables["G4"]
    problems = []
    if g4.all_blocks_lines("index") != PINNED_ALL_BLOCKS_G4_INDEX:
        problems.append("all-blocks G4")
    for p, expected in PINNED_ESSENTIAL_G4.items():
        if g4.essential_lines(p) != expected:
            problems.append(f"essential-hyperplanes G4 -p {p}")
    for n, expected in PINNED_ROUQUIER_G4.items():
        got = g4.rouquier_lines(n, "index")
        if any(e is not None and e != line for e, line in zip(expected, got)):
            problems.append(f"rouquier-blocks G4 {n}")
    if problems:
        raise RuntimeError(f"oracle disagrees with pinned outputs: {problems}")


def load_golden(path: Path) -> dict[str, list[list[int]]]:
    """Schur-path partitions recorded at the seed commit, by job key."""
    return json.loads(path.read_text("utf-8"))["partitions"]
