"""Program set-up for each workload: cold import, group loads and warm-up.

The benchmark times `python3 perfbench/probe.py <workload>` as a fresh
process several times per run and reports the median as setup_s; the same
function prepares the program inside the benchmark process.  It imports
nothing of its own at module level, so the probe pays only for the program.
"""

import sys


def program_setup(workload: str) -> dict:
    """Import and load what `workload` queries; return the loaded groups."""
    if workload == "cli-cold":
        import heckeblocks.cli  # noqa: F401  (the import is the set-up)

        return {}
    from heckeblocks import engine, groupblocks, store

    if workload == "table-queries":
        groups = {name: store.load_group(name) for name in ("G4", "G6", "G7")}
        for g in groups.values():
            engine.rouquier_from_tables(
                g, engine.Specialization((0,) * g.slot_count))
        return groups
    if workload == "schur-heuristic":
        groups = {name: store.load_group(name) for name in ("G4", "G7")}
        engine.blocks_no_hyperplane(groups["G7"], 2)
        groupblocks.p_blocks(groups["G4"].character_table, 3)
        return groups
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    program_setup(sys.argv[1])
