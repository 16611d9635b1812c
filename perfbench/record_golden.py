"""Record the Schur-path partitions the schur-heuristic workload checks.

Run once, from the repository root, at the commit whose answers are taken as
correct:  python3 perfbench/record_golden.py
The job set is every call the workload makes: blocks_no_hyperplane(G7, p)
for p in 2, 3, 5; blocks_one_hyperplane(G7, p, h) for every p-essential
monomial h of the stored G7 Schur elements; p_blocks and
blocks_no_hyperplane on G4 for p in 2, 3.  Results are stored as they are,
including G7's 42 singletons away from every hyperplane.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from heckeblocks import engine, groupblocks, schur, store  # noqa: E402


def main():
    g4, g7 = store.load_group("G4"), store.load_group("G7")
    results = {}
    for p in (2, 3, 5):
        results[f"no_hyperplane/G7/{p}"] = engine.blocks_no_hyperplane(g7, p)
    for p in (2, 3):
        normals = set()
        for s in g7.schur_elements.values():
            normals |= schur.essential_monomials(s, p)
        for h in sorted(normals):
            key = f"one_hyperplane/G7/{p}/" + ",".join(map(str, h))
            results[key] = engine.blocks_one_hyperplane(
                g7, p, engine.Hyperplane(h))
        results[f"p_blocks/G4/{p}"] = groupblocks.p_blocks(g4.character_table, p)
        results[f"no_hyperplane/G4/{p}"] = engine.blocks_no_hyperplane(g4, p)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                            capture_output=True, text=True).stdout.strip()
    doc = {"commit": commit,
           "partitions": {k: [list(part) for part in v.parts]
                          for k, v in sorted(results.items())}}
    (HERE / "golden_schur.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
