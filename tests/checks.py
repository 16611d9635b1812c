"""Set-ups that several tests share, each written once."""

import functools
import json
import sys
from operator import mul

from heckeblocks.groupblocks import Partition
from malformed_cases import SHIPPED


def once(check):
    """Run `check` once per session for each tuple of arguments, under
    whichever test asks first.  Arguments count by identity, as the
    session's group fixtures are not hashable.  A check that fails raises
    and is not remembered, so every test that asks for it fails."""
    passed = set()

    @functools.wraps(check)
    def run(*args):
        key = tuple(map(id, args))
        if key not in passed:
            check(*args)
            passed.add(key)

    return run


def patch_everywhere(monkeypatch, original, replacement):
    """Bind replacement wherever a loaded heckeblocks module binds original."""
    name = original.__name__
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("heckeblocks") and \
                vars(module).get(name) is original:
            monkeypatch.setattr(module, name, replacement)


def group_by_weight(weights, n, size):
    """1..size, the characters of weights (index -> w) grouped by <w, n>."""
    sums = {}
    for i, w in weights.items():
        sums.setdefault(sum(map(mul, w, n)), []).append(i)
    return Partition.generated_by(sums.values(), size)


def on_hyperplane(h, v):
    """v moved onto h's hyperplane, in integers: |h|^2 v - <v, h> h."""
    hh, vh = sum(map(mul, h, h)), sum(map(mul, v, h))
    return tuple(hh * x - vh * c for x, c in zip(v, h))


def write_g7_cut(directory):
    """Write G7 cut down to its three characters with Schur data, a full
    Schur payload with no hyperplane tables and no links, as
    directory/g7.json, and return that path."""
    doc = json.loads((SHIPPED / "g7.json").read_text())
    doc["characters"] = list(doc["schur_x"])
    del doc["hyperplane_tables"]
    path = directory / "g7.json"
    path.write_text(json.dumps(doc))
    return path
