"""`once`: a check that two tests assert, run once per session."""

import functools


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
