"""Fixtures shared by the test modules: each shipped group, loaded once per
session from its file, so that a test's HECKE_DB never reaches it, G7 cut
to its Schur characters, and a database copy a test may rewrite.  The
groups are shared: no test may change a loaded datum in place."""

import shutil

import pytest

from heckeblocks.schur import Characters
from heckeblocks.store import load
from malformed_cases import SHIPPED


@pytest.fixture(scope="session")
def g4():
    return load(SHIPPED / "g4.json")


@pytest.fixture(scope="session")
def g6():
    return load(SHIPPED / "g6.json")


@pytest.fixture(scope="session")
def g7():
    return load(SHIPPED / "g7.json")


@pytest.fixture(scope="session")
def g7_cut(g7):
    """G7 cut to the 3 characters with stored Schur data, a full payload."""
    return g7._replace(characters=Characters(g7.schur_elements))


@pytest.fixture()
def db_copy(tmp_path):
    for path in SHIPPED.glob("*.json"):
        shutil.copy(path, tmp_path)
    return tmp_path
