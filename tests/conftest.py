"""Fixtures shared by the test modules: each shipped group, loaded once per
session from its file, so that a test's HECKE_DB never reaches it, and a
copy of the shipped database a test may rewrite.  The groups are shared:
no test may change a loaded datum in place."""

import shutil

import pytest

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


@pytest.fixture()
def db_copy(tmp_path):
    for path in SHIPPED.glob("*.json"):
        shutil.copy(path, tmp_path)
    return tmp_path
