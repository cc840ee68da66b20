"""Shared test configuration: every hypothesis test runs derandomized (the
same examples on every run), without an example database on disk and
without a per-example deadline; each test sets only its example count.
Every test starts with the CLI's process-POVM memo empty, so that none
depends on the files an earlier test read."""

import pytest
from hypothesis import settings

from ppovm import cli

settings.register_profile("ppovm", derandomize=True, database=None, deadline=None)
settings.load_profile("ppovm")


@pytest.fixture(autouse=True)
def _empty_ppovm_memo():
    cli._ppovm_memo.clear()
