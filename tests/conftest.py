"""Shared test configuration: every hypothesis test runs derandomized (the
same examples on every run), without an example database on disk and
without a per-example deadline; each test sets only its example count."""

from hypothesis import settings

settings.register_profile("ppovm", derandomize=True, database=None, deadline=None)
settings.load_profile("ppovm")
