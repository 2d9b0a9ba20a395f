"""Fixtures shared by the test suite.

Every test runs under CPython's default int/str digit limit (4300 digits),
as a caller of the library does, so no lift made elsewhere in the process
can hide a path that still calls ``str()`` or ``int()`` on a big number.
Tests whose oracle is ``str()`` of a big int take ``lifted_str_limit``.
Interpreters without the limit (before 3.11) leave it alone.
"""

import sys

import pytest

_HAS_LIMIT = hasattr(sys, "set_int_max_str_digits")


def _str_limit(digits):
    if not _HAS_LIMIT:
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture(autouse=True)
def default_str_limit():
    yield from _str_limit(sys.int_info.default_max_str_digits if _HAS_LIMIT else 0)


@pytest.fixture
def lifted_str_limit():
    yield from _str_limit(0)
