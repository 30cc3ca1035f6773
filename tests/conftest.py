import sys
from contextlib import contextmanager

import pytest

from esym.field import make_field

FIELD_SPECS = ("q", "gf(2)", "gf(3)", "gf(4)", "gf(5)")


@pytest.fixture(params=FIELD_SPECS)
def any_field(request):
    return make_field(request.param)


@pytest.fixture(params=[s for s in FIELD_SPECS if s != "q"])
def finite_field(request):
    return make_field(request.param)


@contextmanager
def _recursion_limit(headroom=120):
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.fixture
def recursion_limit():
    """Context manager allowing only `headroom` (default 120) frames beyond
    the depth of the code that enters it."""
    return _recursion_limit
