"""The shared bisection loop and its root-finding wrapper."""

import math
import sys

import pytest

from arnoldtongues import RootBracketError
from arnoldtongues.solvers import _MAX_HALVINGS, bisect, bisect_root


def counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def test_bisect_exact_zero_at_midpoint():
    f, calls = counted(lambda x: x - 0.5)
    assert bisect(f, 0.0, 1.0, -0.5, 1e-12) == (0.5, 0.5)
    assert calls == [0.5]


def test_bisect_uses_the_given_f_lo():
    # f is positive everywhere, so only flo decides which end moves; f is
    # never evaluated at either end, and a bracket exactly tol wide stops.
    f, calls = counted(lambda x: 1.0)
    assert bisect(f, 0.0, 1.0, -1.0, 0.25) == (0.0, 0.25)
    assert calls == [0.5, 0.25]
    f, calls = counted(lambda x: 1.0)
    assert bisect(f, 0.0, 1.0, 1.0, 0.25) == (0.75, 1.0)
    assert calls == [0.5, 0.75]


def test_bisect_stops_when_mid_hits_an_end():
    f, calls = counted(lambda x: x - 1.0)
    hi = math.nextafter(1.0, 2.0)
    assert bisect(f, 1.0, hi, -1.0, 0.0) == (1.0, hi)
    assert calls == []
    # With tol = 0 and no exact zero, the loop runs down to adjacent floats
    # around the sign change.
    c = 1.0 / 3.0
    lo, hi = bisect(lambda x: 1.0 if x >= c else -1.0, 0.0, 1.0, -1.0, 0.0)
    assert hi == math.nextafter(lo, 2.0) == c


def test_bisect_cap_does_not_bind_on_the_widest_bracket():
    # From the largest floats down to adjacent subnormals near 1e-310.
    c = 1e-310
    f, calls = counted(lambda x: 1.0 if x >= c else -1.0)
    lo, hi = bisect(f, -sys.float_info.max, sys.float_info.max, -1.0, 0.0)
    assert hi == math.nextafter(lo, 1.0) == c
    assert 2000 < len(calls) < _MAX_HALVINGS


def test_bisect_root_endpoints_and_bracket():
    assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0
    assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0
    assert bisect_root(lambda x: x - 0.5, 0.0, 1.0) == 0.5
    assert bisect_root(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-14) == pytest.approx(
        math.sqrt(2.0), abs=1e-14
    )
    with pytest.raises(RootBracketError):
        bisect_root(lambda x: x + 1.0, 0.0, 1.0)
