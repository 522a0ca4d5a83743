"""Small deterministic 1-d solvers used throughout the package.

These are intentionally simple: plain bisection on a sign change and a
golden-section minimiser.  Both are branch-free in the sense that the same
inputs always produce the same floating point outputs, which keeps sweep
artifacts byte-reproducible across runs.  Across platforms the bytes match
only where numpy's sin and cos round exactly like the C library's math.sin
and math.cos, because grids and raster blocks are evaluated with numpy
while every scalar evaluation goes through math: the points these solvers
probe and the rotation estimate run on the fused kernel
rotation._scalar_iterate, the orbit scan's Newton steps on
orbits._closure_jet, which inlines the same float expressions over math,
and the plateau ends and single-point queries on maps.eval_lift and
maps.deriv.

bisect is the package's only bisection loop: plateau ends, orbit roots,
tongue edges and curve crossings all go through it.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

from .errors import RootBracketError

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


# A finite bracket is at most 2**1025 wide and floats are at least 2**-1074
# apart, so mid == lo or mid == hi stops bisect within about 2100 halvings.
_MAX_HALVINGS = 2200


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    flo: float,
    tol: float,
) -> Tuple[float, float]:
    """Final bracket of a bisection on a sign change of f over [lo, hi].

    flo is the caller's value of f(lo), nonzero and of the opposite sign to
    f(hi); f(hi) itself is never evaluated.  Halves until the bracket is no
    wider than tol or no float lies strictly inside it.  An exact zero of f
    at a midpoint m returns (m, m).
    """
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid == lo or mid == hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid, mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return lo, hi


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> float:
    """Root of f on [lo, hi] by bisection.

    Requires a sign change (an endpoint hitting exactly zero counts).
    Raises RootBracketError otherwise.  Returns the bracket midpoint once
    the bracket is narrower than tol.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise RootBracketError(
            f"no sign change on [{lo!r}, {hi!r}]: f(lo)={flo!r}, f(hi)={fhi!r}"
        )
    lo, hi = bisect(f, lo, hi, flo, tol)
    return 0.5 * (lo + hi)


def golden_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float = 1e-9,
) -> float:
    """Argmin of a unimodal f on [lo, hi] by golden-section search."""
    a, b = lo, hi
    h = b - a
    if h <= xtol:
        return 0.5 * (a + b)
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    fc = f(c)
    fd = f(d)
    n = max(1, math.ceil(math.log(xtol / h) / math.log(_INV_PHI)))
    for _ in range(n):
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INV_PHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = f(d)
    return 0.5 * (a + b) if fc < fd else 0.5 * (c + b)
