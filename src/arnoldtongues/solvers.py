"""Small deterministic 1-d solvers used throughout the package.

These are intentionally simple: plain bisection on a sign change and a
golden-section minimiser.  Both are branch-free in the sense that the same
inputs always produce the same floating point outputs, which keeps sweep
artifacts byte-reproducible across runs.  Across platforms the bytes match
only where numpy's sin and cos round exactly like the C library's math.sin
and math.cos, because scalar lift evaluations go through math and array
evaluations through numpy (see maps.eval_lift).
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import RootBracketError

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_iter: int = 200,
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
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid == lo or mid == hi:
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
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
