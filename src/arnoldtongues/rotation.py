"""Rotation numbers and rotation intervals for degree-one lifts.

A nondecreasing degree-one lift has a single rotation number, estimated
here by forward iteration with the classical 1/n error bound and, when
possible, certified to equal a nearby rational exactly.  A lift with a
decreasing lap has a whole interval of rotation numbers, bounded by the
rotation numbers of its two monotone envelopes.

The rotation estimate and the level function G = f^q - x - p (_closure)
iterate through one kernel, _iterate.  The certificate and the orbit scan
in orbits share G and its dip search (_dips).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from .maps import MINUS, PLUS, ArrayLike, MonotoneLift, Params, envelope, eval_lift
from .solvers import golden_min

# Rational values are plain stdlib fractions throughout the package.
Rational = Fraction

# Largest denominator for rational certification unless overridden.
Q_MAX_DEFAULT = 64

# Half-width of the certificate's zero band.  A level function whose global
# extrema both land within this band is treated as touching zero.
TOLZ = 1e-13


@dataclass(frozen=True)
class RhoEstimate:
    """Rotation number estimate for a monotone lift.

    The true rotation number lies in [value - error_bound, value + error_bound].
    exact_rational carries the rational the estimate was certified to equal
    when certification succeeded; value itself stays the raw iteration
    estimate either way.
    """

    value: float
    error_bound: float
    exact_rational: Optional[Rational]
    n_iter: int


@dataclass(frozen=True)
class RotationInterval:
    """Rotation interval [lo.value, hi.value] of a degree-one lift.

    Each endpoint is the rotation estimate of one monotone envelope,
    complete with its own error bound and optional rational certificate.
    """

    lo: RhoEstimate
    hi: RhoEstimate

    @property
    def width(self) -> float:
        return self.hi.value - self.lo.value


def _iterate(f: Callable[[ArrayLike], ArrayLike], x: ArrayLike, n: int) -> ArrayLike:
    """n-fold application of the lift f (m.eval or a raw lift), mod-1 reduced.

    The integer winding is accumulated separately so the trigonometric
    part is always evaluated on a small argument.  As in maps.eval_lift, a
    float x (numpy float64 included) takes math.floor and anything else is
    iterated as a float array with np.floor.
    """
    if isinstance(x, float):
        y, floor, wind = x, math.floor, 0.0
    else:
        y = np.array(x, dtype=float)
        floor, wind = np.floor, np.zeros_like(y)
    for _ in range(n):
        y = f(y)
        k = floor(y)
        wind += k
        y -= k
    return y + wind


def snap_rational(value: float, tol: float, q_max: int) -> Optional[Rational]:
    """Closest fraction p/q with q <= q_max within tol of value, or None.

    Ties between equally close fractions go to the smaller denominator.
    """
    if not math.isfinite(value):
        raise ValueError(f"value must be finite, got {value!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1, got {q_max!r}")
    best: Optional[Rational] = None
    best_err = tol
    for q in range(1, q_max + 1):
        p = round(value * q)
        err = abs(value - p / q)
        if err < best_err:
            best = Fraction(p, q)
            best_err = err
    return best


def _closure(f: Callable[[ArrayLike], ArrayLike], r: Rational, q_max: int, s: int = 1) -> Callable:
    """s*G for the level function G(x) = f^q(x) - x - p of r = p/q and s = +-1."""
    if r.denominator > q_max:
        raise ValueError(f"denominator {r.denominator} exceeds q_max={q_max}")
    q, p_num = r.denominator, r.numerator
    if s == 1:  # no multiply: one per golden-section probe cost 2 % on the trace benchmark
        return lambda x: _iterate(f, x, q) - x - p_num
    return lambda x: s * (_iterate(f, x, q) - x - p_num)


def _dips(
    f: Callable[[float], float], grid: np.ndarray, values: np.ndarray, keep=True, xtol: float = 1e-9
) -> Iterator[Tuple[float, float]]:
    """(x, f(x)) at the golden-section minimum of f within one cell of each dip.

    A dip is a cyclic grid-local minimum of values = f(grid) on the periodic
    grid arange(n)/n where the mask keep holds, in grid order.  Narrow dips
    between grid points are the only way a grid misses a zero of G.
    """
    h = 1.0 / len(grid)
    local_min = (values <= np.roll(values, 1)) & (values <= np.roll(values, -1))
    for x in grid[local_min & keep]:
        xm = golden_min(f, x - h, x + h, xtol=xtol)
        yield xm, f(xm)


def level_sign(m: MonotoneLift, r: Rational, q_max: int = Q_MAX_DEFAULT) -> int:
    """Position of the rotation number of m relative to the rational r.

    Returns -1 if the rotation number is strictly below r, +1 if strictly
    above, and 0 if it equals r.  Works by studying the sign of

        G(x) = m^q(x) - x - p

    over one period: G < 0 everywhere means the rotation number is below
    p/q, G > 0 everywhere means above, and G attaining both signs or a
    zero pins it to exactly p/q.  The side is decided on the raw grid:
    a strict sign there leaves only that side able to turn into a touch,
    so only the dips of s*G (_dips, shared with the orbit scan) are
    sharpened.  Values within the zero band TOLZ count as zero.
    """
    n_grid = max(64, 8 * r.denominator)
    grid = np.arange(n_grid, dtype=float) / n_grid
    closure = _closure(m.eval, r, q_max)
    g = closure(grid)
    # A nan anywhere in g fails both tests, so a nan grid returns 0.
    if float(np.min(g)) > TOLZ:
        s = 1
    elif float(np.max(g)) < -TOLZ:
        s, closure = -1, _closure(m.eval, r, q_max, -1)
    else:
        # Both signs (or a touch) already visible on the raw grid.
        return 0
    for _, sg in _dips(closure, grid, s * g):
        if sg <= TOLZ:
            return 0
    return s


def rho_exact_rational_test(
    m: MonotoneLift, r: Rational, q_max: int = Q_MAX_DEFAULT
) -> bool:
    """True when the rotation number of m is certified to equal r exactly.

    The certificate is the sign behaviour of m^q - id - p on one period.
    A true result is rigorous up to the zero-band tolerance; a false
    result means the level function kept a strict sign everywhere sampled.
    """
    return level_sign(m, r, q_max=q_max) == 0


def rho_monotone(
    m: MonotoneLift,
    n_iter: int = 2000,
    x0: float = 0.0,
    q_max: int = Q_MAX_DEFAULT,
) -> RhoEstimate:
    """Rotation number of a nondecreasing degree-one lift.

    Forward iteration gives (m^n(x0) - x0)/n, which for such lifts is
    within 1/n of the true rotation number regardless of x0.  The estimate
    is then snapped to the nearest rational with denominator at most q_max
    inside the error bound; the snap is reported only when the exact
    level-set certificate confirms it.  Pass q_max=0 to skip snapping.
    """
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter!r}")
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0!r}")
    # float(x0): an int x0 would otherwise take _iterate's array path.
    value = (_iterate(m.eval, float(x0), n_iter) - x0) / n_iter
    if not math.isfinite(value):
        raise ValueError(f"rotation estimate overflowed: offset a = {m.base.a!r} is too large")
    bound = 1.0 / n_iter
    cert: Optional[Rational] = None
    if q_max > 0:
        cand = snap_rational(value, bound + 1e-12, q_max)
        if cand is not None and rho_exact_rational_test(m, cand, q_max=q_max):
            cert = cand
    return RhoEstimate(value=value, error_bound=bound, exact_rational=cert, n_iter=n_iter)


def rotation_interval(
    p: Params,
    n_iter: Optional[int] = None,
    tol: float = 1e-3,
    x0: float = 0.0,
    q_max: int = Q_MAX_DEFAULT,
) -> RotationInterval:
    """Rotation interval of the lift with parameters p.

    The endpoints are the rotation numbers of the lower and upper monotone
    envelopes.  n_iter overrides the iteration count derived from tol
    (enough iterations that each endpoint is within tol even without a
    rational certificate).
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if n_iter is None:
        n_iter = max(1, math.ceil(2.0 / tol))
    lo = rho_monotone(envelope(p, MINUS), n_iter=n_iter, x0=x0, q_max=q_max)
    hi = rho_monotone(envelope(p, PLUS), n_iter=n_iter, x0=x0, q_max=q_max)
    return RotationInterval(lo=lo, hi=hi)


def rho_bounds_bruteforce(
    p: Params,
    n_x0: int = 256,
    n_iter: int = 10_000,
) -> Tuple[float, float]:
    """Crude rotation bounds from forward orbits of the raw lift.

    Iterates n_x0 equally spaced starting points and keeps, for each
    orbit, the running minimum and maximum of (x_k - x_0)/k over the tail
    window k in [n/2, n], a finite-time surrogate for the liminf and
    limsup rotation averages.  Returns the smallest minimum and largest
    maximum across orbits.  These bounds only see rotation numbers
    realised by forward orbits; interval endpoints carried by repelling
    invariant sets are invisible to them.
    """
    if n_x0 < 1:
        raise ValueError(f"n_x0 must be >= 1, got {n_x0!r}")
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter!r}")
    tail_start = max(1, n_iter // 2)
    x = np.arange(n_x0, dtype=float) / n_x0
    y = np.array(x)
    wind = np.zeros_like(y)
    lo = np.full_like(y, np.inf)
    hi = np.full_like(y, -np.inf)
    for k in range(1, n_iter + 1):
        y = eval_lift(p, y)
        shift = np.floor(y)
        wind += shift
        y -= shift
        if k >= tail_start:
            rate = (y + wind - x) / k
            np.minimum(lo, rate, out=lo)
            np.maximum(hi, rate, out=hi)
    return float(np.min(lo)), float(np.max(hi))
