"""Degree-one circle map lifts of the standard two-parameter sine family.

The family is

    F(x) = x + a + (b / 2 pi) * sin(2 pi x)

which commutes with integer translation, F(x + 1) = F(x) + 1.  For b <= 1
the lift is nondecreasing.  For b > 1 it has one decreasing lap per period
and the monotone upper and lower envelopes acquire a plateau.  Everything
downstream (rotation numbers, tongue boundaries, sweeps) is built on the
three things this module provides: pointwise evaluation with derivatives,
the critical set, and the two monotone envelopes, whose plateau interval
depends on b alone and is computed once per b.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import CriticalPointError
from .solvers import bisect_root

TWO_PI = 2.0 * math.pi

PLUS = "plus"
MINUS = "minus"

ArrayLike = Union[float, np.ndarray]

# Below this |F'| the Schwarzian derivative is considered singular.
DERIV_FLOOR = 1e-9


@dataclass(frozen=True)
class Params:
    """Parameter pair (a, b) with b >= 0.

    a is the rigid translation part, b the nonlinearity amplitude.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.b >= 0.0):
            raise ValueError(f"amplitude b must be >= 0, got {self.b!r}")
        if not math.isfinite(self.a):
            raise ValueError(f"offset a must be finite, got {self.a!r}")
        if not math.isfinite(self.b):
            raise ValueError(f"amplitude b must be finite, got {self.b!r}")


@dataclass(frozen=True)
class CriticalSet:
    """Critical points of the lift in [0, 1), with a degeneracy flag.

    points is () for b < 1, (1/2,) for b == 1 (a degenerate inflection
    with F' = 0 but no sign change), and (x_max, x_min) for b > 1 where
    x_max < x_min are the local maximum and minimum of one period.
    """

    points: Tuple[float, ...]
    degenerate: bool


def _step(y: np.ndarray, a: ArrayLike, c: ArrayLike, fold: Optional[Tuple] = None) -> np.ndarray:
    """y + a + c sin(2 pi y) on a float array y, the one array spelling of a lift step.

    fold = (w, lo, hi, value), MonotoneLift._fold plus the flat value, makes it the
    envelope's step: y folds into t in [w, w + 1), flat at value + y - t where lo <= t <= hi.
    a, c and the fold broadcast against y.  Flat cells skip their sin; the mask
    changes no bit of the other cells.
    """
    if fold is None:
        return y + a + c * np.sin(TWO_PI * y)
    w, lo, hi, value = fold
    n = np.floor(y - w)
    t = y - n
    flat = (lo <= t) & (t <= hi)
    arg = TWO_PI * t
    np.sin(arg, out=arg, where=~flat)
    return np.where(flat, value, t + a + c * arg) + n


def eval_lift(p: Params, x: ArrayLike) -> ArrayLike:
    """Value of the lift at x.  Accepts floats, arrays and sequences.

    A float x (numpy float64 included) is evaluated with math and returns a
    float; anything else becomes a float array and takes one _step.  Both
    paths apply the same operations in the same order, so on builds where
    numpy's sin and cos round like the C library's the scalar result equals
    the matching array element bit for bit.  A non-finite float gives nan.
    """
    if isinstance(x, float):
        if not math.isfinite(x):
            return math.nan
        x = float(x)
        return x + p.a + (p.b / TWO_PI) * math.sin(TWO_PI * x)
    return _step(np.asarray(x, dtype=float), p.a, p.b / TWO_PI)


def deriv(p: Params, x: ArrayLike, order: int = 1) -> ArrayLike:
    """Derivative of the lift of the given order (1, 2 or 3).

    Float and array inputs are evaluated as in eval_lift.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2 or 3, got {order!r}")
    if isinstance(x, float):
        if not math.isfinite(x):
            return math.nan
        sin, cos, xv = math.sin, math.cos, float(x)
    else:
        sin, cos, xv = np.sin, np.cos, np.asarray(x, dtype=float)
    if order == 1:
        return 1.0 + p.b * cos(TWO_PI * xv)
    if order == 2:
        return -TWO_PI * p.b * sin(TWO_PI * xv)
    return -TWO_PI * TWO_PI * p.b * cos(TWO_PI * xv)


def schwarzian(p: Params, x: ArrayLike) -> ArrayLike:
    """Schwarzian derivative F'''/F' - (3/2)(F''/F')^2 of the lift.

    Raises CriticalPointError if |F'| < 1e-9 anywhere in x, since the
    expression blows up there.
    """
    xv = np.asarray(x, dtype=float)
    d1 = deriv(p, xv, 1)
    if np.any(np.abs(d1) < DERIV_FLOOR):
        raise CriticalPointError(
            "Schwarzian derivative requested within 1e-9 of a critical point"
        )
    d2 = deriv(p, xv, 2)
    d3 = deriv(p, xv, 3)
    r = d2 / d1
    out = d3 / d1 - 1.5 * r * r
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def critical_points(p: Params) -> CriticalSet:
    """Critical set of the lift in the fundamental interval [0, 1).

    For b > 1 the lap where F' < 0 is exactly the open interval between
    the two returned points.
    """
    if p.b < 1.0:
        return CriticalSet(points=(), degenerate=False)
    if p.b == 1.0:
        return CriticalSet(points=(0.5,), degenerate=True)
    # Solutions of cos(2 pi x) = -1/b in [0, 1): one in (1/4, 1/2),
    # its mirror 1 - x in (1/2, 3/4).
    x_max = math.acos(-1.0 / p.b) / TWO_PI
    x_min = 1.0 - x_max
    return CriticalSet(points=(x_max, x_min), degenerate=False)


@dataclass(frozen=True)
class MonotoneLift:
    """A nondecreasing degree-one lift, possibly with one plateau per period.

    For b <= 1 this is the raw lift itself and the plateau fields are None.
    For b > 1 it is constant at plateau_value on [plateau_start, plateau_end],
    an interval that depends on b alone; the lower envelope's is the upper
    one's reflected through x -> 1 - x.  Both envelopes commute with integer
    translation, so one plateau and its fold (_fold) cover the whole line.
    """

    base: Params
    which: str
    plateau_start: Optional[float]
    plateau_end: Optional[float]
    plateau_value: Optional[float]

    @property
    def _fold(self) -> Optional[Tuple[float, float, float]]:
        """(w, lo, hi): x folds into t in [w, w + 1), flat where lo <= t <= hi; None if no plateau.

        The one fold; _step_args adds the flat value for every caller of _step.
        """
        if self.plateau_start is None:
            return None
        if self.which == PLUS:
            return self.plateau_start, -math.inf, self.plateau_end
        return self.plateau_end - 1.0, self.plateau_start, math.inf

    @property
    def _flat_point(self) -> float:
        """x*, where F_a takes the flat value: plateau_start (plus), plateau_end (minus); b > 1 only."""
        return self.plateau_start if self.which == PLUS else self.plateau_end

    def eval(self, x: ArrayLike) -> ArrayLike:
        """The monotone lift at x (scalar, array or sequence) by one _step; a scalar gives a float."""
        y = np.asarray(x, dtype=float)
        val = _step(y.reshape(1) if y.ndim == 0 else y, *_step_args(self))
        return float(val[0]) if y.ndim == 0 else val


def _step_args(lift: Union[MonotoneLift, Params]) -> Tuple[float, float, Optional[Tuple]]:
    """_step's (a, c, fold) for a Params lift or a MonotoneLift, the one place a fold gains its flat value."""
    if isinstance(lift, Params):
        return lift.a, lift.b / TWO_PI, None
    fold = lift._fold
    return lift.base.a, lift.base.b / TWO_PI, None if fold is None else (*fold, lift.plateau_value)


@functools.lru_cache(maxsize=1024)
def _plateau(b: float) -> Tuple[float, float]:
    """Upper-envelope plateau [x_max, s] shared by every lift of amplitude b > 1.

    sup over y <= x of F_a(y) is the a = 0 envelope plus a, so the interval
    depends on b alone: from the local maximum x_max until the rising branch
    past x_min = 1 - x_max climbs back to F_0(x_max) at s.  That bracket can
    only fail (RootBracketError) through rounding at its ends.  The last 1024
    b values are kept; a trace probes each b about twenty times in a row.
    """
    p = Params(0.0, b)
    x_max = critical_points(p).points[0]
    value = eval_lift(p, x_max)
    s = bisect_root(lambda t: eval_lift(p, t) - value, 1.0 - x_max, x_max + 1.0, tol=1e-14)
    return x_max, s


def envelope(p: Params, which: str) -> MonotoneLift:
    """Upper ("plus") or lower ("minus") monotone envelope of the lift.

    The upper envelope is sup over y <= x of F(y), the lower envelope is
    inf over y >= x of F(y).  For b <= 1 both coincide with F itself.  For
    b > 1 the plateau interval is _plateau(b), computed once per b; only the
    plateau value, the lift at the local extremum, depends on a.
    """
    if which not in (PLUS, MINUS):
        raise ValueError(f"which must be {PLUS!r} or {MINUS!r}, got {which!r}")
    if p.b <= 1.0:
        return MonotoneLift(
            base=p, which=which, plateau_start=None, plateau_end=None, plateau_value=None
        )
    x_max, s = _plateau(p.b)
    # F_0(1 - x) = 1 - F_0(x) reflects the upper plateau onto the lower one,
    # [1 - s, x_min]; s lies in (0.5, 1.5), so 1 - s is exact (Sterbenz).
    start, end = (x_max, s) if which == PLUS else (1.0 - s, 1.0 - x_max)
    value = eval_lift(p, start if which == PLUS else end)
    return MonotoneLift(base=p, which=which, plateau_start=start, plateau_end=end, plateau_value=value)
