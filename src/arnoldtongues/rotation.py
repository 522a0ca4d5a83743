"""Rotation numbers and rotation intervals for degree-one lifts.

A nondecreasing degree-one lift has a single rotation number, estimated
here by forward iteration with the classical 1/n error bound and, when
possible, certified to equal a nearby rational exactly.  A lift with a
decreasing lap has a whole interval of rotation numbers, bounded by the
rotation numbers of its two monotone envelopes.

Lifts are iterated by one array kernel, _iterate, and its fused scalar
twin, _scalar_kernel (bound to a lift by _scalar_iterate), which applies
the same operations in the same order with math.  The level function
G = f^q - x - p runs on grids through the array one (_level_grid) and at
single points through the scalar one (_closure); the rotation estimate
runs on the scalar one and the raster (sweep) on the array one.  Both stop
a long run once its float orbit repeats and add the whole periods'
winding exactly, so a locked lift costs a few dozen steps, bit for bit.
The array kernel hands its last few live cells to the scalar one, which
keeps the bits as long as math.sin rounds like numpy's sin.  The
certificate and the orbit scan in orbits share G and its dip search
(_dips).

A lock is proved first from the float cycle the scalar kernel reports
(_cycle_rho): for a nondecreasing lift rho = p/q exactly when G has a
zero, and outward-rounded bounds of G (_g_bounds, which assume math.sin
is within one ulp and allow for the float plateau's own error) that
change sign beside the cycle prove one.  level_sign, the sign of G over a
grid and its sharpened dips, decides only where no cycle was found or
the bounds do not separate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Tuple, Union

import numpy as np

from .maps import MINUS, PLUS, TWO_PI, ArrayLike, MonotoneLift, Params, envelope, eval_lift
from .maps import _plateau, _step, _step_args
from .solvers import golden_min

# Rational values are plain stdlib fractions throughout the package.
Rational = Fraction

# Largest denominator for rational certification unless overridden.
Q_MAX_DEFAULT = 64

# Half-width of the certificate's zero band.  A level function whose global
# extrema both land within this band is treated as touching zero.
TOLZ = 1e-13

# Largest iteration count; 1e9 scalar steps take minutes when the float
# orbit does not repeat (a repeating one is cut short by _scalar_iterate).
_N_ITER_MAX = 10**9

# Integer-valued floats below this add exactly.
_EXACT = 2.0**53

# The kernels look for a repeating float orbit within this many steps.
_CYCLE_STEPS = 2**17

# _iterate hands its live cells to _scalar_kernel once no more than this many
# are left.  An array step costs about 17 us at 40 cells, mostly the dispatch
# of some 19 ufuncs, and a fused scalar step about 0.3 us per cell.  On the
# b > 1 arrays of 100 benchmark-shaped 48x48 rasters (numpy 2.4.6, 2-vCPU
# x86-64 VM) the array took, per call against no tail, 0.59 of the time at
# 16 cells, 0.55 at 32, 0.55 at 48, 0.54 at 64, 0.56 at 96 and 0.59 at 128;
# against 32 cells, 48 took 0.98, 64 0.98 and 80 1.00 (medians of 120).
_TAIL_CELLS = 48


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


def _iterate(x: np.ndarray, a: ArrayLike, c: ArrayLike, fold: Optional[Tuple], n: int) -> np.ndarray:
    """n winding-reduced steps _step(y, a, c, fold) from the float array x, cells stopped at their cycle.

    a, c and each column of fold (as maps._step_args binds a lift) are a
    scalar or an array of x's length.  The integer winding is kept apart, so
    the sin sees a reduced argument.  _scalar_iterate is the float twin.

    A cell stops once its float orbit repeats (Brent's cycle check): y and
    the wind are kept at steps 1, 2, 4, ..., marks all cells share, and a
    later y equal to a cell's kept one gives the period lam and the winding
    W since the mark, as a step depends on the reduced y alone.  The whole
    periods left add (rest // lam) * W at once, the rest % lam steps run, and
    done cells are compacted out with the parameters that are arrays.  A
    jumped cell is done within lam - 1 steps, before it could hit again (lam
    steps on, or lam past the next mark).  The winding is a sum of integer-
    valued floats, exact below 2**53, so every bit is the plain loop's: the
    check runs only when n > 64 and max|x| + (max|a| + max c + 3) n < 2**53
    bounds every partial winding, and only over the first _CYCLE_STEPS
    steps.  Nothing is allocated for it before a first repeat, so short
    runs, such as the level grid's, pay one bool test per step.

    Once a compaction leaves at most _TAIL_CELLS cells, an array step costs
    more than their scalar steps, so each finishes in _scalar_kernel bound
    to its own a, c and fold: from its reduced y and wind, its last end - i
    steps if it has jumped, else the n - i left, with the scalar kernel's
    own marks.  Any schedule of marks adds exact integer windings, so the
    bits stay the plain loop's wherever numpy's sin rounds like math.sin,
    the assumption the scalar twin already rests on.  A level grid of
    n <= 64 steps never compacts, so it never reaches this tail.
    """
    y = np.array(x, dtype=float)
    wind = np.zeros_like(y)
    if not y.size:
        return y
    cells = [a, c, *(() if fold is None else fold)]  # the arrays among them are compacted with y
    check = n > 64 and np.max(np.abs(y), initial=0.0) + (
        np.max(np.abs(a), initial=0.0) + np.max(c, initial=0.0) + 3.0
    ) * n < _EXACT
    out, stop, nxt = None, n + 1, 1
    for i in range(1, n + 1):
        y = _step(y, cells[0], cells[1], cells[2:] or None)
        k = np.floor(y)
        wind += k
        y -= k
        if check:
            if i == nxt:
                mark, nxt, check = i, 2 * i, 2 * i <= _CYCLE_STEPS
                y_mark, w_mark = y, wind.copy()
            else:
                hit = y == y_mark
                if hit.any():
                    if out is None:  # each cell's place in out, and the step it is done after
                        out, live, end = np.empty_like(y), np.arange(len(y)), np.full(len(y), n)
                    j = np.flatnonzero(hit)
                    lam = i - mark
                    wind[j] += (n - i) // lam * (wind[j] - w_mark[j])
                    end[j] = i + (n - i) % lam
                    stop = min(stop, int(end[j].min()))
        if i == stop:
            done = end == i
            out[live[done]] = y[done] + wind[done]
            keep = ~done
            if not keep.any():
                return out
            y, wind, y_mark, w_mark, live, end = (v[keep] for v in (y, wind, y_mark, w_mark, live, end))
            cells = [v[keep] if np.ndim(v) else v for v in cells]
            if len(y) <= _TAIL_CELLS:  # each cell runs its last end - i steps in the scalar kernel
                cols = [v.tolist() if np.ndim(v) else [float(v)] * len(y) for v in cells]
                for k, y_k, w_k, e_k, (a_k, c_k, *fold_k) in zip(
                    live.tolist(), y.tolist(), wind.tolist(), end.tolist(), zip(*cols)
                ):
                    out[k] = _scalar_kernel(a_k, c_k, fold_k or None)(y_k, e_k - i, w_k)
                return out
            stop = int(end.min())
    return y + wind


def _scalar_iterate(lift: Union[MonotoneLift, Params]) -> Callable[..., float]:
    """it(x, n), the n-fold _iterate of the lift at one float x: _scalar_kernel of its maps._step_args.

    lift is a MonotoneLift (raw for b <= 1, or an envelope with a plateau)
    or a raw Params lift.
    """
    return _scalar_kernel(*_step_args(lift))


def _scalar_kernel(a: float, c: float, fold: Optional[Tuple]) -> Callable[..., float]:
    """it(x, n, wind=0.0, cycle=None), n winding-reduced steps _step(y, a, c, fold) from one float x, fused over math.

    a, c and fold are bound once, as maps._step_args gives them, and each
    step applies the operations of maps._step in order, so it(x, n) is a
    float equal to the matching element of the array _iterate bit for bit
    wherever numpy's sin rounds like math.sin.  wind is a winding already
    run, added to the result as the loop adds its own; _iterate passes a
    cell's when it hands the cell over.  A non-finite x is a ValueError,
    never a number.

    A run of n > 64 steps stops early once its float orbit repeats, by
    _iterate's rule: y is kept at steps 1, 2, 4, ..., and a later y equal to
    the kept one means period lam = i - mark.  The whole periods left add
    their winding as one multiple, and the fewer than lam steps left run
    plainly.  The check runs only when |x| + |wind| + (|a| + c + 3) n < 2**53
    bounds every partial winding, and only over the first _CYCLE_STEPS
    steps, since a locked orbit repeats far sooner and the check costs an
    orbit that never repeats about 15 % per step.  Short runs, such as the
    golden-section probes of G, pay one bool test per step.  A list passed
    as cycle receives the repeat found, (lam, W, y*): the period, its
    winding and the reduced y where it closed, a point on the float cycle
    (_cycle_rho proves a lock from it).
    """
    sin, floor, isfinite = math.sin, math.floor, math.isfinite
    # Bound on |floor(y)| after one step from a reduced y.
    span = abs(a) + c + 3.0
    if fold is not None:
        w, lo, hi, value = fold

    def it(x: float, n: int, wind: float = 0.0, cycle: Optional[list] = None) -> float:
        y = float(x)
        if not isfinite(y):
            raise ValueError(f"x must be finite, got {x!r}")
        if n > 64:
            check, nxt, jumped = abs(y) + abs(wind) + span * n < _EXACT, 0, False
        else:
            check = False
        for i in range(n):
            if fold is None:
                y = y + a + c * sin(TWO_PI * y)
            else:
                m = floor(y - w)
                t = y - m
                y = (value if lo <= t <= hi else t + a + c * sin(TWO_PI * t)) + m
            k = floor(y)
            wind += k
            y -= k
            if check:  # i + 1 steps done
                if i == nxt:
                    if jumped:
                        break
                    mark, nxt, y_mark, w_mark = i, 2 * i + 1, y, wind
                    check = nxt < _CYCLE_STEPS
                elif y == y_mark:
                    # Add the whole periods left at once, then run the rest and stop at nxt.
                    # Not a recursive call: a self-referencing closure per level function
                    # is a reference cycle, which slowed the trace benchmark about 4 %.
                    lam, rest, w_lam = i - mark, n - i - 1, wind - w_mark
                    if cycle is not None:
                        cycle.extend((lam, w_lam, y))
                    wind += rest // lam * w_lam
                    if not rest % lam:
                        break
                    nxt, y_mark, jumped = i + rest % lam, math.nan, True
        return y + wind

    return it


def _check_n_iter(n_iter: int) -> None:
    """ValueError unless 1 <= n_iter <= _N_ITER_MAX."""
    if not 1 <= n_iter <= _N_ITER_MAX:
        raise ValueError(f"n_iter must be in [1, {_N_ITER_MAX}], got {n_iter!r}")


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
    try:
        for q in range(1, q_max + 1):
            p = round(value * q)
            err = abs(value - p / q)
            if err < best_err:
                best = Fraction(p, q)
                best_err = err
    except OverflowError:  # round(inf): value * q left the float range
        raise ValueError(f"value {value!r} is too large to snap with q_max={q_max}") from None
    return best


def _closure(lift: Union[MonotoneLift, Params], r: Rational, s: int = 1) -> Callable:
    """s*G at a float x for s = +-1, with f^q by the fused kernel _scalar_iterate(lift)."""
    it, q, p_num = _scalar_iterate(lift), r.denominator, r.numerator
    # No sign change for s = 1: a multiply per golden-section probe cost 1.2-1.7 %
    # of the trace benchmark's items/s (9 of 10 pairs in each of two sets).
    if s == 1:
        return lambda x: it(x, q) - x - p_num
    return lambda x: -(it(x, q) - x - p_num)


def _cyclic_minima(values: np.ndarray) -> np.ndarray:
    """Mask of the entries no larger than either cyclic neighbour (at least 2 entries).

    Shifted slices give the mask of two np.roll comparisons at a fraction of their cost.
    """
    mask = np.empty(len(values), dtype=bool)
    mask[1:-1] = (values[1:-1] <= values[:-2]) & (values[1:-1] <= values[2:])
    mask[0] = values[0] <= values[-1] and values[0] <= values[1]
    mask[-1] = values[-1] <= values[-2] and values[-1] <= values[0]
    return mask


def _dips(
    f: Callable[[float], float], grid: np.ndarray, values: np.ndarray, keep=True, xtol: float = 1e-9
) -> Iterator[Tuple[float, float]]:
    """(x, f(x)) at the golden-section minimum of f within one cell of each dip.

    A dip is a cyclic grid-local minimum of values = f(grid) on the periodic
    grid arange(n)/n where the mask keep holds, in grid order.  Narrow dips
    between grid points are the only way a grid misses a zero of G.
    """
    h = 1.0 / len(grid)
    # Python floats: numpy scalars would make every golden-section step numpy arithmetic.
    for x in grid[_cyclic_minima(values) & keep].tolist():
        xm = golden_min(f, x - h, x + h, xtol=xtol)
        yield xm, f(xm)


def _level_grid(
    lift: Union[MonotoneLift, Params], r: Rational, q_max: int, density: int = 8
) -> Tuple[np.ndarray, np.ndarray]:
    """The grid arange(n)/n, n = max(64, density*q), and G(x) = f^q(x) - x - p of r = p/q on it.

    f is the lift, a MonotoneLift or a raw Params one, and its q steps run
    through the array _iterate.  The default density is level_sign's and
    level_gap's; the orbit scan passes its own.
    """
    _check_q(r, q_max)
    n_grid = max(64, density * r.denominator)
    grid = np.arange(n_grid, dtype=float) / n_grid
    return grid, _iterate(grid, *_step_args(lift), r.denominator) - grid - r.numerator


def _check_q(r: Rational, q_max: int) -> None:
    """ValueError when the denominator of r exceeds q_max."""
    if r.denominator > q_max:
        raise ValueError(f"denominator {r.denominator} exceeds q_max={q_max}")


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
    grid, g = _level_grid(m, r, q_max)
    # A nan anywhere in g fails both tests, so a nan grid returns 0.
    if float(np.min(g)) > TOLZ:
        s = 1
    elif float(np.max(g)) < -TOLZ:
        s = -1
    else:
        # Both signs (or a touch) already visible on the raw grid.
        return 0
    for _, sg in _dips(_closure(m, r, s), grid, s * g):
        if sg <= TOLZ:
            return 0
    return s


def level_gap(m: MonotoneLift, r: Rational, s: int, q_max: int = Q_MAX_DEFAULT) -> float:
    """Extremal level gap of m at r past the zero band, phi_R for s = 1 and phi_L for s = -1.

    phi_R = min G - TOLZ and phi_L = max G + TOLZ for G = m^q - x - p, where
    the extremum runs over level_sign's grid and the golden-section
    sharpening of every dip of s*G, the same floating-point operations as
    level_sign's.  So phi > 0 exactly when level_sign(m, r) > (s - 1) / 2,
    that is above 0 for s = 1 and above -1 for s = -1; phi_L adds one ulp
    to TOLZ because level_sign counts a value equal to TOLZ as zero.  A nan
    on the grid gives a nan gap, which decides nothing.

    For the envelopes, d(m^q)/da >= 1, so phi rises in a with slope at
    least 1 and the zero of phi, a plateau edge, lies between a and a - phi.
    """
    grid, g = _level_grid(m, r, q_max)
    if s == -1:
        g = -g
    low = float(np.min(g))
    if math.isnan(low):
        return low  # a nan on the grid decides nothing, whatever the dips hold
    for _, sg in _dips(_closure(m, r, s), grid, g):
        low = min(low, sg)
    return float(s * (low - (TOLZ if s == 1 else math.nextafter(TOLZ, math.inf))))


def _g_bounds(m: MonotoneLift, r: Rational) -> Callable[[float, int], float]:
    """bound(x, s): a lower (s = -1) or upper (s = 1) bound of G(x) = M^q(x) - x - p of r = p/q.

    M is the true envelope of F_{a,b} (the lift itself for b <= 1) at m's
    float a and b, not its float twin.  Each of the q steps is one step of
    the scalar kernel from the bound so far, moved outward by
    e = 2**-48 (1 + |a| + b), about twice what the step's roundings can add
    up to if math.sin is within one ulp, and rounded outward; the winding is
    split off the same way.  As M is nondecreasing, M^j(x) stays between the
    two bounds.  For b > 1, e also holds the plateau's own error: the float
    flat piece ends at a bisect_root midpoint (maps._plateau), where F is
    within about (1 + b) 1e-14 of the flat value, so next to that end the
    float step and the true M can differ by that much.
    """
    it, q, p_num = _scalar_iterate(m), r.denominator, r.numerator
    b = m.base.b
    e = 2.0**-48 * (1.0 + abs(m.base.a) + b)
    if m.plateau_start is not None:
        x_max, end = _plateau(b)
        c = b / TWO_PI
        e += abs(end + c * math.sin(TWO_PI * end) - (x_max + c * math.sin(TWO_PI * x_max))) + 4.0 * e
    floor, nextafter = math.floor, math.nextafter

    def bound(x: float, s: int) -> float:
        y, wind, out = x, 0.0, s * math.inf
        for _ in range(q):
            y = nextafter(it(y, 1) + s * e, out)
            k = floor(y)
            wind += k
            y = nextafter(y - k, out)
        return nextafter(nextafter(y - x, out) + (wind - p_num), out)

    return bound


def _cycle_rho(m: MonotoneLift, lam: int, w: float, y: float) -> Optional[Rational]:
    """The rotation number of m, W/lam, proved from a float cycle of period lam and winding W through y; or None.

    For a nondecreasing lift, rho = p/q exactly when G = M^q - x - p has a
    zero.  An attracting cycle of r = W/lam (reduced) puts a falling zero of
    G next to its points, so G(y - d) > 0 > G(y + d), enclosed by
    _g_bounds, proves rho = r by the intermediate value theorem, for the
    first d of 1e-12, 1e-9 and 1e-6 where the enclosures separate.  None
    decides nothing: no separation, as at a neutral or parabolic cycle.
    """
    r = Fraction(int(w), lam)
    bound = _g_bounds(m, r)
    for d in (1e-12, 1e-9, 1e-6):
        if bound(y - d, -1) > 0.0 and bound(y + d, 1) < 0.0:
            return r
    return None


def _is_rho(m: MonotoneLift, r: Rational, q_max: int, cycle: list) -> bool:
    """Whether the rotation number of m is r, from the kernel's cycle report (lam, W, y*) or level_sign.

    A cycle of at most 4q + 64 steps that _cycle_rho proves gives the answer
    W/lam == r either way, since rho is unique.  Without one, or without a
    proof, level_sign(m, r) == 0 decides.
    """
    if cycle and cycle[0] <= 4 * r.denominator + 64:
        rho = _cycle_rho(m, *cycle)
        if rho is not None:
            return rho == r
    return level_sign(m, r, q_max=q_max) == 0


def rho_exact_rational_test(
    m: MonotoneLift, r: Rational, q_max: int = Q_MAX_DEFAULT
) -> bool:
    """True when the rotation number of m is certified to equal r exactly.

    m runs 4q + 64 steps from 0 in the scalar kernel, enough for the cycle
    check to run.  If the float orbit repeats and _cycle_rho proves the
    rotation number W/lam from an enclosure of G beside the cycle, the
    answer is W/lam == r: a true result is then a proof (if math.sin is
    within one ulp), and a false one proves the rotation number is another
    rational.  Otherwise level_sign decides, on the sign behaviour of
    m^q - id - p over one period: a true result is rigorous up to the
    zero-band tolerance, and a false one means the level function kept a
    strict sign everywhere sampled.  A denominator above q_max is a
    ValueError either way.
    """
    _check_q(r, q_max)
    cycle: list = []
    _scalar_iterate(m)(0.0, 4 * r.denominator + 64, cycle=cycle)
    return _is_rho(m, r, q_max, cycle)


def rho_monotone(
    m: MonotoneLift,
    n_iter: int = 2000,
    x0: float = 0.0,
    q_max: int = Q_MAX_DEFAULT,
) -> RhoEstimate:
    """Rotation number of a nondecreasing degree-one lift.

    Forward iteration gives (m^n(x0) - x0)/n, which for such lifts is
    within 1/n of the true rotation number regardless of x0.  m^n runs in
    _scalar_iterate, which cuts a repeating float orbit short, bit for bit,
    so a locked lift costs a few dozen steps for any n.  The estimate is
    then snapped to the nearest rational with denominator at most q_max
    inside the error bound; the snap is reported only when it is the
    rotation number proved from the float cycle the iteration found
    (_cycle_rho), or, without such a proof, when the level-set certificate
    confirms it, as in rho_exact_rational_test.  Pass q_max=0 to skip
    snapping; a negative q_max is a ValueError.
    """
    _check_n_iter(n_iter)
    if q_max < 0:
        raise ValueError(f"q_max must be >= 0, got {q_max!r}")
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0!r}")
    cycle: list = []
    value = (_scalar_iterate(m)(x0, n_iter, cycle=cycle) - x0) / n_iter
    if not math.isfinite(value):
        raise ValueError(f"rotation estimate overflowed: offset a = {m.base.a!r} is too large")
    bound = 1.0 / n_iter
    cert: Optional[Rational] = None
    if q_max > 0:
        cand = snap_rational(value, bound + 1e-12, q_max)
        if cand is not None and _is_rho(m, cand, q_max, cycle):
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
        if 2.0 / tol > _N_ITER_MAX:
            raise ValueError(f"tol={tol!r} is too small: 2 / tol iterations exceed {_N_ITER_MAX}")
        n_iter = max(1, math.ceil(2.0 / tol))
    lo = rho_monotone(envelope(p, MINUS), n_iter=n_iter, x0=x0, q_max=q_max)
    # For b <= 1 both envelopes are the lift itself, so one estimate is both ends.
    hi = lo if p.b <= 1.0 else rho_monotone(envelope(p, PLUS), n_iter=n_iter, x0=x0, q_max=q_max)
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
    _check_n_iter(n_iter)
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
