"""Periodic orbits of the lift: location, multipliers, stability, symbols.

An orbit with rotation label p/q solves F^q(x) = x + p.  Roots of the
closure function G(x) = F^q(x) - x - p are found by a dense scan plus
bisection, with the certificate's dip search (rotation._dips) for the
double roots that appear on saddle-node loci.  Both kinds of root are then
polished by Newton on one chain-rule loop, _closure_jet: a bisected root
on G, a double root on G_x.  Orbits are grouped by
walking the root set with the map itself, and classified by the product
of derivatives along one period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import AmbiguityError, NoOrbitError
from .maps import TWO_PI, Params, critical_points, deriv, eval_lift
from .rotation import _N_ITER_MAX, Q_MAX_DEFAULT, Rational, _closure, _dips, _level_grid
from .solvers import bisect

SUPERATTRACTING = "superattracting"
ATTRACTING = "attracting"
PARABOLIC = "parabolic"
NEUTRAL_NONPARABOLIC = "neutral_nonparabolic"
HYPERBOLIC = "hyperbolic"

# Acceptable closure defect |F^q(x0) - x0 - p| for a reported orbit.
CLOSURE_TOL = 1e-10

# Points per unit interval and per period in the root scan.
SCAN_DENSITY = 4096

# Half-width of the boundary band assigned to the closed lap side.
LAP_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class PeriodicOrbit:
    """One translation class of a periodic orbit.

    points holds the q circle representatives in [0, 1), ascending.  The
    multiplier is the product of first derivatives along one period and
    stability its banded classification.  on_increasing_branch is set when
    no point lies in the open decreasing lap.
    """

    points: Tuple[float, ...]
    label: Rational
    multiplier: float
    stability: str
    on_increasing_branch: bool


@dataclass(frozen=True)
class Itinerary:
    """Lap symbols of a forward orbit.

    symbols is a string over {L, M}: L for the closed increasing lap, M
    for the open decreasing lap.  (A third letter R is reserved for map
    families with more laps and never produced here.)
    """

    symbols: str
    length: int


def classify_multiplier(m: float) -> str:
    """Stability band of a multiplier, with explicit tolerances."""
    if abs(m) < 1e-9:
        return SUPERATTRACTING
    if abs(m - 1.0) < 1e-6:
        return PARABOLIC
    if abs(m) < 1.0 - 1e-9:
        return ATTRACTING
    if abs(m) > 1.0 + 1e-9:
        return HYPERBOLIC
    return NEUTRAL_NONPARABOLIC


def _closure_jet(b: float, a: float, r: Rational, x: float) -> Tuple[float, float, float, float, float]:
    """G, G_x, G_a, G_xx and G_xa at x for G = F^q(x) - x - p of r = p/q and the raw lift F_{a,b}.

    The derivatives come from the chain rule along the same q steps as G,
    each step eval_lift's and deriv's float expressions, with math bound once.
    The steps and their floor reduction are rotation._closure's, so G equals
    _closure(Params(a, b), r)(x) bit for bit, and G_x is the product of
    deriv over the reduced iterates, minus 1.
    """
    c, q, p_num = b / TWO_PI, r.denominator, r.numerator
    sin, cos, floor = math.sin, math.cos, math.floor
    # Along the steps gx, ga, gxx and gxa are y's derivatives in x, a, x twice and x and a.
    y, wind, gx, ga, gxx, gxa = x, 0.0, 1.0, 0.0, 0.0, 0.0
    for _ in range(q):
        t = TWO_PI * y
        s = sin(t)
        d1, d2 = 1.0 + b * cos(t), -TWO_PI * b * s
        gxx, gxa = d2 * gx * gx + d1 * gxx, d2 * gx * ga + d1 * gxa
        gx, ga = d1 * gx, d1 * ga + 1.0
        y = y + a + c * s
        k = floor(y)
        wind += k
        y -= k
    return y + wind - x - p_num, gx - 1.0, ga, gxx, gxa


def _saddle_node(b: float, r: Rational, x: float, a: float) -> Optional[Tuple[float, float]]:
    """(x, a) where G = F^q(x) - x - p and G_x vanish for the raw lift F_{a,b}, by Newton from (x, a).

    A root is a parabolic (saddle-node) orbit of r = p/q, the A-curve
    condition.  G_a, G_xx and G_xa come from _closure_jet.  Returns the
    point after the first step with |dx| <= 1e-10 and |da| <= 1e-12, x
    reduced mod 1, or None when 20 steps do not get there or a step is
    singular or not finite.
    """
    floor, isfinite = math.floor, math.isfinite
    for _ in range(20):
        g, gx, ga, gxx, gxa = _closure_jet(b, a, r, x)
        det = gx * gxa - ga * gxx
        if not (det and isfinite(det)):
            return None
        dx, da = (ga * gx - gxa * g) / det, (gxx * g - gx * gx) / det
        x, a = x + dx, a + da
        if not (isfinite(x) and isfinite(a)):
            return None
        x -= floor(x)
        if abs(dx) <= 1e-10 and abs(da) <= 1e-12:
            return x, a
    return None


def _double_root(p: Params, r: Rational, x: float) -> float:
    """x moved to the zero of G_x next to it by Newton at fixed a, G_xx from _closure_jet.

    A double root of G is a zero of G_x.  The golden-section minimum of |G|
    places it only to about sqrt(1e-16 / G_xx), where |G| is flat to float
    noise, and the multiplier is read there.  Returns x unchanged when a
    step is singular or not finite, and stops after 8 steps or one below
    1e-15.
    """
    for _ in range(8):
        _, gx, _, gxx, _ = _closure_jet(p.b, p.a, r, x)
        dx = gx / gxx if gxx else math.nan
        if not math.isfinite(dx):
            return x
        x -= dx
        if abs(dx) <= 1e-15:
            break
    return x


def _newton_polish(p: Params, r: Rational, x: float) -> float:
    """Two Newton steps on G, G and G_x from _closure_jet, skipped near parabolics.

    Bisection alone leaves a residual up to |G_x| times the bracket width;
    polishing restores the closure invariant when G_x is not tiny.
    """
    for _ in range(2):
        g, gx, _, _, _ = _closure_jet(p.b, p.a, r, x)
        if abs(gx) < 1e-4:
            break
        x = x - g / gx
    return x


def find_periodic_orbits(
    p: Params, r: Rational, q_max: int = Q_MAX_DEFAULT
) -> List[PeriodicOrbit]:
    """All periodic orbits with rotation label r, one per translation class.

    Scans the closure function on a dense grid over one period, bisects
    every sign change, and hunts double roots (saddle-node orbits) as dips
    of |G| below the closure tolerance, with the dip search that level_sign
    uses (rotation._dips).  Raises NoOrbitError when no root exists, which
    for this family means r lies outside the rotation interval.
    """
    r = Rational(r)
    q, p_num = r.denominator, r.numerator
    grid, g = _level_grid(p, r, q_max, SCAN_DENSITY)
    n = len(grid)
    closure = _closure(p, r)
    half_cell = 0.5 / n

    roots: List[Tuple[float, float]] = []  # (location, |G| there)
    sign_change = (g * np.roll(g, -1)) < 0.0
    for i in np.nonzero(sign_change)[0]:
        # The bracket is 1/n <= 2**-12 wide, so 28 halvings reach 1e-12.
        lo = float(grid[i])
        lo, hi = bisect(closure, lo, lo + 1.0 / n, float(g[i]), 1e-12)
        x = _newton_polish(p, r, 0.5 * (lo + hi))
        roots.append((x, abs(closure(x))))
    for i in np.nonzero(g == 0.0)[0]:
        roots.append((float(grid[i]), 0.0))

    # Double roots: dips of |G| to (numerical) zero away from bisected roots.
    absg = np.abs(g)
    keep = ~(sign_change | np.roll(sign_change, 1)) & (absg <= 1e-4)
    for x, val in _dips(lambda t: abs(closure(t)), grid, absg, keep, xtol=1e-12):
        if val < CLOSURE_TOL:
            # Newton on G_x; kept only if it stays within the dip's cell and closes as well.
            xn = _double_root(p, r, x)
            vn = abs(closure(xn))
            if abs(xn - x) <= 1.0 / n and vn < CLOSURE_TOL:
                x, val = xn, vn
            roots.append((x % 1.0, val))

    if not roots:
        raise NoOrbitError(
            f"no orbit with label {p_num}/{q} at a={p.a!r}, b={p.b!r}"
        )

    # Deduplicate cyclically: anything closer than half a scan cell is the
    # same root; keep the copy with the smaller closure defect.
    roots.sort()
    kept: List[Tuple[float, float]] = []
    for x, v in roots:
        if kept and x - kept[-1][0] < half_cell:
            if v < kept[-1][1]:
                kept[-1] = (x, v)
        else:
            kept.append((x, v))
    if len(kept) > 1 and (kept[0][0] + 1.0) - kept[-1][0] < half_cell:
        if kept[-1][1] < kept[0][1]:
            kept[0] = kept[-1]
        kept.pop()

    xs = np.array([x for x, _ in kept])

    # Group roots into orbits by walking the root set with the map.
    cs = critical_points(p)
    if len(cs.points) == 2:
        x_c, x_k = cs.points
    else:
        x_c = x_k = None
    used = np.zeros(len(xs), dtype=bool)
    orbits: List[PeriodicOrbit] = []
    for start in range(len(xs)):
        if used[start]:
            continue
        idx = start
        members: List[float] = []
        for _ in range(q):
            used[idx] = True
            members.append(float(xs[idx]))
            y = eval_lift(p, xs[idx]) % 1.0
            dist = np.abs(xs - y)
            dist = np.minimum(dist, 1.0 - dist)
            idx = int(np.argmin(dist))
            if dist[idx] > 1e-4:
                raise AmbiguityError(
                    f"orbit walk left the root set at a={p.a!r}, b={p.b!r}, "
                    f"label {p_num}/{q}: image {y!r} is {dist[idx]:.2e} from "
                    "the nearest root"
                )
        pts = tuple(sorted(members))
        mult = float(np.prod(deriv(p, np.array(pts), 1)))
        if x_c is None:
            increasing = True
        else:
            increasing = not any(
                x_c + LAP_BOUNDARY_TOL < y < x_k - LAP_BOUNDARY_TOL for y in pts
            )
        orbits.append(
            PeriodicOrbit(
                points=pts,
                label=r,
                multiplier=mult,
                stability=classify_multiplier(mult),
                on_increasing_branch=increasing,
            )
        )
    orbits.sort(key=lambda o: o.points[0])
    return orbits


def orbit_pair(
    p: Params, r: Rational, q_max: int = Q_MAX_DEFAULT
) -> Tuple[PeriodicOrbit, Optional[PeriodicOrbit]]:
    """The distinguished orbit pair (O, O') for a label inside the interval.

    Of the orbits avoiding the decreasing lap there are at most two
    translation classes.  The one with the larger multiplier is O (the
    non-attracting one); the other, when present, is O'.  Raises
    NoOrbitError when no such orbit exists and AmbiguityError when more
    than two classes turn up, which would contradict the orbit-counting
    argument and signals a solver failure.
    """
    return _pair_of(p, r, find_periodic_orbits(p, r, q_max=q_max))


def _pair_of(
    p: Params, r: Rational, orbits: List[PeriodicOrbit]
) -> Tuple[PeriodicOrbit, Optional[PeriodicOrbit]]:
    """orbit_pair's (O, O') from the orbits that find_periodic_orbits(p, r) returned."""
    cands = [o for o in orbits if o.on_increasing_branch]
    if not cands:
        raise NoOrbitError(
            f"no orbit avoiding the decreasing lap for label {r} "
            f"at a={p.a!r}, b={p.b!r}"
        )
    if len(cands) > 2:
        raise AmbiguityError(
            f"{len(cands)} increasing-branch orbit classes for label {r} "
            f"at a={p.a!r}, b={p.b!r}; at most two are possible"
        )
    if len(cands) == 1:
        return cands[0], None
    first, second = sorted(cands, key=lambda o: o.multiplier, reverse=True)
    return first, second


def itinerary(p: Params, x: float, length: int) -> Itinerary:
    """Lap symbols of the forward orbit of x.

    Each iterate is folded into the window [x_k - 1, x_k) and labelled L
    on the closed increasing lap [x_k - 1, x_c], M on the open decreasing
    lap.  Points within 1e-12 of a lap boundary go to the closed (L)
    side.  Requires b > 1, where the laps exist, and 1 <= length <= _N_ITER_MAX.
    """
    if p.b <= 1.0:
        raise ValueError("itineraries need b > 1 (no decreasing lap otherwise)")
    if not 1 <= length <= _N_ITER_MAX:
        raise ValueError(f"length must be in [1, {_N_ITER_MAX}], got {length!r}")
    x_c, x_k = critical_points(p).points
    w = x_k - 1.0
    y = float(x)
    out = []
    for _ in range(length):
        t = y - math.floor(y - w)
        if t <= x_c + LAP_BOUNDARY_TOL or t >= x_k - LAP_BOUNDARY_TOL:
            out.append("L")
        else:
            out.append("M")
        y = eval_lift(p, y)
        y -= math.floor(y)
    return Itinerary(symbols="".join(out), length=length)
