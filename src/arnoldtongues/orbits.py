"""Periodic orbits of the lift: location, multipliers, stability, symbols.

An orbit with rotation label p/q solves F^q(x) = x + p.  Roots of the
closure function G(x) = F^q(x) - x - p are found by a dense scan plus
bisection, with the certificate's dip search (rotation._dips) for the
double roots that appear on saddle-node loci.  Orbits are grouped by
walking the root set with the map itself, and classified by the product
of derivatives along one period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from .errors import AmbiguityError, NoOrbitError
from .maps import Params, critical_points, deriv, eval_lift
from .rotation import Q_MAX_DEFAULT, Rational, _closure, _dips
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


def _closure_deriv(p: Params, q: int, x: float) -> float:
    """(F^q)'(x) - 1, from the chain rule along the forward iterates."""
    y = x
    prod = 1.0
    for _ in range(q):
        prod *= deriv(p, y, 1)
        y = eval_lift(p, y)
        y -= math.floor(y)
    return prod - 1.0


def _newton_polish(closure, p, q, x):
    """Two Newton steps on the closure function, skipped near parabolics.

    Bisection alone leaves a residual up to |G'| times the bracket width;
    polishing restores the closure invariant when G' is not tiny.
    """
    for _ in range(2):
        d = _closure_deriv(p, q, x)
        if abs(d) < 1e-4:
            break
        x = x - closure(x) / d
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
    closure = _closure(partial(eval_lift, p), r, q_max)
    q, p_num = r.denominator, r.numerator
    n = SCAN_DENSITY * q
    grid = np.arange(n, dtype=float) / n
    g = closure(grid)
    half_cell = 0.5 / n

    roots: List[Tuple[float, float]] = []  # (location, |G| there)
    sign_change = (g * np.roll(g, -1)) < 0.0
    for i in np.nonzero(sign_change)[0]:
        # The bracket is 1/n <= 2**-12 wide, so 28 halvings reach 1e-12.
        lo, hi = bisect(closure, grid[i], grid[i] + 1.0 / n, g[i], 1e-12)
        x = _newton_polish(closure, p, q, 0.5 * (lo + hi))
        roots.append((x, abs(closure(x))))
    for i in np.nonzero(g == 0.0)[0]:
        roots.append((float(grid[i]), 0.0))

    # Double roots: dips of |G| to (numerical) zero away from bisected roots.
    absg = np.abs(g)
    keep = ~(sign_change | np.roll(sign_change, 1)) & (absg <= 1e-4)
    for x, val in _dips(lambda t: abs(closure(t)), grid, absg, keep, xtol=1e-12):
        if val < CLOSURE_TOL:
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
    orbits = find_periodic_orbits(p, r, q_max=q_max)
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
    side.  Requires b > 1, where the laps exist.
    """
    if p.b <= 1.0:
        raise ValueError("itineraries need b > 1 (no decreasing lap otherwise)")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length!r}")
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
