"""Tongue boundaries in the parameter plane.

For fixed b, the rotation number of either monotone envelope is a
continuous nondecreasing function of a, constant at each rational value
on a closed plateau.  The four boundary-curve families are the edges of
these plateaus:

    Al = left edge of the plus-envelope plateau
    Bl = right edge of the plus-envelope plateau
    Br = left edge of the minus-envelope plateau
    Ar = right edge of the minus-envelope plateau

Edges are located by bisection on the exact rational level certificate,
curves are continued in b inside the Lipschitz cone, and each located
point can be cross-checked against the independent orbit-based boundary
conditions (parabolic orbit on A-curves, critical value hitting an orbit
value on B-curves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .errors import (
    BadWindowError,
    ContinuationLostError,
    EmptyPlateauError,
    NoOrbitError,
)
from .maps import MINUS, PLUS, TWO_PI, Params, critical_points, envelope, eval_lift
from .orbits import orbit_pair
from .rotation import Q_MAX_DEFAULT, Rational, level_sign
from .solvers import bisect

KIND_AL = "Al"
KIND_AR = "Ar"
KIND_BL = "Bl"
KIND_BR = "Br"

# Which plateau edge realizes each curve kind: (envelope, side).
KIND_TO_EDGE = {
    KIND_AL: (PLUS, "left"),
    KIND_BL: (PLUS, "right"),
    KIND_BR: (MINUS, "left"),
    KIND_AR: (MINUS, "right"),
}

# Margin added to the a-priori plateau bound b/2pi when auto-windowing.
WINDOW_MARGIN = 0.05


@dataclass(frozen=True)
class BoundaryCurve:
    """A traced boundary curve: samples of (b, a, residual), ascending in b.

    residual is the final bisection bracket width at that sample.  tol and
    step record how the curve was built and feed the Lipschitz audit.
    """

    kind: str
    label: Rational
    samples: Tuple[Tuple[float, float, float], ...]
    tol: float
    step: float


@dataclass(frozen=True)
class Region:
    """Parameter region where the rotation interval equals a fixed interval.

    slices holds (b, a_left, a_right) rows, ascending in b, one per b where
    the region is nonempty.  A tip pinched below resolution appears as a
    zero-width slice.
    """

    interval_label: Tuple[Rational, Rational]
    slices: Tuple[Tuple[float, float, float], ...]


@dataclass(frozen=True)
class BoundaryResiduals:
    """Orbit-side diagnostics of boundary membership at one parameter point.

    saddle_node is |multiplier of O - 1| (small on A-curves, where the
    orbit is parabolic); o_prime_absent flags the missing second orbit.
    bl_residual and br_residual are the critical-value-vs-orbit-value
    defects that vanish on Bl and Br respectively; both are None for
    b <= 1 where there are no critical points.
    """

    saddle_node: float
    o_prime_absent: bool
    bl_residual: Optional[float]
    br_residual: Optional[float]


@dataclass(frozen=True)
class IntersectionPoint:
    """A located crossing of two boundary curves.

    residuals holds the orbit-side diagnostics for the left and right
    labels.  A side is None when its orbit does not exist at the located
    point, which happens when the crossing sits on a tongue edge and the
    bisected point lands a hair outside.
    """

    a: float
    b: float
    left_kind: str
    right_kind: str
    labels: Tuple[Rational, Rational]
    residuals: Tuple[Optional[BoundaryResiduals], Optional[BoundaryResiduals]]


@dataclass(frozen=True)
class LipschitzReport:
    """Result of the slope audit of a traced curve."""

    max_slope: float
    slack: float
    ok: bool


def default_window(b: float, r: Rational) -> Tuple[float, float]:
    """A window in a guaranteed to bracket the plateau of r at this b.

    The envelope rotation number differs from a by at most b/2pi, so the
    plateau lies within that distance of float(r); the margin makes the
    bracketing strict.
    """
    c = float(r)
    hw = b / TWO_PI + WINDOW_MARGIN
    return (c - hw, c + hw)


def _b_samples(
    b_range: Tuple[float, float], step: float, name: str = "b_range"
) -> Iterator[float]:
    """Lazy b grid b_lo + i*step of the scans; the arguments are checked at the call.

    The 1e-9 of a step keeps b_hi when it is a multiple of step up to rounding.
    """
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be > 0 and finite, got {step!r}")
    b_lo, b_hi = b_range
    if not b_lo <= b_hi:
        raise ValueError(f"empty {name} {b_range!r}")
    if not -math.inf < b_lo <= b_hi < math.inf:
        raise ValueError(f"{name} must be finite, got {b_range!r}")
    n = int(math.floor((b_hi - b_lo) / step + 1e-9))
    return (b_lo + i * step for i in range(n + 1))


def _locate_edges(
    b: float,
    r: Rational,
    which: str,
    sides: Tuple[str, ...],
    a_window: Tuple[float, float],
    tol: float,
    q_max: int,
) -> List[Tuple[float, float, bool]]:
    """Bisect the named edges ("left", "right") of one plateau of r at this b.

    The plateau is where the which-envelope level sign s(a) is 0.  Its left
    edge is where s rises above -1, its right edge where s rises above 0,
    so each edge has a cut c and the window must satisfy s(lo) <= c < s(hi),
    otherwise BadWindowError.  Both ends are probed once for all sides.
    Returns one (edge, final bracket width, whether any probe returned 0)
    per side.
    """

    def sgn(a: float) -> int:
        return level_sign(envelope(Params(a, b), which), r, q_max=q_max)

    lo_w, hi_w = a_window
    s_lo = sgn(lo_w)
    s_hi = sgn(hi_w)
    cuts = [-1 if side == "left" else 0 for side in sides]
    if not all(s_lo <= c < s_hi for c in cuts):
        target = f"{sides[0]} edge of the " if len(sides) == 1 else ""
        raise BadWindowError(
            f"window {a_window!r} does not bracket the {target}{which} plateau "
            f"of {r} at b={b!r}: end signs ({s_lo}, {s_hi})"
        )
    edges = []
    for c in cuts:
        seen_zero = False

        def above_cut(a: float) -> float:
            nonlocal seen_zero
            s = sgn(a)
            seen_zero = seen_zero or s == 0
            return 1.0 if s > c else -1.0

        lo, hi = bisect(above_cut, lo_w, hi_w, -1.0, tol)
        edges.append((0.5 * (lo + hi), hi - lo, seen_zero))
    return edges


def plateau_edges(
    b: float,
    r: Rational,
    which: str,
    a_window: Optional[Tuple[float, float]] = None,
    tol: float = 1e-8,
    q_max: int = Q_MAX_DEFAULT,
) -> Tuple[float, float]:
    """Edges of the {a : envelope rotation number == r} plateau at this b.

    b must be >= 0 and finite and the window finite with lo <= hi, otherwise
    ValueError.  The window must bracket the plateau: the envelope rotation
    number must sit strictly below r at its left end and strictly above at
    its right end, otherwise BadWindowError.  A plateau narrower than the
    bisection resolution collapses to a doubled midpoint.  EmptyPlateauError
    signals mutually inconsistent edge locations, which a valid bracket
    cannot produce.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    r = Rational(r)
    Params(float(r), b)  # b >= 0 and finite, before any window is built or judged
    if a_window is None:
        a_window = default_window(b, r)
    lo_w, hi_w = a_window
    if not -math.inf < lo_w <= hi_w < math.inf:
        raise ValueError(f"window must be finite with lo <= hi, got {a_window!r}")
    if not lo_w < hi_w:
        raise BadWindowError(f"empty window {a_window!r}")

    (a_left, _, zl), (a_right, _, zr) = _locate_edges(
        b, r, which, ("left", "right"), a_window, tol, q_max
    )
    if a_right < a_left - tol:
        raise EmptyPlateauError(
            f"edge bisections crossed for {which} plateau of {r} at "
            f"b={b!r}: left {a_left!r} > right {a_right!r}"
        )
    if a_right < a_left or (not (zl or zr) and a_right - a_left < 0.25 * tol):
        mid = 0.5 * (a_left + a_right)
        return (mid, mid)
    return (a_left, a_right)


def trace_curve(
    kind: str,
    r: Rational,
    b_range: Tuple[float, float],
    step: float,
    tol: float = 1e-8,
    q_max: int = Q_MAX_DEFAULT,
) -> BoundaryCurve:
    """Continue one boundary curve across a range of b values.

    The first sample uses the a-priori window; each later sample searches
    only the Lipschitz cone around its predecessor, inflated by 25% plus
    an absolute guard of 10 tol.  Losing the bracket raises
    ContinuationLostError carrying the offending b.
    """
    if kind not in KIND_TO_EDGE:
        raise ValueError(f"unknown curve kind {kind!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    r = Rational(r)
    which, side = KIND_TO_EDGE[kind]
    hw = 1.25 * step / TWO_PI + 10.0 * tol
    samples: List[Tuple[float, float, float]] = []
    prev_a: Optional[float] = None
    for b in _b_samples(b_range, step):
        if prev_a is None:
            window = default_window(b, r)
        else:
            window = (prev_a - hw, prev_a + hw)
        try:
            ((a, width, _),) = _locate_edges(b, r, which, (side,), window, tol, q_max)
        except BadWindowError as exc:
            raise ContinuationLostError(
                f"continuation of {kind} for {r} lost its bracket at "
                f"b={b!r}: {exc}",
                b=b,
            ) from exc
        samples.append((b, a, width))
        prev_a = a
    return BoundaryCurve(kind=kind, label=r, samples=tuple(samples), tol=tol, step=step)


def lipschitz_check(c: BoundaryCurve) -> LipschitzReport:
    """Audit the traced curve against the 1/(2pi) Lipschitz bound.

    The allowed slack is 2 tol / step: each of the two samples forming a
    slope estimate may be off by the bisection tolerance.
    """
    if len(c.samples) < 2:
        raise ValueError("lipschitz_check needs at least 2 samples")
    max_slope = 0.0
    for (b0, a0, _), (b1, a1, _) in zip(c.samples, c.samples[1:]):
        if b1 <= b0:
            raise ValueError("curve samples must be strictly increasing in b")
        max_slope = max(max_slope, abs(a1 - a0) / (b1 - b0))
    slack = 2.0 * c.tol / c.step
    return LipschitzReport(
        max_slope=max_slope, slack=slack, ok=max_slope <= 1.0 / TWO_PI + slack
    )


def region_boundary(
    labels: Tuple[Rational, Rational],
    b_range: Tuple[float, float],
    step: float,
    tol: float = 1e-8,
    q_max: int = Q_MAX_DEFAULT,
) -> Region:
    """Slices of the region where the rotation interval is exactly [lo, hi].

    Per b, the interval equals [lo, hi] iff the minus envelope sits on its
    lo-plateau and the plus envelope on its hi-plateau, so each slice is
    the overlap of those two plateaus.  A slice thinner than 4 tol is
    recorded as its pinched midpoint; b values with no overlap are
    omitted.
    """
    lo_label, hi_label = Rational(labels[0]), Rational(labels[1])
    if lo_label > hi_label:
        raise ValueError(
            f"interval labels out of order: {lo_label} > {hi_label}"
        )
    slices: List[Tuple[float, float, float]] = []
    for b in _b_samples(b_range, step):
        minus_l, minus_r = plateau_edges(
            b, lo_label, MINUS, tol=tol, q_max=q_max
        )
        plus_l, plus_r = plateau_edges(
            b, hi_label, PLUS, tol=tol, q_max=q_max
        )
        a_left = max(minus_l, plus_l)
        a_right = min(minus_r, plus_r)
        if a_left > a_right + tol:
            continue
        if a_right - a_left < 4.0 * tol:
            mid = 0.5 * (a_left + a_right)
            slices.append((b, mid, mid))
        else:
            slices.append((b, a_left, a_right))
    return Region(interval_label=(lo_label, hi_label), slices=tuple(slices))


def boundary_condition_residuals(p: Params, r: Rational) -> BoundaryResiduals:
    """Orbit-side membership diagnostics for the boundary families at (a, b).

    saddle_node is tiny exactly when the distinguished orbit is parabolic
    (the A-curve condition).  For b > 1, bl_residual compares the value at
    the local maximum with the value at the next orbit point above it,
    which vanishes on Bl; br_residual mirrors this at the local minimum
    against the previous orbit point, vanishing on Br.
    """
    r = Rational(r)
    orbit, second = orbit_pair(p, r)
    sn = abs(orbit.multiplier - 1.0)
    if p.b <= 1.0:
        return BoundaryResiduals(
            saddle_node=sn,
            o_prime_absent=second is None,
            bl_residual=None,
            br_residual=None,
        )
    x_c, x_k = critical_points(p).points
    pts = list(orbit.points)
    succ = next((y for y in pts if y > x_c + 1e-12), pts[0] + 1.0)
    pred = next((y for y in reversed(pts) if y < x_k - 1e-12), pts[-1] - 1.0)
    bl = eval_lift(p, x_c) - eval_lift(p, succ)
    br = eval_lift(p, x_k) - eval_lift(p, pred)
    return BoundaryResiduals(
        saddle_node=sn,
        o_prime_absent=second is None,
        bl_residual=bl,
        br_residual=br,
    )


def intersect_curves(
    left: Tuple[str, Rational],
    right: Tuple[str, Rational],
    b_window: Tuple[float, float],
    tol: float = 1e-6,
    step: float = 0.05,
    q_max: int = Q_MAX_DEFAULT,
) -> List[IntersectionPoint]:
    """Crossings of two boundary curves over a window of b values.

    Scans the gap between the two curves at the given step and bisects
    every sign change down to tol in b.  All crossings found are reported;
    how many there should be is a statement for tests, not for this
    function.  The right curve's label must not precede the left's.
    """
    left_kind, left_label = left[0], Rational(left[1])
    right_kind, right_label = right[0], Rational(right[1])
    for kind in (left_kind, right_kind):
        if kind not in KIND_TO_EDGE:
            raise ValueError(f"unknown curve kind {kind!r}")
    if right_label < left_label:
        raise ValueError(
            f"curve labels out of order: right {right_label} < left {left_label}"
        )
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    bs = list(_b_samples(b_window, step, "b_window"))
    if bs[-1] < b_window[1] - 1e-12:
        bs.append(b_window[1])
    edge_tol = min(1e-8, tol / 10.0)

    def a_of(kind: str, label: Rational, b: float) -> float:
        which, side = KIND_TO_EDGE[kind]
        window = default_window(b, label)
        return _locate_edges(b, label, which, (side,), window, edge_tol, q_max)[0][0]

    def gap(b: float) -> float:
        return a_of(left_kind, left_label, b) - a_of(right_kind, right_label, b)

    gaps = [gap(b) for b in bs]

    found: List[IntersectionPoint] = []

    def diagnostics(point: Params, label: Rational) -> Optional[BoundaryResiduals]:
        try:
            return boundary_condition_residuals(point, label)
        except NoOrbitError:
            return None

    def report(b_star: float) -> None:
        a_l = a_of(left_kind, left_label, b_star)
        a_r = a_of(right_kind, right_label, b_star)
        a_star = 0.5 * (a_l + a_r)
        point = Params(a_star, b_star)
        found.append(
            IntersectionPoint(
                a=a_star,
                b=b_star,
                left_kind=left_kind,
                right_kind=right_kind,
                labels=(left_label, right_label),
                residuals=(
                    diagnostics(point, left_label),
                    diagnostics(point, right_label),
                ),
            )
        )

    for i in range(len(bs) - 1):
        g0, g1 = gaps[i], gaps[i + 1]
        if g0 == 0.0:
            report(bs[i])
            continue
        if g0 * g1 < 0.0:
            lo, hi = bisect(gap, bs[i], bs[i + 1], g0, tol)
            report(0.5 * (lo + hi))
    if gaps and gaps[-1] == 0.0:
        report(bs[-1])
    return found
