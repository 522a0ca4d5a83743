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

The bisection is decided from a gap: a function of a that rises with
slope at least 1 and whose zero is the edge, so each evaluation at a
brackets the edge between a and a - gap.  A few secant-seeded
evaluations narrow the bracket below tol; the bisection midpoints
outside it need no computation.  Both ends of the final bracket are
certified: the end outside the plateau first, by level_sign; the end
inside by a proof that G = M^q - x - p has a zero, outward-rounded
bounds of G of opposite signs at the point where G touches zero on the
edge and beside it, or by level_sign where there is no point or the
proof fails.  If either end fails, the loop runs again on the next gap
of a cascade, and if all fail the window held no edge (BadWindowError).
Every edge tries the extremal level gap phi (rotation.level_gap), whose
sign is the certificate's decision, and then the sign gap (+-inf by
level_sign), which is plain level_sign bisection.  For b > 1 the B side
of a plateau (Bl, Br) first tries the plateau return h = G(e), q scalar
steps from the end e of the flat piece through which the plateau's orbit
leaves: on a B-curve the critical value lands on that orbit, and e is
the B edge's proof point.  On an A-type edge (Al, Ar, and every edge for
b <= 1) trace_curve carries the previous sample's saddle-node root (x*,
a*), where G and G_x vanish for the raw lift: on an A-curve the
distinguished orbit is parabolic.  Newton from it (orbits._saddle_node)
at the next b gives a candidate root, the gap a - a* runs ahead of the
cascade, and x* is the proof point.  While level_sign is monotone in a
and agrees with the proofs, the edges are bit for bit those of plain
bisection, whichever pass decides; where level_sign misses the kink
minimum of G at a flat piece's end and answers +-1 inside the plateau,
the proof keeps the bracket that holds the edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .errors import (
    BadWindowError,
    ContinuationLostError,
    EmptyPlateauError,
    NoOrbitError,
)
from .maps import MINUS, PLUS, TWO_PI, MonotoneLift, Params, critical_points, envelope, eval_lift
from .orbits import PeriodicOrbit, _saddle_node, orbit_pair
from .rotation import Q_MAX_DEFAULT, Rational, _closure, _cyclic_minima, _g_bounds, _g_straddles
from .rotation import _level_grid, level_gap, level_sign
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

# Largest b grid of the scans; each sample locates at least one edge.
_B_SAMPLES_MAX = 10**6


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
    A grid of more than _B_SAMPLES_MAX samples is a ValueError.
    """
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be > 0 and finite, got {step!r}")
    b_lo, b_hi = b_range
    if not b_lo <= b_hi:
        raise ValueError(f"empty {name} {b_range!r}")
    if not -math.inf < b_lo <= b_hi < math.inf:
        raise ValueError(f"{name} must be finite, got {b_range!r}")
    n = (b_hi - b_lo) / step + 1e-9
    if n >= _B_SAMPLES_MAX:
        raise ValueError(f"{name} {b_range!r} spans too many steps of {step!r}: over {_B_SAMPLES_MAX}")
    return (b_lo + i * step for i in range(int(math.floor(n)) + 1))


def _check_tol(tol: float) -> None:
    """ValueError unless the edge tolerance tol is > 0 and finite."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be > 0 and finite, got {tol!r}")


def _secant(p0: Tuple[float, float], p1: Tuple[float, float]) -> float:
    """Zero of the line through the points (a, phi) p0 and p1, nan if it is flat."""
    (a0, f0), (a1, f1) = p0, p1
    return a1 - f1 * (a1 - a0) / (f1 - f0) if f1 != f0 else math.nan


def _gap_bisect(
    gap: Callable[[float], float], a_window: Tuple[float, float], tol: float
) -> Tuple[float, float]:
    """Final bracket of the bisection of an edge over a_window, decided from the gap phi.

    Every phi evaluation at a narrows the bracket [e_lo, e_hi] of the edge
    to its intersection with the span of a and a - phi; an infinite phi, a
    level sign's answer, is a half-line.  Up to 8 seeding evaluations start
    at the window centre and go on from the newest point by the secant
    through the previous point on its side, else through the latest point
    on the other side, else to a - phi (the midpoint of the bracket when
    that leaves it), until the bracket is within tol / 8.  solvers.bisect
    then runs over the whole window; a midpoint more than tol / 64 outside
    the bracket is answered by that side, any other by phi > 0.  With exact
    brackets these are the answers phi > 0 would give everywhere, so the
    midpoints are those of the plain bisection on the sign of phi.
    """
    e_lo, e_hi = a_window

    def probe(a: float) -> float:
        nonlocal e_lo, e_hi
        phi = gap(a)
        e_lo, e_hi = max(e_lo, min(a, a - phi)), min(e_hi, max(a, a - phi))
        return phi

    sides: Tuple[list, list] = ([], [])  # (a, phi) at or below the cut, above it
    a = 0.5 * (a_window[0] + a_window[1])
    for _ in range(8):
        phi = probe(a)
        if e_hi - e_lo <= tol / 8:
            break
        side, other = sides[phi > 0.0], sides[phi <= 0.0]
        side.append((a, phi))
        if len(side) > 1:
            a = _secant(side[-2], side[-1])
        elif other:
            a = _secant(other[-1], side[-1])
        else:
            a -= phi
        if not e_lo <= a <= e_hi:
            a = 0.5 * (e_lo + e_hi)

    guard = tol / 64

    def above_cut(a: float) -> float:
        if a < e_lo - guard:
            return -1.0
        if a > e_hi + guard:
            return 1.0
        return 1.0 if probe(a) > 0.0 else -1.0

    return bisect(above_cut, a_window[0], a_window[1], -1.0, tol)


def _proves_plateau(m: MonotoneLift, r: Rational, s: int, x: float) -> bool:
    """Whether rho(m) = r is proved at x: outward-rounded bounds of G = M^q - x - p change sign.

    G has a zero exactly when rho = r (M nondecreasing), and two points
    where the bounds (_g_bounds) have opposite signs prove one
    (_g_straddles).  x is where G touches zero on the edge: the saddle-node
    x* on an A edge, the flat piece's exit end e on a B edge.  The points
    are x and x + 1/2, then 1/4, then 3/4: inside a plateau next to its left
    edge (s = -1) G(x) > 0, next to its right edge (s = 1) G(x) < 0, and G
    has the other sign away from x.  A wrong point proves nothing.
    """
    bound = _g_bounds(m, r)
    return any(_g_straddles(bound, *((x + d, x) if s > 0 else (x, x + d))) for d in (0.5, 0.25, 0.75))


def _locate_edges(
    b: float,
    r: Rational,
    which: str,
    sides: Tuple[str, ...],
    a_window: Tuple[float, float],
    tol: float,
    q_max: int,
    candidate: Optional[Tuple[float, float]] = None,
) -> List[Tuple[float, float]]:
    """Bisect the named edges ("left", "right") of one plateau of r at this b.

    The plateau is where the which-envelope level sign s(a) is 0.  Its left
    edge is where s rises above -1, its right edge where s rises above 0,
    so each edge has a cut c.  s is memoised for the call, so no a is
    probed twice.

    Each edge runs _gap_bisect on a cascade of gaps and keeps the first
    final bracket whose ends certify s(lo) <= c < s(hi), which also proves
    the window held the edge; else BadWindowError, whose message alone
    probes the window ends.  s decides the outside end first, and the end
    inside the plateau (hi of a left edge, lo of a right one) only where
    _proves_plateau fails at the point where G touches zero on the edge
    (candidate's x* on an A edge, e on the B side for b > 1) or there is
    none.  Proofs are not memoised in s, so the sign gap stays plain
    level_sign bisection.  The cascade:
      - a - a*, only when a candidate saddle-node root (x*, a*) is given
        (trace_curve's, on an A-type edge).  A wrong candidate only costs
        the pass: the certificate rejects it;
      - h, the plateau return G(e) = M^(q-1)(v) - e - p, only on the B side
        for b > 1: the plus plateau's right edge (e = plateau_end) and the
        minus plateau's left edge (e = plateau_start).  Where the edge is a
        smooth extremum of G instead (near b = 1), the zero of h is not the
        edge and the certificate rejects the pass;
      - phi, the level gap, or the sign gap where phi is nan;
      - the sign gap: +inf where s > c, -inf elsewhere, whose ends certify
        by construction.
    Returns one (edge, final bracket width) per side.
    """
    def lift(a: float) -> MonotoneLift:
        return envelope(Params(a, b), which)

    signs: Dict[float, int] = {}

    def sgn(a: float) -> int:
        if a not in signs:
            signs[a] = level_sign(lift(a), r, q_max=q_max)
        return signs[a]

    m = lift(a_window[0])  # e, the flat piece's exit end for b > 1: G(e) = 0 at a B edge, and b alone places it
    e = m.plateau_end if which == PLUS else m.plateau_start

    def plateau_return(a: float) -> float:
        return _closure(lift(a), r)(e)

    def saddle_node(a: float) -> float:
        return a - candidate[1]

    b_cut = 0 if which == PLUS else -1  # the B side: Bl, the plus right edge; Br, the minus left
    edges = []
    for c in (-1 if side == "left" else 0 for side in sides):
        s = 2 * c + 1  # the gap phi_R for the right edge, phi_L for the left

        def sign_gap(a: float) -> float:
            return math.inf if sgn(a) > c else -math.inf

        def gap(a: float) -> float:
            phi = level_gap(lift(a), r, s, q_max=q_max)
            return phi if phi == phi else sign_gap(a)

        b_side = c == b_cut and b > 1.0
        gaps = (plateau_return, gap, sign_gap) if b_side else (gap, sign_gap)
        point = e if b_side else None if candidate is None else candidate[0]
        if candidate is not None:
            gaps = (saddle_node, *gaps)
        for decide in gaps:
            lo, hi = _gap_bisect(decide, a_window, tol)
            # The outside end by s first, then the inside end: proved at the point, else by s.
            if (sgn(lo) <= c if c < 0 else c < sgn(hi)) and (
                point is not None and _proves_plateau(lift(hi if c < 0 else lo), r, s, point) or sgn(lo) <= c < sgn(hi)
            ):
                break
        else:
            target = f"{sides[0]} edge of the " if len(sides) == 1 else ""
            raise BadWindowError(
                f"window {a_window!r} does not bracket the {target}{which} plateau "
                f"of {r} at b={b!r}: end signs ({sgn(a_window[0])}, {sgn(a_window[1])})"
            )
        edges.append((0.5 * (lo + hi), hi - lo))
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
    its right end, otherwise BadWindowError.  Both edges are bisected on
    one window with one tol, so their final brackets are one cell of a
    dyadic partition (a plateau narrower than that: a doubled edge) or at
    least a cell apart.  Crossed edges, impossible while the level sign is
    monotone in a, fold to their midpoint within tol, else EmptyPlateauError.
    """
    _check_tol(tol)
    r = Rational(r)
    Params(float(r), b)  # b >= 0 and finite, before any window is built or judged
    if a_window is None:
        a_window = default_window(b, r)
    lo_w, hi_w = a_window
    if not -math.inf < lo_w <= hi_w < math.inf:
        raise ValueError(f"window must be finite with lo <= hi, got {a_window!r}")
    if not lo_w < hi_w:
        raise BadWindowError(f"empty window {a_window!r}")

    (a_left, _), (a_right, _) = _locate_edges(
        b, r, which, ("left", "right"), a_window, tol, q_max
    )
    if a_right < a_left - tol:
        raise EmptyPlateauError(
            f"edge bisections crossed for {which} plateau of {r} at "
            f"b={b!r}: left {a_left!r} > right {a_right!r}"
        )
    if a_right < a_left:
        mid = 0.5 * (a_left + a_right)
        return (mid, mid)
    return (a_left, a_right)


def _saddle_at_edge(
    b: float, r: Rational, which: str, side: str, a: float, q_max: int
) -> Optional[Tuple[float, float]]:
    """The saddle-node root (x*, a*) whose a* is nearest the located edge a, or None.

    _saddle_node starts from (x, a) at each cyclic grid-local minimum x of
    s*G on level_sign's grid of the which-envelope at a: s = -1 for a left
    edge, which the maximum of G decides, and s = 1 for a right one.
    """
    grid, g = _level_grid(envelope(Params(a, b), which), r, q_max)
    s = -1 if side == "left" else 1
    roots = (_saddle_node(b, r, x, a) for x in grid[_cyclic_minima(s * g)].tolist())
    return min((root for root in roots if root is not None), key=lambda root: abs(root[1] - a), default=None)


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

    On an A-type edge (Al or Ar, or any kind at b <= 1) the saddle-node
    root (x*, a*) of the previous sample is a Newton warm start
    (_saddle_node) at the next b, and a converged root whose a* lies inside
    the cone is the candidate of _locate_edges: a* seeds its first pass and
    x* proves the inside end of each final bracket.  After each sample the
    root is kept when the located edge's final bracket holds its a* (its
    pass certified), else restarted from the dips at that edge
    (_saddle_at_edge).  The state lives in this call alone, and since the
    certificate decides and a proof holds only where rho = r, the samples
    are those without it, bit for bit, wherever level_sign agrees with the
    proofs.
    """
    if kind not in KIND_TO_EDGE:
        raise ValueError(f"unknown curve kind {kind!r}")
    _check_tol(tol)
    r = Rational(r)
    which, side = KIND_TO_EDGE[kind]
    hw = 1.25 * step / TWO_PI + 10.0 * tol
    samples: List[Tuple[float, float, float]] = []
    prev_a: Optional[float] = None
    root: Optional[Tuple[float, float]] = None  # the previous sample's saddle-node (x*, a*)
    for b in _b_samples(b_range, step):
        if prev_a is None:
            window = default_window(b, r)
        else:
            window = (prev_a - hw, prev_a + hw)
        saddle = kind in (KIND_AL, KIND_AR) or b <= 1.0
        if saddle and root is not None:
            root = _saddle_node(b, r, *root)
            if root is not None and not window[0] <= root[1] <= window[1]:
                root = None
        try:
            ((a, width),) = _locate_edges(
                b, r, which, (side,), window, tol, q_max, root
            )
        except BadWindowError as exc:
            raise ContinuationLostError(
                f"continuation of {kind} for {r} lost its bracket at "
                f"b={b!r}: {exc}",
                b=b,
            ) from exc
        if saddle and (root is None or not abs(a - root[1]) <= 0.5 * width):
            root = _saddle_at_edge(b, r, which, side, a, q_max)
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
    return _pair_residuals(p, *orbit_pair(p, Rational(r)))


def _pair_residuals(
    p: Params, orbit: PeriodicOrbit, second: Optional[PeriodicOrbit]
) -> BoundaryResiduals:
    """boundary_condition_residuals from the pair (O, O') that orbit_pair found at p."""
    bl = br = None
    if p.b > 1.0:
        x_c, x_k = critical_points(p).points
        pts = list(orbit.points)
        succ = next((y for y in pts if y > x_c + 1e-12), pts[0] + 1.0)
        pred = next((y for y in reversed(pts) if y < x_k - 1e-12), pts[-1] - 1.0)
        bl = eval_lift(p, x_c) - eval_lift(p, succ)
        br = eval_lift(p, x_k) - eval_lift(p, pred)
    return BoundaryResiduals(
        saddle_node=abs(orbit.multiplier - 1.0),
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
    _check_tol(tol)
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
            return _pair_residuals(point, *orbit_pair(point, label, q_max=q_max))
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
