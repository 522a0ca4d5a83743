"""Boundary-curve location, tracing, regions, and crossings."""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnoldtongues import (
    BadWindowError,
    BoundaryCurve,
    ContinuationLostError,
    MINUS,
    PLUS,
    Params,
    boundary_condition_residuals,
    intersect_curves,
    itinerary,
    lipschitz_check,
    orbit_pair,
    plateau_edges,
    region_boundary,
    trace_curve,
)
from arnoldtongues import deriv, envelope, level_sign, tongues
from arnoldtongues.rotation import _closure, _cycle_rho, _scalar_iterate, level_gap
from arnoldtongues.tongues import _locate_edges, default_window

from helpers import locate_edge, reduced_reference, true_b_edge
from oracle_values import B_SPLIT, B_TIP, BL0, HALFWIDTH_B05, HALFWIDTH_B2

TWO_PI = 2.0 * math.pi
ZERO = Fraction(0, 1)
HALF = Fraction(1, 2)
ONE = Fraction(1, 1)


def test_plateau_below_critical_coupling():
    for which in (PLUS, MINUS):
        left, right = plateau_edges(0.5, ZERO, which)
        assert left == pytest.approx(-HALFWIDTH_B05, abs=2e-8)
        assert right == pytest.approx(HALFWIDTH_B05, abs=2e-8)


def test_zero_coupling_tongue_is_a_point():
    # at b = 0 the plateau degenerates to a = 1/2; the located edges can
    # only pin it down to the bisection tolerance
    left, right = plateau_edges(0.0, HALF, PLUS, tol=1e-8)
    assert 0.0 <= right - left <= 1e-8
    assert left == pytest.approx(0.5, abs=1e-8)
    assert right == pytest.approx(0.5, abs=1e-8)


def test_window_validation():
    with pytest.raises(BadWindowError):
        plateau_edges(0.5, ZERO, PLUS, a_window=(0.5, 0.6))
    with pytest.raises(BadWindowError):
        plateau_edges(0.5, ZERO, PLUS, a_window=(0.3, 0.3))
    # Windows holding no edge: the edge search's end certificates fail, and
    # the message gives the level signs at the window ends.  The plus 1/3
    # plateau at b = 2 is [0.29310, 0.34454].
    r = Fraction(1, 3)
    for side in ("left", "right"):
        for window, signs in (((0.0, 0.1), (-1, -1)), ((0.5, 0.6), (1, 1)), ((0.3, 0.34), (0, 0))):
            with pytest.raises(BadWindowError) as exc:
                _locate_edges(2.0, r, PLUS, (side,), window, 1e-8, 64)
            assert str(exc.value) == (
                f"window {window!r} does not bracket the {side} edge of the plus plateau of 1/3 "
                f"at b=2.0: end signs {signs}"
            )
    for window, message in (
        ((0.30, 0.6), "window (0.3, 0.6) does not bracket the plus plateau of 1/3 at b=2.0: end signs (0, 1)"),
        ((0.2, 0.32), "window (0.2, 0.32) does not bracket the plus plateau of 1/3 at b=2.0: end signs (-1, 0)"),
    ):
        with pytest.raises(BadWindowError) as exc:
            plateau_edges(2.0, r, PLUS, a_window=window)
        assert str(exc.value) == message


def test_plateau_edges_input_validation():
    # a bad b or window is a usage error, not a window that fails to bracket
    for b in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="amplitude b must be"):
            plateau_edges(b, ZERO, PLUS)
        with pytest.raises(ValueError, match="amplitude b must be"):
            plateau_edges(b, ZERO, PLUS, a_window=(0.3, 0.3))
    for window in ((1.0, 0.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="window must be finite"):
            plateau_edges(2.0, ZERO, PLUS, a_window=window)


def test_edges_at_b2_against_independent_values():
    assert locate_edge("Al", ZERO, 2.0) == pytest.approx(-HALFWIDTH_B2, abs=2e-8)
    assert locate_edge("Bl", ZERO, 2.0) == pytest.approx(BL0[2.0], abs=2e-8)
    # the minus envelope mirrors the plus one under a -> -a
    assert locate_edge("Br", ZERO, 2.0) == pytest.approx(-BL0[2.0], abs=2e-8)
    assert locate_edge("Ar", ZERO, 2.0) == pytest.approx(HALFWIDTH_B2, abs=2e-8)


def test_upper_left_edge_matches_independent_formula():
    # the mechanism switches at B_SPLIT: below it the edge rides the
    # sine trough, above it the plateau-crossing condition takes over
    assert 1.2 < B_SPLIT < 1.5
    assert BL0[1.2] == pytest.approx(1.2 / TWO_PI, abs=1e-15)
    assert BL0[1.5] < 1.5 / TWO_PI
    for b in (1.2, 1.5, 2.0, 4.0, 7.0):
        located = locate_edge("Bl", ZERO, b, tol=1e-9)
        assert located == pytest.approx(BL0[b], abs=5e-9), f"b={b}"


def test_lower_left_edge_exact_in_all_regimes():
    for b in (0.5, 1.5, 2.0, 4.0, 7.0):
        located = locate_edge("Al", ZERO, b, tol=1e-9)
        assert located == pytest.approx(-b / TWO_PI, abs=5e-9), f"b={b}"


def test_trace_lower_edge_closed_form():
    c = trace_curve("Al", ZERO, (0.1, 1.0), step=0.05)
    assert len(c.samples) == 19
    for b, a, _ in c.samples:
        assert a == pytest.approx(-b / TWO_PI, abs=1e-6)
    assert lipschitz_check(c).ok


def _closed_form_b_edge(kind, n, b, mp):
    """Bl or Br of n/1 past the B-switch, to 40 digits.

    The flat piece of the plus envelope runs from the local maximum x_c to
    t_e past the local minimum, F_0(t_e) = F_0(x_c), and Bl is where its
    value F_a(x_c) lands on t_e + n: a = t_e + n - F_0(x_c).  Br is its
    mirror under F_{-a}(x) = -F_a(-x): a = n + F_0(x_c) - t_e.
    """
    with mp.workdps(40):
        b, two_pi = mp.mpf(b), 2 * mp.pi

        def f0(t):
            return t + b / two_pi * mp.sin(two_pi * t)

        x_c = mp.acos(-1 / b) / two_pi
        t_e = mp.findroot(lambda t: f0(t) - f0(x_c), (1 - x_c, 1 + x_c), solver="anderson")
        return t_e + n - f0(x_c) if kind == "Bl" else n + f0(x_c) - t_e


def test_traced_b_edges_hold_the_closed_form_edge():
    # Every sample of Bl and Br on 0/1 and 1/1 over b in [1.5, 4], at steps
    # 0.05 and 0.01 (1208 samples), brackets the closed-form edge: its a is
    # within half its residual of it.  At 20 of them level_sign misses the
    # kink minimum of G at the flat piece's end and answers -1 or +1 at the
    # inside end of the bracket that holds the edge (rho = r there); the proof
    # at that end e keeps the bracket, where level_sign alone would reject it
    # and a later pass would put Bl 0/1 at b = 2.65 4.9e-9 below the edge.
    # The last curve, from the trace benchmark, is one where a run of the
    # float cycle did not prove its inside end at b = 2.418111481139702 and
    # the level gap's bracket missed the edge by 2e-13 more than its half-width.
    mp = pytest.importorskip("mpmath").mp
    curves = [(kind, n, (1.5, 4.0), step) for kind in ("Bl", "Br") for n in (0, 1) for step in (0.05, 0.01)]
    curves.append(("Bl", 0, (1.9777016746244351, 2.5159803270319836), 0.04893442294614078))
    checked = 0
    for kind, n, b_range, step in curves:
        for b, a, residual in trace_curve(kind, Fraction(n), b_range, step).samples:
            edge = _closed_form_b_edge(kind, n, b, mp)
            assert abs(mp.mpf(a) - edge) <= mp.mpf(residual) / 2, (kind, n, b, float(mp.mpf(a) - edge))
            checked += 1
    assert checked == 1208 + 12


def test_plateau_edges_hold_the_b_edges_of_one_third():
    # At b = 2 the minus left and the plus right edge of 1/3 are B edges, the
    # zeros of h(a) = G(e) at the flat piece's exit end e.  plateau_edges at
    # tol 1e-12 puts each within tol of h's mpmath root; level_sign alone
    # rejects the brackets that hold them (the kink miss), and a later pass
    # puts them 3.85e-11 and 5.43e-12 off.
    mp = pytest.importorskip("mpmath").mp
    r, tol = Fraction(1, 3), 1e-12
    left, _ = plateau_edges(2.0, r, MINUS, tol=tol)
    _, right = plateau_edges(2.0, r, PLUS, tol=tol)
    for edge, which, root in ((left, MINUS, "0.40950918614794469348"), (right, PLUS, "0.34453692737219720053")):
        true = true_b_edge(2.0, r, which, edge, mp)
        assert mp.nstr(true, 20) == root, which
        assert abs(mp.mpf(edge) - true) <= tol, (which, float(mp.mpf(edge) - true))


def test_upper_edge_below_critical_coupling():
    assert locate_edge("Bl", ZERO, 0.5) == pytest.approx(HALFWIDTH_B05, abs=2e-8)


def test_trace_validation():
    with pytest.raises(ValueError):
        trace_curve("Zl", ZERO, (1.0, 2.0), step=0.1)
    for step in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="step must be > 0"):
            trace_curve("Al", ZERO, (1.0, 2.0), step=step)
    with pytest.raises(ValueError):
        trace_curve("Al", ZERO, (2.0, 1.0), step=0.1)


def test_trace_grid_floor_semantics():
    c = trace_curve("Al", ZERO, (0.2, 0.3), step=0.04)
    bs = [b for b, _, _ in c.samples]
    assert bs == pytest.approx([0.2, 0.24, 0.28])


def test_continuation_error_carries_location():
    err = ContinuationLostError("lost", b=2.25)
    assert err.b == 2.25


def test_trace_turns_a_lost_bracket_into_continuation_lost(monkeypatch):
    # From the third sample's b on, the level sign reads -1 everywhere and
    # no inside end is proved: the plateau is gone, the cone around the
    # previous edge holds no edge, and the edge search's BadWindowError
    # becomes the cause.
    b_lost = 1.0 + 2 * 0.1
    sign, proves = tongues.level_sign, tongues._proves_plateau

    def vanishing(m, r, q_max=64):
        return -1 if m.base.b >= b_lost else sign(m, r, q_max=q_max)

    monkeypatch.setattr(tongues, "level_sign", vanishing)
    monkeypatch.setattr(tongues, "_proves_plateau", lambda m, *args: m.base.b < b_lost and proves(m, *args))
    with pytest.raises(ContinuationLostError) as exc:
        trace_curve("Al", ZERO, (1.0, 1.5), step=0.1)
    assert exc.value.b == b_lost
    assert isinstance(exc.value.__cause__, BadWindowError)
    assert "end signs (-1, -1)" in str(exc.value)


def _curve(samples, tol=1e-8, step=1.0):
    return BoundaryCurve(kind="Al", label=ZERO, samples=samples, tol=tol, step=step)


def test_lipschitz_closed_form_slopes():
    exact = _curve(((1.0, 0.0, 0.0), (2.0, 1.0 / TWO_PI, 0.0)))
    rep = lipschitz_check(exact)
    assert rep.max_slope == pytest.approx(1.0 / TWO_PI)
    assert rep.slack == pytest.approx(2e-8)
    assert rep.ok

    flat = _curve(((1.0, 0.3, 0.0), (2.0, 0.3, 0.0)))
    assert lipschitz_check(flat).max_slope == 0.0
    assert lipschitz_check(flat).ok

    steep = _curve(((1.0, 0.0, 0.0), (2.0, 1.0, 0.0)))
    assert not lipschitz_check(steep).ok


def test_lipschitz_validation():
    with pytest.raises(ValueError):
        lipschitz_check(_curve(((1.0, 0.0, 0.0),)))
    with pytest.raises(ValueError):
        lipschitz_check(_curve(((1.0, 0.0, 0.0), (1.0, 0.1, 0.0))))


def test_traced_curve_stays_in_cone():
    c = trace_curve("Bl", HALF, (1.05, 1.65), step=0.05)
    assert len(c.samples) == 13
    for (b0, a0, _), (b1, a1, _) in zip(c.samples, c.samples[1:]):
        assert abs(a1 - a0) <= (b1 - b0) / TWO_PI + 2.0 * c.tol + 1e-12
    assert lipschitz_check(c).ok


def test_region_zero_lock_slice():
    reg = region_boundary((ZERO, ZERO), (0.5, 0.5), step=1.0)
    assert len(reg.slices) == 1
    b, a_left, a_right = reg.slices[0]
    assert b == 0.5
    assert a_left == pytest.approx(-HALFWIDTH_B05, abs=1e-7)
    assert a_right == pytest.approx(HALFWIDTH_B05, abs=1e-7)


def test_region_rejects_reversed_b_range():
    with pytest.raises(ValueError, match="empty b_range"):
        region_boundary((ZERO, ONE), (7.2, 6.8), step=0.1)


def test_scans_reject_infinite_b_range():
    for b_range in ((-math.inf, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="b_range must be finite"):
            region_boundary((ZERO, ONE), b_range, step=0.5)
        with pytest.raises(ValueError, match="b_range must be finite"):
            trace_curve("Bl", ZERO, b_range, step=0.5)
        with pytest.raises(ValueError, match="b_window must be finite"):
            intersect_curves(("Bl", ZERO), ("Br", ZERO), b_range)


def test_scans_reject_a_b_range_of_too_many_steps():
    # (1e300 - 0) / 1e-300 is inf, so the b grid has no finite length;
    # 1..1e9 at step 1 is finite but past the cap of 1e6 samples
    for b_range, step in (((0.0, 1e300), 1e-300), ((1.0, 1e9), 1.0)):
        with pytest.raises(ValueError, match="too many steps"):
            region_boundary((ZERO, ONE), b_range, step=step)
        with pytest.raises(ValueError, match="too many steps"):
            trace_curve("Bl", ZERO, b_range, step=step)
        with pytest.raises(ValueError, match="too many steps"):
            intersect_curves(("Bl", ZERO), ("Br", ZERO), b_range, step=step)
    assert sum(1 for _ in tongues._b_samples((0.0, 999_999.0), 1.0)) == tongues._B_SAMPLES_MAX
    with pytest.raises(ValueError, match="too many steps"):
        tongues._b_samples((0.0, 1_000_000.0), 1.0)


def test_intersect_residuals_follow_q_max(monkeypatch):
    # The orbit pair behind each crossing's residuals uses the scan's q_max.
    seen = []
    pair = tongues.orbit_pair

    def recording(p, r, q_max=64):
        seen.append(q_max)
        return pair(p, r, q_max=q_max)

    monkeypatch.setattr(tongues, "orbit_pair", recording)
    points = intersect_curves(("Br", ZERO), ("Bl", ONE), (8.1, 8.3), step=0.1, q_max=70)
    assert len(points) == 1
    assert seen and set(seen) == {70}


def test_unit_interval_region_absent_at_low_coupling():
    reg = region_boundary((ZERO, ONE), (0.5, 0.5), step=1.0)
    assert reg.slices == ()


def test_unit_interval_region_is_symmetric():
    reg = region_boundary((ZERO, ONE), (6.8, 7.2), step=0.1)
    assert len(reg.slices) == 5
    for b, a_left, a_right in reg.slices:
        assert a_left + a_right == pytest.approx(1.0, abs=1e-6)
        assert a_right - a_left > 0.1


def test_unit_interval_region_opens_at_lower_tip():
    reg = region_boundary((ZERO, ONE), (3.10, 3.30), step=0.02)
    assert len(reg.slices) == 8
    bs = [b for b, _, _ in reg.slices]
    assert min(bs) > math.pi
    widths = [r - l for _, l, r in reg.slices]
    for w, b in zip(widths, bs):
        assert w == pytest.approx(b / math.pi - 1.0, abs=1e-6)
    assert widths == sorted(widths)


def test_unit_interval_region_pinches_at_upper_tip():
    reg = region_boundary((ZERO, ONE), (8.05, 8.25), step=0.05)
    bs = [b for b, _, _ in reg.slices]
    assert bs == pytest.approx([8.05, 8.10, 8.15])
    assert max(bs) < B_TIP
    widths = [r - l for _, l, r in reg.slices]
    assert widths == sorted(widths, reverse=True)
    for _, a_left, a_right in reg.slices:
        assert a_left + a_right == pytest.approx(1.0, abs=1e-6)


def test_residuals_at_low_coupling_tangency():
    res = boundary_condition_residuals(Params(0.5 / TWO_PI, 0.5), ZERO)
    assert res.saddle_node < 1e-6
    assert res.o_prime_absent
    assert res.bl_residual is None
    assert res.br_residual is None


def test_residuals_on_upper_edges():
    a_bl = locate_edge("Bl", ZERO, 2.0, tol=1e-10)
    res = boundary_condition_residuals(Params(a_bl, 2.0), ZERO)
    assert res.bl_residual is not None
    assert abs(res.bl_residual) < 1e-8

    a_br = locate_edge("Br", ZERO, 2.0, tol=1e-10)
    res = boundary_condition_residuals(Params(a_br, 2.0), ZERO)
    assert res.br_residual is not None
    assert abs(res.br_residual) < 1e-8


def test_residuals_on_lower_edge():
    a_al = locate_edge("Al", ZERO, 2.0, tol=1e-11)
    res = boundary_condition_residuals(Params(a_al, 2.0), ZERO)
    assert res.saddle_node < 1e-6
    assert res.o_prime_absent


def test_intersect_lower_tip():
    pts = intersect_curves(("Ar", ZERO), ("Al", ONE), (3.0, 3.3), tol=1e-7)
    assert len(pts) == 1
    pt = pts[0]
    assert pt.a == pytest.approx(0.5, abs=1e-6)
    assert pt.b == pytest.approx(math.pi, abs=1e-6)


def test_intersect_empty_window():
    assert intersect_curves(("Br", ZERO), ("Bl", ONE), (0.2, 1.0)) == []


def test_intersect_upper_tip():
    pts = intersect_curves(("Br", ZERO), ("Bl", ONE), (8.0, 8.4), tol=1e-6)
    assert len(pts) == 1
    pt = pts[0]
    assert abs(pt.a - 0.5) < 1e-5
    assert pt.b == pytest.approx(B_TIP, abs=1e-4)
    left_res, right_res = pt.residuals
    assert left_res is not None and right_res is not None
    assert left_res.br_residual is not None
    assert abs(left_res.br_residual) < 1e-4
    assert right_res.bl_residual is not None
    assert abs(right_res.bl_residual) < 1e-4


def test_intersect_itineraries_stable_across_resolutions():
    coarse = intersect_curves(
        ("Br", ZERO), ("Bl", ONE), (8.0, 8.4), tol=1e-4, step=0.07
    )
    fine = intersect_curves(
        ("Br", ZERO), ("Bl", ONE), (8.0, 8.4), tol=1e-6, step=0.05
    )
    assert len(coarse) == 1 and len(fine) == 1

    def symbols(pt, label):
        p = Params(pt.a, pt.b)
        orbit, _ = orbit_pair(p, label)
        return itinerary(p, orbit.points[0], 4).symbols

    for label in (ZERO, ONE):
        assert symbols(coarse[0], label) == symbols(fine[0], label)


def test_intersect_validation():
    with pytest.raises(ValueError):
        intersect_curves(("Bl", ONE), ("Br", ZERO), (1.0, 2.0))
    with pytest.raises(ValueError):
        intersect_curves(("Zl", ZERO), ("Bl", ONE), (1.0, 2.0))
    for step in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="step must be > 0"):
            intersect_curves(("Br", ZERO), ("Bl", ONE), (1.0, 2.0), step=step)
    with pytest.raises(ValueError, match="empty b_window"):
        intersect_curves(("Bl", ZERO), ("Br", ZERO), (3.0, 1.0))
    for tol in (0.0, -1.0):
        with pytest.raises(ValueError, match="tol must be > 0"):
            intersect_curves(("Bl", ZERO), ("Br", ZERO), (1.0, 2.0), tol=tol)


def test_tongue_order_and_symmetry_at_b2():
    bl0 = locate_edge("Bl", ZERO, 2.0)
    al = locate_edge("Al", HALF, 2.0)
    bl = locate_edge("Bl", HALF, 2.0)
    br = locate_edge("Br", HALF, 2.0)
    ar = locate_edge("Ar", HALF, 2.0)
    tol = 1e-8
    assert bl0 <= al + 2 * tol
    assert al <= bl
    assert br <= ar
    assert al + ar == pytest.approx(1.0, abs=1e-6)
    assert br + bl == pytest.approx(1.0, abs=1e-6)
    # the fully locked slab is the overlap of the two plateaus
    assert max(al, br) <= min(bl, ar) + 2 * tol


def _edges(located):
    """The (edge, final bracket width) pairs of _locate_edges, without the certified saddle roots."""
    return [(edge, width) for edge, width, _ in located]


@lru_cache(maxsize=None)
def _plain_sign_bisection(b, r, which, sides, window, tol, q_max=64):
    """The edge search without the level gap: halve the window on level_sign alone (cached)."""
    edges = []
    for side in sides:
        cut = -1 if side == "left" else 0
        lo, hi = window
        while True:
            mid = 0.5 * (lo + hi)
            if hi - lo <= tol or mid == lo or mid == hi:
                break
            s = level_sign(envelope(Params(mid, b), which), r, q_max=q_max)
            lo, hi = (lo, mid) if s > cut else (mid, hi)
        edges.append((0.5 * (lo + hi), hi - lo))
    return edges


# The c09 edges (Al 1/8, 1/16, 1/32 at b = 2), the collapsed 1/32 plateau
# and whole plateaus below and above b = 1, each in its a-priori window,
# plus a continuation cone around Bl 1/3 at b = 2.
PARITY_CASES = [(2.0, Fraction(1, q), PLUS, ("left",), None) for q in (8, 16, 32)] + [
    (2.0, Fraction(1, 32), PLUS, ("left", "right"), None),
    (2.0, Fraction(1, 16), PLUS, ("left", "right"), None),
    (2.0, Fraction(1, 3), MINUS, ("left", "right"), None),
    (0.5, ZERO, PLUS, ("left", "right"), None),
    (2.0, Fraction(1, 3), PLUS, ("right",), 0.004),
]


def _parity_window(b, r, which, sides, cone):
    if cone is None:
        return default_window(b, r)
    (edge, _), = _plain_sign_bisection(b, r, which, sides, default_window(b, r), 1e-8)
    return (edge - 0.7 * cone, edge + 0.3 * cone)


def _check_parity(monkeypatch):
    """Assert every parity case matches plain bisection; return the cases that fell back.

    The saddle-node restart is patched out, so each side runs the level gap
    and then the sign gap.  A fallback is a second _gap_bisect call for one
    side, on the sign gap.
    """
    monkeypatch.setattr(tongues, "_saddle_at_edge", lambda *args: None)
    fallbacks = []
    gap_bisect = tongues._gap_bisect
    calls = []

    def counting(gap, window, tol):
        calls.append(gap)
        return gap_bisect(gap, window, tol)

    monkeypatch.setattr(tongues, "_gap_bisect", counting)
    for case in PARITY_CASES:
        b, r, which, sides, cone = case
        window = _parity_window(b, r, which, sides, cone)
        calls.clear()
        got = _edges(_locate_edges(b, r, which, sides, window, 1e-8, 64))
        assert got == _plain_sign_bisection(b, r, which, sides, window, 1e-8), case
        fallbacks += [case] * (len(calls) - len(sides))
    return fallbacks


def test_locate_edges_matches_plain_sign_bisection(monkeypatch):
    # The gap only decides which bisection midpoints need a probe, so the
    # final bracket is that of plain level_sign bisection.
    assert _check_parity(monkeypatch) == []
    # The 1/32 plateau at b = 2 is narrower than the bisection: both edges
    # end in the same cell, and plateau_edges returns that cell's midpoint twice.
    r = Fraction(1, 32)
    left, right = _locate_edges(2.0, r, PLUS, ("left", "right"), default_window(2.0, r), 1e-8, 64)
    assert left == right
    assert plateau_edges(2.0, r, PLUS) == (left[0], left[0])


def test_plateau_brackets_are_cells_of_one_partition():
    # Both edges of a plateau are bisected on one window with one tol, so
    # their final brackets are one cell or at least one width apart (up to
    # the rounding of the midpoints); a plateau never needs folding while
    # level_sign is monotone in a.  The last cases are plateaus only one cell
    # wide at a coarse tol, whose edges must not fold either.
    cases = [(b, r, which, 1e-8) for b, r, which, sides, _ in PARITY_CASES if len(sides) == 2]
    labels = sorted({Fraction(p, q) for q in range(1, 7) for p in range(q)})
    cases += [(b, r, which, 1e-8) for b in (0.5, 2.0, 3.0) for r in labels for which in (PLUS, MINUS)]
    cases += [
        (2.0, Fraction(3, 10), PLUS, 1e-3),
        (0.5, Fraction(1, 7), MINUS, 1e-4),
        (3.0, Fraction(1, 10), PLUS, 1e-5),
    ]
    for b, r, which, tol in cases:
        window = default_window(b, r)
        (a_left, w_left, _), (a_right, w_right, _) = _locate_edges(b, r, which, ("left", "right"), window, tol, 64)
        same_cell = (a_left, w_left) == (a_right, w_right)
        apart = a_right - a_left + 4 * math.ulp(max(abs(a_left), abs(a_right))) >= min(w_left, w_right)
        assert same_cell or apart, (b, r, which, tol)
        assert plateau_edges(b, r, which, tol=tol) == (a_left, a_right), (b, r, which, tol)


def test_wrong_gap_magnitude_is_caught_by_the_end_certificate(monkeypatch):
    # A gap too small in magnitude gives brackets that miss the edge; the
    # level_sign check of both final ends rejects the bisection and the plain
    # one runs again.  A gap too large only loosens the brackets.
    for scale, fallback in ((1e-3, True), (1e3, False)):
        monkeypatch.setattr(tongues, "level_gap", lambda *args, scale=scale, **kw: scale * level_gap(*args, **kw))
        fallbacks = _check_parity(monkeypatch)
        assert bool(fallbacks) == fallback, (scale, fallbacks)


def test_nan_gap_is_the_signs_infinite_bracket(monkeypatch):
    # A nan gap hands its probe to level_sign, whose answer is an infinite
    # gap: a half-line bracket on the side level_sign decides.
    calls = itertools.count()
    for nan_at in (lambda: True, lambda: next(calls) % 2 == 0):
        monkeypatch.setattr(
            tongues, "level_gap", lambda *args, nan_at=nan_at, **kw: math.nan if nan_at() else level_gap(*args, **kw)
        )
        assert _check_parity(monkeypatch) == []


def _recording_gap_bisect(monkeypatch):
    """Patch tongues._gap_bisect to append the name of each gap it runs to the returned list."""
    gap_bisect = tongues._gap_bisect
    names = []

    def recording(gap, window, tol):
        names.append(gap.__name__)
        return gap_bisect(gap, window, tol)

    monkeypatch.setattr(tongues, "_gap_bisect", recording)
    return names


def test_no_level_sign_probe_twice_in_one_edge_search(monkeypatch):
    # One _locate_edges call memoises level_sign by a: every pass's end
    # certificate and the sign-gap pass's seeding and bisection share it.
    # The shrunken level gap forces sign-gap passes.  A window that holds
    # its edges is never probed: a certified final bracket proves it, so a
    # window end is probed only as the end of a final bracket.
    probed = []
    sign = tongues.level_sign

    def recording(m, r, q_max=64):
        probed.append(m.base.a)
        return sign(m, r, q_max=q_max)

    monkeypatch.setattr(tongues, "level_sign", recording)
    monkeypatch.setattr(tongues, "level_gap", lambda *args, **kw: 1e-3 * level_gap(*args, **kw))
    passes = _recording_gap_bisect(monkeypatch)
    bracket_ends = set()
    gap_bisect = tongues._gap_bisect

    def recording_ends(gap, window, tol):
        lo, hi = gap_bisect(gap, window, tol)
        bracket_ends.update((lo, hi))
        return lo, hi

    monkeypatch.setattr(tongues, "_gap_bisect", recording_ends)
    for b, r, which, sides, cone in PARITY_CASES:
        window = _parity_window(b, r, which, sides, cone)
        probed.clear()
        bracket_ends.clear()
        got = _edges(_locate_edges(b, r, which, sides, window, 1e-8, 64))
        assert got == _plain_sign_bisection(b, r, which, sides, window, 1e-8)
        assert len(probed) == len(set(probed)), (b, r, which, sides)
        assert not (set(window) & set(probed)) - bracket_ends, (b, r, which, sides)
    assert "sign_gap" in passes


def _edge_passes(monkeypatch, cases):
    """Locate the single edge of each (b, r, kind) case; return the names of the gaps each ran.

    The last name is the pass the end certificate accepted.  Every edge must
    equal plain level_sign bisection over the a-priori window.
    """
    passes = _recording_gap_bisect(monkeypatch)
    ran = []
    for b, r, kind in cases:
        which, side = tongues.KIND_TO_EDGE[kind]
        window = default_window(b, r)
        passes.clear()
        got = _edges(_locate_edges(b, r, which, (side,), window, 1e-8, 64))
        assert got == _plain_sign_bisection(b, r, which, (side,), window, 1e-8), (b, r, kind)
        ran.append(tuple(passes))
    return ran


def test_b_edges_match_plain_sign_bisection(monkeypatch):
    # On the B side of a plateau the plateau return h = G(e) at the flat
    # piece's exit end e runs ahead of the level gap.  Whichever pass the end
    # certificate accepts, the edge is that of plain bisection.  Near b = 1
    # the B edge is a smooth extremum of G, h fails and the level gap decides;
    # from b = 1.5 on h decides most of the edges.
    labels = sorted({Fraction(p, q) for q in range(1, 7) for p in range(q)})
    bs = (1.05, 1.2, 1.5, 2.0, 3.0, 4.0)
    cases = [(b, r, kind) for b in bs for kind in ("Bl", "Br") for r in labels]
    ran = dict(zip(cases, _edge_passes(monkeypatch, cases)))
    assert all(passes[0] == "plateau_return" for passes in ran.values())
    for b in bs:
        decided = [passes[-1] for (b_case, _, _), passes in ran.items() if b_case == b]
        assert set(decided) <= {"plateau_return", "gap"}, (b, decided)
        if b >= 1.5:
            assert decided.count("plateau_return") > len(decided) / 2, (b, decided)


def test_b_edge_below_the_b_switch_falls_back_to_the_level_gap(monkeypatch):
    # Bl 0/1 at b = 1.1 lies below the B-switch (b ~ 1.38 for n/1): the edge
    # is a smooth tangency, the zero of h is not the edge, and the end
    # certificate rejects the h pass.
    assert _edge_passes(monkeypatch, [(1.1, ZERO, "Bl")]) == [("plateau_return", "gap")]


def test_edge_scans_reject_a_tol_that_is_not_positive_and_finite():
    # An infinite tol once gave the window midpoint as both edges, pinched
    # region slices and a nan cone window in the trace.
    for tol in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="tol must be > 0 and finite"):
            plateau_edges(2.0, Fraction(1, 3), PLUS, tol=tol)
        with pytest.raises(ValueError, match="tol must be > 0 and finite"):
            trace_curve("Al", Fraction(1, 3), (2.0, 2.1), step=0.1, tol=tol)
        with pytest.raises(ValueError, match="tol must be > 0 and finite"):
            region_boundary((ZERO, Fraction(1, 3)), (2.0, 2.1), step=0.1, tol=tol)
        with pytest.raises(ValueError, match="tol must be > 0 and finite"):
            intersect_curves(("Bl", ZERO), ("Br", ZERO), (2.0, 2.1), tol=tol)


# The A-type traces of the saddle pass: seven labels over three b ranges,
# Al and Ar throughout and Bl and Br at b <= 1, where both edges are
# saddle-nodes.  The 2/5 edges at b >= 3 are where the pass misses.
SADDLE_LABELS = [Fraction(p, q) for p, q in ((0, 1), (1, 4), (1, 3), (2, 5), (1, 2), (2, 3), (1, 1))]
SADDLE_RANGES = [((0.1, 1.0), 0.05), ((1.02, 3.0), 0.04), ((3.0, 6.0), 0.1)]
SADDLE_TRACES = [
    (kind, r, b_range, step)
    for kind in ("Al", "Ar", "Bl", "Br")
    for r in SADDLE_LABELS
    for b_range, step in SADDLE_RANGES
    if kind in ("Al", "Ar") or b_range[1] <= 1.0
]


def _recording_edge_searches(monkeypatch):
    """Patch _locate_edges to append (b, candidate root or None, its result, gap names run) per call to the returned list.

    The result holds (edge, width, root) per side, root being the saddle-node
    (x*, a*) whose pass certified, carried or restarted, or None.
    """
    passes = _recording_gap_bisect(monkeypatch)
    locate = tongues._locate_edges
    searches = []

    def recording(b, r, which, sides, window, tol, q_max, candidate=None):
        passes.clear()
        edges = locate(b, r, which, sides, window, tol, q_max, candidate)
        searches.append((b, candidate, edges, tuple(passes)))
        return edges

    monkeypatch.setattr(tongues, "_locate_edges", recording)
    return searches


def test_saddle_pass_traces_equal_the_traces_without_it(monkeypatch):
    # The Newton root only seeds the first pass, whose end certificate
    # decides, so every sample is that of the trace without the warm start.
    # Patching _saddle_node out also stops the restarts, which run it.
    searches = _recording_edge_searches(monkeypatch)
    warm = []
    for kind, r, b_range, step in SADDLE_TRACES:
        searches.clear()
        curve = trace_curve(kind, r, b_range, step)
        warm += [(kind, r, b, passes) for b, candidate, _, passes in searches if candidate is not None]
        with monkeypatch.context() as cold:
            cold.setattr(tongues, "_saddle_node", lambda *args: None)
            assert trace_curve(kind, r, b_range, step) == curve, (kind, r, b_range)
        assert all(c is None for _, c, _, _ in searches[-len(curve.samples):])
    missed = [(kind, r, b) for kind, r, b, passes in warm if passes[-1] != "saddle_node"]
    assert all(passes[0] == "saddle_node" for *_, passes in warm)
    assert len(missed) <= 0.05 * len(warm), missed
    assert {(r, b >= 3.0) for _, r, b in missed} <= {(Fraction(2, 5), True)}, missed


def test_a_wrong_saddle_candidate_is_rejected_by_the_end_certificate(monkeypatch):
    # A candidate 1e-6 off the edge brackets a cell that misses it; the end
    # certificate rejects the pass, the level gap decides, and the edge is
    # that of plain bisection.  The root itself decides alone.
    passes = _recording_gap_bisect(monkeypatch)
    for b, r, kind in ((2.0, Fraction(1, 3), "Al"), (2.0, HALF, "Ar"), (0.5, Fraction(1, 4), "Bl"), (1.5, ZERO, "Ar")):
        which, side = tongues.KIND_TO_EDGE[kind]
        window = default_window(b, r)
        plain = _plain_sign_bisection(b, r, which, (side,), window, 1e-8)
        root = tongues._saddle_at_edge(b, r, which, side, plain[0][0], 64)
        assert root is not None, (b, r, kind)
        for shift, ran in ((0.0, ("saddle_node",)), (1e-6, ("saddle_node", "gap")), (-1e-6, ("saddle_node", "gap"))):
            passes.clear()
            got = _edges(_locate_edges(b, r, which, (side,), window, 1e-8, 64, (root[0], root[1] + shift)))
            assert got == plain, (b, r, kind, shift)
            assert tuple(passes) == ran, (b, r, kind, shift)


def test_cold_edges_with_the_restart_match_plain_sign_bisection():
    # Without a carried root each A-type side restarts from the dips at the
    # window centre (every side for b <= 1, the plus left and minus right
    # edge for b > 1).  Whether the restart's pass decides or a wrong root
    # hands the edge to the level gap, both edges are those of plain bisection.
    labels = sorted({Fraction(p, q) for q in range(1, 6) for p in range(q + 1)})
    decided = 0
    for b in (0.5, 2.0, 3.0):
        for r in labels:
            for which in (PLUS, MINUS):
                window = default_window(b, r)
                got = _locate_edges(b, r, which, ("left", "right"), window, 1e-8, 64)
                assert _edges(got) == _plain_sign_bisection(b, r, which, ("left", "right"), window, 1e-8), (b, r, which)
                decided += sum(root is not None for _, _, root in got)
    assert decided > len(labels) * 3, decided


def test_cold_n_over_1_a_edges_are_decided_by_the_restart(monkeypatch):
    # On Al n/1 (a = n - b/2pi) and Ar n/1 (a = n + b/2pi) the restart at the
    # a-priori window's centre finds the saddle-node, its pass alone decides,
    # and the edge is the closed form within tol.
    passes = _recording_gap_bisect(monkeypatch)
    for b in (0.3, 1.0, 1.5, 2.0, 3.0, 4.5):
        for n in (0, 1):
            for kind, edge in (("Al", n - b / TWO_PI), ("Ar", n + b / TWO_PI)):
                which, side = tongues.KIND_TO_EDGE[kind]
                passes.clear()
                ((a, width, root),) = _locate_edges(b, Fraction(n), which, (side,), default_window(b, n), 1e-8, 64)
                assert tuple(passes) == ("saddle_node",) and root is not None, (b, n, kind, passes)
                assert abs(a - edge) <= 1e-8 and width <= 1e-8, (b, n, kind, a - edge)


def test_a_restart_root_outside_the_window_is_dropped(monkeypatch):
    # A restart whose a* lies outside the window is dropped before any pass:
    # the level gap decides, no inside end is proved, no root is handed back,
    # and the edge is that of plain bisection.
    passes = _recording_gap_bisect(monkeypatch)
    _, proofs = _recording_ends(monkeypatch)
    restart = tongues._saddle_at_edge
    for b, r, kind in ((2.0, Fraction(1, 3), "Al"), (2.0, HALF, "Ar"), (0.5, Fraction(1, 4), "Bl")):
        which, side = tongues.KIND_TO_EDGE[kind]
        window = default_window(b, r)
        plain = _plain_sign_bisection(b, r, which, (side,), window, 1e-8)
        for a_star in (window[0] - 1e-3, window[1] + 1e-3):
            x_star, _ = restart(b, r, which, side, plain[0][0], 64)
            monkeypatch.setattr(tongues, "_saddle_at_edge", lambda *args, root=(x_star, a_star): root)
            passes.clear()
            proofs.clear()
            ((a, width, root),) = _locate_edges(b, r, which, (side,), window, 1e-8, 64)
            assert [(a, width)] == plain and root is None, (b, r, kind, a_star)
            assert tuple(passes) == ("gap",) and proofs == [], (b, r, kind, passes, proofs)


def test_certified_saddle_roots_are_parabolic_orbits(monkeypatch):
    # Orbit-side oracle: where the saddle pass decided, from the carried root
    # or from the restart at the window centre, its (x*, a*) closes an orbit
    # of the raw lift with multiplier 1, and level_sign puts a* -+ 1e-9 on
    # the edge's two sides.  The orbit scan must find that orbit parabolic
    # too, within 1e-6, q = 5 included: for Ar 2/5 near b = 1.8 the
    # golden-section minimum of |G| alone, which places a double root only
    # to about sqrt(1e-16 / G_xx), read the multiplier up to 1.2e-6 off, and
    # the scan now moves each dip root to the zero of G_x.
    searches = _recording_edge_searches(monkeypatch)
    checked, restarted = 0, 0
    for kind, r, b_range, step in (
        ("Al", Fraction(1, 3), (0.5, 2.5), 0.1),
        ("Ar", HALF, (0.5, 2.5), 0.1),
        ("Al", ZERO, (1.0, 3.0), 0.2),
        ("Ar", Fraction(2, 5), (0.2, 2.0), 0.1),
        ("Bl", Fraction(1, 4), (0.2, 1.0), 0.1),
        ("Br", ONE, (0.2, 1.0), 0.1),
    ):
        which, side = tongues.KIND_TO_EDGE[kind]
        cut = -1 if side == "left" else 0
        searches.clear()
        trace_curve(kind, r, b_range, step)
        for b, candidate, ((_, _, root),), passes in searches:
            assert (root is not None) == (passes[-1] == "saddle_node"), (kind, r, b)
            if root is None:
                continue
            restarted += candidate is None
            x_star, a_star = root
            p = Params(a_star, b)
            assert abs(_closure(p, r)(x_star)) < 1e-9, (kind, r, b)
            # (F^q)' - 1 as a plain product of deriv along the reduced iterates, not the jet's loop.
            ys = (reduced_reference(p, x_star, k)[0] for k in range(r.denominator))
            assert abs(math.prod(deriv(p, y) for y in ys) - 1.0) < 1e-9, (kind, r, b)
            below, above = (level_sign(envelope(Params(a_star + d, b), which), r) for d in (-1e-9, 1e-9))
            assert below <= cut < above, (kind, r, b)
            assert boundary_condition_residuals(p, r).saddle_node < 1e-6, (kind, r, b)
            checked += 1
    assert checked > 50 and restarted >= 6, (checked, restarted)  # the restart decides each first sample


def test_a_failed_trace_leaves_no_warm_start_behind(monkeypatch):
    # The saddle-node root lives in one trace_curve call: a trace that loses
    # its bracket does not change the samples of the next one.
    fresh = trace_curve("Al", Fraction(1, 3), (1.0, 1.6), step=0.1)
    sign, proves = tongues.level_sign, tongues._proves_plateau
    with monkeypatch.context() as lost:
        lost.setattr(tongues, "level_sign", lambda m, r, q_max=64: -1 if m.base.b >= 1.2 else sign(m, r, q_max=q_max))
        lost.setattr(tongues, "_proves_plateau", lambda m, *args: m.base.b < 1.2 and proves(m, *args))
        with pytest.raises(ContinuationLostError):
            trace_curve("Al", Fraction(1, 3), (1.0, 1.6), step=0.1)
    assert trace_curve("Al", Fraction(1, 3), (1.0, 1.6), step=0.1) == fresh


def _recording_ends(monkeypatch):
    """Patch level_sign and _proves_plateau in tongues to record their calls.

    Returns (probed, proofs): the a of each level_sign call, and (a, held)
    for each proof of an inside end.
    """
    probed, proofs = [], []
    sign, proves = tongues.level_sign, tongues._proves_plateau

    def recording_sign(m, r, q_max=64):
        probed.append(m.base.a)
        return sign(m, r, q_max=q_max)

    def recording_proof(m, *args):
        held = proves(m, *args)
        proofs.append((m.base.a, held))
        return held

    monkeypatch.setattr(tongues, "level_sign", recording_sign)
    monkeypatch.setattr(tongues, "_proves_plateau", recording_proof)
    return probed, proofs


@settings(max_examples=40, deadline=None)
@given(
    kind_b=st.one_of(
        st.tuples(st.sampled_from(("Al", "Ar")), st.floats(1.05, 3.4)),
        st.tuples(st.sampled_from(("Al", "Ar", "Bl", "Br")), st.floats(0.1, 0.88)),
    ),
    r=st.sampled_from(SADDLE_LABELS),
    step=st.floats(0.01, 0.05),
)
def test_proved_inside_ends_are_on_the_plateau_property(kind_b, r, step):
    # On A-type edges (Al and Ar, and every edge at b <= 1) each inside end
    # that is proved, at the x* of the carried saddle root or, on the first
    # sample, of the restart at the window centre, is one where level_sign
    # returns 0.
    kind, b_lo = kind_b
    proves, proved = tongues._proves_plateau, []

    def recording(m, r, s, x):
        held = proves(m, r, s, x)
        if held:
            proved.append(m)
        return held

    with mock.patch.object(tongues, "_proves_plateau", recording):
        trace_curve(kind, r, (b_lo, b_lo + 2 * step), step)
    for m in proved:
        assert level_sign(m, r) == 0, (kind, r, m)


def test_a_wrong_root_proves_nothing_and_level_sign_decides(monkeypatch):
    # Al 1/3 and Ar 1/2 at b = 2: the saddle root proves the inside end, and
    # level_sign runs only at the outside one.  The x* of another label's
    # root, or a* moved 1e-6 outside the plateau (where G has no zero),
    # proves nothing: level_sign decides the inside end too, and the edge is
    # that of plain bisection.
    b, roots = 2.0, {}
    for kind, r in (("Al", Fraction(1, 3)), ("Ar", HALF)):
        which, side = tongues.KIND_TO_EDGE[kind]
        window = default_window(b, r)
        (plain,) = _plain_sign_bisection(b, r, which, (side,), window, 1e-8)
        roots[kind] = (r, which, side, window, plain, tongues._saddle_at_edge(b, r, which, side, plain[0], 64))
    probed, proofs = _recording_ends(monkeypatch)
    for kind, other in (("Al", "Ar"), ("Ar", "Al")):
        r, which, side, window, plain, (x_star, a_star) = roots[kind]
        s = -1 if side == "left" else 1
        wrong_x = roots[other][5][0]
        for root, held in (((x_star, a_star), True), ((wrong_x, a_star), False)):
            probed.clear()
            proofs.clear()
            assert _edges(_locate_edges(b, r, which, (side,), window, 1e-8, 64, root)) == [plain], (kind, root)
            ((inside, proof),) = proofs
            assert proof == held and (inside in probed) != held and len(probed) == 2 - held, (kind, root)
        moved = a_star + s * 1e-6
        assert not tongues._proves_plateau(envelope(Params(moved, b), which), r, s, x_star)


def _exit_end(b, which):
    """e, the end of the flat piece through which the which-envelope's orbit leaves at this b."""
    m = envelope(Params(0.0, b), which)
    return m.plateau_end if which == PLUS else m.plateau_start


def test_b_side_inside_ends_are_proved_at_e_and_the_a_side_at_the_restart_root(monkeypatch):
    # plateau_edges' search carries no saddle root.  On the A side (the plus
    # left and the minus right edge) the saddle-node restart at the window
    # centre gives the proof point, its x*, and where the restart's pass
    # decides, its proof holds.  On the B side each proof is of an inside end
    # at e, the flat piece's exit end, and the accepted pass's proof holds.
    b, calls, restarts, decided = 2.0, [], [], 0
    proves, restart = tongues._proves_plateau, tongues._saddle_at_edge

    def recording(m, r, s, x):
        calls.append((m.which, s, x, proves(m, r, s, x)))
        return calls[-1][-1]

    def recording_restart(*args):
        restarts.append(restart(*args))
        return restarts[-1]

    monkeypatch.setattr(tongues, "_proves_plateau", recording)
    monkeypatch.setattr(tongues, "_saddle_at_edge", recording_restart)
    for r in (ZERO, Fraction(1, 3), HALF, Fraction(2, 5)):
        for which, s in ((PLUS, 1), (MINUS, -1)):  # s of the B side
            edges = plateau_edges(b, r, which)
            calls.clear()
            restarts.clear()
            left, right = _locate_edges(b, r, which, ("left", "right"), default_window(b, r), 1e-8, 64)
            assert edges == (left[0], right[0])
            (restarted,) = restarts
            a_root = (left if which == PLUS else right)[2]
            assert a_root in (None, restarted) and (left if which == MINUS else right)[2] is None, (r, which)
            decided += a_root is not None
            b_ends = [call for call in calls if call[1] == s]
            a_ends = [call for call in calls if call[1] == -s]
            assert b_ends and all(call[:3] == (which, s, _exit_end(b, which)) for call in b_ends), (r, which, calls)
            assert b_ends[-1][-1], (r, which, calls)
            assert all(call[:3] == (which, -s, restarted[0]) for call in a_ends), (r, which, calls)
            assert a_root is None or a_ends[-1][-1], (r, which, calls)
    assert decided >= 5  # all but the minus right edges of 1/3 and 2/5 and the plus left edge of 2/5


def test_a_wrong_point_proves_nothing(monkeypatch):
    # At the B edges of 1/3 at b = 2 (Br and Bl) the point e proves the
    # inside ends, and level_sign runs only at the outside ones.  The e of the
    # other envelope, or the x* of the saddle root at the A edge of the other
    # side, proves nothing: level_sign decides every end, and the edges stay
    # those of plain bisection.
    b, r = 2.0, Fraction(1, 3)
    window = default_window(b, r)
    wrong_points = {}
    for which, side, other in ((MINUS, "left", "right"), (PLUS, "right", "left")):
        (edge, _), = _plain_sign_bisection(b, r, which, (other,), window, 1e-8)
        x_star, _ = tongues._saddle_at_edge(b, r, which, other, edge, 64)
        wrong_points[which] = (_exit_end(b, MINUS if which == PLUS else PLUS), x_star)
    probed, proofs = _recording_ends(monkeypatch)
    proves = tongues._proves_plateau
    for which, side in ((MINUS, "left"), (PLUS, "right")):
        plain = _plain_sign_bisection(b, r, which, (side,), window, 1e-8)
        for wrong in (None, *wrong_points[which]):

            def at_point(m, r, s, x, wrong=wrong):
                return proves(m, r, s, x if wrong is None else wrong)

            monkeypatch.setattr(tongues, "_proves_plateau", at_point)
            probed.clear()
            proofs.clear()
            assert _edges(_locate_edges(b, r, which, (side,), window, 1e-8, 64)) == plain, (which, wrong)
            ((inside, held),) = proofs
            assert held == (wrong is None) and (inside in probed) == (wrong is not None), (which, wrong)
            assert len(probed) == 1 + (wrong is not None), (which, wrong)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(("Bl", "Br")),
    r=st.sampled_from([Fraction(p, q) for q in (1, 2, 3) for p in range(q + 1)]),
    b_lo=st.floats(1.4, 3.88),
    step=st.floats(0.01, 0.04),
)
def test_the_float_cycle_proves_no_inside_end_that_e_does_not_property(kind, r, b_lo, step):
    # Wherever the float cycle of 4q + 64 scalar steps from 0 proves rho = r
    # (rotation._cycle_rho) at a traced inside end on the B side, the proof at
    # the flat piece's exit end e holds there too.
    proves, tried = tongues._proves_plateau, []

    def recording(m, r, s, x):
        tried.append((m, proves(m, r, s, x)))
        return tried[-1][1]

    with mock.patch.object(tongues, "_proves_plateau", recording):
        trace_curve(kind, r, (b_lo, b_lo + 3 * step), step)
    for m, held in tried:
        cycle = []
        _scalar_iterate(m)(0.0, 4 * r.denominator + 64, cycle=cycle)
        assert held or not (cycle and _cycle_rho(m, *cycle) == r), (kind, r, m)
