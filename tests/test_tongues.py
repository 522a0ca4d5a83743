"""Boundary-curve location, tracing, regions, and crossings."""

import math
from fractions import Fraction

import pytest

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

from helpers import locate_edge
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
