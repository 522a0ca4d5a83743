"""Rotation machinery: estimates, certificates, intervals, brute force."""

import dataclasses
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnoldtongues import (
    MINUS,
    NoOrbitError,
    PLUS,
    Params,
    envelope,
    find_periodic_orbits,
    level_sign,
    plateau_edges,
    rho_bounds_bruteforce,
    rho_exact_rational_test,
    rho_monotone,
    rotation_interval,
    snap_rational,
)
from arnoldtongues import orbits, rotation
from arnoldtongues.maps import _step_args
from arnoldtongues.rotation import TOLZ, _cyclic_minima, _iterate, _scalar_iterate, level_gap
from arnoldtongues.solvers import bisect, golden_min
from helpers import counting_step, iterate_reference, reduced_reference, true_envelope_g

TWO_PI = 2.0 * math.pi


def test_rigid_rotation_estimate():
    est = rho_monotone(envelope(Params(0.25, 0.0), PLUS), n_iter=1000)
    assert est.value == 0.25
    assert est.error_bound == pytest.approx(1e-3)
    assert est.exact_rational == Fraction(1, 4)
    assert est.n_iter == 1000


def test_locked_zero_keeps_raw_value():
    # inside the zero tongue the raw average is a transient, not exactly 0,
    # and certification must not overwrite it
    est = rho_monotone(envelope(Params(0.02, 0.5), PLUS), n_iter=800)
    assert est.exact_rational == Fraction(0, 1)
    assert est.value != 0.0
    assert abs(est.value) <= est.error_bound


def test_half_symmetry_point():
    est = rho_monotone(envelope(Params(0.5, 0.9), PLUS), n_iter=10_000)
    assert abs(est.value - 0.5) <= 1e-4
    assert est.exact_rational == Fraction(1, 2)


def test_estimate_independent_of_start(rng):
    m = envelope(Params(0.31, 2.3), PLUS)
    vals = [
        rho_monotone(m, n_iter=4000, x0=float(x0), q_max=0).value
        for x0 in rng.uniform(0, 1, 5)
    ]
    assert max(vals) - min(vals) <= 2.0 / 4000 + 1e-12


def test_rho_validation():
    m = envelope(Params(0.1, 0.5), PLUS)
    for n_iter in (0, rotation._N_ITER_MAX + 1):
        with pytest.raises(ValueError, match="n_iter must be in"):
            rho_monotone(m, n_iter=n_iter)
    for x0 in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="x0 must be finite"):
            rho_monotone(m, x0=x0)
    # q_max=0 skips the certificate; a negative one is an error, not a skip
    with pytest.raises(ValueError, match="q_max must be >= 0"):
        rho_monotone(m, q_max=-1)
    # a finite offset so large that the winding overflows to inf
    for b in (0.5, 2.0):
        with pytest.raises(ValueError, match="offset a = 1e\\+308"):
            rho_monotone(envelope(Params(1e308, b), PLUS))


def test_certificate_examples():
    b = 0.5
    assert rho_exact_rational_test(envelope(Params(b / TWO_PI, b), PLUS), Fraction(0, 1))
    assert rho_exact_rational_test(envelope(Params(0.25, 0.0), PLUS), Fraction(1, 4))
    assert not rho_exact_rational_test(envelope(Params(0.25, 0.0), PLUS), Fraction(0, 1))


def test_level_sign_three_states():
    m = envelope(Params(0.3, 0.5), PLUS)
    assert level_sign(m, Fraction(0, 1)) == 1
    assert level_sign(m, Fraction(1, 1)) == -1
    tangent = envelope(Params(0.5 / TWO_PI, 0.5), PLUS)
    assert level_sign(tangent, Fraction(0, 1)) == 0


def _check_sharpening(monkeypatch, which, side):
    """Check level_sign 1e-11 inside and outside the side edge of the which 1/3 plateau at b = 2.

    Inside, the 64-point raw grid of G = m^3 - id - 1 still has a strict
    sign (- at left edges, + at right edges) and only golden-section
    sharpening finds the touch; outside, that sign holds.
    """
    third, b = Fraction(1, 3), 2.0
    calls = []

    def counting_golden_min(*args, **kwargs):
        calls.append(args)
        return golden_min(*args, **kwargs)

    monkeypatch.setattr(rotation, "golden_min", counting_golden_min)
    grid = np.arange(64, dtype=float) / 64
    left, right = plateau_edges(b, third, which, tol=1e-12)
    edge, raw = (left, -1) if side == "left" else (right, 1)
    inside = envelope(Params(edge - raw * 1e-11, b), which)
    g = _iterate(grid, *_step_args(inside), 3) - grid - 1
    assert np.all(raw * g > TOLZ)
    calls.clear()
    assert level_sign(inside, third) == 0
    assert calls
    outside = envelope(Params(edge + raw * 1e-11, b), which)
    assert level_sign(outside, third) == raw


def test_level_sign_sharpens_either_raw_sign(monkeypatch):
    # The minus left edge is the strict xfail below.
    for which, side in ((MINUS, "right"), (PLUS, "left"), (PLUS, "right")):
        _check_sharpening(monkeypatch, which, side)


@pytest.mark.xfail(strict=True, reason="level_sign misses the kink minimum of G at the flat piece's start")
def test_level_sign_sharpens_inside_the_minus_left_edge(monkeypatch):
    # The minus left edge of 1/3 at b = 2 is a B edge: h(a) = G(e) at the flat
    # piece's start e has its mpmath root at a = 0.40950918614794469348, and
    # plateau_edges at tol 1e-12 puts the edge 2.9e-13 above it.  1e-11 inside,
    # at a = 0.40950918615823295, G(e) = +8.24e-11 by mpmath at 50 digits (and
    # in floats), so rho = 1/3 there.  G is V-shaped at e, and the golden
    # section of its dip stops where G is still below zero, so level_sign
    # returns -1 (ROADMAP: sample the flat-piece ends of M^q in the
    # certificate's grid).
    _check_sharpening(monkeypatch, MINUS, "left")


def test_level_sign_rejects_large_denominator():
    m = envelope(Params(0.3, 0.5), PLUS)
    with pytest.raises(ValueError):
        level_sign(m, Fraction(1, 65), q_max=64)


def test_snap_basics():
    assert snap_rational(0.49999, 1e-3, 10) == Fraction(1, 2)
    assert snap_rational(0.6180339, 1e-4, 10) is None
    assert snap_rational(0.75, 1e-9, 4) == Fraction(3, 4)
    # the tolerance is strict: a miss by exactly tol does not snap
    # (dyadic values keep the comparison exact in floats)
    assert snap_rational(0.625, 0.125, 2) is None


def test_snap_validation():
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tol must be > 0"):
            snap_rational(0.5, tol, 10)
    with pytest.raises(ValueError):
        snap_rational(0.5, 1e-3, 0)
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="value must be finite"):
            snap_rational(value, 0.1, 10)
    # value * q overflows at q = 2: a usage error, not round(inf)'s OverflowError
    for value in (1e308, -1e308):
        with pytest.raises(ValueError, match="too large to snap"):
            snap_rational(value, 1.0, 2)


def test_interval_below_critical_coupling_is_a_point():
    ri = rotation_interval(Params(0.3, 0.5))
    assert ri.lo.value == ri.hi.value
    assert ri.width == 0.0


def test_interval_runs_one_envelope_below_critical_coupling(monkeypatch):
    # For b <= 1 both envelopes are the lift itself, so one estimate is both ends.
    calls, rho = [], rotation.rho_monotone

    def counting(m, **kw):
        calls.append(m)
        return rho(m, **kw)

    monkeypatch.setattr(rotation, "rho_monotone", counting)
    for b, n in ((0.5, 1), (1.0, 1), (1.5, 2)):
        calls.clear()
        ri = rotation_interval(Params(0.1, b))
        assert len(calls) == n, b
        if n == 1:
            assert ri.hi is ri.lo


def test_interval_symmetric_about_zero():
    # the true interval is the single point 0; finite-orbit transients
    # only have to stay inside the error bounds
    ri = rotation_interval(Params(0.0, 2.0))
    assert ri.lo.exact_rational == Fraction(0, 1)
    assert ri.hi.exact_rational == Fraction(0, 1)
    assert abs(ri.lo.value) <= ri.lo.error_bound
    assert abs(ri.hi.value) <= ri.hi.error_bound


def test_interval_symmetric_about_half():
    ri = rotation_interval(Params(0.5, 2.0))
    assert ri.lo.value + ri.hi.value == pytest.approx(1.0, abs=2e-3)


def test_interval_translation_by_one():
    n = 4000
    base = rotation_interval(Params(0.3, 2.0), n_iter=n, q_max=0)
    shifted = rotation_interval(Params(1.3, 2.0), n_iter=n, q_max=0)
    assert shifted.lo.value == pytest.approx(base.lo.value + 1.0, abs=2.0 / n + 1e-12)
    assert shifted.hi.value == pytest.approx(base.hi.value + 1.0, abs=2.0 / n + 1e-12)


def test_interval_reflection(rng):
    n = 2000
    for _ in range(5):
        a = float(rng.uniform(-0.6, 0.6))
        b = float(rng.uniform(1.0, 3.0))
        fwd = rotation_interval(Params(a, b), n_iter=n, q_max=0)
        mir = rotation_interval(Params(-a, b), n_iter=n, q_max=0)
        assert mir.lo.value == pytest.approx(-fwd.hi.value, abs=2.0 / n + 1e-12)
        assert mir.hi.value == pytest.approx(-fwd.lo.value, abs=2.0 / n + 1e-12)


def test_endpoint_estimate_increases_with_a():
    n = 2000
    vals = [
        rho_monotone(envelope(Params(float(a), 2.0), PLUS), n_iter=n, q_max=0).value
        for a in np.linspace(-0.5, 1.5, 21)
    ]
    for v0, v1 in zip(vals, vals[1:]):
        assert v1 >= v0 - 2.0 / n


def test_interval_is_singleton_below_critical_coupling(rng):
    for _ in range(50):
        a = float(rng.uniform(-0.5, 1.5))
        b = float(rng.uniform(0.0, 1.0))
        ri = rotation_interval(Params(a, b))
        assert ri.width <= ri.lo.error_bound + ri.hi.error_bound


def test_iteration_count_follows_tolerance():
    ri = rotation_interval(Params(0.2, 0.4), tol=1e-2)
    assert ri.lo.n_iter == 200
    assert ri.hi.n_iter == 200


def test_interval_rejects_a_tolerance_whose_iteration_count_overflows():
    # 2 / 1e-320 is inf, which math.ceil cannot turn into an iteration count;
    # 2 / 1e-300 and 2 / 1.9e-9 are finite but past the cap of 1e9 iterations
    for tol in (1e-320, 1e-300, 1.9 / rotation._N_ITER_MAX):
        with pytest.raises(ValueError, match="too small"):
            rotation_interval(Params(0.2, 2.0), tol=tol)
    with pytest.raises(ValueError, match="n_iter must be in"):
        rotation_interval(Params(0.2, 2.0), n_iter=rotation._N_ITER_MAX + 1)


def test_bruteforce_rigid():
    lo, hi = rho_bounds_bruteforce(Params(0.25, 0.0), n_x0=16, n_iter=400)
    assert lo == pytest.approx(0.25, abs=1e-12)
    assert hi == pytest.approx(0.25, abs=1e-12)


def test_bruteforce_locked_zero():
    lo, hi = rho_bounds_bruteforce(Params(0.0, 0.5), n_x0=32, n_iter=2000)
    assert abs(lo) <= 1.5e-3
    assert abs(hi) <= 1.5e-3


def test_bruteforce_validation():
    with pytest.raises(ValueError):
        rho_bounds_bruteforce(Params(0.0, 0.5), n_x0=0)
    for n_iter in (0, 10**9 + 1):
        with pytest.raises(ValueError, match="n_iter must be in"):
            rho_bounds_bruteforce(Params(0.0, 0.5), n_iter=n_iter)


def test_bruteforce_rates_inside_interval(rng):
    # forward orbits only realise rates inside the envelope interval
    for _ in range(8):
        a = float(rng.uniform(-0.5, 1.5))
        b = float(rng.uniform(0.0, 4.0))
        p = Params(a, b)
        ri = rotation_interval(p)
        blo, bhi = rho_bounds_bruteforce(p, n_x0=64, n_iter=4000)
        slack = 1.0 / 2000 + ri.lo.error_bound + ri.hi.error_bound
        assert blo >= ri.lo.value - slack
        assert bhi <= ri.hi.value + slack


def test_bruteforce_two_sided_below_critical_coupling(rng):
    # with a single rotation number both routes must agree both ways
    for _ in range(6):
        a = float(rng.uniform(-0.5, 1.5))
        b = float(rng.uniform(0.0, 1.0))
        p = Params(a, b)
        ri = rotation_interval(p)
        blo, bhi = rho_bounds_bruteforce(p, n_x0=64, n_iter=4000)
        slack = 1.0 / 2000 + ri.lo.error_bound + ri.hi.error_bound
        assert abs(blo - ri.lo.value) <= slack
        assert abs(bhi - ri.hi.value) <= slack


def _kernel_lifts(a, b):
    """The lifts at (a, b): the raw Params lift and both envelopes (raw lifts for b <= 1)."""
    p = Params(a, b)
    return [p, envelope(p, PLUS), envelope(p, MINUS)]


def test_iterate_scalar_path_matches_array_path():
    # The fused kernel's math path and the array _iterate's numpy path must agree bit
    # for bit: raw lifts with b < 1 and b > 1, both envelopes, plateau ends and their
    # +1 shifts, float and np.float64 inputs, short and long orbits.
    p = Params(0.27, 2.6)
    up, down = envelope(p, PLUS), envelope(p, MINUS)
    ends = [up.plateau_start, up.plateau_end, down.plateau_start, down.plateau_end]
    xs = np.concatenate([np.linspace(-1.5, 2.5, 37), ends, np.add(ends, 1.0)])
    lifts = _kernel_lifts(0.1, 0.8) + _kernel_lifts(0.27, 2.6)
    for lift in lifts:
        it = _scalar_iterate(lift)
        for n in (1, 3, 40, 2000):
            before = xs.copy()
            arr = [float(y).hex() for y in _iterate(xs, *_step_args(lift), n)]
            assert np.array_equal(xs, before)
            for x_type in (float, np.float64):
                scal = [it(x_type(x), n) for x in xs]
                assert all(type(y) is float for y in scal)
                assert [y.hex() for y in scal] == arr, (lift, n, x_type)


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(-3.0, 3.0),
    b=st.floats(0.0, 5.0),
    x=st.floats(-4.0, 4.0),
    q=st.integers(1, 8),
    shape=st.integers(0, 2),
)
def test_scalar_iterate_matches_array_iterate_property(a, b, x, q, shape):
    lift = _kernel_lifts(a, b)[shape]
    y = _scalar_iterate(lift)(x, q)
    assert type(y) is float
    assert y.hex() == float(_iterate(np.array([x]), *_step_args(lift), q)[0]).hex()


def test_scalar_iterate_rejects_non_finite_x():
    for lift in _kernel_lifts(0.1, 0.8) + _kernel_lifts(0.27, 2.6):
        it = _scalar_iterate(lift)
        for x in (math.nan, math.inf, -math.inf, np.float64("nan")):
            with pytest.raises(ValueError, match="finite"):
                it(x, 3)


@settings(max_examples=300, deadline=None)
@given(
    a=st.one_of(st.floats(-3.0, 3.0), st.floats(-1e12, 1e12)),
    b=st.floats(0.0, 4.0),
    x=st.one_of(st.floats(-4.0, 4.0), st.floats(-1e17, 1e17), st.sampled_from([2.0**53 - 64, -1e17])),
    n=st.one_of(st.integers(1, 5000), st.integers(60, 200)),
    shape=st.integers(0, 2),
)
def test_scalar_iterate_cycle_shortcut_matches_plain_loop_property(a, b, x, n, shape):
    # Envelopes for b > 1 lock almost everywhere, so their float orbits repeat and the
    # shortcut fires; a up to 1e12 coarsens y to a few bits, so those repeat too, with
    # windings near 2**53; x up to 1e17 must switch the check off.
    lift = _kernel_lifts(a, b)[shape]
    assert _scalar_iterate(lift)(x, n).hex() == iterate_reference(lift, x, n).hex()


_START = st.one_of(st.floats(-4.0, 4.0), st.floats(-1e17, 1e17), st.sampled_from([2.0**53 - 64, 1e17]))
_OFFSET = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e12, 1e12))
_RAW = st.builds(Params, _OFFSET, st.floats(0.0, 4.0))
_FOLDED = st.builds(
    lambda a, b, which: envelope(Params(a, b), which),
    _OFFSET,
    st.floats(1.0, 4.0, exclude_min=True),
    st.sampled_from([PLUS, MINUS]),
)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    xs=st.lists(_START, max_size=4),
    n=st.one_of(st.integers(1, 5000), st.integers(60, 200)),
    folded=st.booleans(),
    per_cell=st.booleans(),
)
def test_iterate_matches_plain_loop_property(data, xs, n, folded, per_cell):
    # The array kernel stops each cell at its float cycle, with a, c and the fold
    # shared by all cells or given per cell, as the raster gives them.  Any start of
    # 2**53 - 64 or 1e17 must switch the check off for the whole array; a up to 1e12
    # gives windings near 2**53 with the check on.
    lifts = st.lists(_FOLDED if folded else _RAW, min_size=len(xs), max_size=len(xs))
    if per_cell:
        cells = data.draw(lifts)
        a, c = np.array([_step_args(m)[:2] for m in cells]).reshape(-1, 2).T
        fold = np.array([_step_args(m)[2] for m in cells]).reshape(-1, 4).T if folded else None
    else:
        lift = data.draw(_FOLDED if folded else _RAW)
        cells = [lift] * len(xs)
        a, c, fold = _step_args(lift)
    got = _iterate(np.array(xs, dtype=float), a, c, fold, n)
    assert got.shape == (len(xs),)
    want = [iterate_reference(m, x, n).hex() for m, x in zip(cells, xs)]
    assert [y.hex() for y in got.tolist()] == want


# Locked lifts whose float orbits repeat with periods 2 to 25.
_LOCKED_RAW = st.sampled_from([Params(a, b) for a, b in ((0.5, 0.95), (0.34, 0.95), (0.3333, 0.95))])
_LOCKED_FOLDED = st.sampled_from(
    [
        envelope(Params(a, b), which)
        for a, b, which in (
            (0.5, 2.0, MINUS),  # 1/2
            (0.33, 2.0, PLUS),  # 1/3
            (0.28, 2.0, PLUS),  # 1/4
            (0.75, 2.0, MINUS),  # 6/7
            (0.655, 1.5, PLUS),  # 8/11
            (0.41, 1.6, PLUS),  # 7/15
        )
    ]
)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    size=st.integers(1, 80),
    n=st.one_of(st.integers(65, 5000), st.integers(32, 300).map(lambda k: 2 * k + 1)),
    folded=st.booleans(),
)
def test_iterate_scalar_tail_matches_plain_loop_property(data, size, n, folded):
    # Per-cell lifts, most of them locked, so cells stop at different steps and
    # the last few finish in the scalar kernel, each with its own (a, c, fold)
    # and its winding so far: some before their first repeat, some after a jump
    # with steps left over.  The bits are the plain loop's whatever the number
    # of cells handed over, so it is drawn too.
    lifts = st.one_of(_LOCKED_FOLDED, _FOLDED) if folded else st.one_of(_LOCKED_RAW, _RAW)
    cells = data.draw(st.lists(lifts, min_size=size, max_size=size))
    xs = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=size, max_size=size))
    # Some cells start past a transient of 300 steps, on their cycle if locked.
    for k in data.draw(st.sets(st.integers(0, size - 1))):
        xs[k] = iterate_reference(cells[k], xs[k], 300) % 1.0
    a, c = np.array([_step_args(m)[:2] for m in cells]).T
    fold = tuple(np.array([_step_args(m)[2] for m in cells]).T) if folded else None
    with mock.patch.object(rotation, "_TAIL_CELLS", data.draw(st.integers(1, size))):
        got = _iterate(np.array(xs), a, c, fold, n)
    assert [y.hex() for y in got.tolist()] == [iterate_reference(m, x, n).hex() for m, x in zip(cells, xs)]


def test_iterate_hands_a_jumped_cell_to_the_scalar_tail(monkeypatch):
    # Two envelopes started on their float cycles, of periods 2 and 3.  With
    # marks at steps 1, 2, 4, 8, ... the period-2 cell repeats at step 6 and,
    # for odd n, ends at 7; the period-3 one repeats at step 7 and jumps with
    # (n - 7) % 3 steps left.  The compaction at step 7 leaves it alone, so it
    # finishes those steps in the scalar kernel with the winding of its jump.
    cells = [envelope(Params(0.5, 2.0), MINUS), envelope(Params(0.33, 2.0), PLUS)]
    xs = [reduced_reference(m, 0.0, 300)[0] for m in cells]
    for m, x, lam in zip(cells, xs, (2, 3)):
        assert [reduced_reference(m, x, k)[0] == x for k in range(1, lam + 1)] == [False] * (lam - 1) + [True]
    calls, kernel = [], rotation._scalar_kernel

    def recording(a, c, fold):
        it = kernel(a, c, fold)

        def run(x, n, wind=0.0):
            calls.append((n, wind))
            return it(x, n, wind)

        return run

    monkeypatch.setattr(rotation, "_scalar_kernel", recording)
    a, c = np.array([_step_args(m)[:2] for m in cells]).T
    fold = tuple(np.array([_step_args(m)[2] for m in cells]).T)
    for n, left in ((1001, 1), (1005, 2)):
        calls.clear()
        got = _iterate(np.array(xs), a, c, fold, n)
        assert [y.hex() for y in got.tolist()] == [iterate_reference(m, x, n).hex() for m, x in zip(cells, xs)]
        assert [k for k, _ in calls] == [left] and calls[0][1] > 300, (n, calls)


def test_iterate_empty_array():
    for lift in _kernel_lifts(0.1, 0.8) + _kernel_lifts(0.27, 2.6):
        assert _iterate(np.array([]), *_step_args(lift), 1000).shape == (0,)
    per_cell = np.empty((6, 0))
    assert _iterate(np.array([]), per_cell[0], per_cell[1], tuple(per_cell[2:]), 1000).shape == (0,)


def test_level_grid_cycle_check_at_large_q(monkeypatch):
    # q = 71 > 64 runs the check on the level grid: locked envelopes and a locked
    # raw lift stop most grid points early, with every bit of the plain loop.
    count = counting_step(monkeypatch)
    r = Fraction(18, 71)
    for lift in (envelope(Params(0.28, 2.0), PLUS), envelope(Params(0.4, 3.0), MINUS), Params(0.0, 0.95)):
        count[0] = 0
        grid, g = rotation._level_grid(lift, r, 128)
        assert len(grid) == 8 * 71
        want = [(iterate_reference(lift, x, 71) - x - 18).hex() for x in grid.tolist()]
        assert [v.hex() for v in g.tolist()] == want, lift
        assert count[0] < len(grid) * 71 / 2, lift
    with pytest.raises(ValueError, match="exceeds q_max"):
        rotation._level_grid(Params(0.1, 0.9), r, 64)


def test_level_grids_never_build_a_scalar_tail(monkeypatch):
    # A level grid of q <= 64 steps never runs the cycle check, so no cell
    # stops early and _iterate hands none to the scalar kernel.  Kernels are
    # still built, by _scalar_iterate for the golden sections of the dips.
    inside, built = [False], []
    iterate, kernel = rotation._iterate, rotation._scalar_kernel

    def flagged(*args):
        inside[0] = True
        try:
            return iterate(*args)
        finally:
            inside[0] = False

    def recording(*args):
        built.append(inside[0])
        return kernel(*args)

    monkeypatch.setattr(rotation, "_iterate", flagged)
    monkeypatch.setattr(rotation, "_scalar_kernel", recording)
    for a, b in ((0.28, 2.0), (0.33, 2.0), (0.1, 0.9), (0.3333, 0.95)):
        for r in (Fraction(1, 4), Fraction(1, 3), Fraction(21, 64)):
            for which in (PLUS, MINUS):
                level_sign(envelope(Params(a, b), which), r)
                level_gap(envelope(Params(a, b), which), r, 1)
            try:
                find_periodic_orbits(Params(a, b), r)
            except NoOrbitError:
                pass
    assert built and not any(built)


def test_scalar_iterate_cycle_shortcut_every_remainder():
    # Every n up to 400 on locked orbits of several periods: n below the check, n just
    # past a detection, whole periods and every remainder after them.  From x = 2**53 - 64
    # the winding crosses 2**53, where it no longer adds exactly, so the check stays off.
    lifts = [
        envelope(Params(0.28, 2.0), PLUS),  # locked to 1/4
        envelope(Params(0.4, 3.0), MINUS),  # 0/1
        envelope(Params(0.655, 1.5), PLUS),  # 8/11
        Params(0.1, 0.9),  # 0/1
        Params(0.3333, 0.95),  # 8/25
    ]
    for lift in lifts:
        it = _scalar_iterate(lift)
        for x in (0.0, 0.37, -2.5, 2.0**53 - 64):
            got = [it(x, n).hex() for n in range(1, 401)]
            assert got == [iterate_reference(lift, x, n).hex() for n in range(1, 401)], lift


def test_scalar_iterate_skips_the_steps_of_a_repeating_orbit(monkeypatch):
    # The kernel binds math.sin when it is built, so a counting sin counts its steps.
    calls, sin = [], math.sin

    def counting_sin(t):
        calls.append(t)
        return sin(t)

    lift = Params(0.3333, 0.95)
    with monkeypatch.context() as m:
        m.setattr(math, "sin", counting_sin)
        it = _scalar_iterate(lift)
    n = 10**5
    assert it(0.1, n).hex() == iterate_reference(lift, 0.1, n).hex()
    assert 0 < len(calls) < n / 10
    calls.clear()
    assert it(1e17, 100).hex() == iterate_reference(lift, 1e17, 100).hex()
    assert len(calls) == 100


def test_cyclic_minima_matches_roll_mask(rng):
    def roll_mask(v):
        return (v <= np.roll(v, 1)) & (v <= np.roll(v, -1))

    arrays = [rng.normal(size=n) for n in (2, 3, 5, 64, 4096)]
    # ties: plateaus of equal values, constant arrays, repeated levels
    arrays += [rng.integers(0, 3, size=n).astype(float) for n in (2, 7, 64, 513)]
    arrays += [np.zeros(64), np.array([1.0, 1.0]), np.array([2.0, 1.0, 1.0, 2.0])]
    # minima at both ends (a tie across the wrap), at one end, and a nan that compares false
    both = rng.normal(size=64)
    both[[0, -1]] = both.min() - 1.0
    arrays += [both, np.array([0.0, 1.0, 2.0, 1.0, 0.0]), np.array([0.0, 1.0, 2.0, 1.0, -1.0])]
    arrays += [np.array([-1.0, 1.0, 2.0, 1.0, 0.0]), np.array([0.0, np.nan, 0.0])]
    for v in arrays:
        mask = _cyclic_minima(v)
        assert mask.dtype == bool
        assert np.array_equal(mask, roll_mask(v)), v
    assert _cyclic_minima(both)[[0, -1]].all()


def _gap_probe_points(b, r, which):
    """Points inside the plateau, within 1e-9 of its edges and far outside."""
    left, right = plateau_edges(b, r, which, tol=1e-12)
    near = [e + d for e in (left, right) for d in (-1e-9, -1e-11, 0.0, 1e-11, 1e-9)]
    return [0.5 * (left + right), 0.25 * left + 0.75 * right, left - 0.05, right + 0.05, *near]


def test_level_gap_sign_is_level_sign_decision():
    # phi > 0 exactly when level_sign is above the cut: 0 for phi_R (s = 1),
    # -1 for phi_L (s = -1).  Skipping a bisection probe relies on this.
    labels = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 5)]
    decided = {-1: set(), 0: set(), 1: set()}
    for b in (0.6, 1.0, 2.5):
        for r in labels:
            for which in (PLUS, MINUS):
                for a in _gap_probe_points(b, r, which):
                    m = envelope(Params(a, b), which)
                    sign = level_sign(m, r)
                    decided[sign].add(b)
                    for s in (1, -1):
                        assert (level_gap(m, r, s) > 0.0) == (sign > (s - 1) // 2), (b, r, which, a, s)
    assert all(len(bs) == 3 for bs in decided.values())


def test_level_gap_agrees_where_the_extremum_meets_the_zero_band(monkeypatch):
    # level_sign counts a sampled extremum equal to TOLZ as a touch (0), so
    # phi_R must not be positive there and phi_L must be.
    third = Fraction(1, 3)
    for a, s in ((0.25, -1), (0.36, 1)):
        m = envelope(Params(a, 2.0), PLUS)
        monkeypatch.setattr(rotation, "TOLZ", TOLZ)
        assert level_sign(m, third) == s
        monkeypatch.setattr(rotation, "TOLZ", 0.0)
        band = s * level_gap(m, third, s)  # the sampled min of s*G, with no zero band
        assert band > 0.0
        monkeypatch.setattr(rotation, "TOLZ", band)
        assert level_sign(m, third) == 0
        assert level_gap(m, third, 1) <= 0.0 < level_gap(m, third, -1)


def test_level_gap_nan_decides_nothing():
    # A nan plateau value puts nan on the grid wherever an orbit meets the flat piece.
    for which in (PLUS, MINUS):
        nan_lift = dataclasses.replace(envelope(Params(0.3, 2.0), which), plateau_value=math.nan)
        for s in (1, -1):
            assert math.isnan(level_gap(nan_lift, Fraction(1, 3), s))


def _gap_rises(b, r, which, offsets):
    """Smallest (phi(a2) - phi(a1)) / (a2 - a1) over consecutive sampled a near the edges."""
    left, right = plateau_edges(b, r, which, tol=1e-12)
    slopes = []
    for s, edge in ((1, right), (-1, left)):
        a = sorted(edge + d for d in offsets)
        phi = [level_gap(envelope(Params(x, b), which), r, s) for x in a]
        slopes += [(p2 - p1) / (a2 - a1) for a1, a2, p1, p2 in zip(a, a[1:], phi, phi[1:])]
    return min(slopes)


OFFSETS = (-1e-2, -1e-3, -1e-4, -1e-5, -1e-6, 0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


def test_level_gap_rises_with_slope_at_least_one():
    # d(m^q)/da >= 1 for the envelopes, so phi_R and phi_L rise at least as fast as a.
    for b in (0.3, 1.0, 2.0, 3.0):
        for r in (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)):
            for which in (PLUS, MINUS):
                assert _gap_rises(b, r, which, OFFSETS) >= 1.0 - 1e-9, (b, r, which)
    # The left edge of the plus 1/3 plateau at b = 2 is a kink of phi_L:
    # slope about 1.5 below the edge and 11.9 above it.
    third, b = Fraction(1, 3), 2.0
    left, _ = plateau_edges(b, third, PLUS, tol=1e-12)

    def phi(a):
        return level_gap(envelope(Params(a, b), PLUS), third, -1)

    assert (phi(left) - phi(left - 1e-6)) / 1e-6 == pytest.approx(1.5, abs=0.05)
    assert (phi(left + 1e-6) - phi(left)) / 1e-6 == pytest.approx(11.9, abs=0.1)


@pytest.mark.xfail(strict=True, reason="level_sign's 64-point grid misses the highest peak of G at b = 3, q = 5")
def test_level_gap_slope_where_the_grid_misses_a_peak():
    # At a = edge - 1e-4 below the left edge of the plus 1/5 plateau at b = 3
    # the grid finds only a lower peak of G (max G about -2.0e-3 against
    # -1.4e-4 on a 2e6-point grid), so the computed phi_L falls between
    # edge - 1e-3 and edge - 1e-4.  Its sign, and so the certificate, stays
    # right: every peak of G reaches zero at the edge.
    assert _gap_rises(3.0, Fraction(1, 5), PLUS, OFFSETS) >= 1.0 - 1e-9


def _cycle(m, n=2000, x=0.0):
    """The kernel's cycle report (lam, W, y*) for n steps of m from x, or []."""
    cycle = []
    _scalar_iterate(m)(x, n, cycle=cycle)
    return cycle


def test_kernel_reports_its_cycle_without_changing_bits():
    lifts = [
        envelope(Params(0.28, 2.0), PLUS),  # 1/4
        envelope(Params(0.4, 3.0), MINUS),  # 0/1
        envelope(Params(0.655, 1.5), PLUS),  # 8/11
        Params(0.1, 0.9),  # 0/1
        Params(0.3333, 0.95),  # 8/25, after a long transient
    ]
    for m in lifts:
        for x in (0.0, 0.37, -2.5):
            for n in (64, 65, 1001, 4099, 10**5):
                cycle = []
                got = _scalar_iterate(m)(x, n, cycle=cycle)
                assert got.hex() == _scalar_iterate(m)(x, n).hex() == iterate_reference(m, x, n).hex()
                if n == 64 or not cycle:
                    assert n < 10**5 and cycle == [], (m, x, n)
                    continue
                lam, w, y = cycle
                # y is a point of the float cycle: lam steps from it close with winding W.
                assert reduced_reference(m, y, lam) == (y, w), (m, x, n)
                assert all(reduced_reference(m, y, k)[0] != y for k in range(1, lam))


def _sign(v):
    return (v > 0) - (v < 0)


@settings(max_examples=150, deadline=None)
@given(
    b=st.floats(0.0, 4.0),
    a=st.one_of(st.floats(0.0, 1.0), st.tuples(st.integers(0, 8), st.integers(1, 8), st.floats(-0.02, 0.02)).map(
        lambda t: t[0] / t[1] + t[2]
    )),
    which=st.sampled_from((PLUS, MINUS)),
    q=st.integers(1, 8),
    shift=st.integers(-1, 1),
)
def test_cycle_proof_agrees_with_level_sign_property(b, a, which, q, shift):
    # Wherever the enclosure beside the float cycle proves rho = W/lam,
    # level_sign must say the same: 0 at W/lam (q <= 8 here) and the side of
    # W/lam for any other label.  A disagreement is a level_sign miss.
    m = envelope(Params(a, b), which)
    cycle = _cycle(m)
    rho = rotation._cycle_rho(m, *cycle) if cycle else None
    if rho is None:
        return
    labels = {Fraction(math.floor(rho * q) + shift, q)}
    if rho.denominator <= 8:
        labels.add(rho)
    for r in labels:
        assert level_sign(m, r) == _sign(rho - r), (a, b, which, rho, r)


# At b = 3.2797839... the float plateau end of maps._plateau sits where F is
# 1.79e-14 from the flat value, more than the 1.52e-14 step error of a = 0.
_FAR_END_B = 3.279783927975992


def test_cycle_proof_enclosures_hold_against_mpmath():
    # Each bound of G is checked against G of the true envelope at 50 digits:
    # beside float cycles at every rung of the ladder; on orbits through a
    # float plateau's far end, at the first step and at the second; and from
    # points whose first step lands 1e-9 above an integer, where the step's
    # rounding is many ulps of its result.
    mp = pytest.importorskip("mpmath").mp
    cases = []
    for a, b, which in (
        (0.28, 2.0, PLUS), (0.5, 2.0, MINUS), (0.655, 1.5, PLUS), (0.41, 1.6, PLUS), (0.75, 2.0, MINUS),
        (0.3333, 0.95, PLUS), (0.1, 0.9, MINUS), (0.37, 3.7, PLUS), (0.62, 3.7, MINUS), (0.2, 1.0001, PLUS),
        (0.0, _FAR_END_B, PLUS), (0.0, _FAR_END_B, MINUS),
    ):
        m = envelope(Params(a, b), which)
        lam, w, y = _cycle(m, 10**5)
        r = Fraction(int(w), lam)
        cases += [(m, r, y + s * d) for d in (1e-12, 1e-9, 1e-6) for s in (-1, 1)]
        xs = [bisect(lambda t: float(m.eval(t)) - 1e-9, -3.0, 3.0, -1.0, 0.0)[1]]
        if m.plateau_start is not None:
            # The far end of the flat piece (plus: its end; minus: its start), a bisect_root midpoint.
            end = m.plateau_end if which == PLUS else m.plateau_start
            near = [end, math.nextafter(end, -1.0), math.nextafter(end, 2.0), end - 1e-14, end + 1e-14]
            # Points whose first step lands on that end (up to an integer).
            for e in near[:3]:
                k = math.floor(float(m.eval(e)) - e)
                x = bisect(lambda t: float(m.eval(t)) - (e + k), e - 1.0, e, -1.0, 0.0)[1]
                assert abs(float(m.eval(x)) - (e + k)) < 1e-14
                xs.append(x)
            xs += near
        cases += [(m, Fraction(round(a * q) + k, q), x) for x in xs for q in (1, 2, 3) for k in (0, 1)]
    widths = []
    for m, r, x in cases:
        bound = rotation._g_bounds(m, r)
        lo, hi = bound(x, -1), bound(x, 1)
        g = true_envelope_g(m.base.a, m.base.b, m.which, r, x, mp)
        assert lo <= g <= hi, (m, r, x, lo, float(g), hi)
        widths.append(hi - lo)
    assert max(widths) < 1e-10


def test_proof_decides_locked_envelopes_without_level_sign(monkeypatch):
    calls = []
    monkeypatch.setattr(rotation, "level_sign", lambda *args, **kw: calls.append(args) or 0)
    ri = rotation_interval(Params(0.28, 2.0))
    assert (ri.lo.exact_rational, ri.hi.exact_rational) == (Fraction(0), Fraction(1, 4))
    assert rho_exact_rational_test(envelope(Params(0.28, 2.0), PLUS), Fraction(1, 4))
    # Proved to be 1/4, so 1/3 is false without the fallback's answer (patched to 0 here).
    assert not rho_exact_rational_test(envelope(Params(0.28, 2.0), PLUS), Fraction(1, 3))
    assert calls == []


def test_certificate_examples_take_the_fallback(monkeypatch):
    # At the tangency a = b/2pi the fixed point is parabolic and the orbit creeps
    # towards it; at b = 0 G is constant, so nothing separates.  level_sign decides.
    calls, sign = [], rotation.level_sign
    monkeypatch.setattr(rotation, "level_sign", lambda *args, **kw: calls.append(args) or sign(*args, **kw))
    test_certificate_examples()
    assert len(calls) == 3


def test_level_grid_is_the_plain_q_steps(monkeypatch, rng):
    # G on the level grid equals q plain steps of the lift at every grid point:
    # a raw lift at the orbit scan's density, and envelopes for b <= 1 and
    # b > 1.  q > 64 runs the array kernel's cycle check; a shorter grid runs
    # q array steps per point.
    count = counting_step(monkeypatch)
    for q in (1, 2, 3, 5, 8, 66, 71):
        a, b = float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.0, 4.0))
        p_num = int(rng.integers(-2, 3 * q))
        while math.gcd(p_num, q) != 1:
            p_num += 1
        r = Fraction(p_num, q)
        lifts = (
            (Params(a, b), orbits.SCAN_DENSITY if q <= 8 else 8),
            (envelope(Params(a, min(b, 1.0)), PLUS), 8),
            (envelope(Params(a, 1.0 + b), MINUS), 8),
        )
        for lift, density in lifts:
            count[0] = 0
            grid, g = rotation._level_grid(lift, r, 128, density)
            assert len(grid) == max(64, density * q)
            if q <= 64:
                assert count[0] == len(grid) * q
            want = [(iterate_reference(lift, x, q) - x - p_num).hex() for x in grid.tolist()]
            assert [v.hex() for v in g.tolist()] == want, (lift, r)
