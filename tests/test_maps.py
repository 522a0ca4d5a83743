"""Pointwise map layer: evaluation, derivatives, critical sets, envelopes."""

import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from arnoldtongues import (
    CriticalPointError,
    MINUS,
    PLUS,
    Params,
    critical_points,
    deriv,
    envelope,
    eval_lift,
    schwarzian,
)
from arnoldtongues import maps
from arnoldtongues.solvers import bisect_root
from oracle_values import (
    EVAL_AT_QUARTER,
    S2,
    SCHWARZIAN_B2_AT_0,
    SPRIME2,
    THIRD_DERIV_B2_AT_0,
    V2,
)

TWO_PI = 2.0 * math.pi


def test_eval_pure_translation():
    assert eval_lift(Params(0.0, 0.0), 0.3) == pytest.approx(0.3, abs=1e-15)
    assert eval_lift(Params(0.25, 0.0), 0.5) == pytest.approx(0.75, abs=1e-15)


def test_eval_quarter_point():
    assert eval_lift(Params(0.5, 1.0), 0.25) == pytest.approx(EVAL_AT_QUARTER, abs=1e-12)


def _probe_points(p):
    """A spread of points plus every plateau endpoint and its +-1 translates."""
    pts = list(np.linspace(-1.0, 2.0, 17)) + list(critical_points(p).points)
    for which in (PLUS, MINUS):
        m = envelope(p, which)
        if m.plateau_start is not None:
            for edge in (m.plateau_start, m.plateau_end):
                pts += [edge - 1.0, edge, edge + 1.0]
    return np.array(pts, dtype=float)


def test_eval_array_matches_scalar():
    # Floats take the math path, arrays the numpy path; the two must agree
    # bit for bit, not just within a tolerance.  b <= 1 and b > 1 both.
    for a, b in [(0.1, 2.0), (-0.3, 0.7), (0.45, 1.0), (0.2, 3.3), (1.7, 1.05)]:
        p = Params(a, b)
        xs = _probe_points(p)
        cases = [("eval_lift", lambda x: eval_lift(p, x))]
        cases += [(f"deriv{o}", lambda x, o=o: deriv(p, x, o)) for o in (1, 2, 3)]
        cases += [(f"{w} envelope", envelope(p, w).eval) for w in (PLUS, MINUS)]
        for name, f in cases:
            vec = np.asarray(f(xs))
            for x, y in zip(xs, vec):
                got = f(float(x))
                assert type(got) is float
                assert got == float(y), f"{name} at {p}, x={float(x)!r}"
                assert f(x) == got  # numpy float64 scalar input


def test_eval_scalar_nonfinite_matches_array():
    p = Params(0.1, 2.0)
    xs = np.array([np.inf, -np.inf, np.nan])
    funcs = [lambda x: eval_lift(p, x), envelope(p, PLUS).eval, envelope(p, MINUS).eval]
    funcs += [lambda x, o=o: deriv(p, x, o) for o in (1, 2, 3)]
    for f in funcs:
        with np.errstate(invalid="ignore"):
            assert np.all(np.isnan(f(xs)))
            assert all(math.isnan(f(float(x))) for x in xs)


def _hex(values):
    return [float.hex(v) for v in np.ravel(values).tolist()]


def test_eval_accepts_sequences_and_keeps_shape():
    # Anything but a float takes the array path: a list, a tuple, an int or
    # an array of any rank gives the matching ndarray call's values, bit for
    # bit, in its own shape, and a 0-d input gives a float.
    inputs = [
        [0.1, 0.2],
        (0.1, -0.7, 1.4),
        1,
        np.array(0.4),
        np.array([0.3, 0.9, -2.2]),
        np.linspace(-1.0, 2.0, 6).reshape(2, 3),
        np.array([]),
    ]
    for b in (0.5, 2.0):
        p = Params(0.1, b)
        cases = [("eval_lift", lambda x: eval_lift(p, x))]
        cases += [(f"{w} envelope", envelope(p, w).eval) for w in (PLUS, MINUS)]
        for name, f in cases:
            for x in inputs:
                got, want = f(x), f(np.asarray(x, dtype=float))
                assert np.shape(got) == np.shape(x), f"{name} at b={b}, x={x!r}"
                assert isinstance(got, float) == (np.ndim(x) == 0), f"{name} at b={b}, x={x!r}"
                assert _hex(got) == _hex(want), f"{name} at b={b}, x={x!r}"


def test_envelope_step_bits_do_not_depend_on_chunking(rng):
    # maps._step masks the sin of flat cells; one 4096-point call must equal
    # its 64-point chunks bit for bit, as raster blocks of any size must,
    # plateau ends and their +-1 shifts (and the floats beside them) included.
    for b in (1.01, 1.3, 2.0, 3.3, 5.5, 8.0):
        for which in (PLUS, MINUS):
            m = envelope(Params(float(rng.uniform(-1.0, 1.0)), b), which)
            ends = [
                math.nextafter(e + k, toward)
                for e in (m.plateau_start, m.plateau_end)
                for k in (-1.0, 0.0, 1.0)
                for toward in (-math.inf, e + k, math.inf)
            ]
            xs = np.concatenate([ends, rng.uniform(-5.0, 5.0, 4096 - len(ends))])
            whole = m.eval(xs)
            chunks = np.concatenate([m.eval(xs[i : i + 64]) for i in range(0, len(xs), 64)])
            assert np.array_equal(whole.view(np.int64), chunks.view(np.int64)), (b, which)


def test_plateau_edges_match_array_path_bisection():
    # The plateau interval is the a = 0 upper envelope's, bisected on scalar
    # lift values; redoing that bisection on one-element arrays must land on
    # the same bits.  The lower plateau is its exact reflection, and both
    # plateau values are the lift at the extremum with a inside.
    for b in (1.05, 2.0, 3.3):
        p, p0 = Params(0.3, b), Params(0.0, b)
        x_max, x_min = critical_points(p).points

        def lift_np(q, t):
            return float(eval_lift(q, np.array([t]))[0])

        v0 = lift_np(p0, x_max)
        up = envelope(p, PLUS)
        assert up.plateau_value == lift_np(p, x_max)
        assert up.plateau_end == bisect_root(
            lambda t: lift_np(p0, t) - v0, x_min, x_max + 1.0, tol=1e-14
        )
        down = envelope(p, MINUS)
        assert down.plateau_value == lift_np(p, x_min)
        assert down.plateau_start == 1.0 - up.plateau_end
        assert down.plateau_end == x_min


def test_envelope_bisects_once_per_b(monkeypatch):
    calls = []

    def counting_bisect_root(*args, **kwargs):
        calls.append(args)
        return bisect_root(*args, **kwargs)

    monkeypatch.setattr(maps, "bisect_root", counting_bisect_root)
    maps._plateau.cache_clear()
    for a in np.linspace(-1.0, 1.0, 10).tolist():
        for which in (PLUS, MINUS):
            envelope(Params(a, 2.7), which)
    assert len(calls) == 1


def test_degree_one_identity(rng):
    for _ in range(100):
        a = float(rng.uniform(-2, 2))
        b = float(rng.uniform(0, 5))
        x = float(rng.uniform(-3, 3))
        p = Params(a, b)
        assert eval_lift(p, x + 1.0) == pytest.approx(eval_lift(p, x) + 1.0, abs=1e-12)


def test_reflection_conjugacy(rng):
    # x -> -x carries the (a, b) lift onto the (-a, b) lift
    for _ in range(100):
        a = float(rng.uniform(-2, 2))
        b = float(rng.uniform(0, 5))
        x = float(rng.uniform(-3, 3))
        assert eval_lift(Params(-a, b), -x) == pytest.approx(
            -eval_lift(Params(a, b), x), abs=1e-12
        )


def test_params_validation():
    with pytest.raises(ValueError):
        Params(0.0, -0.5)
    with pytest.raises(ValueError):
        Params(float("nan"), 1.0)
    with pytest.raises(ValueError):
        Params(0.0, float("inf"))
    p = Params(0.1, 0.2)
    with pytest.raises(FrozenInstanceError):
        p.a = 0.3


def test_deriv_values():
    assert deriv(Params(0.0, 0.0), 0.7, 1) == pytest.approx(1.0, abs=1e-15)
    assert deriv(Params(0.0, 2.0), 1.0 / 3.0, 1) == pytest.approx(0.0, abs=1e-12)
    assert deriv(Params(0.0, 2.0), 0.0, 3) == pytest.approx(THIRD_DERIV_B2_AT_0, abs=1e-9)


def test_deriv_order_validation():
    p = Params(0.0, 1.0)
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            deriv(p, 0.1, bad)


def test_deriv_matches_finite_differences(rng):
    # One Richardson step on central differences kills the h^2 term, so the
    # extrapolated value should agree with the closed form to ~1e-9.
    for _ in range(25):
        a = float(rng.uniform(-1, 1))
        b = float(rng.uniform(0, 4))
        x = float(rng.uniform(0, 1))
        p = Params(a, b)
        for order in (1, 2, 3):
            if order == 1:
                f = lambda t: float(eval_lift(p, t))
            else:
                f = lambda t, o=order - 1: float(deriv(p, t, o))
            h = 1e-4
            d_h = (f(x + h) - f(x - h)) / (2.0 * h)
            d_h2 = (f(x + h / 2.0) - f(x - h / 2.0)) / h
            richardson = (4.0 * d_h2 - d_h) / 3.0
            assert richardson == pytest.approx(deriv(p, x, order), abs=1e-8)


def test_central_difference_rate():
    # plain central differences converge at second order
    p = Params(0.3, 2.5)
    x = 0.137
    exact = deriv(p, x, 1)
    errs = []
    for h in (1e-3, 5e-4, 2.5e-4):
        d = (float(eval_lift(p, x + h)) - float(eval_lift(p, x - h))) / (2.0 * h)
        errs.append(abs(d - exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_deriv_sign_matches_critical_band():
    xs = np.linspace(0.0, 1.0, 1001)
    for b in (0.0, 0.3, 1.0):
        d = np.asarray(deriv(Params(0.0, b), xs, 1))
        assert np.all(d >= -1e-12)
    for b in (1.2, 2.0, 3.7):
        x_lo, x_hi = critical_points(Params(0.0, b)).points
        d = np.asarray(deriv(Params(0.2, b), xs, 1))
        inside = (xs > x_lo + 1e-6) & (xs < x_hi - 1e-6)
        outside = (xs < x_lo - 1e-6) | (xs > x_hi + 1e-6)
        assert np.all(d[inside] < 0.0)
        assert np.all(d[outside] > 0.0)


def test_schwarzian_reference_point():
    got = schwarzian(Params(0.0, 2.0), 0.0)
    assert isinstance(got, float)
    assert got == pytest.approx(SCHWARZIAN_B2_AT_0, abs=1e-9)


def test_schwarzian_rejects_critical_argument():
    with pytest.raises(CriticalPointError):
        schwarzian(Params(0.3, 2.0), 1.0 / 3.0)


def test_schwarzian_negative_below_critical_coupling():
    assert schwarzian(Params(0.0, 1.5), 0.1) < 0.0


def test_schwarzian_negative_sampled(rng):
    n = 2000
    a = rng.uniform(-1, 2, n)
    b = rng.uniform(1.0 + 1e-9, 6.0, n)
    x = rng.uniform(0, 1, n)
    checked = 0
    for ai, bi, xi in zip(a, b, x):
        p = Params(float(ai), float(bi))
        if abs(deriv(p, float(xi), 1)) <= 1e-6:
            continue
        assert schwarzian(p, float(xi)) < 0.0
        checked += 1
    assert checked > 1500


def test_schwarzian_array_path():
    p = Params(0.0, 2.0)
    vals = np.asarray(schwarzian(p, np.array([0.0, 0.1, 0.9])))
    assert vals.shape == (3,)
    assert np.all(vals < 0.0)
    with pytest.raises(CriticalPointError):
        schwarzian(p, np.array([0.1, 1.0 / 3.0]))


def test_critical_set_by_regime():
    assert critical_points(Params(0.3, 0.5)).points == ()
    degenerate = critical_points(Params(0.0, 1.0))
    assert degenerate.degenerate
    assert degenerate.points == (0.5,)
    cs = critical_points(Params(0.7, 2.0))
    assert not cs.degenerate
    assert cs.points[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert cs.points[1] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_critical_points_kill_first_derivative(rng):
    for _ in range(50):
        b = float(rng.uniform(1.0 + 1e-6, 8.0))
        cs = critical_points(Params(0.0, b))
        assert len(cs.points) == 2
        x_lo, x_hi = cs.points
        assert 0.25 < x_lo < 0.5 < x_hi < 0.75
        assert x_lo + x_hi == pytest.approx(1.0, abs=1e-12)
        for x in cs.points:
            assert abs(deriv(Params(0.0, b), x, 1)) < 1e-9


def test_envelope_monotone_and_ordered(rng):
    xs = np.linspace(-0.5, 1.5, 801)
    for _ in range(20):
        a = float(rng.uniform(-1, 1))
        b = float(rng.uniform(0, 4))
        p = Params(a, b)
        raw = np.asarray(eval_lift(p, xs))
        hi = np.asarray(envelope(p, PLUS).eval(xs))
        lo = np.asarray(envelope(p, MINUS).eval(xs))
        assert np.all(np.diff(hi) >= -1e-12)
        assert np.all(np.diff(lo) >= -1e-12)
        assert np.all(hi >= raw - 1e-12)
        assert np.all(lo <= raw + 1e-12)
        # degree one carries over to both envelopes
        assert np.allclose(np.asarray(envelope(p, PLUS).eval(xs + 1.0)), hi + 1.0, atol=1e-12)


def test_envelope_below_critical_coupling_is_raw():
    p = Params(0.1, 0.8)
    m = envelope(p, PLUS)
    assert m.plateau_start is None
    assert m.plateau_end is None
    assert m.plateau_value is None
    xs = np.linspace(0.0, 1.0, 101)
    assert np.array_equal(np.asarray(m.eval(xs)), np.asarray(eval_lift(p, xs)))


def test_plus_envelope_is_running_sup():
    # definitional check on a shared grid: sup over y <= x of F(y)
    p = Params(0.0, 2.0)
    m = envelope(p, PLUS)
    grid = np.linspace(-1.0, 1.0, 20001)
    running = np.maximum.accumulate(np.asarray(eval_lift(p, grid)))
    idx = np.linspace(10000, 20000, 512).astype(int)
    got = np.asarray(m.eval(grid[idx]))
    assert float(np.max(np.abs(got - running[idx]))) < 1e-6


def test_minus_envelope_is_running_inf():
    p = Params(0.0, 2.0)
    m = envelope(p, MINUS)
    grid = np.linspace(0.0, 2.0, 20001)
    rev = np.asarray(eval_lift(p, grid))[::-1]
    running = np.minimum.accumulate(rev)[::-1]
    idx = np.linspace(0, 10000, 512).astype(int)
    got = np.asarray(m.eval(grid[idx]))
    assert float(np.max(np.abs(got - running[idx]))) < 1e-6


def test_plateau_geometry_at_b2():
    up = envelope(Params(0.0, 2.0), PLUS)
    assert up.plateau_start == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert up.plateau_value == pytest.approx(V2, abs=1e-12)
    assert up.plateau_end == pytest.approx(S2, abs=1e-10)
    # the plateau closes where the raw lift climbs back to the critical value
    assert eval_lift(Params(0.0, 2.0), up.plateau_end) == pytest.approx(
        up.plateau_value, abs=1e-10
    )
    down = envelope(Params(0.0, 2.0), MINUS)
    assert down.plateau_end == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert down.plateau_start == pytest.approx(SPRIME2, abs=1e-10)
    assert down.plateau_value == pytest.approx(1.0 - V2, abs=1e-12)


def test_plateau_interval_ignores_a(rng):
    for which in (PLUS, MINUS):
        base = envelope(Params(0.0, 2.0), which)
        for _ in range(10):
            a = float(rng.uniform(-3, 3))
            m = envelope(Params(a, 2.0), which)
            assert m.plateau_start == base.plateau_start
            assert m.plateau_end == base.plateau_end
            assert m.plateau_value == pytest.approx(base.plateau_value + a, abs=1e-12)


def test_envelope_rejects_unknown_side():
    with pytest.raises(ValueError):
        envelope(Params(0.0, 2.0), "sideways")
