"""Raster sweeps, PPM rendering, and CSV round-trips."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from arnoldtongues import (
    MINUS,
    PLUS,
    BoundaryCurve,
    Palette,
    Params,
    Region,
    envelope,
    eval_lift,
    export_csv,
    load_curve_csv,
    load_raster_csv,
    load_region_csv,
    raster,
    region_boundary,
    render_ppm,
    rho_monotone,
    snap_rational,
    trace_curve,
)
from arnoldtongues import rotation, sweep
from arnoldtongues.rotation import _CYCLE_STEPS
from arnoldtongues.sweep import _BLOCK_ROWS, _plateau_rows, _snap_grid
from helpers import counting_step

TWO_PI = 2.0 * math.pi
ZERO = Fraction(0, 1)
ONE = Fraction(1, 1)


def _pixels(g):
    """Decode a rendered PPM into an (nb, na, 3) uint8 array, top row first."""
    data = render_ppm(g)
    header = f"P6\n{g.na} {g.nb}\n255\n".encode("ascii")
    assert data.startswith(header)
    return np.frombuffer(data[len(header):], dtype=np.uint8).reshape(g.nb, g.na, 3)


def _expected_color(g, j, i, palette):
    lo = g.lock_lo[j][i]
    hi = g.lock_hi[j][i]
    if lo is not None and lo == hi:
        return palette.color_for_denominator(lo.denominator)
    return palette.unlocked


def test_point_raster_rigid_rotation():
    g = raster(0.2, 0.3, 0.0, 0.0, 1, 1, n_iter=200)
    assert float(g.avec[0]) == pytest.approx(0.25)
    assert float(g.bvec[0]) == 0.0
    assert g.err == pytest.approx(1.0 / 200)
    assert float(g.rho_minus[0, 0]) == pytest.approx(0.25, abs=1e-12)
    assert float(g.rho_plus[0, 0]) == pytest.approx(0.25, abs=1e-12)
    assert g.lock_lo[0][0] == Fraction(1, 4)
    assert g.lock_hi[0][0] == Fraction(1, 4)


def test_row_locking_pattern():
    g = raster(-0.15, 0.15, 0.5, 0.5, 3, 1, n_iter=600)
    # middle cell sits inside the zero tongue, the outer two outside it
    assert g.lock_lo[0][1] == ZERO
    assert g.lock_hi[0][1] == ZERO
    for i in (0, 2):
        assert g.lock_lo[0][i] != ZERO
        assert g.lock_hi[0][i] != ZERO
    assert float(g.rho_plus[0, 2]) > 2.0 * g.err
    assert float(g.rho_minus[0, 0]) < -2.0 * g.err


def test_raster_matches_scalar_route():
    n_iter = 300
    g = raster(-0.3, 0.45, 0.0, 2.4, 5, 2, n_iter=n_iter, workers=1)
    tol = 2.0 / n_iter + 1e-12
    for j in range(g.nb):
        b = float(g.bvec[j])
        for i in range(g.na):
            p = Params(float(g.avec[i]), b)
            lo = rho_monotone(envelope(p, MINUS), n_iter=n_iter, q_max=0).value
            hi = rho_monotone(envelope(p, PLUS), n_iter=n_iter, q_max=0).value
            assert float(g.rho_minus[j, i]) == pytest.approx(lo, abs=tol)
            assert float(g.rho_plus[j, i]) == pytest.approx(hi, abs=tol)


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def test_raster_worker_invariance():
    kw = dict(a_min=0.0, a_max=1.0, b_min=0.0, b_max=3.0, na=4, nb=3, n_iter=150)
    # more rows than one block holds, split unevenly for one and two workers
    kw_blocks = dict(kw, b_max=4.0, na=3, nb=_BLOCK_ROWS + 3, n_iter=60)
    for grid in (kw, kw_blocks):
        serial = raster(workers=1, **grid)
        parallel = raster(workers=2, **grid)
        assert np.array_equal(_bits(serial.rho_minus), _bits(parallel.rho_minus))
        assert np.array_equal(_bits(serial.rho_plus), _bits(parallel.rho_plus))
        assert serial.lock_lo == parallel.lock_lo and serial.lock_hi == parallel.lock_hi
        assert render_ppm(serial) == render_ppm(parallel)


def test_raster_default_is_one_worker(monkeypatch):
    # workers=None runs in this process whatever the environment holds.
    def no_pool(*args, **kwargs):
        raise AssertionError("started a process pool")

    monkeypatch.setenv("ARNOLDTONGUES_WORKERS", "2")
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", no_pool)
    kw = dict(a_min=0.0, a_max=1.0, b_min=0.0, b_max=3.0, na=3, nb=4, n_iter=60)
    assert render_ppm(raster(workers=None, **kw)) == render_ppm(raster(workers=1, **kw))


def test_raster_pool_is_capped_at_the_block_count(monkeypatch):
    # Two rows at four workers make two blocks, so the pool needs only two processes.
    # The recorder maps in this process and starts none.
    seen = []

    class Recorder:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", Recorder)
    kw = dict(a_min=0.0, a_max=1.0, b_min=0.0, b_max=3.0, na=3, nb=2, n_iter=50)
    assert render_ppm(raster(workers=4, **kw)) == render_ppm(raster(workers=1, **kw))
    assert seen == [2]


def test_raster_block_rows_match_single_rows():
    # rows on both sides of b = 1, one of them exactly at it
    kw = dict(a_min=-0.4, a_max=1.3, na=7, n_iter=250, workers=1)
    g = raster(b_min=0.5, b_max=1.5, nb=5, **kw)
    assert 1.0 in g.bvec.tolist()
    for j, b in enumerate(g.bvec.tolist()):
        row = raster(b_min=b, b_max=b, nb=1, **kw)
        assert row.bvec[0] == b
        assert np.array_equal(_bits(g.rho_minus[j]), _bits(row.rho_minus[0])), b
        assert np.array_equal(_bits(g.rho_plus[j]), _bits(row.rho_plus[0])), b
        assert g.lock_lo[j] == row.lock_lo[0] and g.lock_hi[j] == row.lock_hi[0]


def test_raster_reads_the_envelope_plateau_geometry():
    # The raster's windows and flat bounds and the envelopes' plateau ends
    # come from one per-b geometry, so they agree bit for bit at every a.
    # The flat value is the lift at the extremum for a = 0, which plus a is
    # the plateau value at a up to the order of the two additions.
    bs = [1.05, 2.0, 3.3, 8.18]
    w, lo, hi, value = (v[:, 0].tolist() for v in _plateau_rows(np.array(bs)))
    n = len(bs)
    for j, b in enumerate(bs):
        p0 = Params(0.0, b)
        for a in (-0.7, 0.0, 0.3, 1.9):
            down, up = envelope(Params(a, b), MINUS), envelope(Params(a, b), PLUS)
            assert (lo[j], hi[j]) == (down.plateau_start, math.inf)
            assert w[j] == down.plateau_end - 1.0
            assert value[j] == eval_lift(p0, down.plateau_end)
            assert math.isclose(value[j] + a, down.plateau_value, rel_tol=0.0, abs_tol=4e-15)
            assert (lo[n + j], hi[n + j]) == (-math.inf, up.plateau_end)
            assert w[n + j] == up.plateau_start
            assert value[n + j] == eval_lift(p0, up.plateau_start)
            assert math.isclose(value[n + j] + a, up.plateau_value, rel_tol=0.0, abs_tol=4e-15)


@pytest.mark.xfail(
    strict=True, reason="a b > 1 row is flat at F_0(x*) + a, one ulp from the envelope's plateau value F_a(x*) here"
)
def test_raster_cells_step_their_own_envelope():
    # Cell (17, 0) of the 48x48 raster over [0, 1] x [0, 3], alone: a = 1/96,
    # b = 1.09375.  Each endpoint should be rho_monotone's on the envelope of
    # the cell's own Params, the lift --certify certifies.
    g = raster(0.0, 1.0 / 48, 1.0625, 1.125, 1, 1)
    p = Params(float(g.avec[0]), float(g.bvec[0]))
    for got, which in ((g.rho_minus, MINUS), (g.rho_plus, PLUS)):
        want = rho_monotone(envelope(p, which), n_iter=sweep.RASTER_N_ITER, q_max=0).value
        assert float(got[0, 0]).hex() == want.hex(), (p, which)


def _reference_rho(a, b, which, n_iter):
    """One cell's estimate iterated in plain math, in the raster's operation order."""
    coef = b / TWO_PI
    plus = envelope(Params(0.0, b), PLUS)
    if plus.plateau_start is not None:
        if which == PLUS:
            x = w = plus.plateau_start
            lo, hi = -math.inf, plus.plateau_end
        else:
            x = 1.0 - plus.plateau_start
            w, lo, hi = x - 1.0, 1.0 - plus.plateau_end, math.inf
        flat_val = x + coef * math.sin(TWO_PI * x) + a
    y = wind = 0.0
    for _ in range(n_iter):
        if plus.plateau_start is None:
            y = y + a + coef * math.sin(TWO_PI * y)
        else:
            n = math.floor(y - w)
            t = y - n
            y = (flat_val if lo <= t <= hi else t + a + coef * math.sin(TWO_PI * t)) + n
        k = math.floor(y)
        wind += k
        y -= k
    return (y + wind) / n_iter


def test_raster_matches_plain_math_bits():
    n_iter = 200
    g = raster(0.0, 1.0, 0.0, 2.0, 9, 10, n_iter=n_iter, workers=1)
    for j, b in enumerate(g.bvec.tolist()):
        for i, a in enumerate(g.avec.tolist()):
            assert g.rho_minus[j, i] == _reference_rho(a, b, MINUS, n_iter), (a, b)
            assert g.rho_plus[j, i] == _reference_rho(a, b, PLUS, n_iter), (a, b)


def _orbit(a, b, which, n_iter):
    """(reduced y, took the flat branch) after each of n_iter plain-math steps of one cell from y = 0.

    The steps are _reference_rho's, in the raster's operation order.
    """
    coef = b / TWO_PI
    m0 = envelope(Params(0.0, b), which)
    y, steps = 0.0, []
    for _ in range(n_iter):
        if m0._fold is None:
            y, flat = y + a + coef * math.sin(TWO_PI * y), False
        else:
            (w, lo, hi), v = m0._fold, m0.plateau_value + a
            n = math.floor(y - w)
            t = y - n
            flat = lo <= t <= hi
            y = (v if flat else t + a + coef * math.sin(TWO_PI * t)) + n
        y -= math.floor(y)
        steps.append((y, flat))
    return steps


def _first_repeat(orbit, window=_CYCLE_STEPS):
    """(step, period) at which the raster's cycle check first sees the orbit repeat, or None.

    Brent's check with the marks every cell shares: y is kept at steps 1, 2, 4, ...
    and compared at the other steps, until a mark's successor lies past the window.
    """
    nxt = 1
    for i, (y, _) in enumerate(orbit, 1):
        if i == nxt:
            if 2 * i > window:
                return None
            mark, nxt, kept = i, 2 * i, y
        elif y == kept:
            return i, i - mark
    return None


def _cell_steps(repeat, n_iter):
    """The steps the raster runs for a cell whose check gives repeat: to it, then the rest % period left."""
    if repeat is None:
        return n_iter
    i, lam = repeat
    return i + (n_iter - i) % lam


def _envelopes(b):
    """The stacked rows of one b: the lift itself for b <= 1, else one per envelope."""
    return (MINUS,) if b <= 1.0 else (MINUS, PLUS)


def _assert_raster_is_plain_math(g, n_iter):
    for j, b in enumerate(g.bvec.tolist()):
        for i, a in enumerate(g.avec.tolist()):
            assert g.rho_minus[j, i] == _reference_rho(a, b, MINUS, n_iter), (a, b, n_iter)
            assert g.rho_plus[j, i] == _reference_rho(a, b, PLUS, n_iter), (a, b, n_iter)


def _array_steps(orbits, n_iter):
    """The steps rotation._iterate runs for one array of raster cells with these plain-math orbits.

    Each cell stops as _cell_steps says, and done cells are compacted out at
    the step they end.  Once a compaction leaves at most _TAIL_CELLS cells,
    each of them runs its steps left in the scalar kernel: a cell that has
    jumped its last end - h, any other the rest of its orbit, whose own check
    sets its marks afresh and runs only for more than 64 steps left.
    """
    repeats = [_first_repeat(orbit) for orbit in orbits]
    ends = [_cell_steps(repeat, n_iter) for repeat in repeats]
    for h in sorted(set(ends)):
        live = [k for k, end in enumerate(ends) if end > h]
        if len(live) <= rotation._TAIL_CELLS:
            break
    steps = sum(min(end, h) for end in ends)
    for k in live:
        if repeats[k] is not None and repeats[k][0] <= h:
            steps += ends[k] - h
        else:
            rest = n_iter - h
            steps += _cell_steps(_first_repeat(orbits[k][h:]), rest) if rest > 64 else rest
    return steps


def _raster_steps(g, n_iter):
    """The steps of a one-block raster: its b <= 1 cells and its b > 1 cells run as two arrays."""
    arrays = ([], [])
    for b in g.bvec.tolist():
        for which in _envelopes(b):
            arrays[b > 1.0].extend(_orbit(a, b, which, n_iter) for a in g.avec.tolist())
    return sum(_array_steps(orbits, n_iter) for orbits in arrays if orbits)


def test_raster_cycle_jump_keeps_the_bits(monkeypatch):
    # A cell stops at the first repeat of its reduced y and adds the whole
    # periods left at once; the steps short of one more period still run.  At
    # odd n_iter over a quarter of those remainders are nonzero.  Both arrays
    # here soon have at most _TAIL_CELLS cells live, so their last cells end
    # in the scalar kernel, and the steps counted, array element-steps plus
    # scalar steps, are those of _array_steps.  The cycling cells stop early: at
    # n_iter 997 and 4099 they run fewer than 30 steps each on average.
    count = counting_step(monkeypatch)
    for n_iter in (65, 997, 4099):
        count[0] = 0
        g = raster(-0.2, 1.1, 0.4, 2.6, 7, 6, n_iter=n_iter, workers=1)
        assert g.bvec.min() < 1.0 < g.bvec.max()
        _assert_raster_is_plain_math(g, n_iter)
        remainders = []
        for b in g.bvec.tolist():
            for a in g.avec.tolist():
                for which in _envelopes(b):
                    repeat = _first_repeat(_orbit(a, b, which, n_iter))
                    if repeat is not None:
                        remainders.append((n_iter - repeat[0]) % repeat[1])
        cells = sum(len(_envelopes(b)) for b in g.bvec.tolist()) * g.na
        assert count[0] == _raster_steps(g, n_iter), n_iter
        assert len(remainders) > 20 and sum(r > 0 for r in remainders) > len(remainders) / 4, n_iter
        if n_iter > 65:
            assert count[0] < (cells - len(remainders)) * n_iter + 30 * len(remainders), n_iter


def test_raster_cells_that_land_in_both_states():
    # v + m and v + m + 1 can reduce to different bits, so a landing is not
    # a repeat; the check compares the whole reduced y.  At a = 1.2,
    # b = 7.0625 the lower envelope's orbit lands at step 1 and then every
    # other step one ulp lower, so its first repeat is at step 6, period 2.
    g = raster(0.9, 1.5, 5.5, 8.0, 5, 4, n_iter=997, workers=1)
    assert 1.2 in g.avec.tolist() and 7.0625 in g.bvec.tolist()
    orbit = _orbit(1.2, 7.0625, MINUS, 997)
    assert [i for i, (_, flat) in enumerate(orbit[:8], 1) if flat] == [1, 3, 5, 7]
    assert orbit[0][0] != orbit[2][0] == orbit[4][0]
    assert _first_repeat(orbit) == (6, 2)
    _assert_raster_is_plain_math(g, 997)


# Cells whose float orbits repeat off the flat piece: the lower envelope at
# a = 0.28125, b = 1.975625 lands on it once and then nears an attracting
# fixed point, and the lift at a = 0.05, b = 0.8, which has no flat piece,
# locks to 0/1.
_OFF_FLAT_CELLS = ((0.28125, 1.975625), (0.05, 0.8))


def test_raster_stops_cells_that_cycle_off_the_flat_piece(monkeypatch):
    assert sum(flat for _, flat in _orbit(0.28125, 1.975625, MINUS, 1000)) == 1
    count = counting_step(monkeypatch)
    for a, b in _OFF_FLAT_CELLS:
        count[0] = 0
        g = raster(a, a, b, b, 1, 1, n_iter=1000, workers=1)
        assert (g.avec[0], g.bvec[0]) == (a, b)
        steps = [_cell_steps(_first_repeat(_orbit(a, b, which, 1000)), 1000) for which in _envelopes(b)]
        assert count[0] == _raster_steps(g, 1000) and count[0] <= 40 * len(steps), (a, b, count[0])
        assert steps[0] <= 40, (a, b, steps)
        _assert_raster_is_plain_math(g, 1000)


def test_raster_cycle_check_window(monkeypatch):
    # Past the window no repeat is looked for: with the window at 8 steps,
    # the cells above, whose orbits first repeat later, run every step.
    monkeypatch.setattr(rotation, "_CYCLE_STEPS", 8)
    count = counting_step(monkeypatch)
    for a, b in _OFF_FLAT_CELLS:
        assert all(_first_repeat(_orbit(a, b, which, 1000), 8) is None for which in _envelopes(b))
        count[0] = 0
        g = raster(a, a, b, b, 1, 1, n_iter=1000, workers=1)
        assert count[0] == len(_envelopes(b)) * 1000
        _assert_raster_is_plain_math(g, 1000)


def test_raster_lift_rows_at_reduced_one():
    # a = -1e-17 sends y = 0 to just below 0, which y - floor(y) rounds up to
    # 1.0.  A b <= 1 row steps the lift itself from there, as plain math does.
    g = raster(-2e-17, 0.0, 0.2, 0.8, 1, 3, n_iter=101, workers=1)
    a = float(g.avec[0])
    assert a - math.floor(a) == 1.0
    _assert_raster_is_plain_math(g, 101)


def test_raster_without_the_jump_guard_runs_every_step(monkeypatch):
    # (|a| + b/2pi + 3) n_iter >= 2**53: a winding could leave the exact
    # integers, so no cell jumps and every stacked row runs all n_iter steps.
    count = counting_step(monkeypatch)
    n_iter = 65
    g = raster(1.5e14, 1.5e14, 0.5, 2.5, 1, 3, n_iter=n_iter, workers=1)
    assert (1.5e14 + 3.0) * n_iter >= 2.0**53
    rows = sum(1 if b <= 1.0 else 2 for b in g.bvec.tolist())
    assert count[0] == rows * g.na * n_iter
    _assert_raster_is_plain_math(g, n_iter)


def test_raster_stops_cells_at_their_cycle(monkeypatch):
    # The benchmark's raster: most b > 1 cells and the locked b <= 1 cells
    # stop within a few dozen steps, so the steps fall to 17.6 % of every
    # stacked row (one per b <= 1 row, two per b > 1 row) running all n_iter
    # steps: 17.4 % array element-steps and 0.2 % steps of the scalar tail.
    # Stopping only at a second landing on the flat piece reads 26.4 %.
    count = counting_step(monkeypatch)
    g = raster(0.0, 1.0, 0.0, 3.0, 48, 48, n_iter=1000, workers=1)
    rows = sum(1 if b <= 1.0 else 2 for b in g.bvec.tolist())
    assert count[0] < 0.22 * rows * g.na * 1000


def _assert_snap_grid_matches(values, tol, q_max):
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    grid = _snap_grid(values, tol, q_max)
    for row, got_row in zip(values.tolist(), grid):
        for v, got in zip(row, got_row):
            want = snap_rational(v, tol, q_max)
            assert got == want and type(got) is type(want), (v, tol, q_max, got, want)


def test_snap_grid_matches_snap_rational():
    rng = np.random.default_rng(20)
    fracs = sorted({Fraction(p, q) for q in range(1, 9) for p in range(-2 * q, 2 * q + 1)})
    # points exactly or nearly halfway between neighbours of different q
    halfway = [float((x + y) / 2) for x, y in zip(fracs, fracs[1:])]
    for tol, q_max in ((2e-3, 32), (0.02, 8), (0.07, 5), (0.3, 3), (0.6, 1)):
        _assert_snap_grid_matches(rng.uniform(-3.0, 3.0, 200), tol, q_max)
        near = [float(f) + d for f in fracs for d in rng.uniform(-1.5 * tol, 1.5 * tol, 2)]
        _assert_snap_grid_matches(near, tol, q_max)
        _assert_snap_grid_matches(halfway, tol, q_max)
        _assert_snap_grid_matches(np.arange(-64, 65) / 16.0, tol, q_max)


def test_snap_grid_tolerance_edge():
    tol = 2.0 / 1000
    inside = [k + s * tol * (1.0 - 1e-9) for k in (-2, 0, 3) for s in (-1, 1)]
    outside = [k + s * tol * (1.0 + 1e-9) for k in (-2, 0, 3) for s in (-1, 1)]
    # at distance exactly tol from 0/1: the error must be strictly below tol
    exactly = [-tol, tol, 1.0 + tol, 1.0 - tol]
    for values in (inside, outside, exactly):
        _assert_snap_grid_matches(values, tol, 1)
    assert all(r is not None for row in _snap_grid(np.array([inside]), tol, 1) for r in row)
    assert all(r is None for row in _snap_grid(np.array([outside]), tol, 1) for r in row)
    assert _snap_grid(np.array([[-tol, tol]]), tol, 1) == [[None, None]]


def test_render_ppm_colors_every_cell():
    g = raster(0.0, 1.0, 0.0, 2.5, 17, 9, n_iter=300)
    assert len({lo.denominator for row in g.lock_lo for lo in row if lo is not None}) > 2
    px = _pixels(g)
    for j in range(g.nb):
        for i in range(g.na):
            assert tuple(px[g.nb - 1 - j, i]) == _expected_color(g, j, i, Palette())


def test_raster_validation():
    with pytest.raises(ValueError):
        raster(0.0, 1.0, 0.0, 1.0, 0, 1)
    with pytest.raises(ValueError):
        raster(0.0, 1.0, -0.1, 1.0, 2, 2)
    with pytest.raises(ValueError, match="n_iter must be in"):
        raster(0.0, 1.0, 0.0, 1.0, 1, 1, n_iter=10**9 + 1)


def test_ppm_layout():
    g = raster(0.0, 1.0, 0.0, 1.0, 1, 1, n_iter=100)
    data = render_ppm(g)
    assert data.startswith(b"P6\n1 1\n255\n")
    assert len(data) == 11 + 3

    g = raster(0.0, 1.0, 0.0, 1.0, 3, 2, n_iter=100)
    assert len(render_ppm(g)) == len(b"P6\n3 2\n255\n") + 3 * 3 * 2


def test_ppm_orientation_top_row_is_b_max():
    g = raster(0.03, 0.13, 0.0, 1.5, 1, 2, n_iter=400)
    # the high-b cell locks to 0 (tongue half-width 0.179 covers a=0.08),
    # the low-b cell cannot (half-width 0.060)
    assert g.lock_lo[1][0] == ZERO and g.lock_hi[1][0] == ZERO
    assert g.lock_hi[0][0] != ZERO
    palette = Palette()
    px = _pixels(g)
    top = _expected_color(g, 1, 0, palette)
    bottom = _expected_color(g, 0, 0, palette)
    assert top != bottom
    assert tuple(px[0, 0]) == top
    assert tuple(px[1, 0]) == bottom


def test_raster_mirror_symmetry():
    g = raster(0.0, 1.0, 0.2, 0.8, 21, 3, n_iter=500)
    px = _pixels(g)
    assert np.array_equal(px, px[:, ::-1, :])


def test_raster_csv_roundtrip(tmp_path):
    g = raster(0.0, 1.0, 0.5, 1.5, 3, 2, n_iter=250)
    path = tmp_path / "grid.csv"
    export_csv(g, str(path))
    text = path.read_text(encoding="ascii")
    assert text.splitlines()[0] == (
        "a,b,rho_minus,rho_plus,err,lock_lo_p,lock_lo_q,lock_hi_p,lock_hi_q"
    )
    loaded = load_raster_csv(str(path))
    assert loaded.na == g.na and loaded.nb == g.nb
    assert np.array_equal(loaded.avec, g.avec)
    assert np.array_equal(loaded.bvec, g.bvec)
    assert np.array_equal(loaded.rho_minus, g.rho_minus)
    assert np.array_equal(loaded.rho_plus, g.rho_plus)
    assert loaded.err == g.err
    assert loaded.lock_lo == g.lock_lo
    assert loaded.lock_hi == g.lock_hi
    path2 = tmp_path / "grid2.csv"
    export_csv(loaded, str(path2))
    assert path2.read_bytes() == path.read_bytes()


def test_raster_csv_point(tmp_path):
    g = raster(0.2, 0.3, 0.0, 0.0, 1, 1, n_iter=100)
    path = tmp_path / "point.csv"
    export_csv(g, str(path))
    assert len(path.read_text(encoding="ascii").splitlines()) == 2


def test_curve_csv_roundtrip(tmp_path):
    c = trace_curve("Al", ZERO, (0.2, 0.6), step=0.1)
    path = tmp_path / "curve.csv"
    export_csv(c, str(path))
    assert path.read_text(encoding="ascii").splitlines()[0] == "b,a,kind,p,q,residual"
    loaded = load_curve_csv(str(path))
    assert loaded.kind == "Al"
    assert loaded.label == ZERO
    assert loaded.samples == c.samples
    path2 = tmp_path / "curve2.csv"
    export_csv(loaded, str(path2))
    assert path2.read_bytes() == path.read_bytes()


def test_region_csv_empty(tmp_path):
    reg = region_boundary((ZERO, ONE), (0.5, 0.5), step=1.0)
    path = tmp_path / "region.csv"
    export_csv(reg, str(path))
    assert path.read_text(encoding="ascii") == "b,a_left,a_right\n"
    assert load_region_csv(str(path)).slices == ()


def test_region_csv_roundtrip(tmp_path):
    reg = region_boundary((ZERO, ZERO), (0.5, 0.5), step=1.0)
    path = tmp_path / "region.csv"
    export_csv(reg, str(path))
    loaded = load_region_csv(str(path))
    assert loaded.slices == reg.slices


# export_csv text recorded before the CSV writers moved to row templates.
_PINNED_RASTER_CSV = (
    "a,b,rho_minus,rho_plus,err,lock_lo_p,lock_lo_q,lock_hi_p,lock_hi_q\n"
    "-0.050000000000000003,1.2,-0.0028117834830728395,-0.0026882165169271597,"
    "0.0050000000000000001,0,1,0,1\n"
    "0.14999999999999999,1.2,0.0032188544238336381,0.00331178348307284,"
    "0.0050000000000000001,0,1,0,1\n"
    "0.34999999999999998,1.2,0.33418821651692715,0.33431178348307283,"
    "0.0050000000000000001,1,3,1,3\n"
    "-0.050000000000000003,0.79999999999999993,-0.0028211465102451505,-0.0028211465102451505,"
    "0.0050000000000000001,0,1,0,1\n"
    "0.14999999999999999,0.79999999999999993,0.083041256904109156,0.083041256904109156,"
    "0.0050000000000000001,,,,\n"
    "0.34999999999999998,0.79999999999999993,0.33429210108600932,0.33429210108600932,"
    "0.0050000000000000001,1,3,1,3\n"
)
_PINNED_CURVE_CSV = (
    "b,a,kind,p,q,residual\n"
    "1.1000000000000001,-0.10000000000000001,Bl,-1,3,1.0000000000000001e-09\n"
    "1.2,0.30000000000000004,Bl,-1,3,5.0000000000000003e-10\n"
    "1.3000000000000003,-0.33333333333333331,Bl,-1,3,0\n"
)
_PINNED_REGION_CSV = (
    "b,a_left,a_right\n"
    "6.9000000000000004,0.45000000000000001,0.55000000000000004\n"
    "7,0.33333333333333331,0.66666666666666663\n"
)


def test_export_csv_bytes_pinned(tmp_path):
    # Raster rows on both sides of b = 1, with 0/1 locks (a falsy Fraction),
    # 1/3 locks and one unlocked cell.
    g = raster(-0.15, 0.45, 0.6, 1.4, 3, 2, n_iter=200, q_max=3, workers=1)
    samples = ((1.1, -0.1, 1e-9), (1.2, 0.1 + 0.2, 5e-10), (1.3000000000000003, -1 / 3, 0.0))
    c = BoundaryCurve(kind="Bl", label=Fraction(-1, 3), samples=samples, tol=1e-8, step=0.1)
    r = Region(interval_label=(ZERO, ONE), slices=((6.9, 0.45, 0.55), (7.0, 1 / 3, 2 / 3)))
    for obj, text, load in (
        (g, _PINNED_RASTER_CSV, load_raster_csv),
        (c, _PINNED_CURVE_CSV, load_curve_csv),
        (r, _PINNED_REGION_CSV, load_region_csv),
    ):
        path, again = tmp_path / "pinned.csv", tmp_path / "again.csv"
        export_csv(obj, str(path))
        assert path.read_bytes() == text.encode("ascii")
        export_csv(load(str(path)), str(again))
        assert again.read_bytes() == text.encode("ascii")


def test_export_rejects_unknown_type(tmp_path):
    with pytest.raises(TypeError):
        export_csv(42, str(tmp_path / "x.csv"))


def test_load_rejects_ragged_raster(tmp_path):
    path = tmp_path / "bad.csv"
    header = "a,b,rho_minus,rho_plus,err,lock_lo_p,lock_lo_q,lock_hi_p,lock_hi_q"
    cell = "0.5,{b},0,0,0.01,,,,"
    rows = [header, cell.format(b="1"), cell.format(b="1"), cell.format(b="2")]
    path.write_text("\n".join(rows) + "\n", encoding="ascii")
    # na is inferred as 2 from the repeated b, leaving a dangling cell
    bad = path.read_text()
    assert bad.count("\n") == 4
    with pytest.raises(ValueError):
        load_raster_csv(str(path))


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "region.csv"
    export_csv(Region(interval_label=(ZERO, ZERO), slices=()), str(path))
    with pytest.raises(ValueError):
        load_curve_csv(str(path))


def test_load_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    raster_header = "a,b,rho_minus,rho_plus,err,lock_lo_p,lock_lo_q,lock_hi_p,lock_hi_q"
    for load, text in (
        (load_curve_csv, "b,a,kind,p,q,residual\n1.1,0.1,Bl,0,1,1e-9\n\n1.2,0.2\n"),
        (load_curve_csv, "b,a,kind,p,q,residual\n1.1,0.1,Bl,0,1,1e-9\n\n1.2,0.2,Bl,0,1,0,7\n"),
        (load_region_csv, "b,a_left,a_right\n1,0.1,0.2\n\n2,0.1\n"),
        (load_raster_csv, raster_header + "\n0.5,1,0,0,0.01,,,,\n\n0.5,2,0,0,0.01,,,\n"),
    ):
        path.write_text(text, encoding="ascii")
        # the blank third line is skipped but still counted
        with pytest.raises(ValueError, match=r"bad\.csv, line 4: \d fields, expected \d"):
            load(str(path))


def test_load_rejects_zero_denominator(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("b,a,kind,p,q,residual\n1.1,0.1,Bl,1,0,1e-9\n", encoding="ascii")
    with pytest.raises(ValueError, match="zero denominator in 1/0"):
        load_curve_csv(str(path))
    header = "a,b,rho_minus,rho_plus,err,lock_lo_p,lock_lo_q,lock_hi_p,lock_hi_q"
    for locks in ("0,1,1,0", "1,0,0,1"):
        path.write_text(f"{header}\n0.5,1,0,0,0.01,{locks}\n", encoding="ascii")
        with pytest.raises(ValueError, match="zero denominator in 1/0"):
            load_raster_csv(str(path))


def test_load_names_file_and_line_of_bad_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    raster_header = "a,b,rho_minus,rho_plus,err,lock_lo_p,lock_lo_q,lock_hi_p,lock_hi_q"
    for load, text in (
        (load_curve_csv, "b,a,kind,p,q,residual\n1.1,0.1,Bl,0,1,1e-9\n\n1.2,abc,Bl,0,1,1e-9\n"),
        (load_curve_csv, "b,a,kind,p,q,residual\n1.1,0.1,Bl,0,1,1e-9\n\n1.2,0.2,Bl,x,1,1e-9\n"),
        (load_region_csv, "b,a_left,a_right\n1,0.1,0.2\n\n2,0.1,abc\n"),
        (load_raster_csv, raster_header + "\n0.5,1,0,0,0.01,,,,\n\n0.5,abc,0,0,0.01,,,,\n"),
        (load_raster_csv, raster_header + "\n0.5,1,0,0,0.01,,,,\n\n0.5,2,0,0,0.01,1,x,,\n"),
    ):
        path.write_text(text, encoding="ascii")
        with pytest.raises(ValueError, match=r"bad\.csv, line 4: .*(float|int)"):
            load(str(path))


def test_load_raster_rejects_what_is_not_a_grid(tmp_path):
    path = tmp_path / "bad.csv"
    header = "a,b,rho_minus,rho_plus,err,lock_lo_p,lock_lo_q,lock_hi_p,lock_hi_q\n"
    cell = "{},{},0,0,0.01,,,,\n"
    for cells in (
        # one a per row, but not the same a on both rows
        [(0.25, 2), (0.75, 1)],
        # b changes inside the second row
        [(0.25, 2), (0.75, 2), (0.25, 1), (0.75, 1.5)],
        # the second row carries other a values
        [(0.25, 2), (0.75, 2), (0.25, 1), (0.5, 1)],
    ):
        path.write_text(header + "".join(cell.format(a, b) for a, b in cells), encoding="ascii")
        with pytest.raises(ValueError, match=r"bad\.csv: not a grid"):
            load_raster_csv(str(path))


def test_palette_distinct_small_denominators():
    palette = Palette()
    colors = {palette.color_for_denominator(q) for q in range(1, 13)}
    assert len(colors) == 12
    assert palette.unlocked not in colors


def test_certified_raster_bytes_do_not_depend_on_the_cycle_proof(tmp_path, monkeypatch):
    # The proof only replaces level_sign where both decide: with it patched to
    # decide nothing, every certificate falls back and the bytes are the same.
    runs = {}
    for proof in ("on", "off"):
        if proof == "off":
            monkeypatch.setattr(rotation, "_cycle_rho", lambda *args: None)
        g = raster(0.0, 1.0, 0.0, 3.0, 40, 40, certify=True)
        export_csv(g, str(tmp_path / f"{proof}.csv"))
        runs[proof] = ((tmp_path / f"{proof}.csv").read_bytes(), render_ppm(g))
    assert runs["on"] == runs["off"]
    assert runs["on"][0].count(b"\n") == 1 + 40 * 40


def test_certified_raster_tests_each_lock_once(tmp_path, monkeypatch):
    # For b <= 1 both envelopes are the lift and both ends one snap, so one certificate
    # settles the cell; the bytes are those of certifying each end on its own envelope.
    # The fold tells the two envelopes apart exactly where they differ, at b > 1.
    test, calls = sweep.rho_exact_rational_test, []

    def counting(m, r, q_max):
        calls.append((m.base, m._fold, r))
        return test(m, r, q_max=q_max)

    monkeypatch.setattr(sweep, "rho_exact_rational_test", counting)
    g = raster(0.0, 1.0, 0.0, 3.0, 12, 12, certify=True)
    assert len(calls) == len(set(calls))
    assert any(base.b <= 1.0 for base, _, _ in calls) and any(base.b > 1.0 for base, _, _ in calls)

    ref = raster(0.0, 1.0, 0.0, 3.0, 12, 12)
    q_max = max(sweep.RASTER_Q_MAX, 64)
    certified = {
        name: [
            [r if r is not None and test(envelope(Params(a, b), which), r, q_max=q_max) else None
             for a, r in zip(ref.avec.tolist(), row)]
            for b, row in zip(ref.bvec.tolist(), getattr(ref, name))
        ]
        for name, which in (("lock_lo", MINUS), ("lock_hi", PLUS))
    }
    ref = dataclasses.replace(ref, **certified)
    export_csv(g, str(tmp_path / "g.csv"))
    export_csv(ref, str(tmp_path / "ref.csv"))
    assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert render_ppm(g) == render_ppm(ref)
