"""Raster sweeps, PPM rendering, and CSV round-trips."""

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
from arnoldtongues.sweep import _BLOCK_ROWS, _plateau_rows, _snap_grid

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


def test_raster_worker_invariance(monkeypatch):
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

    monkeypatch.setenv("ARNOLDTONGUES_WORKERS", "2")
    from_env = raster(workers=None, **kw)
    assert render_ppm(from_env) == render_ppm(raster(workers=1, **kw))


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
    bs = [1.05, 2.0, 3.3, 8.18]
    w, lo, hi, x_ext = (v[:, 0].tolist() for v in _plateau_rows(np.array(bs)))
    n = len(bs)
    for j, b in enumerate(bs):
        for a in (-0.7, 0.0, 0.3, 1.9):
            down, up = envelope(Params(a, b), MINUS), envelope(Params(a, b), PLUS)
            assert (lo[j], hi[j]) == (down.plateau_start, math.inf)
            assert (w[j], x_ext[j]) == (down.plateau_end - 1.0, down.plateau_end)
            assert (lo[n + j], hi[n + j]) == (-math.inf, up.plateau_end)
            assert w[n + j] == x_ext[n + j] == up.plateau_start


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
