"""Parameter-plane rasters and file export.

The raster samples rotation-interval endpoints at cell centers, snaps
them to small-denominator rationals, and can be drawn as a binary PPM or
dumped as CSV.  Cells are pure functions of their center coordinates, so
output is byte-identical whatever the worker count.
"""

from __future__ import annotations

import colorsys
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

import numpy as np

from .maps import MINUS, PLUS, TWO_PI, Params, envelope
from .rotation import Rational, rho_exact_rational_test, snap_rational
from .tongues import BoundaryCurve, Region

WORKERS_ENV = "ARNOLDTONGUES_WORKERS"

# Defaults for raster cells: iteration count and snapping.
RASTER_N_ITER = 1000
RASTER_Q_MAX = 32


@dataclass(frozen=True, eq=False)
class RasterGrid:
    """Cell-centered raster of rotation intervals over a parameter box.

    Arrays are indexed [j, i] with j ascending in b and i ascending in a;
    avec and bvec hold the exact cell-center coordinates used.  err is the
    shared error bound of every endpoint estimate.  lock_lo and lock_hi
    hold the snapped rationals (or None) per cell.
    """

    a_min: float
    a_max: float
    b_min: float
    b_max: float
    na: int
    nb: int
    avec: np.ndarray
    bvec: np.ndarray
    rho_minus: np.ndarray
    rho_plus: np.ndarray
    err: float
    lock_lo: List[List[Optional[Rational]]]
    lock_hi: List[List[Optional[Rational]]]


@dataclass(frozen=True)
class Palette:
    """Cell coloring: one color per locked denominator, one for the rest.

    Locked means both interval endpoints snapped to the same rational.
    Denominator colors are spaced around the hue circle by the golden
    angle, so distinct small denominators get well-separated colors.
    """

    unlocked: Tuple[int, int, int] = (16, 16, 16)
    saturation: float = 0.85
    value: float = 0.95

    def color_for_denominator(self, q: int) -> Tuple[int, int, int]:
        hue = (q * 0.618033988749895) % 1.0
        r, g, b = colorsys.hsv_to_rgb(hue, self.saturation, self.value)
        return (int(round(r * 255)), int(round(g * 255)), int(round(b * 255)))


def _cell_centers(lo: float, hi: float, n: int) -> np.ndarray:
    return lo + (np.arange(n, dtype=float) + 0.5) * ((hi - lo) / n)


def _raster_row(
    args: Tuple[float, float, float, int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Endpoint estimates for one constant-b row of cells.

    Iterates both monotone envelopes simultaneously over the whole row,
    carrying the integer winding separately.  Plateau geometry is shared
    across the row because the plateau interval does not depend on a.
    """
    b, a_min, a_max, na, n_iter = args
    avec = _cell_centers(a_min, a_max, na)
    coef = b / TWO_PI
    plus = envelope(Params(0.0, b), PLUS)
    out = []
    for which in (MINUS, PLUS):
        y = np.zeros(na)
        wind = np.zeros(na)
        if plus.plateau_start is None:
            for _ in range(n_iter):
                y = y + avec + coef * np.sin(TWO_PI * y)
                k = np.floor(y)
                wind += k
                y -= k
        elif which is PLUS:
            x_max = plus.plateau_start
            s = plus.plateau_end
            val0 = x_max + coef * math.sin(TWO_PI * x_max)
            for _ in range(n_iter):
                n = np.floor(y - x_max)
                t = y - n
                flat = t <= s
                y = np.where(flat, val0 + avec, t + avec + coef * np.sin(TWO_PI * t)) + n
                k = np.floor(y)
                wind += k
                y -= k
        else:
            x_max = plus.plateau_start
            s_prime = 1.0 - plus.plateau_end
            x_min = 1.0 - x_max
            val0 = x_min + coef * math.sin(TWO_PI * x_min)
            wstart = x_min - 1.0
            for _ in range(n_iter):
                n = np.floor(y - wstart)
                t = y - n
                flat = t >= s_prime
                y = np.where(flat, val0 + avec, t + avec + coef * np.sin(TWO_PI * t)) + n
                k = np.floor(y)
                wind += k
                y -= k
        out.append((y + wind) / n_iter)
    return out[0], out[1]


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "")
        try:
            workers = int(raw)
        except ValueError:
            workers = 1
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, workers)


def raster(
    a_min: float,
    a_max: float,
    b_min: float,
    b_max: float,
    na: int,
    nb: int,
    n_iter: int = RASTER_N_ITER,
    q_max: int = RASTER_Q_MAX,
    certify: bool = False,
    workers: Optional[int] = None,
) -> RasterGrid:
    """Rotation-interval raster over [a_min, a_max] x [b_min, b_max].

    Cells sample at centers, (i + 0.5) of the cell width in from the low
    edge.  Each endpoint estimate carries the 1/n_iter error bound and is
    snapped to a rational with denominator at most q_max within twice that
    bound.  With certify=True every snap is additionally checked against
    the exact level certificate (much slower).  workers=None reads the
    ARNOLDTONGUES_WORKERS environment variable (0 = one per CPU); output
    bytes do not depend on the worker count.
    """
    if na < 1 or nb < 1:
        raise ValueError(f"grid must be at least 1x1, got {na}x{nb}")
    if b_min < 0.0:
        raise ValueError(f"b_min must be >= 0, got {b_min!r}")
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter!r}")
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers!r}")
    avec = _cell_centers(a_min, a_max, na)
    bvec = _cell_centers(b_min, b_max, nb)
    row_args = [(float(b), a_min, a_max, na, n_iter) for b in bvec]
    n_workers = _resolve_workers(workers)
    if n_workers == 1 or nb == 1:
        rows = [_raster_row(arg) for arg in row_args]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            rows = list(pool.map(_raster_row, row_args, chunksize=max(1, nb // (4 * n_workers))))
    rho_minus = np.vstack([r[0] for r in rows])
    rho_plus = np.vstack([r[1] for r in rows])
    err = 1.0 / n_iter
    snap_tol = 2.0 * err
    lock_lo: List[List[Optional[Rational]]] = []
    lock_hi: List[List[Optional[Rational]]] = []
    for j in range(nb):
        row_lo: List[Optional[Rational]] = []
        row_hi: List[Optional[Rational]] = []
        for i in range(na):
            row_lo.append(snap_rational(float(rho_minus[j, i]), snap_tol, q_max))
            row_hi.append(snap_rational(float(rho_plus[j, i]), snap_tol, q_max))
        lock_lo.append(row_lo)
        lock_hi.append(row_hi)
    if certify:
        for j in range(nb):
            b = float(bvec[j])
            for i in range(na):
                p = Params(float(avec[i]), b)
                if lock_lo[j][i] is not None and not rho_exact_rational_test(
                    envelope(p, MINUS), lock_lo[j][i], q_max=max(q_max, 64)
                ):
                    lock_lo[j][i] = None
                if lock_hi[j][i] is not None and not rho_exact_rational_test(
                    envelope(p, PLUS), lock_hi[j][i], q_max=max(q_max, 64)
                ):
                    lock_hi[j][i] = None
    return RasterGrid(
        a_min=a_min,
        a_max=a_max,
        b_min=b_min,
        b_max=b_max,
        na=na,
        nb=nb,
        avec=avec,
        bvec=bvec,
        rho_minus=rho_minus,
        rho_plus=rho_plus,
        err=err,
        lock_lo=lock_lo,
        lock_hi=lock_hi,
    )


def render_ppm(g: RasterGrid, palette: Optional[Palette] = None) -> bytes:
    """Draw the raster as a binary P6 PPM, top row at b_max."""
    if palette is None:
        palette = Palette()
    header = f"P6\n{g.na} {g.nb}\n255\n".encode("ascii")
    payload = bytearray()
    for j in range(g.nb - 1, -1, -1):
        for i in range(g.na):
            lo = g.lock_lo[j][i]
            hi = g.lock_hi[j][i]
            if lo is not None and lo == hi:
                rgb = palette.color_for_denominator(lo.denominator)
            else:
                rgb = palette.unlocked
            payload.extend(rgb)
    return header + bytes(payload)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _raster_csv_lines(g: RasterGrid) -> List[str]:
    lines = ["a,b,rho_minus,rho_plus,err,lock_lo_p,lock_lo_q,lock_hi_p,lock_hi_q"]
    for j in range(g.nb - 1, -1, -1):
        b = float(g.bvec[j])
        for i in range(g.na):
            lo = g.lock_lo[j][i]
            hi = g.lock_hi[j][i]
            lo_p, lo_q = (str(lo.numerator), str(lo.denominator)) if lo is not None else ("", "")
            hi_p, hi_q = (str(hi.numerator), str(hi.denominator)) if hi is not None else ("", "")
            lines.append(
                ",".join(
                    [
                        _fmt(float(g.avec[i])),
                        _fmt(b),
                        _fmt(float(g.rho_minus[j, i])),
                        _fmt(float(g.rho_plus[j, i])),
                        _fmt(g.err),
                        lo_p,
                        lo_q,
                        hi_p,
                        hi_q,
                    ]
                )
            )
    return lines


def _curve_csv_lines(c: BoundaryCurve) -> List[str]:
    lines = ["b,a,kind,p,q,residual"]
    for b, a, res in c.samples:
        lines.append(
            ",".join(
                [
                    _fmt(b),
                    _fmt(a),
                    c.kind,
                    str(c.label.numerator),
                    str(c.label.denominator),
                    _fmt(res),
                ]
            )
        )
    return lines


def _region_csv_lines(r: Region) -> List[str]:
    lines = ["b,a_left,a_right"]
    for b, a_left, a_right in r.slices:
        lines.append(",".join([_fmt(b), _fmt(a_left), _fmt(a_right)]))
    return lines


def export_csv(obj: Union[RasterGrid, BoundaryCurve, Region], path: str) -> None:
    """Write the object's canonical CSV form (deterministic bytes)."""
    if isinstance(obj, RasterGrid):
        lines = _raster_csv_lines(obj)
    elif isinstance(obj, BoundaryCurve):
        lines = _curve_csv_lines(obj)
    elif isinstance(obj, Region):
        lines = _region_csv_lines(obj)
    else:
        raise TypeError(f"cannot export {type(obj).__name__} as CSV")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _split_rows(path: str, expected_header: str) -> List[List[str]]:
    with open(path, "r", encoding="ascii") as fh:
        content = fh.read()
    lines = content.splitlines()
    if not lines or lines[0] != expected_header:
        raise ValueError(
            f"{path}: expected header {expected_header!r}, got {lines[0] if lines else 'empty file'!r}"
        )
    return [line.split(",") for line in lines[1:] if line]


def load_curve_csv(path: str) -> BoundaryCurve:
    """Rebuild a BoundaryCurve from its CSV export.

    tol and step are not stored in the file; they are recovered as the
    largest residual and the median b spacing, which is what the
    Lipschitz audit needs.
    """
    rows = _split_rows(path, "b,a,kind,p,q,residual")
    if not rows:
        raise ValueError(f"{path}: curve file has no samples")
    samples = tuple((float(r[0]), float(r[1]), float(r[5])) for r in rows)
    kind = rows[0][2]
    label = Fraction(int(rows[0][3]), int(rows[0][4]))
    tol = max(max(s[2] for s in samples), 1e-12)
    if len(samples) > 1:
        steps = sorted(b1 - b0 for (b0, _, _), (b1, _, _) in zip(samples, samples[1:]))
        step = steps[len(steps) // 2]
    else:
        step = 1.0
    return BoundaryCurve(kind=kind, label=label, samples=samples, tol=tol, step=step)


def load_region_csv(path: str) -> Region:
    """Rebuild a Region's slice geometry from its CSV export.

    The interval label is not stored in the file, so the loaded object
    carries the placeholder (0, 0) label.
    """
    rows = _split_rows(path, "b,a_left,a_right")
    slices = tuple((float(r[0]), float(r[1]), float(r[2])) for r in rows)
    return Region(interval_label=(Fraction(0), Fraction(0)), slices=slices)


def load_raster_csv(path: str) -> RasterGrid:
    """Rebuild a RasterGrid from its CSV export.

    Cell centers, estimates and locks round-trip exactly; the outer
    bounds are inferred from the center spacing (exact centers are what
    re-export uses, so export -> load -> export is byte-stable).
    """
    rows = _split_rows(
        path, "a,b,rho_minus,rho_plus,err,lock_lo_p,lock_lo_q,lock_hi_p,lock_hi_q"
    )
    if not rows:
        raise ValueError(f"{path}: raster file has no cells")
    na = 1
    first_b = rows[0][1]
    while na < len(rows) and rows[na][1] == first_b:
        na += 1
    if len(rows) % na != 0:
        raise ValueError(f"{path}: ragged raster ({len(rows)} cells, row width {na})")
    nb = len(rows) // na
    avec = np.array([float(r[0]) for r in rows[:na]])
    b_desc = [float(rows[j * na][1]) for j in range(nb)]
    bvec = np.array(b_desc[::-1])
    err = float(rows[0][4])
    rho_minus = np.empty((nb, na))
    rho_plus = np.empty((nb, na))
    lock_lo: List[List[Optional[Rational]]] = [[None] * na for _ in range(nb)]
    lock_hi: List[List[Optional[Rational]]] = [[None] * na for _ in range(nb)]
    for idx, r in enumerate(rows):
        j_desc, i = divmod(idx, na)
        j = nb - 1 - j_desc
        rho_minus[j, i] = float(r[2])
        rho_plus[j, i] = float(r[3])
        if r[5] != "":
            lock_lo[j][i] = Fraction(int(r[5]), int(r[6]))
        if r[7] != "":
            lock_hi[j][i] = Fraction(int(r[7]), int(r[8]))
    da = (avec[1] - avec[0]) if na > 1 else 1.0
    db = (bvec[1] - bvec[0]) if nb > 1 else 1.0
    return RasterGrid(
        a_min=float(avec[0] - 0.5 * da),
        a_max=float(avec[-1] + 0.5 * da),
        b_min=float(bvec[0] - 0.5 * db),
        b_max=float(bvec[-1] + 0.5 * db),
        na=na,
        nb=nb,
        avec=avec,
        bvec=bvec,
        rho_minus=rho_minus,
        rho_plus=rho_plus,
        err=err,
        lock_lo=lock_lo,
        lock_hi=lock_hi,
    )
