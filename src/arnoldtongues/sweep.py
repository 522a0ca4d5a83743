"""Parameter-plane rasters and file export.

The raster samples rotation-interval endpoints at cell centers, snaps
them to small-denominator rationals, and can be drawn as a binary PPM or
dumped as CSV.  Its rows iterate through rotation._iterate, the package's
one winding-reduced kernel.  Cells are pure functions of their center
coordinates, so output is byte-identical whatever the worker count.

Each CSV artifact (raster, curve, region) has one schema, a header and a
row template, which its writer and its loader share.
"""

from __future__ import annotations

import colorsys
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .maps import MINUS, PLUS, TWO_PI, Params, _plateau, envelope
from .rotation import Rational, _iterate, rho_exact_rational_test
from .tongues import BoundaryCurve, Region

WORKERS_ENV = "ARNOLDTONGUES_WORKERS"

# Defaults for raster cells: iteration count and snapping.
RASTER_N_ITER = 1000
RASTER_Q_MAX = 32

# Most rows of cells iterated as one array; bounds the kernel's memory.
_BLOCK_ROWS = 64


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


def _plateau_rows(bvec: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Window start w, flat bounds lo, hi and extremum x_ext of b > 1 rows.

    Lower-envelope rows come first, then upper ones, as column vectors.  A
    row folds y into [w, w + 1) and is flat where lo <= t <= hi: on
    [1 - s, x_min] for the lower envelope and on [x_max, s] for the upper,
    with (x_max, s) = maps._plateau(b).  The plateau holds the lift's value
    at x_ext, the local minimum (lower) or maximum (upper).
    """
    x_max, s = np.array([_plateau(b) for b in bvec.tolist()]).T[:, :, None]
    x_min, inf = 1.0 - x_max, np.full_like(s, np.inf)
    w = np.vstack([x_min - 1.0, x_max])
    return w, np.vstack([1.0 - s, -inf]), np.vstack([inf, s]), np.vstack([x_min, x_max])


def _raster_block(args: Tuple[np.ndarray, np.ndarray, int]) -> Tuple[np.ndarray, np.ndarray]:
    """Endpoint estimates for a block of constant-b rows of cells.

    The block is iterated as one array by rotation._iterate, a row per b
    and a column per a.  Rows with b <= 1 step the lift itself, which both
    envelopes equal.  Rows with b > 1 step both envelopes at once, the
    lower envelope's rows stacked above the upper's, with the plateau
    geometry of _plateau_rows, the same per-b geometry that maps.envelope
    reads.  Every cell goes through the same operations in the same order
    whatever the block it is in.
    """
    bvec, avec, n_iter = args
    coef = (bvec / TWO_PI)[:, None]
    plain = bvec <= 1.0
    rho_minus, rho_plus = np.empty((2, len(bvec), len(avec)))

    def rho(step: Callable[[np.ndarray], np.ndarray], c: np.ndarray) -> np.ndarray:
        # The estimates of the rows whose coefficients b / 2 pi are c.
        return _iterate(step, np.zeros((len(c), len(avec))), n_iter) / n_iter

    if plain.any():
        c = coef[plain]
        rho_minus[plain] = rho_plus[plain] = rho(lambda y: y + avec + c * np.sin(TWO_PI * y), c)

    if not plain.all():
        w, lo, hi, x_ext = _plateau_rows(bvec[~plain])
        c = np.vstack([coef[~plain]] * 2)
        sin_ext = np.array([[math.sin(TWO_PI * x)] for x in x_ext[:, 0].tolist()])
        flat_val = x_ext + c * sin_ext + avec

        def fold(y: np.ndarray) -> np.ndarray:
            n = np.floor(y - w)
            t = y - n
            flat = (t >= lo) & (t <= hi)
            # sin only off the plateau; np.where drops the other cells.
            arg = TWO_PI * t
            np.sin(arg, out=arg, where=~flat)
            return np.where(flat, flat_val, t + avec + c * arg) + n

        rho_minus[~plain], rho_plus[~plain] = np.split(rho(fold, c), 2)
    return rho_minus, rho_plus


def _snap_grid(values: np.ndarray, tol: float, q_max: int) -> List[List[Optional[Rational]]]:
    """snap_rational of every element of a 2-D array, as nested lists.

    One array pass per denominator q = 1..q_max does what snap_rational
    does per value: np.round rounds half to even like round, and a
    denominator replaces the best so far only when strictly closer, so
    ties go to the smaller one.  Equal fractions are one shared object.
    """
    best_p = np.zeros(values.shape)
    best_q = np.zeros(values.shape, dtype=np.int64)
    best_err = np.full(values.shape, tol)
    for q in range(1, q_max + 1):
        p = np.round(values * q)
        err = np.abs(values - p / q)
        closer = err < best_err
        best_err[closer] = err[closer]
        best_p[closer] = p[closer]
        best_q[closer] = q
    fractions: Dict[Tuple[int, int], Rational] = {}

    def frac(p: float, q: int) -> Optional[Rational]:
        if q == 0:
            return None
        key = (int(p), q)
        r = fractions.get(key)
        if r is None:
            r = fractions[key] = Fraction(*key)
        return r

    return [
        [frac(p, q) for p, q in zip(p_row, q_row)]
        for p_row, q_row in zip(best_p.tolist(), best_q.tolist())
    ]


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
    if not all(map(math.isfinite, (a_min, a_max, b_min, b_max))):
        raise ValueError(f"non-finite range: a {a_min!r}..{a_max!r}, b {b_min!r}..{b_max!r}")
    if a_min > a_max or b_min > b_max:
        raise ValueError(f"reversed range: a {a_min!r}..{a_max!r}, b {b_min!r}..{b_max!r}")
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter!r}")
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers!r}")
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1, got {q_max!r}")
    avec = _cell_centers(a_min, a_max, na)
    bvec = _cell_centers(b_min, b_max, nb)
    n_workers = _resolve_workers(workers)
    rows = min(_BLOCK_ROWS, -(-nb // n_workers))
    blocks = [(bvec[j : j + rows], avec, n_iter) for j in range(0, nb, rows)]
    if n_workers == 1 or len(blocks) == 1:
        parts = [_raster_block(blk) for blk in blocks]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(_raster_block, blocks))
    rho_minus = np.vstack([part[0] for part in parts])
    rho_plus = np.vstack([part[1] for part in parts])
    err = 1.0 / n_iter
    locks = _snap_grid(np.vstack([rho_minus, rho_plus]), 2.0 * err, q_max)
    lock_lo, lock_hi = locks[:nb], locks[nb:]
    if certify:
        for j, i in itertools.product(range(nb), range(na)):
            p = Params(float(avec[i]), float(bvec[j]))
            for side, which in ((lock_lo, MINUS), (lock_hi, PLUS)):
                r = side[j][i]
                if r is not None and not rho_exact_rational_test(
                    envelope(p, which), r, q_max=max(q_max, 64)
                ):
                    side[j][i] = None
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
    colors: Dict[int, bytes] = {}  # denominator, 0 when unlocked -> RGB
    payload = bytearray()
    for los, his in zip(reversed(g.lock_lo), reversed(g.lock_hi)):
        for lo, hi in zip(los, his):
            q = lo.denominator if lo is not None and lo == hi else 0
            if q not in colors:
                colors[q] = bytes(palette.color_for_denominator(q) if q else palette.unlocked)
            payload += colors[q]
    return header + bytes(payload)


class _Csv(NamedTuple):
    header: str  # the first line of the file
    row: str  # the str.format template of every further line


_RASTER_CSV = _Csv(
    "a,b,rho_minus,rho_plus,err,lock_lo_p,lock_lo_q,lock_hi_p,lock_hi_q",
    "{:.17g},{:.17g},{:.17g},{:.17g},{:.17g},{},{},{},{}\n",
)
_CURVE_CSV = _Csv("b,a,kind,p,q,residual", "{:.17g},{:.17g},{},{},{},{:.17g}\n")
_REGION_CSV = _Csv("b,a_left,a_right", "{:.17g},{:.17g},{:.17g}\n")


def _lock_fields(r: Optional[Rational]) -> Tuple:
    return ("", "") if r is None else (r.numerator, r.denominator)


def _raster_rows(g: RasterGrid) -> Iterable[Tuple]:
    """Cell fields, top row (b_max) first, a ascending within a row."""
    avec = g.avec.tolist()
    for j in range(g.nb - 1, -1, -1):
        b = float(g.bvec[j])
        rho = zip(g.rho_minus[j].tolist(), g.rho_plus[j].tolist())
        for a, (lo, hi), lock_lo, lock_hi in zip(avec, rho, g.lock_lo[j], g.lock_hi[j]):
            yield (a, b, lo, hi, g.err, *_lock_fields(lock_lo), *_lock_fields(lock_hi))


def export_csv(obj: Union[RasterGrid, BoundaryCurve, Region], path: str) -> None:
    """Write the object's canonical CSV form (deterministic bytes)."""
    if isinstance(obj, RasterGrid):
        schema, rows = _RASTER_CSV, _raster_rows(obj)
    elif isinstance(obj, BoundaryCurve):
        label = (obj.kind, obj.label.numerator, obj.label.denominator)
        schema, rows = _CURVE_CSV, ((b, a, *label, res) for b, a, res in obj.samples)
    elif isinstance(obj, Region):
        schema, rows = _REGION_CSV, obj.slices
    else:
        raise TypeError(f"cannot export {type(obj).__name__} as CSV")
    text = schema.header + "\n" + "".join(schema.row.format(*row) for row in rows)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _split_rows(path: str, schema: _Csv, parse: Callable[[List[str]], Tuple]) -> List[Tuple]:
    """parse(fields) of each nonblank line after the header, which must be schema's.

    A wrong field count, or a field that parse cannot convert, is reported
    with the file and line.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != schema.header:
        got = lines[0] if lines else "empty file"
        raise ValueError(f"{path}: expected header {schema.header!r}, got {got!r}")
    width = schema.header.count(",") + 1
    rows = []
    for n, line in enumerate(lines[1:], 2):
        if not line:
            continue
        fields = line.split(",")
        try:
            if len(fields) != width:
                raise ValueError(f"{len(fields)} fields, expected {width}")
            rows.append(parse(fields))
        except ValueError as exc:
            raise ValueError(f"{path}, line {n}: {exc}") from None
    return rows


def _fraction(p: str, q: str) -> Rational:
    if int(q) == 0:
        raise ValueError(f"zero denominator in {p}/{q}")
    return Fraction(int(p), int(q))


def load_curve_csv(path: str) -> BoundaryCurve:
    """Rebuild a BoundaryCurve from its CSV export.

    tol and step are not stored in the file; they are recovered as the
    largest residual and the median b spacing, which is what the
    Lipschitz audit needs.
    """
    rows = _split_rows(
        path, _CURVE_CSV, lambda r: (float(r[0]), float(r[1]), float(r[5]), r[2], _fraction(r[3], r[4]))
    )
    if not rows:
        raise ValueError(f"{path}: curve file has no samples")
    samples = tuple(r[:3] for r in rows)
    kind, label = rows[0][3:]
    tol = max(max(s[2] for s in samples), 1e-12)
    steps = sorted(b1 - b0 for (b0, _, _), (b1, _, _) in zip(samples, samples[1:])) or [1.0]
    step = steps[len(steps) // 2]
    return BoundaryCurve(kind=kind, label=label, samples=samples, tol=tol, step=step)


def load_region_csv(path: str) -> Region:
    """Rebuild a Region's slice geometry from its CSV export.

    The interval label is not stored in the file, so the loaded object
    carries the placeholder (0, 0) label.
    """
    slices = tuple(_split_rows(path, _REGION_CSV, lambda r: tuple(map(float, r))))
    return Region(interval_label=(Fraction(0), Fraction(0)), slices=slices)


def _raster_cell(r: List[str]) -> Tuple:
    """a, b, rho_minus, rho_plus, err and the two locks (None when unlocked)."""
    lo, hi = (None if r[k] == "" else _fraction(r[k], r[k + 1]) for k in (5, 7))
    return (*map(float, r[:5]), lo, hi)


def load_raster_csv(path: str) -> RasterGrid:
    """Rebuild a RasterGrid from its CSV export.

    Cell centers, estimates and locks round-trip exactly; the outer
    bounds are inferred from the center spacing (exact centers are what
    re-export uses, so export -> load -> export is byte-stable).  A file
    whose rows do not all carry the first row's a values, each at one b,
    is not a grid and raises ValueError.
    """
    rows = _split_rows(path, _RASTER_CSV, _raster_cell)
    if not rows:
        raise ValueError(f"{path}: raster file has no cells")
    na = 1
    while na < len(rows) and rows[na][1] == rows[0][1]:
        na += 1
    if len(rows) % na != 0:
        raise ValueError(f"{path}: ragged raster ({len(rows)} cells, row width {na})")
    nb = len(rows) // na
    # One float array of the a, b, rho_minus and rho_plus fields.  The file
    # lists rows from b_max down, so flip them to b ascending; avec is its first.
    cells = np.array([r[:4] for r in rows]).reshape(nb, na, 4)[::-1]
    a, b, rho_minus, rho_plus = np.moveaxis(cells, 2, 0).copy()
    avec, bvec = a[-1], b[:, 0].copy()
    if (a != avec).any() or (b != bvec[:, None]).any():
        raise ValueError(f"{path}: not a grid (each row must repeat the first row's a values at one b)")

    def locks(k: int) -> List[List[Optional[Rational]]]:
        return [[r[k] for r in rows[j * na : (j + 1) * na]] for j in range(nb - 1, -1, -1)]

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
        err=rows[0][4],
        lock_lo=locks(5),
        lock_hi=locks(6),
    )
