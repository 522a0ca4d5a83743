"""Parameter-plane rasters and file export.

The raster samples rotation-interval endpoints at cell centers, snaps
them to small-denominator rationals, and can be drawn as a binary PPM or
dumped as CSV.  Its rows of cells run through rotation._iterate, the one
array kernel, with a per-cell a, b/2pi and fold; it stops each cell once
its float orbit repeats and adds the whole periods left exactly, and it
finishes the last few live cells of an array one at a time in the scalar
twin (assuming math.sin rounds like numpy's sin), so the bits are those
of the plain loop.  Cells are pure functions of their center
coordinates, so output is byte-identical whatever the worker count,
though the blocks, and so the step at which each block's cells go
scalar, depend on it.

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
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .maps import MINUS, PLUS, TWO_PI, Params, _step, envelope
from .rotation import Rational, _check_n_iter, _iterate, rho_exact_rational_test
from .tongues import BoundaryCurve, Region

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


def _plateau_rows(bvec: np.ndarray) -> np.ndarray:
    """Fold (w, lo, hi) and flat point x* of the envelopes of b > 1 rows, as column vectors.

    The lower envelope's row of each b, then the upper envelope's.  A row
    folds y into [w, w + 1) and is flat where lo <= t <= hi, as
    maps._step_args binds it; its flat value at a is F_a(x*), one _step
    from x*, in the operations of the envelope's plateau value.
    """
    ms = [envelope(Params(0.0, b), which) for which in (MINUS, PLUS) for b in bvec.tolist()]
    return np.array([(*m._fold, m._flat_point) for m in ms]).reshape(-1, 4).T[:, :, None]


def _raster_block(args: Tuple[np.ndarray, np.ndarray, int]) -> Tuple[np.ndarray, np.ndarray]:
    """Endpoint estimates for a block of constant-b rows of cells.

    The rows with b <= 1 step the lift itself, which both envelopes equal,
    and the b > 1 rows stack a row per envelope, folded as _plateau_rows
    gives.  Each of the two runs as one array of cells from y = 0, a row per
    envelope and a column per a, through rotation._iterate.  They run apart
    because the lift's step costs about half the fold's, and b <= 1 cells
    that do not lock run every step.  Every cell gets the same bits whatever
    the block it is in, since maps._step's mask keeps them and so does the
    scalar kernel that finishes an array's last few cells.
    """
    bvec, avec, n_iter = args
    steep = bvec > 1.0
    na, b = len(avec), bvec[steep]

    def rows(c: np.ndarray, fold: Optional[np.ndarray]) -> np.ndarray:
        # The estimates of stacked rows, c = b / 2 pi per row, folded as fold's columns if any.
        a, c_cells = np.tile(avec, len(c)), np.repeat(c, na)
        if fold is not None:
            w, lo, hi, x = (np.broadcast_to(col, (len(c), na)).ravel() for col in fold)
            fold = (w, lo, hi, _step(x, a, c_cells))
        y = _iterate(np.zeros(len(a)), a, c_cells, fold, n_iter)
        return y.reshape(len(c), na) / n_iter

    est = rows(np.concatenate([b, b]) / TWO_PI, _plateau_rows(b))
    rho_minus = np.empty((len(bvec), na))
    rho_minus[~steep], rho_minus[steep] = rows(bvec[~steep] / TWO_PI, None), est[: len(b)]
    rho_plus = rho_minus.copy()
    rho_plus[steep] = est[len(b) :]
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
    the exact level certificate (much slower).  workers=None means one
    worker and 0 one per CPU, and no more processes start than there are
    row blocks; output bytes do not depend on the worker count.
    """
    if na < 1 or nb < 1:
        raise ValueError(f"grid must be at least 1x1, got {na}x{nb}")
    if b_min < 0.0:
        raise ValueError(f"b_min must be >= 0, got {b_min!r}")
    if not all(map(math.isfinite, (a_min, a_max, b_min, b_max))):
        raise ValueError(f"non-finite range: a {a_min!r}..{a_max!r}, b {b_min!r}..{b_max!r}")
    if a_min > a_max or b_min > b_max:
        raise ValueError(f"reversed range: a {a_min!r}..{a_max!r}, b {b_min!r}..{b_max!r}")
    _check_n_iter(n_iter)
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers!r}")
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1, got {q_max!r}")
    avec = _cell_centers(a_min, a_max, na)
    bvec = _cell_centers(b_min, b_max, nb)
    n_workers = 1 if workers is None else workers or os.cpu_count() or 1
    rows = min(_BLOCK_ROWS, -(-nb // n_workers))
    blocks = [(bvec[j : j + rows], avec, n_iter) for j in range(0, nb, rows)]
    if n_workers == 1 or len(blocks) == 1:
        parts = [_raster_block(blk) for blk in blocks]
    else:
        with ProcessPoolExecutor(max_workers=min(n_workers, len(blocks))) as pool:
            parts = list(pool.map(_raster_block, blocks))
    rho_minus = np.vstack([part[0] for part in parts])
    rho_plus = np.vstack([part[1] for part in parts])
    err = 1.0 / n_iter
    locks = _snap_grid(np.vstack([rho_minus, rho_plus]), 2.0 * err, q_max)
    lock_lo, lock_hi = locks[:nb], locks[nb:]
    if certify:
        for j, i in itertools.product(range(nb), range(na)):
            p = Params(float(avec[i]), float(bvec[j]))
            # For b <= 1 both envelopes are the lift and both ends one snap, so one test settles both.
            for side, which in ((lock_lo, MINUS),) if p.b <= 1.0 else ((lock_lo, MINUS), (lock_hi, PLUS)):
                r = side[j][i]
                if r is not None and not rho_exact_rational_test(
                    envelope(p, which), r, q_max=max(q_max, 64)
                ):
                    side[j][i] = None
            if p.b <= 1.0:
                lock_hi[j][i] = lock_lo[j][i]
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
            # _snap_grid shares equal fractions, so identity settles most cells without Fraction.__eq__.
            q = lo.denominator if lo is not None and (lo is hi or lo == hi) else 0
            if q not in colors:
                colors[q] = bytes(palette.color_for_denominator(q) if q else palette.unlocked)
            payload += colors[q]
    return header + bytes(payload)


class _Csv(NamedTuple):
    header: str  # the first line of the file
    row: str  # the str.format template of every further line


# The raster's fields arrive formatted (_raster_lines).
_RASTER_CSV = _Csv(
    "a,b,rho_minus,rho_plus,err,lock_lo_p,lock_lo_q,lock_hi_p,lock_hi_q", "{},{},{},{},{},{},{}\n"
)
_CURVE_CSV = _Csv("b,a,kind,p,q,residual", "{:.17g},{:.17g},{},{},{},{:.17g}\n")
_REGION_CSV = _Csv("b,a_left,a_right", "{:.17g},{:.17g},{:.17g}\n")


def _raster_lines(g: RasterGrid) -> Iterator[str]:
    """The raster's CSV text a row of cells at a time, top row (b_max) first, a ascending within a row.

    a, b and err are formatted once each, and each distinct lock object once
    (_snap_grid shares equal fractions); only the estimates are formatted per
    cell, and once for both ends of a row whose two estimates are the same
    floats, as on b <= 1 rows (_raster_block copies the lift's into both).
    """
    num, row = "{:.17g}".format, _RASTER_CSV.row.format
    avec, err = [num(a) for a in g.avec.tolist()], num(g.err)
    locks = {id(r): r for side in (g.lock_lo, g.lock_hi) for cells in side for r in cells}
    text = {k: "," if r is None else f"{r.numerator},{r.denominator}" for k, r in locks.items()}
    rows = zip(g.bvec.tolist(), g.rho_minus, g.rho_plus, g.lock_lo, g.lock_hi)
    for b, rho_minus, rho_plus, *sides in reversed(list(rows)):
        minus = list(map(num, rho_minus.tolist()))
        plus = minus if rho_minus.tobytes() == rho_plus.tobytes() else list(map(num, rho_plus.tolist()))
        locks = (map(text.__getitem__, map(id, side)) for side in sides)
        yield "".join(map(row, avec, itertools.repeat(num(b)), minus, plus, itertools.repeat(err), *locks))


def export_csv(obj: Union[RasterGrid, BoundaryCurve, Region], path: str) -> None:
    """Write the object's canonical CSV form (deterministic bytes)."""
    if isinstance(obj, RasterGrid):
        schema, lines = _RASTER_CSV, _raster_lines(obj)
    elif isinstance(obj, BoundaryCurve):
        label = (obj.kind, obj.label.numerator, obj.label.denominator)
        schema = _CURVE_CSV
        lines = (schema.row.format(b, a, *label, res) for b, a, res in obj.samples)
    elif isinstance(obj, Region):
        schema = _REGION_CSV
        lines = (schema.row.format(*row) for row in obj.slices)
    else:
        raise TypeError(f"cannot export {type(obj).__name__} as CSV")
    text = schema.header + "\n" + "".join(lines)
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
