"""Command line front end.

One subcommand per area of the library: pointwise map queries, rotation
estimates, intervals, orbits, plateau edges, curve tracing, regions,
curve intersections, rasters, and the Lipschitz audit.  Exit codes: 0 on
success, 2 on usage errors, 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import ArnoldTonguesError
from .maps import (
    MINUS,
    PLUS,
    Params,
    critical_points,
    deriv,
    envelope,
    eval_lift,
    schwarzian,
)
from .orbits import find_periodic_orbits, itinerary, orbit_pair
from .rotation import (
    Q_MAX_DEFAULT,
    rho_bounds_bruteforce,
    rho_exact_rational_test,
    rho_monotone,
    rotation_interval,
    snap_rational,
)
from .sweep import (
    RASTER_N_ITER,
    RASTER_Q_MAX,
    export_csv,
    load_curve_csv,
    raster,
    render_ppm,
)
from .tongues import (
    KIND_TO_EDGE,
    boundary_condition_residuals,
    intersect_curves,
    lipschitz_check,
    plateau_edges,
    region_boundary,
    trace_curve,
)


def _num(text: str) -> float:
    """Numeric argument: decimal or p/q fraction."""
    if "/" in text:
        return float(_rat(text))
    return float(text)


def _rat(text: str) -> Fraction:
    """Rational argument: p/q or exact decimal."""
    if "/" in text:
        num, den = text.split("/", 1)
        try:
            return Fraction(int(num), int(den))
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    return Fraction(text)


def _curve_spec(text: str) -> Tuple[str, Fraction]:
    """Curve argument of the form KIND:p/q."""
    kind, _, label = text.partition(":")
    if kind not in KIND_TO_EDGE or not label:
        raise argparse.ArgumentTypeError(
            f"expected KIND:p/q with KIND one of {sorted(KIND_TO_EDGE)}, got {text!r}"
        )
    return kind, _rat(label)


def _frac_str(r: Optional[Fraction]) -> Optional[str]:
    return None if r is None else f"{r.numerator}/{r.denominator}"


def _emit(result: Dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return
    for key, value in result.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{key}:")
            for rec in value:
                parts = ", ".join(f"{k}={v}" for k, v in rec.items())
                print(f"  {parts}")
        else:
            print(f"{key} = {value}")


def _check_outputs(*paths: Optional[str]) -> None:
    """Fail before any work when an output path is a directory or its parent is not one.

    The parent's error is the operating system's own: stat with a trailing
    slash reports a missing parent as ENOENT and a regular file as ENOTDIR.
    """
    for path in filter(None, paths):
        try:
            os.stat(os.path.join(os.path.dirname(path) or os.curdir, ""))
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, path) from None
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _cmd_lift(args) -> Dict:
    p = Params(args.a, args.b)
    out: Dict = {"a": p.a, "b": p.b}
    if args.x is not None:
        out["value"] = eval_lift(p, args.x)
        if args.order:
            out[f"deriv{args.order}"] = deriv(p, args.x, args.order)
        if args.schwarzian:
            out["schwarzian"] = float(schwarzian(p, args.x))
    if args.critical:
        cs = critical_points(p)
        out["critical_points"] = list(cs.points)
        out["degenerate"] = cs.degenerate
    if args.envelope:
        m = envelope(p, args.envelope)
        out["plateau_start"] = m.plateau_start
        out["plateau_end"] = m.plateau_end
        out["plateau_value"] = m.plateau_value
        if args.x is not None:
            out["envelope_value"] = m.eval(args.x)
    return out


def _cmd_rho(args) -> Dict:
    p = Params(args.a, args.b)
    m = envelope(p, args.envelope)
    out: Dict = {"a": p.a, "b": p.b, "envelope": args.envelope}
    if args.test is not None:
        out["test_label"] = _frac_str(args.test)
        out["test_result"] = rho_exact_rational_test(m, args.test, q_max=args.q_max)
        return out
    est = rho_monotone(m, n_iter=args.n_iter, x0=args.x0, q_max=args.q_max)
    out["value"] = est.value
    out["error_bound"] = est.error_bound
    out["exact_rational"] = _frac_str(est.exact_rational)
    out["n_iter"] = est.n_iter
    return out


def _cmd_snap(args) -> Dict:
    r = snap_rational(args.value, args.tol, args.q_max)
    return {"value": args.value, "tol": args.tol, "q_max": args.q_max, "snap": _frac_str(r)}


def _cmd_interval(args) -> Dict:
    p = Params(args.a, args.b)
    ri = rotation_interval(p, n_iter=args.n_iter, tol=args.tol, q_max=args.q_max)
    out: Dict = {
        "a": p.a,
        "b": p.b,
        "lo": ri.lo.value,
        "hi": ri.hi.value,
        "width": ri.width,
        "err": max(ri.lo.error_bound, ri.hi.error_bound),
        "lock_lo": _frac_str(ri.lo.exact_rational),
        "lock_hi": _frac_str(ri.hi.exact_rational),
    }
    if args.brute:
        blo, bhi = rho_bounds_bruteforce(p, n_x0=args.brute_starts, n_iter=args.brute_iters)
        out["brute_lo"] = blo
        out["brute_hi"] = bhi
    return out


def _cmd_orbit(args) -> Dict:
    p = Params(args.a, args.b)
    out: Dict = {"a": p.a, "b": p.b, "label": _frac_str(args.rot)}
    if args.pair:
        first, second = orbit_pair(p, args.rot, q_max=args.q_max)
        orbits = [("O", first)] + ([("O_prime", second)] if second else [])
    else:
        orbits = [
            (str(i), o)
            for i, o in enumerate(find_periodic_orbits(p, args.rot, q_max=args.q_max))
        ]
    records = []
    for name, o in orbits:
        rec: Dict = {
            "name": name,
            "points": list(o.points),
            "multiplier": o.multiplier,
            "stability": o.stability,
            "on_increasing_branch": o.on_increasing_branch,
        }
        if args.itinerary:
            rec["itinerary"] = itinerary(p, o.points[0], args.itinerary).symbols
        records.append(rec)
    out["orbits"] = records
    if args.residuals:
        res = boundary_condition_residuals(p, args.rot)
        out["saddle_node"] = res.saddle_node
        out["o_prime_absent"] = res.o_prime_absent
        out["bl_residual"] = res.bl_residual
        out["br_residual"] = res.br_residual
    return out


def _cmd_edges(args) -> Dict:
    window = None
    if args.window is not None:
        window = (args.window[0], args.window[1])
    a_left, a_right = plateau_edges(
        args.b, args.rot, args.envelope, a_window=window, tol=args.tol, q_max=args.q_max
    )
    return {
        "b": args.b,
        "label": _frac_str(args.rot),
        "envelope": args.envelope,
        "a_left": a_left,
        "a_right": a_right,
    }


def _cmd_trace(args) -> Dict:
    _check_outputs(args.csv)
    curve = trace_curve(
        args.kind,
        args.rot,
        (args.b_min, args.b_max),
        args.step,
        tol=args.tol,
        q_max=args.q_max,
    )
    report = lipschitz_check(curve)
    out: Dict = {
        "kind": curve.kind,
        "label": _frac_str(curve.label),
        "n_samples": len(curve.samples),
        "max_slope": report.max_slope,
        "lipschitz_ok": report.ok,
    }
    if args.csv:
        export_csv(curve, args.csv)
        out["csv"] = args.csv
    if args.full or not args.csv:
        out["samples"] = [
            {"b": b, "a": a, "residual": res} for b, a, res in curve.samples
        ]
    return out


def _cmd_region(args) -> Dict:
    _check_outputs(args.csv)
    reg = region_boundary(
        (args.lo, args.hi),
        (args.b_min, args.b_max),
        args.step,
        tol=args.tol,
        q_max=args.q_max,
    )
    out: Dict = {
        "lo": _frac_str(reg.interval_label[0]),
        "hi": _frac_str(reg.interval_label[1]),
        "n_slices": len(reg.slices),
        "slices": [
            {"b": b, "a_left": al, "a_right": ar} for b, al, ar in reg.slices
        ],
    }
    if args.csv:
        export_csv(reg, args.csv)
        out["csv"] = args.csv
    return out


def _cmd_intersect(args) -> Dict:
    points = intersect_curves(
        args.left,
        args.right,
        (args.b_min, args.b_max),
        tol=args.tol,
        step=args.step,
        q_max=args.q_max,
    )
    recs = []
    for pt in points:
        rec = {
            "a": pt.a,
            "b": pt.b,
            "left": f"{pt.left_kind}:{_frac_str(pt.labels[0])}",
            "right": f"{pt.right_kind}:{_frac_str(pt.labels[1])}",
        }
        for side, res in zip(("left", "right"), pt.residuals):
            rec[f"{side}_saddle_node"] = None if res is None else res.saddle_node
            rec[f"{side}_bl_residual"] = None if res is None else res.bl_residual
            rec[f"{side}_br_residual"] = None if res is None else res.br_residual
        recs.append(rec)
    return {"n_points": len(points), "points": recs}


def _cmd_raster(args) -> Dict:
    _check_outputs(args.img, args.csv)
    grid = raster(
        args.a_min,
        args.a_max,
        args.b_min,
        args.b_max,
        args.na,
        args.nb,
        n_iter=args.n_iter,
        q_max=args.q_max,
        certify=args.certify,
        workers=args.workers,
    )
    out: Dict = {"na": grid.na, "nb": grid.nb, "err": grid.err}
    if args.img:
        with open(args.img, "wb") as fh:
            fh.write(render_ppm(grid))
        out["img"] = args.img
    if args.csv:
        export_csv(grid, args.csv)
        out["csv"] = args.csv
    locked = sum(
        1
        for j in range(grid.nb)
        for i in range(grid.na)
        if grid.lock_lo[j][i] is not None and grid.lock_lo[j][i] == grid.lock_hi[j][i]
    )
    out["locked_cells"] = locked
    out["cells"] = grid.na * grid.nb
    return out


def _cmd_audit(args) -> Dict:
    curve = load_curve_csv(args.infile)
    report = lipschitz_check(curve)
    return {
        "kind": curve.kind,
        "label": _frac_str(curve.label),
        "n_samples": len(curve.samples),
        "max_slope": report.max_slope,
        "slack": report.slack,
        "ok": report.ok,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arnold-tongues",
        description="Rotation intervals and tongue boundaries of the standard "
        "degree-one circle-map family.",
    )
    def common_options(q_max: int) -> argparse.ArgumentParser:
        # A fresh parent per default: subparsers share their parents'
        # actions, so set_defaults on one would change every other.
        common = argparse.ArgumentParser(add_help=False)
        common.add_argument("--json", action="store_true", help="emit JSON instead of text")
        common.add_argument(
            "--q-max",
            type=int,
            default=q_max,
            help="largest denominator for rational certification",
        )
        return common

    common = common_options(Q_MAX_DEFAULT)
    sub = parser.add_subparsers(dest="command", required=True)

    p_lift = sub.add_parser("lift", parents=[common], help="evaluate the lift and its local data")
    p_lift.add_argument("--a", type=_num, required=True)
    p_lift.add_argument("--b", type=_num, required=True)
    p_lift.add_argument("--x", type=_num, default=None)
    p_lift.add_argument("--order", type=int, choices=(1, 2, 3), default=0)
    p_lift.add_argument("--schwarzian", action="store_true")
    p_lift.add_argument("--critical", action="store_true")
    p_lift.add_argument("--envelope", choices=(PLUS, MINUS), default=None)
    p_lift.set_defaults(func=_cmd_lift)

    p_rho = sub.add_parser("rho", parents=[common], help="rotation number of one envelope")
    p_rho.add_argument("--a", type=_num, required=True)
    p_rho.add_argument("--b", type=_num, required=True)
    p_rho.add_argument("--envelope", choices=(PLUS, MINUS), default=PLUS)
    p_rho.add_argument("--n-iter", type=int, default=2000)
    p_rho.add_argument("--x0", type=_num, default=0.0)
    p_rho.add_argument("--test", type=_rat, default=None, help="certify this exact rational instead")
    p_rho.set_defaults(func=_cmd_rho)

    p_snap = sub.add_parser("snap", parents=[common], help="snap a value to a small rational")
    p_snap.add_argument("--value", type=_num, required=True)
    p_snap.add_argument("--tol", type=_num, required=True)
    p_snap.set_defaults(func=_cmd_snap)

    p_int = sub.add_parser("interval", parents=[common], help="rotation interval at one parameter")
    p_int.add_argument("--a", type=_num, required=True)
    p_int.add_argument("--b", type=_num, required=True)
    p_int.add_argument("--tol", type=_num, default=1e-3)
    p_int.add_argument("--n-iter", type=int, default=None)
    p_int.add_argument("--brute", action="store_true", help="also print brute-force bounds")
    p_int.add_argument("--brute-starts", type=int, default=256)
    p_int.add_argument("--brute-iters", type=int, default=10_000)
    p_int.set_defaults(func=_cmd_interval)

    p_orb = sub.add_parser("orbit", parents=[common], help="periodic orbits with a rotation label")
    p_orb.add_argument("--a", type=_num, required=True)
    p_orb.add_argument("--b", type=_num, required=True)
    p_orb.add_argument("--rot", type=_rat, required=True)
    p_orb.add_argument("--pair", action="store_true", help="report the distinguished pair (O, O')")
    p_orb.add_argument("--itinerary", type=int, default=0, metavar="N", help="also print N lap symbols per orbit")
    p_orb.add_argument("--residuals", action="store_true", help="also print boundary-condition residuals")
    p_orb.set_defaults(func=_cmd_orbit)

    p_edges = sub.add_parser("edges", parents=[common], help="plateau edges at fixed b")
    p_edges.add_argument("--b", type=_num, required=True)
    p_edges.add_argument("--rot", type=_rat, required=True)
    p_edges.add_argument("--envelope", choices=(PLUS, MINUS), default=PLUS)
    p_edges.add_argument("--tol", type=_num, default=1e-8)
    p_edges.add_argument("--window", type=_num, nargs=2, default=None, metavar=("LO", "HI"))
    p_edges.set_defaults(func=_cmd_edges)

    p_trace = sub.add_parser("trace", parents=[common], help="continue a boundary curve in b")
    p_trace.add_argument("--kind", choices=sorted(KIND_TO_EDGE), required=True)
    p_trace.add_argument("--rot", type=_rat, required=True)
    p_trace.add_argument("--b-min", type=_num, required=True)
    p_trace.add_argument("--b-max", type=_num, required=True)
    p_trace.add_argument("--step", type=_num, required=True)
    p_trace.add_argument("--tol", type=_num, default=1e-8)
    p_trace.add_argument("--csv", default=None, help="write samples to this CSV file")
    p_trace.add_argument("--full", action="store_true", help="print all samples even with --csv")
    p_trace.set_defaults(func=_cmd_trace)

    p_reg = sub.add_parser("region", parents=[common], help="equal-interval region slices")
    p_reg.add_argument("--lo", type=_rat, required=True)
    p_reg.add_argument("--hi", type=_rat, required=True)
    p_reg.add_argument("--b-min", type=_num, required=True)
    p_reg.add_argument("--b-max", type=_num, required=True)
    p_reg.add_argument("--step", type=_num, required=True)
    p_reg.add_argument("--tol", type=_num, default=1e-8)
    p_reg.add_argument("--csv", default=None)
    p_reg.set_defaults(func=_cmd_region)

    p_x = sub.add_parser("intersect", parents=[common], help="crossings of two boundary curves")
    p_x.add_argument("--left", type=_curve_spec, required=True, metavar="KIND:p/q")
    p_x.add_argument("--right", type=_curve_spec, required=True, metavar="KIND:p/q")
    p_x.add_argument("--b-min", type=_num, required=True)
    p_x.add_argument("--b-max", type=_num, required=True)
    p_x.add_argument("--tol", type=_num, default=1e-6)
    p_x.add_argument("--step", type=_num, default=0.05)
    p_x.set_defaults(func=_cmd_intersect)

    p_ras = sub.add_parser(
        "raster", parents=[common_options(RASTER_Q_MAX)], help="parameter-plane raster"
    )
    p_ras.add_argument("--a-min", type=_num, required=True)
    p_ras.add_argument("--a-max", type=_num, required=True)
    p_ras.add_argument("--b-min", type=_num, required=True)
    p_ras.add_argument("--b-max", type=_num, required=True)
    p_ras.add_argument("--na", type=int, required=True)
    p_ras.add_argument("--nb", type=int, required=True)
    p_ras.add_argument("--n-iter", type=int, default=RASTER_N_ITER)
    p_ras.add_argument("--certify", action="store_true")
    p_ras.add_argument("--workers", type=int, default=None)
    p_ras.add_argument("--img", default=None, help="write a P6 PPM here")
    p_ras.add_argument("--csv", default=None, help="write cell data here")
    p_ras.set_defaults(func=_cmd_raster)

    p_aud = sub.add_parser("audit-lipschitz", parents=[common], help="slope audit of a curve CSV")
    p_aud.add_argument("--in", dest="infile", required=True, metavar="CURVE.CSV")
    p_aud.set_defaults(func=_cmd_audit)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.func(args)
    except ArnoldTonguesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    _emit(result, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
