"""The benchmark's three workloads: seeded inputs, calls and output checks.

Each workload is a closed loop with one caller: the next call starts only
when the previous one has returned.  Inputs come in rounds.  A round is a
fixed, stratified mix of calls (every curve kind and label of the trace
workload, one raster, every query type and denominator class), so a run
that stops at a round boundary always measures the same mix, and only the
seeded jitter inside each input changes from seed to seed.  Round k of a
seed is generated from (seed, workload, k) alone and is issued once, so a
cache in the program helps only where real inputs repeat.

The output checks use closed forms and arithmetic written here, in plain
``math``, never the program's own audit functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

# Program functions are looked up on the package at call time, so the
# tracer's rebinding reaches the calls made from here.
import arnoldtongues as at
import arnoldtongues.cli  # noqa: F401

TWO_PI = 2.0 * math.pi

# Below this b the zero tongue's right plus-envelope edge ("Bl") and left
# minus-envelope edge ("Br") follow the saddle-node lines a = n +- b/2pi.
BL_SWITCH_B = 1.38

TRACE_TOL = 1e-8
TRACE_KINDS = ("Al", "Bl", "Br", "Ar")
TRACE_LABELS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1))
REGION_LABELS = (Fraction(0), Fraction(1, 3))

# 48 x 48 keeps one raster call near half a second, so the host-speed
# probe that runs between calls can follow the host (see run.py).
RASTER_N = 48
QUERY_Q = (1, 2, 3, 4, 5)

# Samples per traced curve by label denominator, so that every curve call
# takes about the same time (a sample costs roughly 14, 39 and 71 ms for
# q = 1, 2, 3 on a 2-vCPU x86-64 VM) and per-call latency percentiles
# are not split between a fast and a slow cluster.
FULL = {
    "trace_labels": TRACE_LABELS,
    "trace_samples": {1: 12, 2: 4, 3: 2},
    "region_samples": 1,
    "raster_n": RASTER_N,
}
# Small inputs for the benchmark's own tests.
TINY = {
    "trace_labels": (Fraction(0), Fraction(1, 2)),
    "trace_samples": {1: 2, 2: 2},
    "region_samples": 1,
    "raster_n": 12,
}


@dataclass
class Call:
    """One operation of a round: what to call and how to check it."""

    name: str
    run: Callable[[str], object]
    check: Callable[[object, str], List[str]]
    items: int
    artifacts: Tuple[str, ...] = ()
    # Bytes of the answer that go into the round's digest, for calls
    # whose answer is printed rather than written to a file.
    transcript: Optional[Callable[[object], bytes]] = None


def _rng(seed: int, workload: str, k: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{k}")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _frac_name(r: Fraction) -> str:
    return f"{r.numerator}-{r.denominator}"


# ---------------------------------------------------------------- trace ---


def _check_curve_csv(path: str, samples) -> List[str]:
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "b,a,kind,p,q,residual":
        return [f"{path}: bad curve CSV header"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(samples):
        return [f"{path}: {len(rows)} rows for {len(samples)} samples"]
    for row, (b, a, res) in zip(rows, samples):
        if (float(row[0]), float(row[1]), float(row[5])) != (b, a, res):
            return [f"{path}: row {row} does not round-trip sample {(b, a, res)}"]
    return []


def check_curve(curve, kind: str, label: Fraction, b_lo: float, step: float, n: int) -> List[str]:
    """Closed-form and cone checks of one traced edge curve."""
    errs: List[str] = []
    samples = list(curve.samples)
    if len(samples) != n:
        return [f"{kind} {label}: {len(samples)} samples, expected {n}"]
    for i, (b, a, res) in enumerate(samples):
        if abs(b - (b_lo + i * step)) > 1e-12:
            errs.append(f"{kind} {label}: sample {i} at b={b!r}, expected {b_lo + i * step!r}")
        if not (0.0 <= res <= TRACE_TOL):
            errs.append(f"{kind} {label}: bracket width {res!r} at b={b!r} exceeds tol")
        if label.denominator == 1:
            n_int = label.numerator
            exact = None
            if kind == "Al" or (kind == "Br" and b < BL_SWITCH_B):
                exact = n_int - b / TWO_PI
            elif kind == "Ar" or (kind == "Bl" and b < BL_SWITCH_B):
                exact = n_int + b / TWO_PI
            if exact is not None and abs(a - exact) > TRACE_TOL:
                errs.append(
                    f"{kind} {label}: a={a!r} at b={b!r} is off the closed form {exact!r}"
                )
    slack = 2.0 * TRACE_TOL / step
    for (b0, a0, _), (b1, a1, _) in zip(samples, samples[1:]):
        if not b1 > b0:
            errs.append(f"{kind} {label}: samples not increasing in b")
        elif abs(a1 - a0) / (b1 - b0) > 1.0 / TWO_PI + slack:
            errs.append(
                f"{kind} {label}: slope {abs(a1 - a0) / (b1 - b0)!r} between b={b0!r} "
                f"and b={b1!r} leaves the 1/2pi cone"
            )
    return errs


def check_region(region, labels, b_lo: float, step: float, n: int) -> List[str]:
    """Every slice is nonempty and inside the band |rho - a| <= b/2pi allows."""
    lo, hi = labels
    slices = list(region.slices)
    if len(slices) != n:
        return [f"region {lo}..{hi}: {len(slices)} slices, expected {n}"]
    errs = []
    for i, (b, a_left, a_right) in enumerate(slices):
        if abs(b - (b_lo + i * step)) > 1e-12:
            errs.append(f"region {lo}..{hi}: slice {i} at b={b!r}")
        if a_left > a_right:
            errs.append(f"region {lo}..{hi}: empty slice at b={b!r}")
        # rho_minus = lo needs a <= lo + b/2pi, rho_plus = hi needs a >= hi - b/2pi.
        if a_left < float(hi) - b / TWO_PI - TRACE_TOL or a_right > float(lo) + b / TWO_PI + TRACE_TOL:
            errs.append(f"region {lo}..{hi}: slice {(a_left, a_right)} at b={b!r} out of band")
    return errs


def trace_round(seed: int, k: int, size: dict) -> List[Call]:
    """Every (kind, label) edge over a short b window in (1, 3], plus one region."""
    rng = _rng(seed, "trace", k)
    calls: List[Call] = []
    for kind in TRACE_KINDS:
        for label in size["trace_labels"]:
            n = size["trace_samples"][label.denominator]
            step = rng.uniform(0.02, 0.05)
            b_lo = rng.uniform(1.02, 3.0 - (n - 1) * step)
            b_hi = b_lo + (n - 1) * step
            fname = f"{kind}_{_frac_name(label)}.csv"

            def run(outdir, kind=kind, label=label, b_lo=b_lo, b_hi=b_hi, step=step, fname=fname):
                curve = at.trace_curve(kind, label, (b_lo, b_hi), step, tol=TRACE_TOL)
                report = at.lipschitz_check(curve)
                at.export_csv(curve, os.path.join(outdir, fname))
                return curve, report

            def check(out, outdir, kind=kind, label=label, b_lo=b_lo, step=step, fname=fname, n=n):
                curve, report = out
                errs = check_curve(curve, kind, label, b_lo, step, n)
                if not report.ok:
                    errs.append(f"{kind} {label}: lipschitz_check reports a cone violation")
                return errs + _check_curve_csv(os.path.join(outdir, fname), curve.samples)

            calls.append(Call(f"trace:{kind}:{label}", run, check, n, (fname,)))
    n_reg = size["region_samples"]
    step = rng.uniform(0.02, 0.05)
    b_lo = rng.uniform(2.0, 2.9 - (n_reg - 1) * step)
    b_hi = b_lo + (n_reg - 1) * step
    fname = f"region_{_frac_name(REGION_LABELS[0])}_{_frac_name(REGION_LABELS[1])}.csv"

    def run_region(outdir):
        region = at.region_boundary(REGION_LABELS, (b_lo, b_hi), step, tol=TRACE_TOL)
        at.export_csv(region, os.path.join(outdir, fname))
        return region

    def check_region_call(region, outdir):
        errs = check_region(region, REGION_LABELS, b_lo, step, n_reg)
        with open(os.path.join(outdir, fname), encoding="ascii") as fh:
            lines = fh.read().splitlines()
        if lines[:1] != ["b,a_left,a_right"] or len(lines) != len(region.slices) + 1:
            errs.append(f"{fname}: bad header or row count")
        return errs

    calls.append(Call("trace:region", run_region, check_region_call, n_reg, (fname,)))
    rng.shuffle(calls)
    return calls


# --------------------------------------------------------------- raster ---


def check_raster(g, da: float, n: int) -> List[str]:
    """Closed-form checks of an n x n raster with cell width da in a."""
    errs: List[str] = []
    if (g.na, g.nb) != (n, n):
        return [f"raster shape {g.na}x{g.nb}, expected {n}x{n}"]
    err = g.err
    for j in range(n):
        b = float(g.bvec[j])
        half = b / TWO_PI
        for i in range(n):
            a = float(g.avec[i])
            lo = float(g.rho_minus[j, i])
            hi = float(g.rho_plus[j, i])
            if lo > hi + err:
                errs.append(f"cell a={a!r} b={b!r}: rho_minus {lo!r} > rho_plus {hi!r}")
            if lo < a - half - err or hi > a + half + err:
                errs.append(f"cell a={a!r} b={b!r}: interval [{lo!r}, {hi!r}] outside a +- b/2pi")
            if b <= 1.0 and abs(lo - hi) > err:
                errs.append(f"cell a={a!r} b={b!r}: b <= 1 but rho_minus != rho_plus")
            if b <= BL_SWITCH_B:
                n_int = round(a)
                if abs(a - n_int) < half - da:
                    want = Fraction(n_int)
                    if g.lock_lo[j][i] != want or g.lock_hi[j][i] != want:
                        errs.append(
                            f"cell a={a!r} b={b!r}: inside the {n_int}/1 tongue but locks "
                            f"({g.lock_lo[j][i]}, {g.lock_hi[j][i]})"
                        )
        if len(errs) > 10:
            break
    return errs


def raster_round(seed: int, k: int, size: dict) -> List[Call]:
    """One raster over roughly [0, 1] x [0, 3], drawn as PPM and dumped as CSV."""
    rng = _rng(seed, "raster", k)
    n = size["raster_n"]
    a_min = rng.uniform(-0.02, 0.02)
    a_max = a_min + rng.uniform(0.98, 1.02)
    b_min = rng.uniform(0.0, 0.05)
    b_max = rng.uniform(2.95, 3.05)

    def run(outdir):
        grid = at.raster(a_min, a_max, b_min, b_max, n, n)
        with open(os.path.join(outdir, "raster.ppm"), "wb") as fh:
            fh.write(at.render_ppm(grid))
        at.export_csv(grid, os.path.join(outdir, "raster.csv"))
        return grid

    def check(grid, outdir):
        errs = check_raster(grid, (a_max - a_min) / n, n)
        header = f"P6\n{n} {n}\n255\n".encode("ascii")
        with open(os.path.join(outdir, "raster.ppm"), "rb") as fh:
            ppm = fh.read()
        if not ppm.startswith(header) or len(ppm) != len(header) + 3 * n * n:
            errs.append("raster.ppm: bad header or size")
        with open(os.path.join(outdir, "raster.csv"), encoding="ascii") as fh:
            lines = fh.read().splitlines()
        if len(lines) != n * n + 1 or not lines[0].startswith("a,b,rho_minus,rho_plus,"):
            errs.append("raster.csv: bad header or row count")
        return errs

    return [Call("raster", run, check, n * n, ("raster.ppm", "raster.csv"))]


# ---------------------------------------------------------------- query ---


def _lift_q(a: float, b: float, x: float, q: int) -> float:
    coef = b / TWO_PI
    y = x
    for _ in range(q):
        y = y + a + coef * math.sin(TWO_PI * y)
    return y


def cli_call(argv: List[str]) -> Tuple[int, str, str]:
    """Run arnoldtongues.cli.main in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = at.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _transcript(out) -> bytes:
    code, stdout, _ = out
    return f"{code}\n{stdout}".encode("utf-8")


def _parse(out, allowed=(0,)) -> Tuple[Optional[dict], List[str]]:
    code, stdout, stderr = out
    if code not in allowed:
        return None, [f"exit code {code}: {stderr.strip()[-300:]}"]
    if "Traceback" in stderr:
        return None, ["traceback on stderr"]
    if code != 0:
        if not stderr.startswith("error: "):
            return None, [f"exit {code} without a documented error message"]
        return None, []
    try:
        return json.loads(stdout), []
    except ValueError:
        return None, ["stdout is not JSON"]


def check_interval(res: dict, a: float, b: float) -> List[str]:
    lo, hi, err = res["lo"], res["hi"], res["err"]
    errs = []
    if lo > hi + err:
        errs.append(f"interval at a={a!r} b={b!r}: lo {lo!r} > hi {hi!r} + err")
    half = b / TWO_PI
    if lo < a - half - err or hi > a + half + err:
        errs.append(f"interval at a={a!r} b={b!r}: [{lo!r}, {hi!r}] outside a +- b/2pi")
    return errs


def check_orbit(res: dict, a: float, b: float, label: Fraction, interval: Optional[dict]) -> List[str]:
    """Orbit points close under F^q, recomputed here in plain math."""
    p, q = label.numerator, label.denominator
    errs = []
    orbits = res.get("orbits") or []
    if not orbits or orbits[0]["name"] != "O":
        return [f"orbit at a={a!r} b={b!r} {label}: no distinguished orbit O"]
    for o in orbits:
        pts = o["points"]
        if len(pts) != q or pts != sorted(pts) or not all(0.0 <= x < 1.0 for x in pts):
            errs.append(f"orbit {o['name']} {label}: points {pts} are not q sorted circle points")
            continue
        for x in pts:
            if abs(_lift_q(a, b, x, q) - x - p) > 1e-8:
                errs.append(f"orbit {o['name']} {label}: F^q({x!r}) - x - p does not vanish")
        mult = math.prod(1.0 + b * math.cos(TWO_PI * x) for x in pts)
        if abs(mult - o["multiplier"]) > 1e-6 * max(1.0, abs(mult)):
            errs.append(f"orbit {o['name']} {label}: multiplier {o['multiplier']!r}, recomputed {mult!r}")
    if res.get("saddle_node") is None or res["saddle_node"] < 0.0:
        errs.append(f"orbit {label}: missing boundary residuals")
    if interval is not None:
        x = float(label)
        if not interval["lo"] - interval["err"] <= x <= interval["hi"] + interval["err"]:
            errs.append(f"orbit {label} found outside the rotation interval")
    return errs


def check_rho_test(res: dict, label: Fraction, interval: Optional[dict]) -> List[str]:
    """The plus-envelope certificate agrees with the interval's upper end."""
    ok = res.get("test_result")
    if not isinstance(ok, bool):
        return ["rho --test gave no boolean"]
    if interval is None:
        return []
    near = abs(float(label) - interval["hi"]) <= interval["err"] + 1e-12
    lock = interval["lock_hi"] == f"{label.numerator}/{label.denominator}"
    if ok and not near:
        return [f"rho --test {label} certified, but hi = {interval['hi']!r}"]
    if lock and not ok:
        return [f"rho --test {label} refused the interval's certified lock"]
    return []


def query_round(seed: int, k: int, size: dict) -> List[Call]:
    """Per point: interval, orbit --pair --residuals, rho --test; one point per q <= 5."""
    rng = _rng(seed, "query", k)
    qs = list(QUERY_Q)
    rng.shuffle(qs)
    calls: List[Call] = []
    for q in qs:
        a = rng.uniform(0.0, 1.0)
        b = rng.uniform(1.5, 4.0)
        label = Fraction(round(a * q), q)
        pt = ["--a", repr(a), "--b", repr(b)]
        rot = f"{label.numerator}/{label.denominator}"
        shared: Dict[str, object] = {}

        def run_interval(outdir, pt=pt):
            return cli_call(["interval", *pt, "--json"])

        def check_interval_call(out, outdir, a=a, b=b, shared=shared):
            res, errs = _parse(out)
            if res is None:
                return errs
            shared["interval"] = res
            return check_interval(res, a, b)

        def run_orbit(outdir, pt=pt, rot=rot):
            return cli_call(["orbit", *pt, "--rot", rot, "--pair", "--residuals", "--json"])

        def check_orbit_call(out, outdir, a=a, b=b, label=label, shared=shared):
            res, errs = _parse(out, allowed=(0, 3))
            if res is None:
                return errs
            return check_orbit(res, a, b, label, shared.get("interval"))

        def run_rho(outdir, pt=pt, rot=rot):
            return cli_call(["rho", *pt, "--test", rot, "--json"])

        def check_rho_call(out, outdir, label=label, shared=shared):
            res, errs = _parse(out)
            if res is None:
                return errs
            return check_rho_test(res, label, shared.get("interval"))

        calls.append(Call(f"query:interval:q{q}", run_interval, check_interval_call, 1, transcript=_transcript))
        calls.append(Call(f"query:orbit:q{q}", run_orbit, check_orbit_call, 1, transcript=_transcript))
        calls.append(Call(f"query:rho:q{q}", run_rho, check_rho_call, 1, transcript=_transcript))
    return calls


ROUNDS = {"trace": trace_round, "raster": raster_round, "query": query_round}
