"""The arnoldtongues benchmark: trace, raster and query workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload trace --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --compare OLD.json NEW.json

Every workload runs in a fresh interpreter (bench/child.py) with ``src`` on
PYTHONPATH, ARNOLDTONGUES_WORKERS cleared and one BLAS thread, so the
program runs in one process on one thread.  With ``--trace 0`` the
workload runs for ``--seconds`` of calls and the end-to-end metrics are
reported; with ``--trace 1`` a fixed number of rounds runs once plain and
once under the tracer (bench/tracer.py), and the per-layer metrics are
reported.  The last line of output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record (environment,
sample counts, failures, artifact digests) goes to
``.bench_work/results/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import probe_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("trace", "raster", "query")

END_TO_END = {
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "maps.envelope.calls": "count",
    "maps.envelope.self_s": "s",
    "maps.envelope_per_level_sign": "ratio",
    "maps.MonotoneLift.eval.calls": "count",
    "maps.eval_lift.calls": "count",
    "maps.deriv.calls": "count",
    "solvers.bisect_root.calls": "count",
    "solvers.bisect_root.self_s": "s",
    "solvers.golden_min.calls": "count",
    "solvers.golden_min.self_s": "s",
    "rotation.level_sign.calls": "count",
    "rotation.level_sign.self_s": "s",
    "rotation.level_sign.sharpened_ratio": "ratio",
    "rotation.rho_monotone.self_s": "s",
    "rotation.snap_rational.calls": "count",
    "rotation.snap_rational.self_s": "s",
    "rotation.snap_rational.hit_ratio": "ratio",
    "orbits.find_periodic_orbits.calls": "count",
    "orbits.find_periodic_orbits.self_s": "s",
    "orbits.find_periodic_orbits.raised": "count",
    "tongues.trace_curve.self_s": "s",
    "tongues.region_boundary.self_s": "s",
    "tongues.plateau_edges.calls": "count",
    "tongues.boundary_condition_residuals.self_s": "s",
    "tongues.level_sign_per_item": "count/item",
    "sweep.raster.self_s": "s",
    "sweep.render_ppm.self_s": "s",
    "sweep.export_csv.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Call times are scaled to a reference speed: that of a host on which the
# probe in bench/probe.py takes exactly this long.  See _scaled().
PROBE_REF_S = 1e-3
# Probe groups on each side of a call, beyond the two that touch it, that
# estimate the host's speed during it.
PROBE_WINDOW = 2
# Interpreter launches timed for setup_s, after one untimed launch that
# fills the bytecode cache.
SETUP_LAUNCHES = 9
# Probing before and after each of those launches, as for the calls.
SETUP_PROBE_S = 0.03
# Rounds of the plain and traced runs behind the per-layer metrics.
FIXED_ROUNDS = {"trace": 3, "raster": 3, "query": 20}
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("ARNOLDTONGUES_WORKERS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _launch(args, env) -> tuple:
    """Run bench/child.py; returns (spawn time, parsed last output line)."""
    cmd = [sys.executable, str(BENCH / "child.py"), *args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {CHILD_TIMEOUT_S} s: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"child failed with exit {proc.returncode}: {' '.join(args)}\n{proc.stderr[-2000:]}"
        )
    return spawned, json.loads(lines[-1])


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _scaled(res) -> list:
    """Call latencies in reference seconds.

    The host is shared: other tenants slow every process on it by up to a
    half, in phases lasting from milliseconds to minutes.  A fixed piece of
    Python and numpy work (the probe) runs between the calls, outside the
    timed part, for a tenth of the previous call's time.  Each call's time
    is multiplied by PROBE_REF_S over the mean probe time around it, which
    takes the host's speed out of the figure and leaves the program's.
    """
    groups = res["probe_s"]
    out = []
    for i, lat in enumerate(res["latencies_s"]):
        near = [p for g in groups[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 2] for p in g]
        out.append(lat * PROBE_REF_S / statistics.fmean(near))
    return out


def _round_rates(res) -> list:
    """Items per reference second in each round of a child's run."""
    scaled = _scaled(res)
    rates, i = [], 0
    for items, n_calls in zip(res["round_items"], res["round_calls"]):
        rates.append(items / sum(scaled[i:i + n_calls]))
        i += n_calls
    return rates


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    env = _child_env()
    work = ROOT / ".bench_work"
    outdir = work / "artifacts" / f"{workload}-{seed}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed), "--outdir", str(outdir)]
    if tiny:
        common.append("--tiny")

    _launch([*common, "--setup-only"], env)
    setups = []
    for _ in range(SETUP_LAUNCHES):
        near = probe_for(SETUP_PROBE_S)
        spawned, res = _launch([*common, "--setup-only"], env)
        took = res["ready"] - spawned
        near += probe_for(SETUP_PROBE_S)
        setups.append(took * PROBE_REF_S / statistics.fmean(near))

    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "env": {
            "python": platform.python_version(),
            "nproc": _nproc(),
            "git_sha": _git_sha(),
            "arnoldtongues_workers_cleared": True,
            "blas_threads": 1,
        },
    }
    if trace == 0:
        _, res = _launch([*common, "--seconds", str(seconds)], env)
        scaled = _scaled(res)
        lat_ms = sorted(1000.0 * t for t in scaled)
        raw_ms = sorted(1000.0 * t for t in res["latencies_s"])
        metrics = {
            "items_per_s": res["items"] / sum(scaled),
            "call_p50_ms": statistics.median(lat_ms),
            "call_p90_ms": _p90(lat_ms),
            # CPU seconds (own and child processes) per `seconds` of calls:
            # seconds on one core, more when work moves to other cores.
            "cpu_s": res["cpu_s"] / res["busy_s"] * seconds,
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        runs = [res]
        result["samples"] = {
            "calls": len(lat_ms),
            "rounds": res["rounds"],
            "items": res["items"],
            "busy_s": res["busy_s"],
            "setup_launches": len(setups),
            "probe_mean_ms": 1000.0 * statistics.fmean(p for g in res["probe_s"] for p in g),
        }
        result["unscaled"] = {
            "items_per_s": res["items"] / res["busy_s"],
            "call_p50_ms": statistics.median(raw_ms),
            "call_p90_ms": _p90(raw_ms),
        }
        digests = res["digests"]
        correct = res["failed"] == 0
    else:
        rounds = ["--rounds", str(FIXED_ROUNDS[workload])]
        _, plain = _launch([*common, *rounds], env)
        spans = work / "spans" / f"{workload}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        _, traced = _launch([*common, *rounds, "--traced", "--spans", str(spans)], env)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = statistics.median(
            p / t for p, t in zip(_round_rates(plain), _round_rates(traced))
        )
        runs = [plain, traced]
        digests = plain["digests"]
        mismatched = sorted(
            k for k in set(plain["digests"]) | set(traced["digests"])
            if plain["digests"].get(k) != traced["digests"].get(k)
        )
        result["traced_digest_mismatches"] = mismatched
        result["leftover_wrappers"] = traced["leftover_wrappers"]
        result["samples"] = {
            "rounds": FIXED_ROUNDS[workload],
            "items": traced["items"],
            "spans": traced["n_spans"],
            "spans_file": str(spans.relative_to(ROOT)),
        }
        correct = (
            plain["failed"] == 0 and traced["failed"] == 0
            and not mismatched and not traced["leftover_wrappers"]
        )
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result["env"]["numpy"] = runs[0]["numpy"]
    result["correct"] = correct
    result["attempted"] = attempted
    result["failed"] = failed
    result["failed_ratio"] = failed / attempted
    result["failures"] = [f for r in runs for f in r["failures"]][:50]
    units = END_TO_END if trace == 0 else PER_LAYER
    result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    result["digests"] = digests
    if outdir.exists() and not any(outdir.iterdir()):
        outdir.rmdir()
    return result


def _report(result: dict, path: Path) -> None:
    print(
        f"workload {result['workload']}  seed {result['seed']}  "
        f"trace {result['trace']}  git {result['env']['git_sha'][:12]}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':45s} {result['failed_ratio']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(f"  samples: {json.dumps(result['samples'])}")
    print(f"  artifact digests: {len(result['digests'])}, record: {path.relative_to(ROOT)}")
    for line in result["failures"][:10]:
        print(f"  FAILED {line}")
    if result.get("traced_digest_mismatches"):
        print(f"  traced run changed digests: {result['traced_digest_mismatches'][:5]}")
    if result.get("leftover_wrappers"):
        print(f"  tracer left wrappers bound: {result['leftover_wrappers']}")


def _save(result: dict) -> Path:
    out = ROOT / ".bench_work" / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def compare(old_path: str, new_path: str) -> int:
    """Print per-metric ratios new/old and every artifact digest that changed."""
    old = json.loads(Path(old_path).read_text(encoding="utf-8"))
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))
    for key in ("workload", "seed", "trace"):
        if old.get(key) != new.get(key):
            print(f"note: {key} differs: {old.get(key)} vs {new.get(key)}")
    print(f"{'metric':45s} {'old':>12s} {'new':>12s}  new/old")
    for name, m in old["metrics"].items():
        if name not in new["metrics"]:
            continue
        a, b = m["value"], new["metrics"][name]["value"]
        ratio = f"{b / a:.4f}" if a else "n/a"
        print(f"{name:45s} {a:12.6g} {b:12.6g}  {ratio} ({m['unit']})")
    common = sorted(set(old["digests"]) & set(new["digests"]))
    changed = [k for k in common if old["digests"][k] != new["digests"][k]]
    print(f"digests compared: {len(common)}, changed: {len(changed)}")
    for k in changed:
        print(f"  changed {k}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "arnoldtongues" / "cli.py").is_file():
        print(f"error: no arnoldtongues sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace, args.tiny) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        _report(result, _save(result))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
