"""One workload in a fresh interpreter: set up, run the closed loop, report.

Started by run.py with ``src`` on PYTHONPATH and ARNOLDTONGUES_WORKERS
cleared.  Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import arnoldtongues.cli  # noqa: F401  (the import every CLI call pays)

import workloads
from probe import probe_for


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# Probing after each call takes this share of the call's own time, so that
# a long call gets as many probes as several short ones.
PROBE_SHARE = 0.1


def run_rounds(workload, seed, size, outdir, seconds=None, rounds=None, tracer=None, first=None):
    """Issue rounds until `rounds` are done or `seconds` of calls have passed.

    Time is checked only at round boundaries, so every run measures whole
    rounds and therefore the same mix of calls.
    """
    make = workloads.ROUNDS[workload]
    res = {
        "latencies_s": [],
        "probe_s": [],
        "round_items": [],
        "round_calls": [],
        "busy_s": 0.0,
        "cpu_s": 0.0,
        "attempted": 0,
        "failed": 0,
        "items": 0,
        "located_items": 0,
        "failures": [],
        "digests": {},
    }
    k = 0
    dt_prev = 0.0
    while (k < rounds) if rounds is not None else (k == 0 or res["busy_s"] < seconds):
        calls = first if (k == 0 and first is not None) else make(seed, k, size)
        answers = hashlib.sha256()
        items0 = res["items"]
        for i, call in enumerate(calls):
            if tracer is not None:
                tracer.item = f"r{k}:{i}:{call.name}"
            res["probe_s"].append(probe_for(PROBE_SHARE * dt_prev))
            c0 = _cpu_s()
            t0 = time.perf_counter()
            try:
                out, errs = call.run(outdir), None
            except Exception as exc:  # an undocumented error is a failed operation
                out, errs = None, [f"{call.name} raised {type(exc).__name__}: {exc}"]
            dt = time.perf_counter() - t0
            dt_prev = dt
            res["cpu_s"] += _cpu_s() - c0
            res["busy_s"] += dt
            res["latencies_s"].append(dt)
            res["attempted"] += 1
            if errs is None:
                try:
                    errs = call.check(out, outdir)
                except Exception as exc:
                    errs = [f"{call.name}: output check raised {type(exc).__name__}: {exc}"]
            if errs:
                res["failed"] += 1
                res["failures"].extend(f"r{k}:{call.name}: {e}" for e in errs[:3])
            else:
                res["items"] += call.items
                if call.name.startswith("trace:"):
                    res["located_items"] += call.items
            for name in call.artifacts:
                path = os.path.join(outdir, name)
                if os.path.exists(path):
                    res["digests"][f"r{k:04d}/{name}"] = workloads.sha256_file(path)
                    os.remove(path)
            if call.transcript is not None and out is not None:
                answers.update(call.transcript(out))
        res["round_items"].append(res["items"] - items0)
        res["round_calls"].append(len(calls))
        if any(c.transcript is not None for c in calls):
            res["digests"][f"r{k:04d}/answers"] = answers.hexdigest()
        k += 1
    res["probe_s"].append(probe_for(PROBE_SHARE * dt_prev))
    res["rounds"] = k
    res["failures"] = res["failures"][:50]
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(workloads.ROUNDS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--outdir", default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    size = workloads.TINY if args.tiny else workloads.FULL
    first = workloads.ROUNDS[args.workload](args.seed, 0, size)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    os.makedirs(args.outdir, exist_ok=True)
    tracer = None
    if args.traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        res = run_rounds(
            args.workload, args.seed, size, args.outdir,
            seconds=args.seconds, rounds=args.rounds, tracer=tracer, first=first,
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    res["ready"] = ready
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    res["peak_rss_mb"] = (own + kids) / 1024.0
    res["numpy"] = sys.modules["numpy"].__version__
    if tracer is not None:
        res["leftover_wrappers"] = tracing.leftover_wrappers()
        res["layers"] = tracing.layer_metrics(tracer, res["located_items"])
        if args.spans:
            tracer.write_spans(args.spans)
        res["n_spans"] = len(tracer.spans)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
