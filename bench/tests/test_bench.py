"""Tests of the benchmark itself: metric contract, output checks, tracer.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import arnoldtongues
import arnoldtongues.cli
import child
import run
import tracer
import workloads

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1
    want = run.END_TO_END if trace == 0 else run.PER_LAYER
    assert {k: m["unit"] for k, m in last["metrics"].items()} == want
    for name, m in last["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if trace == 0:
            assert m["value"] > 0, name
        # Every metric is printed by name with its unit before the JSON line.
        assert any(line.split()[:1] == [name] and line.endswith(m["unit"])
                   for line in out.stdout.splitlines()), name


def test_missing_sources_fail_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _bench("--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _run_round(workload, tmp_path, seed=5):
    first = workloads.ROUNDS[workload](seed, 0, workloads.TINY)
    return child.run_rounds(workload, seed, workloads.TINY, str(tmp_path), rounds=1, first=first)


def test_clean_round_has_no_failures(tmp_path):
    res = _run_round("trace", tmp_path)
    assert res["failed"] == 0, res["failures"]
    assert res["attempted"] == 4 * len(workloads.TINY["trace_labels"]) + 1


def test_shifted_curve_sample_is_counted(tmp_path, monkeypatch):
    real = arnoldtongues.trace_curve

    def shifted(kind, label, *args, **kwargs):
        curve = real(kind, label, *args, **kwargs)
        if kind == "Al" and label == 0:
            b, a, res = curve.samples[1]
            samples = curve.samples[:1] + ((b, a + 1e-6, res),) + curve.samples[2:]
            curve = type(curve)(curve.kind, curve.label, samples, curve.tol, curve.step)
        return curve

    monkeypatch.setattr(arnoldtongues, "trace_curve", shifted)
    res = _run_round("trace", tmp_path)
    assert res["failed"] == 1
    assert "closed form" in res["failures"][0]


def test_wrong_exit_code_is_counted(tmp_path, monkeypatch):
    real = arnoldtongues.cli.main

    def broken(argv):
        return 1 if argv[0] == "rho" else real(argv)

    monkeypatch.setattr(arnoldtongues.cli, "main", broken)
    res = _run_round("query", tmp_path)
    assert res["attempted"] == 15
    assert res["failed"] == len(workloads.QUERY_Q)
    assert all("exit code 1" in f for f in res["failures"])


def test_raster_lock_outside_tongue_is_counted(tmp_path, monkeypatch):
    real = arnoldtongues.raster

    def unlocked(*args, **kwargs):
        grid = real(*args, **kwargs)
        # A cell well inside the 0/1 tongue |a| <= b/2pi.
        j = min(range(grid.nb), key=lambda j: abs(grid.bvec[j] - 1.2))
        grid.lock_hi[j][0] = None
        return grid

    monkeypatch.setattr(arnoldtongues, "raster", unlocked)
    res = _run_round("raster", tmp_path)
    assert res["failed"] == 1
    assert "tongue" in res["failures"][0]


def _bindings():
    return {
        (mod.__name__, attr): value
        for mod in tracer._package_modules()
        for attr, value in vars(mod).items()
    }


def test_tracer_leaves_no_rebinding_behind():
    from arnoldtongues import maps, rotation, tongues

    before = _bindings()
    eval_before = maps.MonotoneLift.__dict__["eval"]
    t = tracer.Tracer()
    with t:
        assert tongues.level_sign is rotation.level_sign is arnoldtongues.level_sign
        assert rotation.envelope is tongues.envelope is maps.envelope
        assert getattr(tongues.envelope, "__bench_traced__", False)
        m = arnoldtongues.envelope(arnoldtongues.Params(0.1, 2.0), arnoldtongues.PLUS)
        arnoldtongues.level_sign(m, Fraction(0))
    assert tracer.leftover_wrappers() == []
    assert maps.MonotoneLift.__dict__["eval"] is eval_before
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())
    table = t.span_table()
    assert table["rotation.level_sign"]["calls"] == 1
    assert table["maps.envelope"]["calls"] == 1
    assert t.counts["maps.MonotoneLift.eval"] > 0


def test_compare_reports_changed_digest(tmp_path, capsys):
    base = {"workload": "raster", "seed": 1, "trace": 0,
            "metrics": {"items_per_s": {"value": 10.0, "unit": "1/s"}},
            "digests": {"r0000/raster.csv": "aa", "r0000/raster.ppm": "bb"}}
    new = json.loads(json.dumps(base))
    new["metrics"]["items_per_s"]["value"] = 20.0
    new["digests"]["r0000/raster.ppm"] = "cc"
    (tmp_path / "a.json").write_text(json.dumps(base))
    (tmp_path / "b.json").write_text(json.dumps(new))
    assert run.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 0
    text = capsys.readouterr().out
    assert "2.0000" in text
    assert "changed r0000/raster.ppm" in text
    assert "raster.csv" not in text.split("digests compared")[1].replace("changed r0000/raster.ppm", "")
