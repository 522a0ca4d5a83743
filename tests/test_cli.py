"""Command line interface: output shapes, exit codes, file side effects."""

import json

import pytest

from arnoldtongues import load_curve_csv, rotation
from arnoldtongues.cli import _build_parser, main

SUBCOMMANDS = {
    "lift",
    "rho",
    "snap",
    "interval",
    "orbit",
    "edges",
    "trace",
    "region",
    "intersect",
    "raster",
    "audit-lipschitz",
}


def run_json(capsys, argv):
    rc = main(argv + ["--json"])
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)


def test_parser_covers_all_subcommands():
    parser = _build_parser()
    choices = parser._subparsers._group_actions[0].choices
    assert SUBCOMMANDS <= set(choices)


def test_interval_rigid_rotation(capsys):
    out = run_json(capsys, ["interval", "--a", "0.25", "--b", "0"])
    assert out["lo"] == pytest.approx(0.25, abs=1e-9)
    assert out["hi"] == pytest.approx(0.25, abs=1e-9)
    assert out["width"] == pytest.approx(0.0, abs=1e-12)
    assert out["lock_lo"] == "1/4"
    assert out["lock_hi"] == "1/4"


def test_interval_brute_keys(capsys):
    out = run_json(
        capsys,
        [
            "interval", "--a", "0.25", "--b", "0", "--brute",
            "--brute-starts", "8", "--brute-iters", "200",
        ],
    )
    assert out["brute_lo"] == pytest.approx(0.25, abs=1e-9)
    assert out["brute_hi"] == pytest.approx(0.25, abs=1e-9)


def test_allocation_failure_is_a_usage_error(capsys, monkeypatch):
    # numpy raises a MemoryError subclass for an array too large to allocate,
    # as for --brute-starts 1000000000000; the patch stands in for that run.
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr("arnoldtongues.cli.rho_bounds_bruteforce", too_large)
    rc = main(["interval", "--a", "0.1", "--b", "2", "--brute", "--brute-starts", "1000000000000"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "usage error: Unable to allocate 7.28 TiB for an array\n"


def test_orbit_failure_exit_code(capsys):
    rc = main(["orbit", "--a", "0.25", "--b", "0", "--rot", "0/1"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error:")


def test_edges_closed_form(capsys):
    out = run_json(capsys, ["edges", "--b", "0.5", "--rot", "0/1"])
    assert out["a_left"] == pytest.approx(-0.0795775, abs=1e-6)
    assert out["a_right"] == pytest.approx(0.0795775, abs=1e-6)
    assert out["envelope"] == "plus"

    again = run_json(capsys, ["edges", "--b", "1/2", "--rot", "0/1"])
    assert again["a_left"] == out["a_left"]
    assert again["a_right"] == out["a_right"]


def test_usage_error_exit_codes(capsys, tmp_path):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["edges", "--rot", "0/1"]) == 2
    capsys.readouterr()
    base = ["--b-min", "1", "--b-max", "2"]
    assert main(["intersect", "--left", "Zl:0/1", "--right", "Bl:1/1"] + base) == 2
    capsys.readouterr()
    rc = main(["intersect", "--left", "Bl:1/1", "--right", "Br:0/1"] + base)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("usage error:")
    ras = ["raster", "--a-min", "0", "--a-max", "1", "--b-min", "0", "--b-max", "1"]
    ras += ["--na", "1", "--nb", "1"]
    rev = ["raster", "--na", "2", "--nb", "2"]
    header = "b,a,kind,p,q,residual\n"
    short, zero_q = tmp_path / "short.csv", tmp_path / "zero_q.csv"
    short.write_text(header + "1.1,0.1,Bl,0,1,1e-9\n1.2,0.2\n", encoding="ascii")
    zero_q.write_text(header + "1.1,0.1,Bl,0,0,1e-9\n1.2,0.2,Bl,0,0,1e-9\n", encoding="ascii")
    not_a_number = tmp_path / "abc.csv"
    not_a_number.write_text(header + "1.1,abc,Bl,0,1,1e-9\n", encoding="ascii")
    for argv in (
        ["interval", "--a", "1/0", "--b", "2"],
        ["orbit", "--a", "0.1", "--b", "2", "--rot", "1/0"],
        ["interval", "--a", "0.1", "--b", "2", "--tol", "0"],
        ras + ["--n-iter", "0"],
        ["edges", "--b", "2", "--rot", "0/1", "--tol", "-1"],
        ras + ["--workers", "-3"],
        ["intersect", "--left", "Bl:0/1", "--right", "Br:0/1", "--b-min", "3", "--b-max", "1"],
        ["intersect", "--left", "Bl:0/1", "--right", "Br:0/1"] + base + ["--tol", "-1"],
        ["region", "--lo", "0", "--hi", "1", "--b-min", "7.2", "--b-max", "6.8", "--step", "0.1"],
        rev + ["--a-min", "1", "--a-max", "0", "--b-min", "0", "--b-max", "1"],
        rev + ["--a-min", "0", "--a-max", "1", "--b-min", "1", "--b-max", "0"],
        rev + ["--a-min", "nan", "--a-max", "1", "--b-min", "0", "--b-max", "1"],
        rev + ["--a-min", "0", "--a-max", "inf", "--b-min", "0", "--b-max", "1"],
        ["snap", "--value", "inf", "--tol", "0.1"],
        ["snap", "--value", "nan", "--tol", "0.1"],
        ["rho", "--a", "0.1", "--b", "2", "--x0", "inf"],
        ["rho", "--a", "0.28", "--b", "2", "--test", "1/70"],
        ["trace", "--kind", "Bl", "--rot", "0/1", "--b-min", "1", "--b-max", "2", "--step", "inf"],
        ["snap", "--value", "0.5", "--tol", "nan"],
        ["rho", "--a", "1e308", "--b", "2"],
        ["lift", "--a", "0.3", "--b", "2", "--x", "nan", "--json"],
        ["lift", "--a", "0.3", "--b", "2", "--x", "inf", "--schwarzian"],
        ["lift", "--a", "0", "--b", "1", "--order", "2", "--schwarzian"],
        ["lift", "--a", "0", "--b", "1", "--order", "2"],
        ["lift", "--a", "0", "--b", "1", "--schwarzian"],
        ["rho", "--a", "0.3", "--b", "2", "--q-max", "-1"],
        ["interval", "--a", "0.3", "--b", "2", "--q-max", "-1"],
        ["audit-lipschitz", "--in", str(short)],
        ["audit-lipschitz", "--in", str(zero_q)],
        ["audit-lipschitz", "--in", str(not_a_number)],
        ["edges", "--b", "-1", "--rot", "0/1"],
        ["edges", "--b", "nan", "--rot", "0/1"],
        ["edges", "--b", "inf", "--rot", "0/1"],
        ["edges", "--b", "2", "--rot", "0/1", "--window", "1", "0"],
        ["edges", "--b", "2", "--rot", "0/1", "--window", "nan", "1"],
        ["region", "--lo", "0/1", "--hi", "1/3", "--b-min", "-1", "--b-max", "0", "--step", "0.5"],
        ["region", "--lo", "0/1", "--hi", "1/3", "--b-min=-inf", "--b-max", "0", "--step", "0.5"],
        ["region", "--lo", "0/1", "--hi", "1/3", "--b-min", "0", "--b-max", "inf", "--step", "0.5"],
        ["trace", "--kind", "Bl", "--rot", "0/1", "--b-min", "0", "--b-max", "1e300", "--step", "1e-300"],
        ["region", "--lo", "0/1", "--hi", "1/3", "--b-min", "0", "--b-max", "1e300", "--step", "1e-300"],
        ["intersect", "--left", "Bl:0/1", "--right", "Br:0/1", "--b-min", "0", "--b-max", "1e300", "--step", "1e-300"],
        ["interval", "--a", "0.2", "--b", "2", "--tol", "1e-320"],
        ["snap", "--value", "1e308", "--tol", "1", "--q-max", "2"],
        # above the caps of 1e9 iterations and 1e6 b samples
        ["interval", "--a", "0.2", "--b", "2", "--tol", "1e-300"],
        ["interval", "--a", "0.2", "--b", "2", "--n-iter", "1000000001"],
        ["interval", "--a", "0.2", "--b", "2", "--brute", "--brute-iters", "1000000001"],
        ["rho", "--a", "0.2", "--b", "2", "--n-iter", "10000000000"],
        ["orbit", "--a", "0.3", "--b", "2", "--rot", "1/3", "--itinerary", "10000000000"],
        ras + ["--n-iter", "1000000001"],
        ["intersect", "--left", "Bl:0/1", "--right", "Br:0/1", "--b-min", "1", "--b-max", "1e9", "--step", "1"],
        ["trace", "--kind", "Bl", "--rot", "0/1", "--b-min", "1", "--b-max", "1e9", "--step", "1"],
        ["region", "--lo", "0/1", "--hi", "1/1", "--b-min", "1", "--b-max", "1e9", "--step", "1"],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("usage"), argv


def test_file_errors_are_usage_errors(capsys, tmp_path):
    missing = tmp_path / "missing.csv"
    unwritable = str(tmp_path / "no" / "such" / "dir" / "x.csv")
    trace = ["trace", "--kind", "Bl", "--rot", "0/1", "--b-min", "1.1", "--b-max", "1.2"]
    for argv in (
        ["audit-lipschitz", "--in", str(missing)],
        trace + ["--step", "0.05", "--csv", unwritable],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "No such file or directory" in err, argv


def test_unwritable_outputs_fail_before_any_work(capsys, tmp_path, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("computed before checking the output path")

    for name in ("trace_curve", "region_boundary", "raster"):
        monkeypatch.setattr(f"arnoldtongues.cli.{name}", must_not_run)
    trace = ["trace", "--kind", "Bl", "--rot", "0/1", "--b-min", "1.1", "--b-max", "1.2"]
    trace += ["--step", "0.05"]
    region = ["region", "--lo", "0/1", "--hi", "1/1", "--b-min", "7", "--b-max", "7", "--step", "1"]
    ras = ["raster", "--a-min", "0", "--a-max", "1", "--b-min", "0", "--b-max", "1"]
    ras += ["--na", "2", "--nb", "2"]
    plain = tmp_path / "plain"
    plain.write_text("", encoding="ascii")
    for path, reason in (
        (str(tmp_path / "no" / "such" / "x.out"), "No such file or directory"),
        (str(plain / "x.out"), "Not a directory"),
        (str(tmp_path), "Is a directory"),
    ):
        for argv in (
            trace + ["--csv", path],
            region + ["--csv", path],
            ras + ["--csv", path],
            ras + ["--img", path],
            ras + ["--img", str(tmp_path / "ok.ppm"), "--csv", path],
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and reason in err and path in err, argv
    assert list(tmp_path.iterdir()) == [plain]


def test_q_max_default_per_subcommand(capsys):
    # raster's default of 32 must not leak into the other subcommands
    out = run_json(capsys, ["rho", "--a", "0.025", "--b", "0.5", "--test", "1/40"])
    assert out["test_label"] == "1/40"
    assert out["test_result"] is False
    parser = _build_parser()
    ras = ["raster", "--a-min", "0", "--a-max", "1", "--b-min", "0", "--b-max", "1"]
    assert parser.parse_args(ras + ["--na", "1", "--nb", "1"]).q_max == 32
    pt = ["--a", "0.1", "--b", "2"]
    for argv in (
        ["lift", *pt],
        ["rho", *pt],
        ["snap", "--value", "0.5", "--tol", "0.1"],
        ["interval", *pt],
        ["orbit", *pt, "--rot", "0/1"],
        ["edges", "--b", "2", "--rot", "0/1"],
        ["trace", "--kind", "Bl", "--rot", "0/1", "--b-min", "1", "--b-max", "2", "--step", "0.1"],
        ["region", "--lo", "0/1", "--hi", "1/1", "--b-min", "7", "--b-max", "7", "--step", "1"],
        ["intersect", "--left", "Br:0/1", "--right", "Bl:1/1", "--b-min", "8", "--b-max", "9"],
        ["audit-lipschitz", "--in", "curve.csv"],
    ):
        assert parser.parse_args(argv).q_max == 64, argv
    assert parser.parse_args(ras + ["--na", "1", "--nb", "1", "--q-max", "7"]).q_max == 7


def test_parser_is_built_once_and_reused(capsys):
    # Alternating subcommands through the one shared parser give the stdout
    # and exit code of a first call; raster's q_max of 32 leaks nowhere.
    ras = ["raster", "--a-min", "0", "--a-max", "1", "--b-min", "0", "--b-max", "1"]
    ras += ["--na", "2", "--nb", "2", "--n-iter", "50", "--json"]
    snap = ["snap", "--value", "0.5", "--tol", "0.1", "--json"]
    rho = ["rho", "--a", "0.025", "--b", "0.5", "--test", "1/40"]
    nan_x = ["lift", "--a", "0", "--b", "1", "--x", "nan"]

    def run(argv):
        rc = main(argv)
        return rc, capsys.readouterr().out

    first = {}
    for argv in (ras, snap, rho, nan_x):
        _build_parser.cache_clear()
        first[tuple(argv)] = run(argv)
    assert json.loads(first[tuple(snap)][1])["q_max"] == 64
    assert first[tuple(rho)][0] == 0 and first[tuple(nan_x)] == (2, "")
    _build_parser.cache_clear()
    for argv in (ras, snap, ras, rho, nan_x, snap, rho, ras):
        assert run(argv) == first[tuple(argv)], argv
    assert _build_parser.cache_info().misses == 1
    assert _build_parser() is _build_parser()


def test_lift_full_report(capsys):
    out = run_json(
        capsys,
        [
            "lift", "--a", "0.1", "--b", "2", "--x", "0.25",
            "--order", "3", "--schwarzian", "--critical", "--envelope", "plus",
        ],
    )
    assert out["value"] == pytest.approx(0.1 + 0.25 + 2.0 / (2 * 3.141592653589793))
    assert out["deriv3"] < 0.0
    assert out["schwarzian"] < 0.0
    assert len(out["critical_points"]) == 2
    assert not out["degenerate"]
    assert out["plateau_start"] < out["plateau_end"]
    assert "envelope_value" in out


def test_rho_certificate_flag(capsys):
    yes = run_json(capsys, ["rho", "--a", "0.25", "--b", "0", "--test", "1/4"])
    assert yes["test_label"] == "1/4"
    assert yes["test_result"] is True
    no = run_json(capsys, ["rho", "--a", "0.25", "--b", "0", "--test", "0/1"])
    assert no["test_result"] is False


def test_query_output_does_not_depend_on_the_cycle_proof(capsys, monkeypatch):
    # interval and rho --test on both sides of b = 1, locked and not: with the
    # proof patched to decide nothing, level_sign answers, and stdout is the same.
    argvs = []
    for a in (0.05, 0.28, 0.5, 0.71, 0.93):
        for b in (0.0, 0.3, 0.97, 1.5, 2.6, 3.8):
            pt = ["--a", repr(a), "--b", repr(b), "--json"]
            argvs.append(["interval", *pt])
            for which in ("plus", "minus"):
                for label in ("0/1", "1/4", "1/3", "1/2", "2/3", "3/4", "1/1"):
                    argvs.append(["rho", *pt, "--envelope", which, "--test", label])

    def stdout(argv):
        assert main(argv) == 0, argv
        return capsys.readouterr().out

    with_proof = [stdout(argv) for argv in argvs]
    monkeypatch.setattr(rotation, "_cycle_rho", lambda *args: None)
    assert [stdout(argv) for argv in argvs] == with_proof
    assert sum('"test_result": true' in out for out in with_proof) > 20


def test_rho_estimate_keys(capsys):
    out = run_json(capsys, ["rho", "--a", "0.25", "--b", "0", "--n-iter", "500"])
    assert out["value"] == pytest.approx(0.25, abs=1e-12)
    assert out["error_bound"] == pytest.approx(1.0 / 500)
    assert out["exact_rational"] == "1/4"
    assert out["n_iter"] == 500


def test_snap_output(capsys):
    out = run_json(capsys, ["snap", "--value", "0.500001", "--tol", "1e-3"])
    assert out["snap"] == "1/2"
    rc = main(["snap", "--value", "0.500001", "--tol", "1e-3"])
    text = capsys.readouterr().out
    assert rc == 0
    assert "snap = 1/2" in text


def test_trace_csv_then_audit(capsys, tmp_path):
    path = str(tmp_path / "curve.csv")
    out = run_json(
        capsys,
        [
            "trace", "--kind", "Al", "--rot", "0/1",
            "--b-min", "0.2", "--b-max", "0.6", "--step", "0.1", "--csv", path,
        ],
    )
    assert out["csv"] == path
    assert out["n_samples"] == 5
    assert out["lipschitz_ok"] is True
    assert "samples" not in out

    audit = run_json(capsys, ["audit-lipschitz", "--in", path])
    assert audit["kind"] == "Al"
    assert audit["label"] == "0/1"
    assert audit["n_samples"] == 5
    assert audit["ok"] is True


def test_one_sample_trace_writes_its_csv(capsys, tmp_path):
    # Equal ends give one sample: no slope to audit, but the CSV and the sample.
    path = str(tmp_path / "one.csv")
    argv = ["trace", "--kind", "Al", "--rot", "1/3", "--b-min", "2", "--b-max", "2", "--step", "0.1"]
    out = run_json(capsys, argv + ["--csv", path, "--full"])
    assert out["n_samples"] == 1
    assert out["max_slope"] is None and out["lipschitz_ok"] is None
    assert [s["b"] for s in out["samples"]] == [2.0]
    assert load_curve_csv(path).samples == tuple((s["b"], s["a"], s["residual"]) for s in out["samples"])
    assert main(argv) == 0
    assert "lipschitz_ok = None" in capsys.readouterr().out


def test_infinite_tol_is_a_usage_error(capsys):
    b_range = ["--b-min", "2", "--b-max", "2.1"]
    for argv in (
        ["edges", "--b", "2", "--rot", "1/3"],
        ["trace", "--kind", "Al", "--rot", "1/3", "--step", "0.1"] + b_range,
        ["region", "--lo", "0/1", "--hi", "1/3", "--step", "0.1"] + b_range,
        ["intersect", "--left", "Bl:0/1", "--right", "Br:0/1"] + b_range,
    ):
        assert main(argv + ["--tol", "inf"]) == 2, argv
        assert "tol must be > 0 and finite, got inf" in capsys.readouterr().err, argv


def test_trace_inline_samples(capsys):
    out = run_json(
        capsys,
        [
            "trace", "--kind", "Al", "--rot", "0/1",
            "--b-min", "0.2", "--b-max", "0.4", "--step", "0.1",
        ],
    )
    assert [s["b"] for s in out["samples"]] == pytest.approx([0.2, 0.3, 0.4])


def test_region_single_slice(capsys):
    out = run_json(
        capsys,
        [
            "region", "--lo", "0/1", "--hi", "0/1",
            "--b-min", "0.5", "--b-max", "0.5", "--step", "1",
        ],
    )
    assert out["n_slices"] == 1
    slc = out["slices"][0]
    assert slc["b"] == 0.5
    assert slc["a_left"] == pytest.approx(-0.0795775, abs=1e-6)
    assert slc["a_right"] == pytest.approx(0.0795775, abs=1e-6)


def test_intersect_lower_tip(capsys):
    out = run_json(
        capsys,
        [
            "intersect", "--left", "Ar:0/1", "--right", "Al:1/1",
            "--b-min", "3.1", "--b-max", "3.2",
        ],
    )
    assert out["n_points"] == 1
    pt = out["points"][0]
    assert pt["a"] == pytest.approx(0.5, abs=1e-5)
    assert pt["b"] == pytest.approx(3.14159265, abs=1e-5)
    assert pt["left"] == "Ar:0/1"
    assert pt["right"] == "Al:1/1"
    for key in (
        "left_saddle_node", "left_bl_residual", "left_br_residual",
        "right_saddle_node", "right_bl_residual", "right_br_residual",
    ):
        assert key in pt


def test_orbit_pair_report(capsys):
    out = run_json(
        capsys,
        [
            "orbit", "--a", "0.28", "--b", "2", "--rot", "0/1",
            "--pair", "--itinerary", "4", "--residuals",
        ],
    )
    names = [rec["name"] for rec in out["orbits"]]
    assert names == ["O", "O_prime"]
    for rec in out["orbits"]:
        assert rec["itinerary"] == "LLLL"
        assert len(rec["points"]) == 1
    assert out["o_prime_absent"] is False
    assert out["bl_residual"] is not None


def test_orbit_residuals_follow_q_max_and_scan_once(capsys, monkeypatch):
    # 1/65 exceeds the default q_max of 64; --q-max 100 covers the orbits
    # and their residuals alike, and the residuals reuse the pair's one scan.
    from arnoldtongues import orbits

    scans = []
    scan = orbits.find_periodic_orbits

    def counting(*args, **kwargs):
        scans.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(orbits, "find_periodic_orbits", counting)
    argv = ["orbit", "--a", "0.1440498194636761", "--b", "0.9", "--rot", "1/65", "--q-max", "100"]
    for extra in (["--residuals"], ["--pair", "--residuals"]):
        scans.clear()
        out = run_json(capsys, argv + extra)
        assert out["saddle_node"] >= 0.0 and out["o_prime_absent"] is False
        assert len(out["orbits"]) == 2
    assert len(scans) == 1


def test_orbit_residuals_scan_once_with_and_without_pair(capsys, monkeypatch):
    # orbit --residuals takes the residuals' pair from its own listing: one orbit scan
    # with or without --pair, and its bytes are the listing's plus the pair's residuals.
    from arnoldtongues import orbits

    def stdout(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    argv = ["orbit", "--a", "0.28", "--b", "2", "--rot", "0/1", "--json"]
    residual_keys = ("saddle_node", "o_prime_absent", "bl_residual", "br_residual")
    listed = json.loads(stdout(argv))
    paired = json.loads(stdout(argv + ["--pair", "--residuals"]))

    scans = []
    scan = orbits.find_periodic_orbits

    def counting(*args, **kwargs):
        scans.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(orbits, "find_periodic_orbits", counting)
    want = dict(listed, **{k: paired[k] for k in residual_keys})
    for extra, expected in ((["--residuals"], want), (["--pair", "--residuals"], paired)):
        scans.clear()
        out = stdout(argv + extra)
        assert len(scans) == 1, extra
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n", extra


def test_raster_files(capsys, tmp_path):
    img = str(tmp_path / "grid.ppm")
    csv = str(tmp_path / "grid.csv")
    out = run_json(
        capsys,
        [
            "raster", "--a-min", "-0.05", "--a-max", "0.05",
            "--b-min", "0.4", "--b-max", "0.6", "--na", "1", "--nb", "1",
            "--n-iter", "200", "--img", img, "--csv", csv,
        ],
    )
    assert out["cells"] == 1
    assert out["locked_cells"] == 1
    assert out["img"] == img and out["csv"] == csv
    with open(img, "rb") as fh:
        data = fh.read()
    assert data.startswith(b"P6\n1 1\n255\n")
    assert len(data) == 14
    with open(csv, "r", encoding="ascii") as fh:
        assert len(fh.read().splitlines()) == 2
