"""Command line interface: output shapes, exit codes, file side effects."""

import json

import pytest

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
        ["trace", "--kind", "Bl", "--rot", "0/1", "--b-min", "1", "--b-max", "2", "--step", "inf"],
        ["snap", "--value", "0.5", "--tol", "nan"],
        ["rho", "--a", "1e308", "--b", "2"],
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
