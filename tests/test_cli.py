import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mexneedlets import cli, truncation
from mexneedlets.cli import main


def run(argv):
    return main(argv)


def test_daubechies_json(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    assert run(["daubechies", "--a", "1.2599210498948732", "--filter", "mexican:r=1",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["ratio"] - 1.0) < 5e-5
    text = capsys.readouterr().out
    assert "B/A" in text


def test_daubechies_normalized_cutoff_tight(tmp_path):
    out = tmp_path / "nc.json"
    assert run(["daubechies", "--a", "2.0", "--filter", "normalized_cutoff",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["ratio"] - 1.0) < 1e-10


def test_daubechies_ratio_trend():
    import io
    from contextlib import redirect_stdout

    ratios = []
    for a in ("1.2599210498948732", "2.0"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert run(["daubechies", "--a", a]) == 0
        line = [ln for ln in buf.getvalue().splitlines() if ln.startswith("B/A")][0]
        ratios.append(float(line.split("=")[1]))
    assert ratios[1] > ratios[0]


def test_kernel_profile_csv(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    assert run(["kernel-profile", "--t", "0.1", "--filter", "mexican:r=1",
                "--method", "series", "--n", "101", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta,value,method,t,filter"
    assert len(lines) == 102
    vals = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    assert np.allclose(vals, vals[::-1], atol=1e-9)  # even symmetry
    printed = capsys.readouterr().out
    assert "max |series - gaussian|" in printed
    diff = float(printed.split("=")[-1])
    assert diff <= 9.5e-4


@pytest.mark.parametrize("t", ["0.2", "10"])
def test_kernel_profile_compares_the_closed_form_only_in_its_range(t, capsys):
    # the closed form is method="auto"'s choice for t < 0.2 alone; at t = 10 it is
    # 1.0e4 away from the series
    assert run(["kernel-profile", "--t", t, "--n", "64"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("filter=mexican:r=1 t=%s method=series points=64" % t)
    assert "series - gaussian" not in printed


def test_kernel_profile_cutoff_oscillates(tmp_path):
    out = tmp_path / "cut.csv"
    assert run(["kernel-profile", "--t", "0.1", "--filter", "cutoff",
                "--method", "series", "--convention", "degree", "--n", "801",
                "--out", str(out)]) == 0
    vals = np.array([float(ln.split(",")[1])
                     for ln in out.read_text().strip().splitlines()[1:]])
    vals = vals[np.abs(vals) > 1e-12]
    assert int(np.sum(np.diff(np.sign(vals)) != 0)) > 3


def test_partition_and_cubature_outputs(tmp_path):
    out = tmp_path / "part.json"
    assert run(["partition", "--j", "0", "--a", "1.26", "--b", "0.5",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    total = sum(c["measure"] for c in doc["cells"])
    assert total == pytest.approx(4 * math.pi, rel=1e-12)

    cub = tmp_path / "rule.csv"
    assert run(["partition", "--cubature-degree", "8", "--out", str(cub)]) == 0
    lines = cub.read_text().strip().splitlines()
    assert lines[0] == "x,y,z,weight"
    weights = [float(ln.split(",")[3]) for ln in lines[1:]]
    assert sum(weights) == pytest.approx(4 * math.pi, rel=1e-12)


def test_frame_verify_modes(tmp_path):
    out = tmp_path / "fv.json"
    assert run(["frame-verify", "--a", "1.2599210498948732", "--b", "0.5",
                "--filter", "mexican:r=1", "--l-max", "4", "--trials", "3",
                "--seed", "1", "--j-min", "-10", "--j-max", "2",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["A_emp"] > 0 and doc["ratio"] >= 1

    outn = tmp_path / "needlet.json"
    assert run(["frame-verify", "--mode", "needlet", "--l-max", "16",
                "--trials", "3", "--out", str(outn)]) == 0
    doc = json.loads(outn.read_text())
    assert abs(doc["ratio"] - 1.0) < 1e-8


def test_truncation_fits_c0_at_the_level_of_its_reports(monkeypatch):
    frequency_bound = truncation.frequency_bound
    levels = []

    def recording(spec, J, L, *args, **kwargs):
        levels.append(L)
        return frequency_bound(spec, J, L, *args, **kwargs)

    monkeypatch.setattr(truncation, "frequency_bound", recording)  # the fit's bounds
    monkeypatch.setattr(cli, "frequency_bound", recording)  # the reports' bounds
    assert run(["truncation", "--L", "3", "--trials", "1", "--calibrate", "1"]) == 0
    assert levels == [3.0, 3.0]


@pytest.mark.parametrize("command", ["daubechies", "kernel-profile", "partition", "frame-verify",
                                     "truncation", "spatial", "needlet-diag"])
def test_every_subcommand_runs_at_its_defaults(command, capsys):
    assert run([command]) == 0
    assert capsys.readouterr().err == ""


def _strict_json(path):
    def reject(constant):
        raise ValueError("non-standard JSON constant %s" % constant)

    return json.loads(path.read_text(), parse_constant=reject)


def test_out_files_are_strict_json_with_null_for_non_finite_numbers(tmp_path):
    failed = tmp_path / "failed.json"
    assert run(["frame-verify", "--l-max", "2", "--j-min", "13", "--j-max", "14",
                "--trials", "2", "--out", str(failed)]) == 3
    assert _strict_json(failed)["ratio"] is None
    cap = tmp_path / "cap.json"
    assert run(["spatial", "--cap-radius", "0", "--out", str(cap)]) == 0
    assert all(rec["measured_to_structural"] is None for rec in _strict_json(cap)["sweep"])


def test_frame_verify_failure_exit_code():
    # scales so far out that every weight underflows to zero
    assert run(["frame-verify", "--l-max", "2", "--j-min", "13", "--j-max", "14",
                "--trials", "2", "--b", "0.5"]) == 3


def test_parameter_error_exit_code(capsys):
    assert run(["daubechies", "--a", "0.5"]) == 2
    assert "error" in capsys.readouterr().err
    assert run(["kernel-profile", "--t", "-1"]) == 2
    assert run(["partition", "--j", "-99", "--a", "1.26", "--b", "0.5"]) == 2


def test_needlet_cut_beyond_desk_scale_names_the_scale(capsys):
    assert run(["frame-verify", "--mode", "needlet", "--j-min", "-8", "--trials", "1"]) == 2
    assert "at j=-8" in capsys.readouterr().err


@pytest.mark.parametrize("l_max", ["0", "-5"])
@pytest.mark.parametrize("mode", ["needlet", "partition"])
def test_frame_verify_band_below_1_exits_2(mode, l_max, monkeypatch, capsys):
    # checked before any frame is built, in either mode
    def refuse(*args, **kwargs):
        raise AssertionError("frame built before the band was checked")

    monkeypatch.setattr(cli, "build_needlet_frame", refuse)
    assert run(["frame-verify", "--mode", mode, "--l-max", l_max, "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: band limit must be at least 1\n"


@pytest.mark.parametrize("argv, message", [
    (["kernel-profile", "--t", "0.1", "--tol", "0"], "tolerance must be positive"),
    (["kernel-profile", "--t", "0.1", "--tol", "-1"], "tolerance must be positive"),
    (["kernel-profile", "--t", "0.1", "--tol", "0", "--method", "series"],
     "tolerance must be positive"),
    (["needlet-diag", "--l-max", "0"], "need l_max >= 1, got 0"),
    (["needlet-diag", "--l-max", "-3"], "need l_max >= 1, got -3"),
    (["frame-verify", "--mode", "needlet", "--j-min", "1", "--j-max", "3", "--trials", "1"],
     "j = 1..3: no degree >= 1; needlet scales need j <= 0"),
    # e^{-N}, the decay ratios' divisor, is below the smallest normal float from N = 709 on;
    # nothing is printed for the N before it either
    (["needlet-diag", "--N", "4,800", "--l-max", "4"],
     "N = 800.0 too large: e^{-N} is below the smallest normal float"),
    (["needlet-diag", "--N", "1e6", "--l-max", "4"],
     "N = 1000000.0 too large: e^{-N} is below the smallest normal float"),
    # one past the cap, rejected before any degree is allocated
    (["needlet-diag", "--l-max", "1000001"], "l_max = 1000001 beyond desk scale (at most 1000000)"),
    # the tails underflow to 0 well before e^{-N} does; N = 200 still prints them
    (["needlet-diag", "--N", "200,250", "--l-max", "4"],
     "N = 250.0 too large: a tail sum is below the smallest normal float (eps3 = 0, eps4 = 0)"),
    (["needlet-diag", "--N", "708", "--l-max", "4"],
     "N = 708.0 too large: a tail sum is below the smallest normal float (eps3 = 0, eps4 = 0)"),
    # the structural factor's c^{2-2I} is flat in c at I = 1 and grows with c below it
    (["spatial", "--i-decay", "1"], "decay order I must be > 1, got 1.0"),
    (["spatial", "--i-decay", "0"], "decay order I must be > 1, got 0.0"),
    (["spatial", "--i-decay", "-1"], "decay order I must be > 1, got -1.0"),
    (["spatial", "--c", "0"], "c must be positive, got 0.0"),
    (["spatial", "--c", "-0.5"], "c must be positive, got -0.5"),
    # 2.0 ** 1100 overflows, whatever c is
    (["spatial", "--doublings", "1100"],
     "c * 2^doublings overflows a float at c = 0.5, doublings = 1100"),
    (["spatial", "--c", "1e300", "--doublings", "100"],
     "c * 2^doublings overflows a float at c = 1e+300, doublings = 100"),
    # one past the desk-scale caps, rejected before the ladder or the profile is evaluated
    (["daubechies", "--grid-points", "100001"],
     "grid_points = 100001 beyond desk scale (at most 100000)"),
    (["kernel-profile", "--n", "1000001", "--t", "10", "--method", "series"],
     "n_theta = 1000001 beyond desk scale (at most 1000000)"),
    (["partition", "--greedy", "--candidates", "1000001"],
     "candidates = 1000001 beyond desk scale (at most 1000000)"),
    # disjoint radius-t balls: at most min(candidates, 1 / sin^2(t/2)) centers
    (["partition", "--greedy", "--t", "0.001", "--candidates", "20001"],
     "up to 20001 centers at t = 0.001 from 20001 candidates, beyond desk scale (at most 20000)"),
], ids=["tol-0", "tol-negative", "tol-0-series", "l-max-0", "l-max-negative", "needlet-j-above-0",
        "n-800", "n-1e6", "l-max-above-cap", "n-250-tails", "n-708-tails", "i-decay-1",
        "i-decay-0", "i-decay-negative", "c-0", "c-negative", "doublings-1100", "c-1e300",
        "grid-points-above-cap", "n-theta-above-cap", "candidates-above-cap",
        "greedy-centers-above-cap"])
def test_out_of_domain_parameter_exits_2(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


@pytest.mark.parametrize("argv", [
    ["daubechies", "--a", "1e308"],
    ["frame-verify", "--a", "1e300", "--j-min", "0", "--j-max", "0"],
    ["truncation", "--J", "200"],
    # M_J fits a float here, but the prefactor C'_J takes M_J^2
    ["truncation", "--J", "100"],
    # M_175 = 176^176 e^-176 itself passes the float range, while a^(4 N J) still fits
    ["truncation", "--J", "175", "--N", "1"],
    ["truncation", "--L", "1e300"],
    ["spatial", "--c", "1e-300"],
    ["needlet-diag", "--a", "1e300"],
], ids=lambda argv: "-".join(argv))
def test_finite_parameter_that_overflows_exits_2(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a parameter value overflowed the float range\n"


def test_truncation_reports_a_moment_order_whose_powers_overflow_off_the_peak(capsys):
    # r^78 overflows on the moment search grid, but M_78 = 79^79 e^-79 fits a float
    assert run(["truncation", "--J", "78"]) == 0
    assert "bound_without_C0b:" in capsys.readouterr().out


@pytest.mark.parametrize("option, value", [("--c", "0"), ("--i-decay", "1"),
                                           ("--doublings", "1100")])
def test_spatial_checks_its_sweep_before_building_the_frame(option, value, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("frame built before the sweep was checked")

    monkeypatch.setattr(cli.FrameSpec, "build", refuse)
    assert run(["spatial", option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_non_finite_parameters_exit_2(tmp_path, capsys):
    cases = [
        (["partition", "--a", "nan"], "--a"),
        (["spatial", "--cap-radius", "nan"], "--cap-radius"),
        (["daubechies", "--a", "nan"], "--a"),
        (["daubechies", "--a", "inf"], "--a"),
        (["kernel-profile", "--t", "nan"], "--t"),
    ]
    config = tmp_path / "nan.cfg"
    config.write_text("a = nan\n")
    cases.append((["partition", "--config", str(config)], "--a"))
    for argv, option in cases:
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: %s must be finite" % option in captured.err


def test_cap_radius_outside_zero_to_pi_exits_2(capsys):
    for radius in ("-0.6", "4.0"):
        assert run(["spatial", "--cap-radius", radius]) == 2, radius
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cap radius must lie in [0, pi]" in captured.err


def test_cli_import_leaves_scipy_integrate_and_optimize_unloaded():
    # every command pays for the import of mexneedlets.cli; scipy's
    # integrate and optimize load only where quad/minimize_scalar are called
    code = ("import sys, mexneedlets.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"


def test_readme_bound_commands_leave_scipy_integrate_and_optimize_unloaded(tmp_path):
    # the frame-bound constants of these commands come from closed forms, a fixed
    # Gauss-Legendre rule (the raw bump's Calderon constant) and ladder sums alone;
    # what still loads scipy: partition --greedy loads scipy.spatial
    commands = [
        ["daubechies", "--a", "1.2599210498948732", "--filter", "mexican:r=1"],
        ["daubechies", "--a", "2.0", "--filter", "normalized_cutoff"],
        ["daubechies", "--a", "2.0", "--filter", "cutoff"],
        ["frame-verify", "--a", "1.2599", "--b", "0.5", "--l-max", "16", "--j-min", "-18",
         "--j-max", "4", "--trials", "20", "--seed", "1", "--out", str(tmp_path / "bounds.json")],
        ["truncation", "--j-min", "-24", "--j-max", "6", "--M", "22", "--N", "4",
         "--out", str(tmp_path / "freq.json")],
    ]
    code = ("import contextlib, io, sys; from mexneedlets.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(argv) for argv in %r]\n"
            "print(codes, sorted(m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules))" % (commands,))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[0, 0, 0, 0, 0] []"


def test_determinism_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["frame-verify", "--l-max", "4", "--trials", "3", "--seed", "9",
            "--j-min", "-8", "--j-max", "2", "--b", "0.5"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    c1 = tmp_path / "c1.csv"
    c2 = tmp_path / "c2.csv"
    for p in (c1, c2):
        assert run(["kernel-profile", "--t", "0.15", "--n", "64", "--out", str(p)]) == 0
    assert c1.read_bytes() == c2.read_bytes()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a = 2.0\nfilter = normalized_cutoff\n# comment line\n")
    assert run(["daubechies", "--config", str(cfg)]) == 0
    out1 = capsys.readouterr().out
    assert float(out1.splitlines()[2].split("=")[1]) == pytest.approx(1.0, abs=1e-10)
    # explicit flag beats the config value
    assert run(["daubechies", "--config", str(cfg), "--filter", "mexican:r=1"]) == 0
    out2 = capsys.readouterr().out
    assert float(out2.splitlines()[2].split("=")[1]) > 1.01


def test_truncation_and_spatial_and_diag(tmp_path):
    out = tmp_path / "tr.json"
    assert run(["truncation", "--j-min", "-16", "--j-max", "4", "--M", "14",
                "--N", "2", "--trials", "2", "--calibrate", "1",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["C0_est"] >= 0
    assert all(r["measured_error"] >= 0 for r in doc["reports"])

    outs = tmp_path / "sp.json"
    assert run(["spatial", "--j-min", "-8", "--j-max", "2", "--doublings", "2",
                "--out", str(outs)]) == 0
    doc = json.loads(outs.read_text())
    forms = [rec["dropped_quadratic_form"] for rec in doc["sweep"]]
    assert all(x > y for x, y in zip(forms, forms[1:]))

    outd = tmp_path / "diag.json"
    assert run(["needlet-diag", "--N", "4,8", "--l-max", "16", "--out", str(outd)]) == 0
    doc = json.loads(outd.read_text())
    assert doc["records"][0]["eps3"] > doc["records"][1]["eps3"]


def test_config_values_take_the_declared_type(tmp_path, capsys):
    argv = ["truncation", "--j-min", "-16", "--j-max", "4", "--M", "14", "--N", "2",
            "--trials", "2", "--calibrate", "1"]
    flag, from_config = tmp_path / "flag.json", tmp_path / "config.json"
    assert run(argv + ["--L", "2.5", "--out", str(flag)]) == 0
    config = tmp_path / "level.cfg"
    config.write_text("L = 2.5\n")
    assert run(argv + ["--config", str(config), "--out", str(from_config)]) == 0
    assert from_config.read_bytes() == flag.read_bytes()
    capsys.readouterr()

    config.write_text("L = abc\n")
    assert run(argv + ["--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--L" in captured.err


def test_config_values_get_the_parser_checks(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    cases = [("mode = needle\n", ["frame-verify", "--l-max", "2", "--trials", "1"], "--mode"),
             ("method = foo\n", ["kernel-profile"], "--method")]
    for text, argv, option in cases:
        config.write_text(text)
        assert run(argv + ["--config", str(config)]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument %s: invalid choice" % option in captured.err


def test_greedy_partition_reports_its_cover_radius(capsys):
    # the README command: every value as before the cover radius, which is below 2t here
    assert run(["partition", "--greedy", "--t", "0.7853981633974483"]) == 0
    assert capsys.readouterr().out == ("cells=4 sum-measure=12.5663706144 max-diameter=3.14159 "
                                       "achieved-c0=0.263911 cover-radius=1.56304\n")


@pytest.mark.parametrize("t", ["1e-300", "1e-160"])
def test_greedy_partition_at_a_tiny_radius_prints_a_finite_c0(t, capsys):
    # achieved-c0 divides by min(2 max(2t, R), pi)^2, and the covering radius R of
    # the few centers keeps it finite however small t is
    assert run(["partition", "--greedy", "--t", t, "--candidates", "3"]) == 0
    fields = dict(item.split("=") for item in capsys.readouterr().out.split())
    assert fields["cells"] == "3" and math.isfinite(float(fields["achieved-c0"]))
    assert float(fields["achieved-c0"]) > 0


def test_config_flag_option_matches_the_flag(tmp_path, capsys):
    t = "0.7853981633974483"
    assert run(["partition", "--greedy", "--t", t]) == 0
    by_flag = capsys.readouterr().out
    config = tmp_path / "greedy.cfg"
    config.write_text("greedy = true\nt = %s\n" % t)
    assert run(["partition", "--config", str(config)]) == 0
    assert capsys.readouterr().out == by_flag


def test_negative_counts_exit_2(tmp_path, capsys):
    config = tmp_path / "count.cfg"
    config.write_text("trials = -1\n")
    cases = [(["truncation", "--calibrate", "-1"], "--calibrate"),
             (["truncation", "--trials", "-1"], "--trials"),
             (["spatial", "--doublings", "-1"], "--doublings"),
             (["partition", "--greedy", "--candidates", "-1"], "--candidates"),
             (["frame-verify", "--config", str(config)], "--trials")]
    for argv, option in cases:
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument %s: invalid non-negative integer value" % option in captured.err


def test_needlet_diag_n_must_be_finite(capsys):
    for n_list in ("inf", "4,nan"):
        assert run(["needlet-diag", "--N", n_list, "--l-max", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --N must be finite" in captured.err
    assert run(["needlet-diag", "--N", "4,x"]) == 2
    assert "error: argument --N" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["daubechies", "--a", "1.0001"],
    ["frame-verify", "--a", "1.0001", "--l-max", "4", "--trials", "2"],
    ["truncation", "--a", "1.0001", "--j-min", "-2", "--j-max", "1", "--M", "1", "--N", "1"],
    ["needlet-diag", "--a", "1.00001", "--N", "4", "--l-max", "4"],
], ids=lambda argv: argv[0])
def test_ladder_that_cannot_converge_exits_2(argv, capsys):
    # the ladder walk runs out of rungs at dilations this close to 1
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: ladder sum at dilation a = %s does not converge within "
                            "20000 rungs\n" % argv[2])
