import json
import math

import numpy as np
import pytest

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


def test_frame_verify_failure_exit_code():
    # scales so far out that every weight underflows to zero
    assert run(["frame-verify", "--l-max", "2", "--j-min", "13", "--j-max", "14",
                "--trials", "2", "--b", "0.5"]) == 3


def test_parameter_error_exit_code(capsys):
    assert run(["daubechies", "--a", "0.5"]) == 2
    assert "error" in capsys.readouterr().err
    assert run(["kernel-profile", "--t", "-1"]) == 2
    assert run(["partition", "--j", "-99", "--a", "1.26", "--b", "0.5"]) == 2


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
