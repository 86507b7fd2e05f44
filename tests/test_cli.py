"""Command-line behavior: subcommands, exit codes, determinism, exports."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import helix4
from helix4 import helix_construct as hc
from helix4.cli import (EXIT_DEGENERATE, EXIT_GATE, EXIT_OK, EXIT_PARSE,
                        EXIT_PRECONDITION, dumps_stable, main)

PLANE_12 = '{"b1":[1,0,0,0],"b2":[0,1,0,0],"oriented":true}'
PLANE_34 = '{"b1":[0,0,1,0],"b2":[0,0,0,1],"oriented":true}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_angles_inline(capsys):
    code, out, _ = run(capsys, "angles", "--v", PLANE_12, "--w", PLANE_34)
    assert code == EXIT_OK
    d = json.loads(out)
    assert d["theta1"] == pytest.approx(math.pi / 2)
    assert d["theta_perp"] == pytest.approx(0.0)


def test_angles_config_file(tmp_path, capsys):
    cfg = tmp_path / "planes.json"
    cfg.write_text(json.dumps({"V": json.loads(PLANE_12),
                               "W": json.loads(PLANE_12)}))
    code, out, _ = run(capsys, "angles", "--config", str(cfg))
    assert code == EXIT_OK
    assert json.loads(out)["theta2"] == pytest.approx(0.0)


def test_angles_bad_json_is_parse_error(capsys):
    code, _, err = run(capsys, "angles", "--v", "{bad", "--w", PLANE_12)
    assert code == EXIT_PARSE
    assert "invalid JSON" in err


def test_angles_bad_frame_is_precondition(capsys):
    bad = '{"b1":[1,1,0,0],"b2":[0,1,0,0],"oriented":true}'
    code, _, _ = run(capsys, "angles", "--v", bad, "--w", PLANE_12)
    assert code == EXIT_PRECONDITION


def test_deform_forward_and_inverse(capsys):
    code, out, _ = run(capsys, "deform", "--m", "1", "--c", "3.3333333333")
    assert code == EXIT_OK
    d = json.loads(out)
    assert d["theta1"] == pytest.approx(math.pi / 6, abs=1e-9)
    assert d["theta2"] == pytest.approx(math.pi / 3, abs=1e-9)

    code, out, _ = run(capsys, "deform", "--theta1", str(math.pi / 6),
                       "--theta2", str(math.pi / 3))
    d = json.loads(out)
    assert code == EXIT_OK
    assert d["m"] == pytest.approx(1.0, abs=1e-12)
    assert d["c"] == pytest.approx(10.0 / 3.0, abs=1e-12)


def test_deform_rejects_degrees(capsys):
    code, _, err = run(capsys, "deform", "--theta1", "30", "--theta2", "60")
    assert code == EXIT_PRECONDITION
    assert "radians" in err


def test_deform_rejects_c_below_two(capsys):
    code, _, _ = run(capsys, "deform", "--m", "1", "--c", "1.5")
    assert code == EXIT_PRECONDITION


def test_example_torus_passes(tmp_path, capsys):
    out_file = tmp_path / "torus.json"
    code, _, _ = run(capsys, "example", "clifford_torus", "--grid", "15", "15",
                     "--out", str(out_file))
    assert code == EXIT_OK
    d = json.loads(out_file.read_text())
    assert d["helix_pass"] is True
    assert d["angle_std"] < 1e-9
    assert d["expected"][1] == pytest.approx(math.pi / 2)


def test_example_obj_export(tmp_path, capsys):
    obj = tmp_path / "torus.obj"
    code, _, _ = run(capsys, "example", "clifford_torus", "--grid", "6", "6",
                     "--obj", str(obj), "--out", str(tmp_path / "r.json"))
    assert code == EXIT_OK
    lines = obj.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 36


def test_example_unknown_name_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["example", "nope"])


def test_verify_graph_config_gate(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "graph": {"f": "0.2*x^2", "g": "0.1*x*y",
                  "domain": [-0.5, 0.5, -0.5, 0.5]},
        "grid": [8, 8],
    }))
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == EXIT_GATE          # a random graph is not a helix
    assert json.loads(out)["helix_pass"] is False


def test_verify_surface_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "surface": {"kind": "product_helix_cylinder", "theta": 0.6},
        "grid": [10, 10],
    }))
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == EXIT_OK
    d = json.loads(out)
    assert d["expected"][1] == pytest.approx(0.6)


def test_verify_bad_expression_span(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": {"f": "x +", "g": "0"}}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == EXIT_PARSE
    assert "offset 3" in err


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "surface": {"kind": "clifford_torus"},
        "grid": [9, 9],
    }))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(capsys, "verify", "--config", str(cfg), "--out", str(a))[0] == EXIT_OK
    assert run(capsys, "verify", "--config", str(cfg), "--out", str(b))[0] == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_construct_header_and_bundle(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    prefix = str(tmp_path / "sol")
    code, _, _ = run(capsys, "construct",
                     "--theta1", "0.5235987756", "--theta2", "1.0471975512",
                     "--hx", "2e-3", "--hy", "2e-3", "--ymax", "0.006",
                     "--save", prefix, "--out", str(out_file))
    assert code == EXIT_OK
    d = json.loads(out_file.read_text())
    assert d["c1"] == pytest.approx(10.0 / 3.0, abs=1e-8)
    assert d["c2"] == pytest.approx(1.0, abs=1e-8)
    assert d["passed"] is True
    assert d["termination"] == {"up": "completed", "down": "completed"}

    meta = json.loads((tmp_path / "sol.meta.json").read_text())
    assert set(meta) == {"nx", "ny", "x0", "y0", "hx", "hy", "fields", "dtype"}
    raw = (tmp_path / "sol.bin").read_bytes()
    assert len(raw) == 8 * len(meta["fields"]) * meta["nx"] * meta["ny"]
    header = (tmp_path / "sol.csv").read_text().splitlines()[0]
    assert header == "x,y,f,g,fx,fy,gx,gy,residual_trace,residual_det"


def test_construct_equal_angles_rejected(capsys):
    code, _, _ = run(capsys, "construct", "--theta1", "0.5", "--theta2", "0.5")
    assert code == EXIT_PRECONDITION


def test_construct_c1_config_and_expressions(tmp_path, capsys):
    seed = {"u0": -1.1761423049074810, "v0": 1.2179310100632075}
    cfg = tmp_path / "pde.json"
    cfg.write_text(json.dumps({
        "c1": 10.0 / 3.0,
        "x": [-0.04, 0.04],
        "ymax": 0.004,
        "hx": 0.002, "hy": 0.002,
        "seed": seed,
        "phi": f"x^2 + {seed['u0']}*x",
        "psi": f"x + {seed['v0']}",
    }))
    code, out, _ = run(capsys, "construct", "--config", str(cfg))
    assert code == EXIT_OK
    d = json.loads(out)
    assert d["seed"]["u0"] == pytest.approx(seed["u0"])
    assert d["residuals"]["helix_trace"] < 1e-3


def test_construct_degenerate_c1_exits_4(tmp_path, capsys):
    cfg = tmp_path / "pde.json"
    cfg.write_text(json.dumps({"c1": 2.0000001, "x": [-0.01, 0.01],
                               "ymax": 0.002, "hx": 0.001, "hy": 0.001}))
    code, _, err = run(capsys, "construct", "--config", str(cfg))
    assert code == EXIT_DEGENERATE
    assert "seed scan failed" in err


def test_export_round_trip(tmp_path, capsys):
    prefix = str(tmp_path / "sol")
    run(capsys, "construct", "--theta1", "0.5235987756",
        "--theta2", "1.0471975512", "--hx", "2e-3", "--hy", "2e-3",
        "--ymax", "0.004", "--save", prefix, "--out", str(tmp_path / "r.json"))

    csv_path = tmp_path / "exported.csv"
    code, _, _ = run(capsys, "export", "--grid", prefix, "--format", "csv",
                     "--out", str(csv_path))
    assert code == EXIT_OK
    meta = json.loads((tmp_path / "sol.meta.json").read_text())
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 1 + meta["nx"] * meta["ny"]

    obj_path = tmp_path / "exported.obj"
    code, _, _ = run(capsys, "export", "--grid", prefix, "--format", "obj",
                     "--coords", "x,y,g", "--out", str(obj_path))
    assert code == EXIT_OK
    first = obj_path.read_text().splitlines()[0]
    assert "dropped coordinate: z" in first

    code, _, _ = run(capsys, "export", "--grid", prefix, "--format", "obj",
                     "--coords", "x,q,f", "--out", str(obj_path))
    assert code == EXIT_PARSE

    code, _, _ = run(capsys, "export", "--grid", str(tmp_path / "missing"),
                     "--format", "csv", "--out", str(csv_path))
    assert code == EXIT_PARSE


GRAPH = {"f": "x", "g": "y"}


@pytest.mark.parametrize("command, document", [
    ("verify", 5),
    ("verify", {"surface": 5}),
    ("verify", {"graph": GRAPH, "plane": [1, 2]}),
    ("verify", {"graph": GRAPH, "grid": "ab"}),
    ("verify", {"graph": "x"}),
    ("angles", [1, 2]),
    ("construct", {"c1": 10.0 / 3.0, "seed": {"u0": 1}}),
    ("export", {"nx": 3, "ny": 3, "x0": 0.0, "y0": 0.0, "hx": 1.0, "hy": 1.0,
                "dtype": "float64"}),
], ids=["config-number", "surface-number", "plane-list", "grid-string",
        "graph-string", "angles-plane-list", "seed-without-v0",
        "sidecar-without-fields"])
def test_malformed_json_is_parse_error(tmp_path, capsys, command, document):
    # a JSON document of the wrong shape exits 2 with one error line
    path = tmp_path / "doc.json"
    if command == "angles":
        argv = ["angles", "--v", json.dumps(document), "--w", PLANE_12]
    elif command == "export":
        path = tmp_path / "doc.meta.json"
        (tmp_path / "doc.bin").write_bytes(b"")
        argv = ["export", "--grid", str(tmp_path / "doc"), "--format", "csv",
                "--out", str(tmp_path / "out.csv")]
    else:
        argv = [command, "--config", str(path)]
    path.write_text(json.dumps(document))
    code, _, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert err.startswith("error: ")


THETAS = ("--theta1", "0.5235987756", "--theta2", "1.0471975512")


@pytest.mark.parametrize("options, config, code, named", [
    (("--hx", "0"), None, EXIT_PRECONDITION, "hx"),
    (("--hy", "0"), None, EXIT_PRECONDITION, "hy"),
    ((), {"c1": 3.3333333333, "hx": 0}, EXIT_PRECONDITION, "hx"),
    (("--hx=-1e-3",), None, EXIT_PRECONDITION, "hx"),
    (("--hx", "nan"), None, EXIT_PRECONDITION, "hx"),
    (("--hx", "inf"), None, EXIT_PRECONDITION, "hx"),
    (("--hx", "1"), None, EXIT_PRECONDITION, "hx"),
    (("--ymax", "0"), None, EXIT_PRECONDITION, "y_max"),
    (("--ymax", "nan"), None, EXIT_PRECONDITION, "y_max"),
    (("--x0", "0.05", "--x1", "-0.05"), None, EXIT_PRECONDITION, "x0 < x1"),
    ((), {"c1": 3.3333333333, "hx": "abc"}, EXIT_PARSE, "hx"),
], ids=["hx-zero", "hy-zero", "config-hx-zero", "hx-negative", "hx-nan",
        "hx-inf", "hx-too-coarse", "ymax-zero", "ymax-nan", "x-reversed",
        "config-hx-string"])
def test_construct_window_is_checked_before_the_seed_scan(
        tmp_path, capsys, monkeypatch, options, config, code, named):
    def no_scan(*args):
        raise AssertionError("the seed scan ran")

    monkeypatch.setattr(hc, "_seed_scan", no_scan)
    if config is not None:
        path = tmp_path / "window.json"
        path.write_text(json.dumps(config))
        options = ("--config", str(path))
    else:
        options = THETAS + options
    rc, _, err = run(capsys, "construct", *options)
    assert rc == code
    assert err.startswith("error: ") and named in err


def test_python_m_helix4_runs_the_cli(capsys):
    argv = ["deform", "--m", "1", "--c", "3.3333333333"]
    src = str(Path(helix4.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "helix4", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert (proc.returncode, proc.stdout) == (code, out)


def test_dumps_stable_formatting():
    text = dumps_stable({"a": 1.0 / 3.0, "b": [1, True, None, float("nan")]})
    assert "0.33333333333333331" in text
    assert "null" in text and "true" in text
    obj = json.loads(text)
    assert obj["b"][3] is None
