"""Command-line behavior: subcommands, exit codes, determinism, exports."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helix4
from helix4 import cli, helix_construct as hc
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


@pytest.mark.parametrize("m, c, named", [
    ("inf", "3.3", "parameter m"), ("nan", "3.3", "parameter m"),
    ("1", "inf", "constant c"), ("1", "nan", "constant c"),
])
def test_deform_rejects_non_finite_m_and_c(capsys, m, c, named):
    code, out, err = run(capsys, "deform", "--m", m, "--c", c)
    assert code == EXIT_PRECONDITION
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert f"{named} must be finite" in err


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
    assert lines[0].startswith("#") and "dropped coordinate: w" in lines[0]
    assert sum(1 for ln in lines if ln.startswith("v ")) == 36
    assert sum(1 for ln in lines if ln.startswith("f ")) == 2 * 25


def test_verify_csv_report(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": {"kind": "clifford_torus"}, "grid": [6, 7]}))
    csv_path = tmp_path / "samples.csv"
    code, _, _ = run(capsys, "verify", "--config", str(cfg), "--csv", str(csv_path))
    assert code == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("u,v,p1,p2,p3,p4,theta1,theta2")
    assert len(lines) == 1 + 6 * 7
    # rows run over v fastest
    us = [ln.split(",")[0] for ln in lines[1:]]
    assert len(set(us[:7])) == 1 and us[7] != us[0]


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


@pytest.mark.parametrize("command", ["verify", "example"])
def test_explicit_gate_zero_is_kept(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": {"kind": "plane"}, "grid": [5, 5]}))
    argv = (["verify", "--config", str(cfg)] if command == "verify"
            else ["example", "plane", "--grid", "5", "5"])
    code, out, _ = run(capsys, *argv, "--gate", "0")
    assert code == EXIT_GATE            # angle_std < 0 never holds
    assert json.loads(out)["gate"] == 0


def test_verify_derivative_error_points_at_its_node(tmp_path, capsys):
    # f_x = 0.5/sqrt(x+1) divides by zero at x = -1: offset 4 is the sqrt
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": {"f": "y + sqrt(x+1)", "g": "y"}, "grid": [9, 9]}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == EXIT_PRECONDITION
    assert "division by zero (at offset 4)" in err


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


def test_bundle_layers_are_the_solution_graph_node_for_node(tmp_path, capsys):
    # the .bin holds each field indexed [y, x], the graph samples [x, y]
    t1, t2, h, y_max, x_range = 0.5235987756, 1.0471975512, 2e-3, 0.006, (-0.05, 0.05)
    prefix = str(tmp_path / "sol")
    code, _, _ = run(capsys, "construct", "--theta1", str(t1), "--theta2", str(t2),
                     "--hx", str(h), "--hy", str(h), "--ymax", str(y_max), "--save", prefix)
    assert code == EXIT_OK
    m, c = hc.deform_inverse((t1, t2))
    seed = hc.choose_feasible_seed(c, x_range, y_max, h, h)
    prob = hc.PDEProblem(c, x_range, y_max, h, h, *seed, *hc.paper_initial_data(*seed))
    graph = hc.solution_graph(hc.recover_g(hc.solve_pde(prob)), m=m)
    xs, ys = graph.sample_grid()
    meta = json.loads((tmp_path / "sol.meta.json").read_text())
    assert (meta["nx"], meta["ny"]) == (xs.size, ys.size) and xs.size != ys.size
    layers = np.frombuffer((tmp_path / "sol.bin").read_bytes()).reshape(6, ys.size, xs.size)
    samples = graph.sample(xs, ys)
    for k, layer in zip(meta["fields"], layers, strict=True):
        assert layer.tobytes() == np.ascontiguousarray(samples[k].T).tobytes(), k


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


def test_construct_drops_rows_narrower_than_8_columns(capsys):
    # the last row down keeps 7 nodes; the rectangle is taken without it
    code, out, _ = run(capsys, "construct", "--theta1", "0.5235987755982988",
                       "--theta2", "1.0471975511965976",
                       "--seed=-0.7523473882453191,-0.052609254334021624",
                       "--ymax", "0.02", "--hx", "2e-3", "--hy", "2e-3")
    assert code == EXIT_OK
    d = json.loads(out)
    assert d["passed"] is True
    assert d["x_window"] == pytest.approx([-0.008, 0.008])


def test_export_round_trip(tmp_path, capsys, monkeypatch):
    # rows are written in blocks; 7 rows a block gives many blocks and a
    # partial last one
    monkeypatch.setattr(cli, "ROW_BLOCK", 7)
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

    # the same text as a row-by-row rendering of the saved grid
    nx, ny = meta["nx"], meta["ny"]
    data = np.fromfile(prefix + ".bin").reshape(len(meta["fields"]), ny, nx)
    xs = meta["x0"] + meta["hx"] * np.arange(nx)
    ys = meta["y0"] + meta["hy"] * np.arange(ny)
    rows = [[xs[i], ys[j], *data[:, j, i]] for j in range(ny) for i in range(nx)]
    assert lines[1:] == [",".join(f"{v:.17g}" for v in row) for row in rows]

    obj_path = tmp_path / "exported.obj"
    code, _, _ = run(capsys, "export", "--grid", prefix, "--format", "obj",
                     "--coords", "x,y,g", "--out", str(obj_path))
    assert code == EXIT_OK
    lines = obj_path.read_text().splitlines()
    assert "dropped coordinate: z" in lines[0]
    f, g = data[meta["fields"].index("f")], data[meta["fields"].index("g")]
    vertices = [f"v {xs[i]:.17g} {ys[j]:.17g} {g[j, i]:.17g}"
                for i in range(nx) for j in range(ny)]
    faces = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            a, c = i * ny + j + 1, (i + 1) * ny + j + 1
            faces += [f"f {a} {a + 1} {c + 1}", f"f {a} {c + 1} {c}"]
    assert lines[1:] == vertices + faces

    code, _, _ = run(capsys, "export", "--grid", prefix, "--format", "obj",
                     "--coords", "x,q,f", "--out", str(obj_path))
    assert code == EXIT_PARSE

    code, _, _ = run(capsys, "export", "--grid", str(tmp_path / "missing"),
                     "--format", "csv", "--out", str(csv_path))
    assert code == EXIT_PARSE

    # a binary dump whose size does not match the sidecar
    with open(prefix + ".bin", "ab") as fh:
        fh.write(bytes(8))
    code, _, err = run(capsys, "export", "--grid", prefix, "--format", "csv",
                       "--out", str(csv_path))
    assert code == EXIT_PRECONDITION and err.startswith("error: ")


@pytest.mark.parametrize("coords", ["x,x,f", "f,g,f", "g,g,g"])
def test_export_obj_rejects_a_repeated_coordinate(tmp_path, capsys, coords):
    prefix = str(tmp_path / "sol")
    run(capsys, "construct", "--theta1", "0.5235987756",
        "--theta2", "1.0471975512", "--hx", "2e-3", "--hy", "2e-3",
        "--ymax", "0.004", "--save", prefix, "--out", str(tmp_path / "r.json"))
    obj_path = tmp_path / "exported.obj"
    code, _, err = run(capsys, "export", "--grid", prefix, "--format", "obj",
                       "--coords", coords, "--out", str(obj_path))
    assert code == EXIT_PARSE
    assert err.startswith("error: ") and "distinct" in err
    assert not obj_path.exists()


def test_written_files_are_byte_identical_on_rerun(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": {"f": "0.3*sin(2*x)*cos(y) + 0.2*x*y^2",
                                         "g": "0.25*exp(0.5*x)*y - 0.1*x^3"},
                               "grid": [9, 8]}))
    for rerun in ("1", "2"):
        d = tmp_path / rerun
        d.mkdir()
        sol = str(d / "sol")
        for argv in (
                ["verify", "--config", str(cfg), "--csv", str(d / "v.csv")],
                ["example", "clifford_torus", "--grid", "7", "6", "--obj", str(d / "t.obj")],
                ["construct", *THETAS, "--hx", "2e-3", "--hy", "2e-3",
                 "--ymax", "0.004", "--save", sol],
                *(["export", "--grid", sol, "--format", fmt, "--out", f"{sol}.e.{fmt}"]
                  for fmt in ("csv", "json", "obj"))):
            assert run(capsys, *argv)[0] in (EXIT_OK, EXIT_GATE)
    first = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert first == sorted(p.name for p in (tmp_path / "2").iterdir())
    assert len(first) == 8
    for name in first:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


GRAPH = {"f": "x", "g": "y"}
SIDECAR = {"nx": 3, "ny": 3, "x0": 0.0, "y0": 0.0, "hx": 1.0, "hy": 1.0,
           "dtype": "float64"}


@pytest.mark.parametrize("command, document", [
    ("verify", 5),
    ("verify", {"surface": 5}),
    ("verify", {"graph": GRAPH, "plane": [1, 2]}),
    ("verify", {"graph": GRAPH, "grid": "ab"}),
    ("verify", {"graph": GRAPH, "grid": [30]}),
    ("verify", {"graph": GRAPH, "grid": [30, 30, 30]}),
    ("verify", {"graph": GRAPH, "gate": [1]}),
    ("verify", {"graph": GRAPH, "gate": None}),
    ("verify", {"graph": GRAPH, "gate": "abc"}),
    ("verify", {"graph": "x"}),
    ("verify", {"graph": {**GRAPH, "domain": "abcd"}}),
    ("verify", {"graph": {**GRAPH, "domain": [None, 1, -1, 1]}}),
    ("verify", {"graph": {**GRAPH, "domain": [1]}}),
    ("verify", {"graph": {**GRAPH, "domain": [0, 1, "a", 1]}}),
    ("verify", {"graph": {**GRAPH, "domain": [0, 1, 0, 1, 5]}}),
    ("verify", {"graph": {**GRAPH, "domain": [0, 1e400, -1, 1]}}),
    ("verify", {"graph": {**GRAPH, "domain": [True, 1, -1, 1]}}),
    ("angles", [1, 2]),
    ("angles", {"b1": [True, 0, 0, 0], "b2": [0, 1, 0, 0]}),
    ("angles", {"b1": [1, 0, 0, 0], "b2": [0, 0, "1", 0]}),
    ("angles", {"b1": [1, 0, 0, 0], "b2": [0, 0, "x", 0]}),
    ("angles", {"b1": [1, 0, 0, 0], "b2": [0, 1, 0, 0], "oriented": "false"}),
    ("verify", {"graph": GRAPH, "plane": {"b1": [1, 0, 0, 0], "b2": [0, True, 0, 0]}}),
    ("construct", {"c1": 10.0 / 3.0, "seed": {"u0": 1}}),
    ("construct", {"c1": 10.0 / 3.0, "seed": {"u0": "abc", "v0": 1}}),
    ("construct", {"c1": 10.0 / 3.0, "seed": {"u0": [1], "v0": 1}}),
    ("construct", {"c1": 10.0 / 3.0, "seed": "1,2,3"}),
    ("export", SIDECAR),
    ("export", {**SIDECAR, "fields": 5}),
    ("export", {**SIDECAR, "fields": ["f"], "nx": [3]}),
    ("export", '{"nx": 3,'),
    ("export-obj", {**SIDECAR, "fields": ["f", "fx"]}),
    ("angles", {"b2": [0, 1, 0, 0]}),
    ("verify", {"graph": GRAPH, "plane": {"b1": [1, 0, 0, 0]}}),
    ("verify", {"graph": {**GRAPH, "f": 5}}),
    ("verify", {"graph": {**GRAPH, "g": None}}),
    ("export-json", {**SIDECAR, "fields": ["f"], "nx": -1}),
    ("export", {**SIDECAR, "fields": ["f"], "nx": -1}),
    ("export-obj", {**SIDECAR, "fields": ["f", "g"], "nx": -1}),
    ("export", {**SIDECAR, "fields": ["f"], "ny": 0}),
], ids=["config-number", "surface-number", "plane-list", "grid-string",
        "grid-one-number", "grid-three-numbers", "gate-list", "gate-null",
        "gate-string",
        "graph-string", "domain-string", "domain-null", "domain-one-number",
        "domain-with-string", "domain-five-numbers", "domain-infinite",
        "domain-true", "angles-plane-list", "plane-coordinate-true",
        "plane-coordinate-numeric-string", "plane-coordinate-string",
        "plane-oriented-string", "verify-plane-coordinate-true", "seed-without-v0",
        "seed-u0-string", "seed-u0-list", "seed-three-numbers",
        "sidecar-without-fields", "sidecar-fields-number", "sidecar-nx-list",
        "sidecar-not-json", "obj-sidecar-without-g", "plane-without-b1",
        "verify-plane-without-b2", "graph-f-number", "graph-g-null",
        "json-sidecar-nx-negative", "sidecar-nx-negative", "obj-sidecar-nx-negative",
        "sidecar-ny-zero"])
def test_malformed_json_is_parse_error(tmp_path, capsys, command, document):
    # a JSON document of the wrong shape (a string: the text of a document
    # that is not JSON) exits 2 with one error line
    path = tmp_path / "doc.json"
    if command == "angles":
        argv = ["angles", "--v", json.dumps(document), "--w", PLANE_12]
    elif command.startswith("export"):
        # a binary dump of the size the sidecar's fields ask for
        path = tmp_path / "doc.meta.json"
        fields = document.get("fields") if isinstance(document, dict) else None
        (tmp_path / "doc.bin").write_bytes(
            bytes(8 * 9 * len(fields)) if isinstance(fields, list) else b"")
        argv = ["export", "--grid", str(tmp_path / "doc"),
                "--format", command.partition("-")[2] or "csv",
                "--out", str(tmp_path / "out.txt")]
    else:
        argv = [command, "--config", str(path)]
    path.write_text(document if isinstance(document, str) else json.dumps(document))
    code, _, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert err.startswith("error: ")


P12 = json.loads(PLANE_12)
C1 = 10.0 / 3.0
# per command and key: a valid document holding the key, and whether the key
# is of a string kind (the string probes are then skipped)
KEY_BASES = {
    "angles": ({"V": P12, "W": P12}, {"V": False, "W": False}),
    "verify-surface": ({"surface": {"kind": "plane"}, "grid": [5, 5]},
                       {"surface": False, "surface.kind": True}),
    "verify": ({"graph": {**GRAPH, "domain": [-1, 1, -1, 1]}, "plane": P12,
                "grid": [5, 5], "gate": 1e-3},
               {"graph": False, "graph.f": True, "graph.g": True, "graph.domain": False,
                "plane": False, "grid": False, "gate": False}),
    "construct": ({"c1": C1, "x": [-0.05, 0.05], "ymax": 0.006, "hx": 1e-3, "hy": 1e-3,
                   "branch": 1, "seed": {"u0": -1.176142304907481, "v0": 1.2179310100632075},
                   "phi": "x^2 - 1.176142304907481*x", "psi": "x + 1.2179310100632075"},
                  {"c1": False, "x": False, "ymax": False, "hx": False, "hy": False,
                   "branch": False, "seed": False, "seed.u0": False, "seed.v0": False,
                   "phi": True, "psi": True}),
    "export": ({**SIDECAR, "fields": ["f", "g"]},
               {k: False for k in ("nx", "ny", "x0", "y0", "hx", "hy", "fields")}),
}
PROBES = {"null": None, "true": True, "abc": "abc", "numeric-string": "0.1",
          "empty-list": [], "empty-object": {}, "1e400": math.inf}
KEY_CASES = [pytest.param(base, key, value, id=f"{base}-{key}-{label}")
             for base, (_, keys) in KEY_BASES.items() for key, string_kind in keys.items()
             for label, value in PROBES.items()
             if not (string_kind and isinstance(value, str))]


def run_key_document(capsys, tmp_path, base, document):
    # JSON has no infinity: 1e400 is the number literal that decodes to it
    text = json.dumps(document).replace("Infinity", "1e400")
    command = base.partition("-")[0]
    if command == "export":
        (tmp_path / "doc.meta.json").write_text(text)
        (tmp_path / "doc.bin").write_bytes(bytes(8 * 9 * 2))
        argv = ["export", "--grid", str(tmp_path / "doc"), "--format", "csv",
                "--out", str(tmp_path / "out.csv")]
    else:
        (tmp_path / "doc.json").write_text(text)
        argv = [command, "--config", str(tmp_path / "doc.json")]
    return run(capsys, *argv)


@pytest.mark.parametrize("base", KEY_BASES)
def test_key_table_documents_are_valid(tmp_path, capsys, base):
    code, _, err = run_key_document(capsys, tmp_path, base, KEY_BASES[base][0])
    assert code in (EXIT_OK, EXIT_GATE) and err == ""


@pytest.mark.parametrize("base, key, value", KEY_CASES)
def test_every_key_rejects_a_value_of_another_kind(
        tmp_path, capsys, monkeypatch, base, key, value):
    # one error line naming the key (nested keys through their parent), exit
    # 2, nothing on stdout, and no seed scan
    def no_scan(*args):
        raise AssertionError("the seed scan ran")

    monkeypatch.setattr(hc, "_seed_scan", no_scan)
    document = json.loads(json.dumps(KEY_BASES[base][0]))
    *parents, name = key.split(".")
    holder = document
    for parent in parents:
        holder = holder[parent]
    holder[name] = value
    code, out, err = run_key_document(capsys, tmp_path, base, document)
    assert code == EXIT_PARSE, err
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert re.search(rf"\b{re.escape(key)}\b", err), err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "example"])
@pytest.mark.parametrize("gate", ["nan", "inf", "-inf"])
def test_a_non_finite_gate_flag_is_a_precondition_error(tmp_path, capsys, command, gate):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": {"kind": "plane"}, "grid": [5, 5]}))
    argv = (["verify", "--config", str(cfg)] if command == "verify"
            else ["example", "plane", "--grid", "5", "5"])
    code, out, err = run(capsys, *argv, f"--gate={gate}")
    assert code == EXIT_PRECONDITION
    assert out == "" and err == f"error: --gate must be finite, got {float(gate)}\n"


THETAS = ("--theta1", "0.5235987756", "--theta2", "1.0471975512")


# zero width; a squared step that underflows to 0; one that is subnormal
@pytest.mark.parametrize("domain", [[0, 0, -1, 1], [-1, 1, 2, 2], [0, 1e-300, -1, 1],
                                    [0, 4e-155, -1, 1]])
def test_verify_zero_width_domain_is_a_precondition_error(tmp_path, capsys, domain):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"graph": {**GRAPH, "domain": domain}, "grid": [5, 5]}))
    code, out, err = run(capsys, "verify", "--config", str(path))
    assert code == EXIT_PRECONDITION
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "domain" in err and "Warning" not in err


def test_verify_narrow_domain_runs_clean(tmp_path, capsys):
    # the squared grid step 6.25e-26 is still a normal float
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"graph": {**GRAPH, "domain": [0, 1e-12, -1, 1]},
                                "grid": [5, 5]}))
    code, out, err = run(capsys, "verify", "--config", str(path))
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["report"]["grid"] == [5, 5]


def test_verify_reversed_domain_is_kept(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"graph": {"f": "x + 0.3*y", "g": "x*y",
                                          "domain": [1, -1, 0.5, -0.5]}, "grid": [5, 5]}))
    code, out, _ = run(capsys, "verify", "--config", str(path))
    assert code == EXIT_GATE
    assert json.loads(out)["report"]["grid"] == [5, 5]


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
    ((), {"c1": 3.3333333333, "branch": 2}, EXIT_PARSE, "branch"),
    ((), {"c1": None}, EXIT_PARSE, "c1"),
    ((), {"c1": [3]}, EXIT_PARSE, "c1"),
    ((), {"c1": "abc"}, EXIT_PARSE, "c1"),
    ((), {"c1": math.inf}, EXIT_PARSE, "c1"),
    ((), {"c1": 2}, EXIT_PRECONDITION, "c1"),
    ((), {"c1": 3.3333333333, "seed": "0.1,0.2", "phi": "x", "psi": 5}, EXIT_PARSE, "psi"),
    ((), {"c1": 3.3333333333, "seed": "0.1,0.2", "phi": ["x"], "psi": "x"},
     EXIT_PARSE, "phi"),
    ((), {"c1": 3.3333333333, "x": [True, 0.05]}, EXIT_PARSE, "config x "),
    ((), {"c1": 3.3333333333, "hx": True}, EXIT_PARSE, "config hx "),
    ((), {"c1": 3.3333333333, "ymax": "0.006"}, EXIT_PARSE, "config ymax "),
    ((), {"c1": 3.3333333333, "branch": True}, EXIT_PARSE, "config branch "),
    ((), {"c1": 3.3333333333, "seed": {"u0": "0.1", "v0": True}}, EXIT_PARSE,
     "config seed.u0 "),
    ((), {"c1": 3.3333333333, "seed": {"u0": 0.1, "v0": True}}, EXIT_PARSE,
     "config seed.v0 "),
    (("--seed", "nan,1"), None, EXIT_PARSE, "seed"),
    (("--seed", ".5,1"), None, EXIT_PARSE, "seed"),
    (("--curvature", "nan"), None, EXIT_PRECONDITION, "--curvature"),
    (("--curvature", "inf"), None, EXIT_PRECONDITION, "--curvature"),
    (("--gate", "nan"), None, EXIT_PRECONDITION, "--gate"),
    (("--gate", "inf"), None, EXIT_PRECONDITION, "--gate"),
], ids=["hx-zero", "hy-zero", "config-hx-zero", "hx-negative", "hx-nan",
        "hx-inf", "hx-too-coarse", "ymax-zero", "ymax-nan", "x-reversed",
        "config-hx-string", "config-branch-two", "config-c1-null", "config-c1-list",
        "config-c1-string", "config-c1-infinite", "config-c1-two",
        "config-psi-number", "config-phi-list", "config-x-entry-true",
        "config-hx-true", "config-ymax-string", "config-branch-true",
        "config-seed-u0-string", "config-seed-v0-true", "seed-nan",
        "seed-not-json-numbers", "curvature-nan",
        "curvature-inf", "gate-nan", "gate-inf"])
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
    rc, out, err = run(capsys, "construct", *options)
    assert rc == code
    assert err.startswith("error: ") and named in err
    assert out == "" and err.count("\n") == 1


@pytest.mark.parametrize("command, document, code, offset", [
    ("construct", {"c1": 3.3333333333, "phi": "x^-1", "psi": "x"}, EXIT_PARSE, 1),
    ("construct", {"c1": 3.3333333333, "phi": "(x-1)^0.5", "psi": "x"}, EXIT_PARSE, 5),
    ("verify", {"graph": {"f": "x^-1", "g": "y"}, "grid": [9, 9]}, EXIT_PRECONDITION, 1),
    ("verify", {"graph": {"f": "(x-2)^0.5", "g": "y"}, "grid": [9, 9]},
     EXIT_PRECONDITION, 5),
    ("construct", {"c1": 3.3333333333, "phi": "1e200*1e200*x", "psi": "x"}, EXIT_PARSE, 5),
    ("verify", {"graph": {"f": "1e200*1e200*x", "g": "y"}, "grid": [9, 9]},
     EXIT_PRECONDITION, 5),
], ids=["construct-inverse", "construct-complex", "verify-inverse", "verify-complex",
        "construct-overflow", "verify-overflow"])
def test_power_without_a_finite_real_value_is_an_eval_error(
        tmp_path, capsys, command, document, code, offset):
    # the exit code sqrt of a negative value gets, at the offset of the
    # operator ('^', or the first '*' that overflows)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    rc, _, err = run(capsys, command, "--config", str(path))
    assert rc == code
    assert err.startswith("error: ") and f"(at offset {offset})" in err
    assert "not a finite real number" in err


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
