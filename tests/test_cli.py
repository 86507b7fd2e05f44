"""Command-line behavior: subcommands, exit codes, determinism, exports."""

import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import helix4
from helix4 import catalog, cli, grassmann, helix_construct as hc, surface_analysis
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


def angles_of_plane(capsys, obj):
    """``angles --v obj --w PLANE_12``; JSON has no infinity, so an inf
    entry is written as the literal 1e400, which decodes to it."""
    return run(capsys, "angles", "--v", json.dumps(obj).replace("Infinity", "1e400"),
               "--w", PLANE_12)


def test_plane_json_round_trip(tmp_path, capsys):
    # the plane an example writes reads back; a random frame reads as itself
    code, out, _ = run(capsys, "example", "plane", "--grid", "5", "5")
    written = json.loads(out)["plane"]
    assert code == EXIT_OK and set(written) == {"b1", "b2", "oriented"}
    P = grassmann.random_plane(np.random.default_rng(23))
    obj = {"b1": list(P.b1), "b2": list(P.b2), "oriented": P.oriented}
    for plane in (written, obj):
        code, out, _ = run(capsys, "angles", "--v", json.dumps(plane), "--w", json.dumps(plane))
        assert code == EXIT_OK
        assert json.loads(out)["theta2"] == pytest.approx(0.0, abs=1e-7)
    # "oriented": false is read as an unoriented plane, which has no Gauss map
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"surface": {"kind": "plane"}, "grid": [5, 5],
                               "plane": {**obj, "oriented": False}}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == EXIT_PRECONDITION and "oriented reference plane" in err
    code, _, err = angles_of_plane(capsys, {"b1": [1, 0, 0, 0]})
    assert (code, err) == (EXIT_PARSE, "error: command line is missing --v.b2\n")


@pytest.mark.parametrize("field, obj", [
    ("b1", {"b1": [True, 0, 0, 0], "b2": [0, 1, 0, 0]}),
    ("b2", {"b1": [1, 0, 0, 0], "b2": [0, 0, "1", 0]}),
    ("b2", {"b1": [1, 0, 0, 0], "b2": [0, 0, "x", 0]}),
    ("b2", {"b1": [1, 0, 0, 0], "b2": [0, None, 0, 0]}),
    ("b1", {"b1": [[1, 0], [0, 0]], "b2": [0, 1, 0, 0]}),
    ("b1", {"b1": "abcd", "b2": [0, 1, 0, 0]}),
    ("b1", {"b1": 1, "b2": [0, 1, 0, 0]}),
    ("oriented", {"b1": [1, 0, 0, 0], "b2": [0, 1, 0, 0], "oriented": "false"}),
    ("oriented", {"b1": [1, 0, 0, 0], "b2": [0, 1, 0, 0], "oriented": 0}),
    ("oriented", {"b1": [1, 0, 0, 0], "b2": [0, 1, 0, 0], "oriented": None}),
])
def test_plane_json_of_the_wrong_type_exits_2(capsys, field, obj):
    code, out, err = angles_of_plane(capsys, obj)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith(f"error: command line --v.{field} must be ") and err.count("\n") == 1


# a vector of the wrong length or with an entry past float range is not of
# its kind (exit 2); four numbers that are no orthonormal frame are a
# precondition violation (exit 3)
@pytest.mark.parametrize("obj, code, named", [
    ({"b1": [1, 0, 0], "b2": [0, 1, 0, 0]}, EXIT_PARSE, "command line --v.b1 must be "),
    ({"b1": [math.inf, 0, 0, 0], "b2": [0, 1, 0, 0]}, EXIT_PARSE,
     "command line --v.b1 must be "),
    ({"b1": [10 ** 400, 0, 0, 0], "b2": [0, 1, 0, 0]}, EXIT_PARSE,
     "command line --v.b1 must be "),
    ({"b1": [1, 1, 0, 0], "b2": [0, 1, 0, 0]}, EXIT_PRECONDITION, "--v: plane frame vectors "),
], ids=["obj0", "obj1", "obj2", "obj3"])
def test_plane_json_of_a_bad_frame_exits_2_or_3(capsys, obj, code, named):
    got, out, err = angles_of_plane(capsys, obj)
    assert got == code and out == ""
    assert err.startswith(f"error: {named}") and err.count("\n") == 1


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
    assert run(capsys, "deform", "--m", "1", "--c", "1.5") == (
        EXIT_PRECONDITION, "", "error: normalized constant c must be finite and > 2, got 1.5\n")


@pytest.mark.parametrize("m, c, named", [
    ("inf", "3.3", "parameter m"), ("nan", "3.3", "parameter m"),
    ("1", "inf", "constant c"), ("1", "nan", "constant c"),
])
def test_deform_rejects_non_finite_m_and_c(capsys, m, c, named):
    code, out, err = run(capsys, "deform", "--m", m, "--c", c)
    assert code == EXIT_PRECONDITION
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert f"{named} must be finite" in err


@pytest.mark.parametrize("command, t1, t2, named", [
    ("deform", "1e-170", "1e-160", "m^2 = 0"),
    ("construct", "1e-200", "2e-200", "m^2 = 0"),
    ("deform", "1e-300", "1.5707963267948963", "leaves float64"),
    ("construct", "1e-300", "1.5707963267948963", "leaves float64"),
])
def test_extreme_angle_pairs_are_refused(capsys, command, t1, t2, named):
    # m^2 = tan(theta1) tan(theta2) underflows to 0, or c = c1/m^2 overflows:
    # one error line, no traceback and no "c": null
    code, out, err = run(capsys, command, "--theta1", t1, "--theta2", t2)
    assert code == EXIT_PRECONDITION
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def test_a_cylinder_whose_pitch_gives_a_negative_radius_exits_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": {"kind": "product_helix_cylinder", "theta": 0.5,
                                           "pitch": -1}}))
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert (code, out, err) == (EXIT_PRECONDITION, "",
                                "error: surface: cylinder radius must be positive\n")


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
    # the .bin holds each field indexed [y, x], the graph's node arrays [x, y]
    t1, t2, h, y_max, x_range = 0.5235987756, 1.0471975512, 2e-3, 0.006, (-0.05, 0.05)
    prefix = str(tmp_path / "sol")
    code, _, _ = run(capsys, "construct", "--theta1", str(t1), "--theta2", str(t2),
                     "--hx", str(h), "--hy", str(h), "--ymax", str(y_max), "--save", prefix)
    assert code == EXIT_OK
    m, c = hc.deform_inverse((t1, t2))
    prob = hc.default_problem(c, x_range, y_max, h, h)
    graph = hc.solution_graph(hc.recover_g(hc.solve_pde(prob)), m=m)
    xs, ys = graph.xs, graph.ys
    meta = json.loads((tmp_path / "sol.meta.json").read_text())
    assert (meta["nx"], meta["ny"]) == (xs.size, ys.size) and xs.size != ys.size
    layers = np.frombuffer((tmp_path / "sol.bin").read_bytes()).reshape(6, ys.size, xs.size)
    node_arrays = dict(zip(cli.SOLUTION_FIELDS, (graph.f, graph.g, *graph.gradients())))
    for k, layer in zip(meta["fields"], layers, strict=True):
        assert layer.tobytes() == np.ascontiguousarray(node_arrays[k].T).tobytes(), k


@pytest.mark.parametrize("window", [
    ("--hx", "2.5e-4", "--hy", "1.725e-4", "--ymax", "0.01656"),
    ("--hx", "2.5e-4", "--hy", "2.5e-4", "--ymax", "0.024"),
], ids=["hy-0.69-hx", "96-steps"])
def test_long_construct_marches_stay_accurate(capsys, window):
    # 96 output steps each way; an undamped odd-even grid mode grew by 1.38
    # (hy = 0.69 hx) or 1.118 (hy = hx) per midpoint sub-step
    code, out, _ = run(capsys, "construct", *THETAS, *window, "--verify")
    d = json.loads(out)
    assert code == EXIT_OK and d["passed"] is True
    assert d["termination"] == {"up": "completed", "down": "completed"}
    assert d["max_loop_defect"] < 1e-10


def test_construct_equal_angles_rejected(capsys):
    assert run(capsys, "construct", "--theta1", "0.5", "--theta2", "0.5") == (
        EXIT_PRECONDITION, "",
        "error: need 0 < theta1 < theta2 < pi/2 (equal angles collapse the family)\n")


def test_verify_grid_below_3x3_exits_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": {"kind": "clifford_torus"}, "grid": [2, 2]}))
    assert run(capsys, "verify", "--config", str(cfg)) == (
        EXIT_PRECONDITION, "", "error: grid must be at least 3x3 for the FD stencil\n")


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


@pytest.mark.parametrize("psi", ["0.5 + 0.1*2^x", "sqrt(x + 0.05)"])
def test_construct_reads_a_config_psi_for_its_values_only(tmp_path, capsys, psi):
    # psi' is read nowhere: a psi whose derivative the parser cannot form
    # (a variable exponent) or cannot evaluate (sqrt' at x = -0.05) builds
    cfg = tmp_path / "pde.json"
    cfg.write_text(json.dumps({"c1": 10.0 / 3.0, "phi": "x^2 + 0.9*x", "psi": psi}))
    for extra in ((), ("--verify",)):
        code, out, err = run(capsys, "construct", "--config", str(cfg), *extra)
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["passed"] is True
    # a psi whose values fail still exits 2
    cfg.write_text(json.dumps({"c1": 10.0 / 3.0, "phi": "x^2 + 0.9*x", "psi": "sqrt(x - 1)"}))
    assert run(capsys, "construct", "--config", str(cfg)) == (
        EXIT_PARSE, "", "error: sqrt of negative value -1.05 (at offset 0)\n")


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


def saved_grid(tmp_path, capsys) -> str:
    prefix = str(tmp_path / "sol")
    code, _, _ = run(capsys, "construct", *THETAS, "--hx", "2e-3", "--hy", "2e-3",
                     "--ymax", "0.004", "--save", prefix, "--out", str(tmp_path / "r.json"))
    assert code == EXIT_OK
    return prefix


@pytest.mark.parametrize("flag", ["--out", "--csv", "--obj", "--save", "export --out"])
def test_an_unwritable_output_path_exits_2(tmp_path, capsys, flag):
    # an output in a directory that does not exist
    missing = tmp_path / "missing"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": {"kind": "plane"}, "grid": [5, 5]}))
    path = str(missing / "out")
    argv = {
        "--out": ["angles", "--v", PLANE_12, "--w", PLANE_34, "--out", path],
        "--csv": ["verify", "--config", str(cfg), "--csv", path],
        "--obj": ["example", "clifford_torus", "--grid", "5", "5", "--obj", path],
        "--save": ["construct", *THETAS, "--hx", "2e-3", "--hy", "2e-3", "--ymax", "0.004",
                   "--save", path],
    }.get(flag)
    if argv is None:
        argv = ["export", "--grid", saved_grid(tmp_path, capsys), "--format", "csv",
                "--out", path]
    code, _, err = run(capsys, *argv)
    written = path + ".bin" if flag == "--save" else path
    assert code == EXIT_PARSE
    assert err.startswith(f"error: cannot write {written}: ") and err.count("\n") == 1
    assert not missing.exists()


def test_export_of_an_unreadable_binary_dump_exits_2(tmp_path, capsys):
    prefix = saved_grid(tmp_path, capsys)
    Path(prefix + ".bin").unlink()
    Path(prefix + ".bin").mkdir()
    code, _, err = run(capsys, "export", "--grid", prefix, "--format", "csv",
                       "--out", str(tmp_path / "e.csv"))
    assert code == EXIT_PARSE
    assert err.startswith(f"error: cannot read {prefix}.bin: ") and err.count("\n") == 1


def test_export_csv_reproduces_the_saved_csv(tmp_path, capsys):
    # both take the grid axes from the sidecar, so one bundle has one set of
    # coordinates
    prefix = saved_grid(tmp_path, capsys)
    out = tmp_path / "e.csv"
    code, _, _ = run(capsys, "export", "--grid", prefix, "--format", "csv", "--out", str(out))
    assert code == EXIT_OK
    saved = Path(prefix + ".csv").read_text().splitlines()
    assert out.read_text().splitlines() == [",".join(line.split(",")[:8]) for line in saved]


@pytest.mark.parametrize("earlier", [False, True])
def test_a_failed_save_leaves_no_bundle_that_export_reads(tmp_path, capsys, earlier):
    prefix = str(tmp_path / "sol")
    if earlier:
        # an earlier good bundle of a different grid at the same prefix
        code, _, _ = run(capsys, "construct", *THETAS, "--hx", "2e-3", "--hy", "2e-3",
                         "--ymax", "0.006", "--save", prefix)
        assert code == EXIT_OK
        Path(prefix + ".csv").unlink()
    Path(prefix + ".csv").mkdir()
    code, _, err = run(capsys, "construct", *THETAS, "--hx", "2e-3", "--hy", "2e-3",
                       "--ymax", "0.004", "--save", prefix)
    assert code == EXIT_PARSE and err.startswith(f"error: cannot write {prefix}.csv: ")
    code, _, err = run(capsys, "export", "--grid", prefix, "--format", "csv",
                       "--out", str(tmp_path / "e.csv"))
    assert code == EXIT_PARSE and err.startswith(f"error: no saved grid at {prefix} ")


def test_a_sidecar_that_cannot_be_removed_exits_2_before_the_dump(tmp_path, capsys):
    prefix = str(tmp_path / "sol")
    Path(prefix + ".meta.json").mkdir()
    code, out, err = run(capsys, "construct", *THETAS, "--hx", "2e-3", "--hy", "2e-3",
                         "--ymax", "0.004", "--save", prefix)
    assert code == EXIT_PARSE and json.loads(out)["passed"]
    assert err.startswith(f"error: cannot write {prefix}.meta.json: ") and err.count("\n") == 1
    assert not Path(prefix + ".bin").exists()


def test_only_construct_verify_takes_the_2_jets_of_the_graph(tmp_path, capsys, monkeypatch):
    # a construct reads the gradients of its graph; its 2-jets (f and g, one
    # _fd_jet call each) are taken only for the structure report
    calls, graphs = [], []
    fd_jet, solution_graph = surface_analysis._fd_jet, hc.solution_graph
    monkeypatch.setattr(surface_analysis, "_fd_jet",
                        lambda *a: calls.append(a[0]) or fd_jet(*a))
    monkeypatch.setattr(hc, "solution_graph",
                        lambda *a, **k: graphs.append(solution_graph(*a, **k)) or graphs[-1])
    window = ("--hx", "2e-3", "--hy", "2e-3", "--ymax", "0.004")
    code, _, _ = run(capsys, "construct", *THETAS, *window, "--save", str(tmp_path / "sol"))
    assert code == EXIT_OK and calls == []
    code, out, _ = run(capsys, "construct", *THETAS, *window, "--verify")
    assert code == EXIT_OK and "verify" in json.loads(out)
    assert len(calls) == 2 and calls[0] is graphs[-1].f and calls[1] is graphs[-1].g


def test_auto_seed_construct_builds_the_accepted_problem_once(capsys, monkeypatch):
    # the first candidate of the scan is accepted for these angles
    built, data = [], []
    post_init, initial_data = hc.PDEProblem.__post_init__, hc.paper_initial_data
    monkeypatch.setattr(hc.PDEProblem, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    monkeypatch.setattr(hc, "paper_initial_data",
                        lambda *args: data.append(args) or initial_data(*args))
    code, out, _ = run(capsys, "construct", *THETAS)
    assert code == EXIT_OK
    assert len(built) == 1 and len(data) == 1
    assert json.loads(out)["seed"] == {"u0": built[0].u0, "v0": built[0].v0}


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


# ---------------------------------------------------------------------------
# grid text: every CSV and OBJ the command line writes against a per-node
# rendering, with blocks of a few nodes, so that a block ends inside a grid
# row, a grid row spans several blocks and the last block is partial
# ---------------------------------------------------------------------------

def per_node_row(values, sep=","):
    return sep.join(f"{v:.17g}" for v in values)


def per_node_obj(coords, rows, N, M):
    """The OBJ text of an (N, M) grid of vertex rows, rendered node by node."""
    dropped = ({0, 1, 2, 3} - set(coords)).pop()
    faces = []
    for i in range(N - 1):
        for j in range(M - 1):
            a, c = i * M + j + 1, (i + 1) * M + j + 1
            faces += [f"f {a} {a + 1} {c + 1}", f"f {a} {c + 1} {c}"]
    return [f"# projection to coordinates {coords}; dropped coordinate: "
            f"{'xyzw'[dropped]} (index {dropped})",
            *(f"v {per_node_row(row, ' ')}" for row in rows), *faces]


def assert_blocks_split_rows(N, M, cells):
    # a line of ``cells`` cells is written in blocks of this many nodes: the
    # first block ends inside a row, and the last one is partial
    block = max(1, 8 * cli.ROW_BLOCK // cells)
    assert block % M and (N * M) % block


def capture_reports(monkeypatch):
    """Keep every report the command line's ``verify_helix`` returns."""
    reports, verify_helix = [], cli.verify_helix
    monkeypatch.setattr(cli, "verify_helix",
                        lambda *args: reports.append(verify_helix(*args)) or reports[-1])
    return reports


# values the text kernel formats itself mixed with values it leaves to "%.17g"
MIXED_FLOATS = [1e-300, 5e-324, math.nan, -0.0, 1.5e100, -2.5e-150, 0.1, -math.inf,
                1.0000076293945312, 0.0, 123456789.125, -7e-5, 1e17, 99999999999999999.0]
# rows wider than one 8 * ROW_BLOCK block of dumps_stable
WIDE_FINITE = np.resize([v for v in MIXED_FLOATS if math.isfinite(v)], (3, 8 * cli.ROW_BLOCK + 3))


@pytest.mark.parametrize("block", [1, 2, 3, 5, 1024])
@pytest.mark.parametrize("order", ["01", "10", "0", "1", ""])
def test_write_rows_matches_a_per_node_rendering(monkeypatch, block, order):
    monkeypatch.setattr(cli, "ROW_BLOCK", block)
    rng = np.random.default_rng(3)
    N, M = 4, 7
    axes = {"0": rng.standard_normal(N), "1": rng.standard_normal(M) * 1e-300}
    axes["1"][2] = -0.0
    grids = [rng.standard_normal((N, M)), np.full((N, M), math.nan),
             np.array(MIXED_FLOATS * 2).reshape(N, M)]
    cells = [*((int(a), axes[a]) for a in order), *grids]
    line = "<" + "|".join(["%.17g"] * len(cells)) + ">\n"
    fh = io.StringIO()
    cli._write_rows(fh, line, cells)
    rows = [[*(axes[a][i if a == "0" else j] for a in order), *(g[i, j] for g in grids)]
            for i in range(N) for j in range(M)]
    assert fh.getvalue() == "".join(f"<{per_node_row(row, '|')}>\n" for row in rows)


@pytest.mark.parametrize("block", [1, 2, 3, 5, 1024])
def test_write_rows_matches_a_per_node_rendering_of_integers(monkeypatch, block):
    monkeypatch.setattr(cli, "ROW_BLOCK", block)
    N, M = 3, 11
    grids = [np.arange(N * M).reshape(N, M) * 997 - 5, np.arange(N * M).reshape(N, M) % 10,
             np.full((N, M), np.iinfo(np.int64).min)]
    axis = np.array([7, -40_000, 10**17])
    fh = io.StringIO()
    cli._write_rows(fh, "f %d %d/%d %d\n", [(0, axis), *grids])
    assert fh.getvalue() == "".join(f"f {axis[i]} {grids[0][i, j]}/{grids[1][i, j]} "
                                    f"{grids[2][i, j]}\n" for i in range(N) for j in range(M))


def test_write_rows_working_memory_does_not_grow_with_the_grid():
    # the writer formats ROW_BLOCK nodes at a time, so a 400x400 grid (16
    # times the nodes) peaks about where a 100x100 grid does; only the
    # texts of the axis values grow with it
    class Discard:
        def write(self, text):
            pass

    peaks = []
    for n in (100, 100, 400):
        rng = np.random.default_rng(0)
        cells = [(0, np.linspace(0, 1, n)), (1, np.linspace(-1, 1, n)),
                 *(rng.standard_normal((n, n)) for _ in range(4))]
        tracemalloc.start()
        cli._write_rows(Discard(), ",".join(["%.17g"] * len(cells)) + "\n", cells)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[2] < 1.1 * peaks[1]   # the first 100x100 pass also builds the tables


def test_bundle_csv_matches_a_per_node_rendering(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "ROW_BLOCK", 9)
    h, y_max, x_range = 2e-3, 0.004, (-0.05, 0.05)
    prefix = str(tmp_path / "sol")
    code, _, _ = run(capsys, "construct", *THETAS, "--hx", str(h), "--hy", str(h),
                     "--ymax", str(y_max), "--save", prefix)
    assert code == EXIT_OK
    params = hc.HelixParams(*map(float, THETAS[1::2]))
    m, c = hc.deform_inverse((params.theta1, params.theta2))
    graph = hc.solution_graph(hc.recover_g(hc.solve_pde(
        hc.default_problem(c, x_range, y_max, h, h))), m=m)
    # the x and y cells are the sidecar's axes x0 + hx k and y0 + hy k
    meta = json.loads((tmp_path / "sol.meta.json").read_text())
    xs, ys = (meta[start] + meta[step] * np.arange(meta[n], dtype=float)
              for start, step, n in (("x0", "hx", "nx"), ("y0", "hy", "ny")))
    np.testing.assert_allclose(xs, graph.xs, rtol=0, atol=1e-16)
    np.testing.assert_allclose(ys, graph.ys, rtol=0, atol=1e-16)
    grads = graph.gradients()
    lines = (tmp_path / "sol.csv").read_text().splitlines()
    assert_blocks_split_rows(ys.size, xs.size, len(lines[0].split(",")))
    residuals = [hc.GRAPH_RESIDUALS[k](*grads, params) for k in ("helix_trace", "helix_det")]
    columns = [graph.f, graph.g, *grads] + residuals
    assert lines[1:] == [per_node_row([xs[i], ys[j], *(a[i, j] for a in columns)])
                         for j in range(ys.size) for i in range(xs.size)]


def test_verify_csv_matches_a_per_node_rendering(tmp_path, capsys, monkeypatch):
    # u is the slow axis here; the residual columns are nan on the outer ring
    monkeypatch.setattr(cli, "ROW_BLOCK", 7)
    reports = capture_reports(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": {"kind": "clifford_torus"}, "grid": [6, 13]}))
    csv_path = tmp_path / "samples.csv"
    code, _, _ = run(capsys, "verify", "--config", str(cfg), "--csv", str(csv_path))
    assert code == EXIT_OK
    (r,) = reports
    N, M = r.points.shape[:2]
    lines = csv_path.read_text().splitlines()
    assert_blocks_split_rows(N, M, len(lines[0].split(",")))
    columns = [*np.moveaxis(r.points, -1, 0), r.theta1, r.theta2, r.K, r.K_perp,
               r.structure_residual, r.codazzi_residual]
    assert lines[1:] == [per_node_row([r.u[i], r.v[j], *(a[i, j] for a in columns)])
                         for i in range(N) for j in range(M)]
    assert lines[1].endswith(",nan,nan") and ",nan" not in lines[M + 2]


def test_export_obj_matches_a_per_node_rendering_for_every_projection(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "ROW_BLOCK", 4)
    prefix = str(tmp_path / "sol")
    run(capsys, "construct", *THETAS, "--hx", "2e-3", "--hy", "2e-3",
        "--ymax", "0.006", "--save", prefix, "--out", str(tmp_path / "r.json"))
    meta = json.loads((tmp_path / "sol.meta.json").read_text())
    fields, nx, ny = meta["fields"], meta["nx"], meta["ny"]
    assert_blocks_split_rows(nx, ny, 3)
    data = np.fromfile(prefix + ".bin").reshape(len(fields), ny, nx)
    xs = meta["x0"] + meta["hx"] * np.arange(nx, dtype=float)
    ys = meta["y0"] + meta["hy"] * np.arange(ny, dtype=float)
    f, g = data[fields.index("f")], data[fields.index("g")]
    points = [(xs[i], ys[j], f[j, i], g[j, i]) for i in range(nx) for j in range(ny)]
    obj_path = tmp_path / "exported.obj"
    triples = list(itertools.permutations(range(4), 3))
    assert len(triples) == 24
    for coords in triples:
        names = ",".join("xyfg"[k] for k in coords)
        code, _, _ = run(capsys, "export", "--grid", prefix, "--format", "obj",
                         "--coords", names, "--out", str(obj_path))
        assert code == EXIT_OK
        expected = per_node_obj(coords, [[p[k] for k in coords] for p in points], nx, ny)
        assert obj_path.read_text().splitlines() == expected, names


def test_an_obj_export_writes_blocks_of_up_to_8_row_blocks_of_cells(tmp_path, capsys,
                                                                    monkeypatch):
    # a 305 x 49 bundle: the grid axes are formatted once each, then the
    # vertex line's three cells go 2730 nodes a block and the face line's six
    # 1365, one call per block: 2 + 6 + 11 calls
    from helix4 import numtext
    sidecar = {**SIDECAR, "nx": 305, "ny": 49, "fields": ["f", "g"]}
    (tmp_path / "sol.meta.json").write_text(json.dumps(sidecar))
    np.random.default_rng(5).standard_normal(2 * 305 * 49).tofile(tmp_path / "sol.bin")
    calls, texts = [], numtext.texts
    monkeypatch.setattr(numtext, "texts", lambda conv, v: calls.append(v.size) or texts(conv, v))
    code, _, _ = run(capsys, "export", "--grid", str(tmp_path / "sol"), "--format", "obj",
                     "--out", str(tmp_path / "sol.obj"))
    assert code == EXIT_OK
    assert calls == [305, 49, *[2730] * 5, 305 * 49 - 13650,
                     *[6 * 1365] * 10, 6 * (304 * 48 - 13650)]


def test_example_obj_matches_a_per_node_rendering(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "ROW_BLOCK", 4)
    reports = capture_reports(monkeypatch)
    obj = tmp_path / "cone.obj"
    code, _, _ = run(capsys, "example", "orbit_cone", "--grid", "6", "9",
                     "--obj", str(obj), "--out", str(tmp_path / "r.json"))
    assert code == EXIT_OK
    (r,) = reports
    N, M = r.points.shape[:2]
    assert_blocks_split_rows(N, M, 3)
    assert obj.read_text().splitlines() == per_node_obj(
        (0, 1, 2), r.points[..., :3].reshape(-1, 3), N, M)


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
# per command and key: a valid document holding the key, and the Python type
# of the key's kind where some probes are of that kind (str or bool: those
# probes are then skipped), else None
PLANE_KEYS = (("b1", None), ("b2", None), ("oriented", bool))
KEY_BASES = {
    "angles": ({"V": P12, "W": P12},
               {"V": None, "W": None,
                **{f"{plane}.{k}": kind for plane in ("V", "W") for k, kind in PLANE_KEYS}}),
    "verify-surface": ({"surface": {"kind": "plane"}, "grid": [5, 5]},
                       {"surface": None, "surface.kind": str}),
    "verify-torus": ({"surface": {"kind": "clifford_torus", "r1": 1, "r2": 0.5},
                      "grid": [5, 5]}, {"surface.r1": None, "surface.r2": None}),
    "verify-cylinder": ({"surface": {"kind": "product_helix_cylinder", "theta": 0.6,
                                     "radius": math.sin(0.6), "pitch": math.cos(0.6)},
                         "grid": [5, 5]},
                        {f"surface.{k}": None for k in ("theta", "radius", "pitch")}),
    "verify-orbit": ({"surface": {"kind": "revolution_orbit", "profile": "helix", "theta": 0.5,
                                  "offset": 1, "a": 1, "b": 0.5, "z0": 1, "R": 1, "beta": 1,
                                  "s_range": [0, 2], "phi_range": [0, 3]},
                      "grid": [5, 5]},
                     {"surface.profile": str,
                      **{f"surface.{k}": None for k in ("theta", "offset", "a", "b", "z0", "R",
                                                         "beta", "s_range", "phi_range")}}),
    "verify-plane": ({"surface": {"kind": "plane", "p0": [0, 0, 0, 0], "a": [1, 0, 0, 0],
                                  "b": [0, 1, 0, 0]}, "grid": [5, 5]},
                     {f"surface.{k}": None for k in ("p0", "a", "b")}),
    "verify-poly": ({"surface": {"kind": "graph_poly", "f_coeffs": [[0, 0], [0, 1]],
                                 "g_coeffs": [[0, 0.5]], "x_range": [-1, 1], "y_range": [-1, 1]},
                     "grid": [5, 5]},
                    {f"surface.{k}": None
                     for k in ("f_coeffs", "g_coeffs", "x_range", "y_range")}),
    "verify": ({"graph": {**GRAPH, "domain": [-1, 1, -1, 1]}, "plane": P12,
                "grid": [5, 5], "gate": 1e-3},
               {"graph": None, "graph.f": str, "graph.g": str, "graph.domain": None,
                "plane": None, "grid": None, "gate": None,
                **{f"plane.{k}": kind for k, kind in PLANE_KEYS}}),
    "construct": ({"c1": C1, "x": [-0.05, 0.05], "ymax": 0.006, "hx": 1e-3, "hy": 1e-3,
                   "branch": 1, "seed": {"u0": -1.176142304907481, "v0": 1.2179310100632075},
                   "phi": "x^2 - 1.176142304907481*x", "psi": "x + 1.2179310100632075"},
                  {"c1": None, "x": None, "ymax": None, "hx": None, "hy": None,
                   "branch": None, "seed": None, "seed.u0": None, "seed.v0": None,
                   "phi": str, "psi": str}),
    "export": ({**SIDECAR, "fields": ["f", "g"]},
               {k: None for k in ("nx", "ny", "x0", "y0", "hx", "hy", "fields")}),
}
PROBES = {"null": None, "true": True, "abc": "abc", "numeric-string": "0.1",
          "empty-list": [], "empty-object": {}, "1e400": math.inf}
KEY_CASES = [pytest.param(base, key, value, id=f"{base}-{key}-{label}")
             for base, (_, keys) in KEY_BASES.items() for key, own in keys.items()
             for label, value in PROBES.items()
             if not (own and isinstance(value, own))]
# a key that is no parameter of the surface's catalog kind, with a number
KEY_CASES += [pytest.param(base, f"surface.{key}", 2.0, id=f"{base}-surface.{key}-unknown")
              for base, key in (("verify-surface", "r1"), ("verify-torus", "radius"),
                                ("verify-cylinder", "r1"), ("verify-orbit", "radius"),
                                ("verify-plane", "theta"), ("verify-poly", "domain"))]


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


@pytest.mark.parametrize("base, key, value", [
    ("angles", "V.b1", [10 ** 400, 0, 0, 0]),
    ("construct", "x", list(range(10_000))),
    ("verify", "graph.domain", "x" * 10_000),
], ids=["plane-10^400", "x-10000-entries", "domain-10000-characters"])
def test_an_error_line_shortens_a_long_value(tmp_path, capsys, base, key, value):
    document = json.loads(json.dumps(KEY_BASES[base][0]))
    holder, name = _holder(document, key)
    holder[name] = value
    code, out, err = run_key_document(capsys, tmp_path, base, document)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err


@pytest.mark.parametrize("surface, key", [
    ({"kind": "graph_poly", "f_coeffs": [[True]], "g_coeffs": [[0]]}, "surface.f_coeffs"),
    ({"kind": "graph_poly", "f_coeffs": [[0, 0], [0]], "g_coeffs": [[0]]}, "surface.f_coeffs"),
    ({"kind": "graph_poly", "f_coeffs": [[0]], "g_coeffs": [0, 1]}, "surface.g_coeffs"),
    ({"kind": "graph_poly", "f_coeffs": [[0]], "g_coeffs": [[]]}, "surface.g_coeffs"),
    ({"kind": "plane", "a": [True, 0, 0, 0]}, "surface.a"),
    ({"kind": "plane", "p0": [0, 0, 0]}, "surface.p0"),
    ({"kind": "revolution_orbit", "phi_range": ["0", "1"]}, "surface.phi_range"),
    ({"kind": "revolution_orbit", "s_range": [True, 1.5]}, "surface.s_range"),
    ({"kind": "revolution_orbit", "profile": 5}, "surface.profile"),
])
def test_catalog_list_parameters_are_checked_entry_by_entry(tmp_path, capsys, surface, key):
    code, out, err = run_key_document(capsys, tmp_path, "verify",
                                      {"surface": surface, "grid": [5, 5]})
    assert code == EXIT_PARSE
    assert out == "" and err.startswith(f"error: config {key} must be ") and err.count("\n") == 1


def _with_big_number(value, big):
    """``value`` with its number, or the last number of its (nested) list,
    replaced by ``big``."""
    return [*value[:-1], _with_big_number(value[-1], big)] if isinstance(value, list) else big


def _holder(document, key):
    """The object that holds the (dotted) ``key`` of ``document``, and its name."""
    *parents, name = key.split(".")
    for parent in parents:
        document = document[parent]
    return document, name


def _lookup(document, key):
    holder, name = _holder(document, key)
    return holder[name]


# JSON integers past numpy's int64: every key whose valid value holds numbers
# gets one in place of its (last) number
BIG_INTS = {"2^63": 2 ** 63, "2^70": 2 ** 70}
BIG_CASES = [pytest.param(base, key, big, id=f"{base}-{key}-{label}")
             for base, (document, keys) in KEY_BASES.items()
             for key, own in keys.items()
             if not (own or isinstance(_lookup(document, key), dict))
             for label, big in BIG_INTS.items()]


@pytest.mark.parametrize("base, key, big", BIG_CASES)
def test_a_big_json_integer_exits_with_a_documented_code(tmp_path, capsys, base, key, big):
    document = json.loads(json.dumps(KEY_BASES[base][0]))
    holder, name = _holder(document, key)
    holder[name] = _with_big_number(holder[name], big)
    code, out, err = run_key_document(capsys, tmp_path, base, document)
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_DEGENERATE, EXIT_GATE)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
    assert out == "" or isinstance(json.loads(out), dict)


@pytest.mark.parametrize("command, document, expected", [
    ("construct", {"c1": C1, "ymax": 2 ** 64}, EXIT_PRECONDITION),
    ("construct", {"c1": C1, "x": [-0.05, 2 ** 70]}, EXIT_PRECONDITION),
    ("verify", {"graph": {**GRAPH, "domain": [0, 2 ** 70, 0, 1]}}, EXIT_OK),
    ("verify", {"graph": GRAPH, "grid": [5, 2 ** 63]}, EXIT_PRECONDITION),
], ids=["ymax-2^64", "x-2^70", "domain-2^70", "grid-2^63"])
def test_a_json_integer_is_read_as_its_float(tmp_path, capsys, command, document, expected):
    # each of these was a traceback, exit 1; the float of the same value
    # gives the same exit code and the same output
    as_float = json.loads(json.dumps(document), parse_int=float)
    results = [run_key_document(capsys, tmp_path, command, doc) for doc in (document, as_float)]
    assert results[0] == results[1]
    code, out, err = results[0]
    assert code == expected and "Traceback" not in err


@pytest.mark.parametrize("big", [2 ** 63, 2 ** 64, 2 ** 70], ids=["2^63", "2^64", "2^70"])
@pytest.mark.parametrize("key, explicit_seed", [("ymax", False), ("x", False), ("x", True)],
                         ids=["ymax", "x", "x-seeded"])
def test_a_window_numpy_cannot_index_is_a_window_error(tmp_path, capsys, big, key,
                                                       explicit_seed):
    document = {"c1": C1, key: big if key == "ymax" else [-0.05, big]}
    if explicit_seed:
        document["seed"] = {"u0": 0.7, "v0": 0.3}
    code, out, err = run_key_document(capsys, tmp_path, "construct", document)
    assert code == EXIT_PRECONDITION and out == ""
    assert re.fullmatch(r"error: a \d+x\d+ window has more nodes than numpy can count\n", err)
    window = ((-0.05, 0.05), big) if key == "ymax" else ((-0.05, big), 0.006)
    with pytest.raises(ValueError, match="more nodes than numpy can count"):
        hc.check_window(*window, 1e-3, 1e-3)


# sizes far past any address space, so the allocator refuses them at once
@pytest.mark.parametrize("command, document", [
    ("verify", {"graph": GRAPH, "grid": [5, 1e14]}),
    ("construct", {"c1": C1, "ymax": 1e12}),
], ids=["verify-grid", "construct-ymax"])
def test_an_array_too_large_for_memory_exits_3_with_one_line(tmp_path, capsys, command,
                                                             document):
    code, out, err = run_key_document(capsys, tmp_path, command, document)
    assert code == EXIT_PRECONDITION and out == ""
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("kind, present, missing", [
    ("product_helix_cylinder", {}, "theta"),
    ("graph_poly", {"g_coeffs": [[0, 1]]}, "f_coeffs"),
    ("graph_poly", {"f_coeffs": [[0, 1]]}, "g_coeffs"),
])
def test_a_missing_required_catalog_parameter_exits_2_naming_it(tmp_path, capsys, kind,
                                                                present, missing):
    # a KeyError traceback, exit 1, before
    document = {"surface": {"kind": kind, **present}, "grid": [5, 5]}
    code, out, err = run_key_document(capsys, tmp_path, "verify", document)
    assert (code, out, err) == (EXIT_PARSE, "", f"error: config is missing surface.{missing}\n")
    with pytest.raises(ValueError, match=f"{kind} needs the parameter '{missing}'"):
        catalog.generate(kind, **present)


# each exited 0 with RuntimeWarnings and null statistics, or 3 after LAPACK
# printed DLASCL parameter messages to the process's stdout
@pytest.mark.parametrize("surface", [
    {"surface": {"kind": "product_circles", "r1": r1}} for r1 in (1e78, 1e154, 1e200)] + [
    {"graph": {"f": f, "g": "y"}} for f in ("1e100*x", "1e200*x")] + [
    {"surface": {"kind": "clifford_torus", "r2": 1e308}},
    {"surface": {"kind": "graph_poly", "f_coeffs": [[0, 1]], "g_coeffs": [[1e308, 0], [0.5, 0]]}},
], ids=["circles-1e78", "circles-1e154", "circles-1e200", "graph-1e100", "graph-1e200",
        "torus-1e308", "poly-1e308"])
def test_a_surface_whose_arithmetic_overflows_exits_4_with_one_line(tmp_path, capfd, surface):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(surface))
    code = main(["verify", "--config", str(cfg)])
    out, err = capfd.readouterr()
    assert code == EXIT_DEGENERATE and out == ""
    assert re.fullmatch(r"error: (degenerate or non-finite metric|float64 arithmetic failed): "
                        r"[^\n]*\n", err), err


def test_a_plane_offset_past_float_range_exits_4_and_does_not_hang(tmp_path):
    # the sphere fit handed inf points to LAPACK, which did not return; a
    # child process with a timeout turns a hang into a failure
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": {"kind": "plane", "p0": [1e308, 0, 0, 0]},
                               "grid": [5, 5]}))
    src = str(Path(helix4.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "helix4", "verify", "--config", str(cfg)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (EXIT_DEGENERATE, "")
    assert proc.stderr == "error: float64 arithmetic failed: overflow encountered in multiply\n"


def test_a_seed_whose_square_leaves_float_range_is_off_the_annulus(tmp_path, capsys):
    # an OverflowError traceback, exit 1, before
    document = {"c1": C1, "seed": {"u0": 0.7, "v0": 1e200}}
    code, out, err = run_key_document(capsys, tmp_path, "construct", document)
    assert code == EXIT_PRECONDITION and out == ""
    assert err.startswith("error: seed gradient norm inf outside the open annulus")


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
    ((), {"c1": 3.3333333333, "phi": "x +", "psi": "x"}, EXIT_PARSE,
     "error: phi: unexpected end of input (at offset 3)"),
    ((), {"c1": 3.3333333333, "phi": "x*y", "psi": "x"}, EXIT_PRECONDITION,
     "error: phi must be a function of x only"),
    (("--curvature", "nan"), None, EXIT_PRECONDITION, "--curvature"),
    (("--curvature", "inf"), None, EXIT_PRECONDITION, "--curvature"),
    (("--curvature", "0"), None, EXIT_PRECONDITION, "error: phi'' vanishes"),
    (("--curvature", "4e-10"), None, EXIT_PRECONDITION, "error: phi'' vanishes"),
    (("--curvature", "0", "--seed", "0.5,0.5"), None, EXIT_PRECONDITION,
     "error: phi'' vanishes"),
    (("--gate", "nan"), None, EXIT_PRECONDITION, "--gate"),
    (("--gate", "inf"), None, EXIT_PRECONDITION, "--gate"),
], ids=["hx-zero", "hy-zero", "config-hx-zero", "hx-negative", "hx-nan",
        "hx-inf", "hx-too-coarse", "ymax-zero", "ymax-nan", "x-reversed",
        "config-hx-string", "config-branch-two", "config-c1-null", "config-c1-list",
        "config-c1-string", "config-c1-infinite", "config-c1-two",
        "config-psi-number", "config-phi-list", "config-x-entry-true",
        "config-hx-true", "config-ymax-string", "config-branch-true",
        "config-seed-u0-string", "config-seed-v0-true", "seed-nan",
        "seed-not-json-numbers", "config-phi-incomplete", "config-phi-of-y", "curvature-nan",
        "curvature-inf", "curvature-zero", "curvature-below-bound", "curvature-zero-seeded",
        "gate-nan", "gate-inf"])
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


def per_element_dumps(obj) -> str:
    """The oracle of ``dumps_stable``: every value, array entries included,
    rendered on its own."""

    def render(o, depth):
        sp = " " * (depth * 2)
        spi = " " * ((depth + 1) * 2)
        if o is None:
            return "null"
        if isinstance(o, (bool, np.bool_)):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            v = float(o)
            return f"{v:.17g}" if math.isfinite(v) else "null"
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, (list, tuple, np.ndarray)):
            return "[" + ", ".join(render(v, depth + 1) for v in o) + "]"
        if isinstance(o, dict):
            items = [f"{spi}{json.dumps(str(k))}: {render(v, depth + 1)}"
                     for k, v in o.items()]
            return "{\n" + ",\n".join(items) + "\n" + sp + "}"
        raise TypeError(f"cannot serialize {type(o)}")

    return render(obj, 0) + "\n"


EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               1.0 / 3.0, 0.1, 2.0, -1e-310]


@pytest.mark.parametrize("array", [
    np.array(EDGE_FLOATS),
    np.array([EDGE_FLOATS, EDGE_FLOATS[::-1], np.arange(8.0)]),
    np.array([-0.0, 1.0 / 3.0, 0.1, 3.4028234663852886e38, 1e-45], dtype=np.float32),
    -np.zeros((2, 3), dtype=np.float32),
    np.array([]),
    np.zeros((3, 0)),
    np.array([-3, 0, 2**62]),
    np.array([True, False, True]),
    WIDE_FINITE,
    np.vstack([WIDE_FINITE[:1], np.resize(MIXED_FLOATS, WIDE_FINITE[1:2].shape),
               WIDE_FINITE[2:]]),
], ids=["f64", "f64-2d", "f32", "f32-2d", "empty", "empty-rows", "int", "bool", "wide-mixed",
        "wide-mixed-non-finite"])
def test_dumps_stable_arrays_match_the_per_element_renderer(array):
    doc = {"a": array, "nested": [array, {"b": array}]}
    assert dumps_stable(doc) == per_element_dumps(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dumps_stable_non_finite_array_entries_are_null_in_place(bad):
    rows = np.array([EDGE_FLOATS, EDGE_FLOATS[::-1]])
    rows[1, 3] = bad
    text = dumps_stable({"a": rows, "row": rows[1]})
    assert text == per_element_dumps({"a": rows, "row": rows[1]})
    doc = json.loads(text)
    assert doc["a"][0] == EDGE_FLOATS and doc["a"][1][3] is None
    assert doc["row"] == [None if k == 3 else v for k, v in enumerate(EDGE_FLOATS[::-1])]


def test_the_shared_parser_keeps_no_state_between_commands(tmp_path, capsys):
    out = tmp_path / "angles.json"
    assert run(capsys, "angles", "--v", PLANE_12, "--w", PLANE_34, "--out", str(out)) \
        == (EXIT_OK, "", "")
    code, stdout, _ = run(capsys, "angles", "--v", PLANE_12, "--w", PLANE_34)
    assert code == EXIT_OK and stdout == out.read_text()

    construct = ["construct", "--theta1", "0.5235987756", "--theta2", "1.0471975512",
                 "--hx", "2e-3", "--hy", "2e-3", "--ymax", "0.004"]
    code, stdout, _ = run(capsys, *construct, "--verify")
    assert code == EXIT_OK and "verify" in json.loads(stdout)
    code, stdout, _ = run(capsys, *construct)
    assert code == EXIT_OK and "verify" not in json.loads(stdout)

    with pytest.raises(SystemExit) as exc:
        main(["angles", "--v", PLANE_12, "--no-such-flag"])
    assert exc.value.code == EXIT_PARSE
    assert "--no-such-flag" in capsys.readouterr().err
    code, stdout, _ = run(capsys, "angles", "--v", PLANE_12, "--w", PLANE_34)
    assert code == EXIT_OK and stdout == out.read_text()


def test_main_builds_the_parser_at_most_once(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for argv in (["angles", "--v", PLANE_12, "--w", PLANE_34],
                     ["deform", "--m", "1", "--c", "3.3333333333"],
                     ["angles", "--v", PLANE_12, "--w", PLANE_12]):
            assert run(capsys, *argv)[0] == EXIT_OK
    finally:
        cli._parser.cache_clear()
    assert len(built) <= 1
    assert cli.build_parser() is not cli.build_parser()


def test_export_json_renders_a_missing_value_as_null(tmp_path, capsys):
    prefix = str(tmp_path / "sol")
    run(capsys, "construct", "--theta1", "0.5235987756",
        "--theta2", "1.0471975512", "--hx", "2e-3", "--hy", "2e-3",
        "--ymax", "0.004", "--save", prefix, "--out", str(tmp_path / "r.json"))
    meta = json.loads((tmp_path / "sol.meta.json").read_text())
    fields, nx, ny = meta["fields"], meta["nx"], meta["ny"]
    data = np.fromfile(prefix + ".bin").reshape(len(fields), ny, nx)
    data[fields.index("gx"), ny // 2, nx // 3] = math.nan
    data.tofile(prefix + ".bin")

    out = tmp_path / "exported.json"
    code, _, _ = run(capsys, "export", "--grid", prefix, "--format", "json",
                     "--out", str(out))
    assert code == EXIT_OK
    text = out.read_text()
    xs = meta["x0"] + meta["hx"] * np.arange(nx, dtype=float)
    ys = meta["y0"] + meta["hy"] * np.arange(ny, dtype=float)
    assert text == per_element_dumps({"meta": meta, "x": xs, "y": ys,
                                      "fields": dict(zip(fields, data))})
    assert text.count("null") == 1
    assert json.loads(text)["fields"]["gx"][ny // 2][nx // 3] is None
