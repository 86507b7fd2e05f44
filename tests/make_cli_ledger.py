"""The CLI byte ledger: a fixed list of helix4 commands and what each one
gives, kept in ``cli_ledger.json`` beside this file.

Each command runs in process through ``helix4.cli.main``, in order, in one
temporary directory; the directory's path reads ``<tmp>`` in argv, stdout
and stderr.  Per command the ledger keeps the exit code, stdout (decoded
when it is JSON) with the sha256 of its bytes, the stderr text, and the
sha256 of every file the command wrote.  It also keeps the Python and numpy
versions it was made with: float output may move between them.

``tests/test_cli_ledger.py`` reruns the list and compares.  After a change
that moves CLI output on purpose, rewrite the ledger with

    PYTHONPATH=src python tests/make_cli_ledger.py

which prints what moved against the old ledger.  Standard library only.
"""

import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

from helix4 import cli

LEDGER = Path(__file__).with_name("cli_ledger.json")
TMP = "<tmp>"

THETAS = ["--theta1", "0.5235987756", "--theta2", "1.0471975512"]
P12 = {"b1": [1, 0, 0, 0], "b2": [0, 1, 0, 0], "oriented": True}
GRAPH = {"f": "0.3*sin(2*x)*cos(y) + 0.2*x*y^2", "g": "0.25*exp(0.5*x)*y - 0.1*x^3"}


def _plane(b1, b2) -> str:
    return json.dumps({"b1": b1, "b2": b2, "oriented": True})


ROTATED_V = _plane([0.08, 0.12, 0.24, 0.96], [-0.12, 0.08, 0.96, -0.24])
ROTATED_W = _plane([0.26, 0.46, 0.58, 0.62], [-0.58, 0.62, 0.26, -0.46])
SAME = _plane([0.18, 0.26, 0.54, 0.78], [-0.26, 0.18, 0.78, -0.54])


def _with_config(name, argv, document):
    """A command whose config ``document`` is written to <tmp>/<name>.json
    before it runs."""
    return name, [*argv, "--config", f"{TMP}/{name}.json"], document


def _surface(name, surface, **extra):
    """``verify`` of a catalog surface on a 12x12 grid."""
    return _with_config(name, ["verify"], {"surface": surface, "grid": [12, 12], **extra})


# (name, argv, config document or None), run in this order
COMMANDS = [
    # V against span(e1, e2): generic angles, theta1 = theta2, theta1 = 0
    ("angles-generic", ["angles", "--v", _plane([0.6, 0, 0.8, 0], [0, 0.28, 0, 0.96]),
                        "--w", json.dumps(P12)], None),
    ("angles-equal", ["angles", "--v", _plane([0.6, 0, 0.8, 0], [0, 0.6, 0, 0.8]),
                      "--w", json.dumps(P12)], None),
    ("angles-zero", ["angles", "--v", _plane([1, 0, 0, 0], [0, 0.6, 0, 0.8]),
                     "--w", json.dumps(P12)], None),
    # frames off the axes, from columns of unit-quaternion multiplication
    # matrices, in both orders; V = W has a residual of exact zeros
    *((f"angles-rotated-{name}", ["angles", "--v", v, "--w", w], None)
      for name, v, w in (("vw", ROTATED_V, ROTATED_W), ("wv", ROTATED_W, ROTATED_V))),
    ("angles-same-plane", ["angles", "--v", SAME, "--w", SAME], None),
    *((f"example-{name}", ["example", name, "--grid", "30", "30"], None)
      for name in ("clifford_torus", "helix_cylinder", "orbit_cone", "orbit_helix", "plane",
                   "product_circles", "spherical_helix_revolution")),
    ("example-clifford_torus-obj", ["example", "clifford_torus", "--grid", "30", "30",
                                    "--obj", f"{TMP}/torus.obj"], None),
    _with_config("verify-graph", ["verify", "--csv", f"{TMP}/graph.csv"],
                 {"graph": GRAPH, "grid": [40, 40]}),
    _surface("verify-clifford_torus", {"kind": "clifford_torus"}),
    _surface("verify-product_circles", {"kind": "product_circles", "r1": 2, "r2": 0.5}),
    _surface("verify-cylinder", {"kind": "product_helix_cylinder", "theta": 0.6}),
    _surface("verify-cylinder-radius", {"kind": "product_helix_cylinder", "theta": 0.6,
                                        "radius": 0.7}),
    _surface("verify-cylinder-pitch", {"kind": "product_helix_cylinder", "theta": 0.6,
                                       "pitch": 0.7}),
    *(_surface(f"verify-orbit-{profile}", {"kind": "revolution_orbit", "profile": profile})
      for profile in ("line", "helix", "spherical_helix")),
    _surface("verify-plane", {"kind": "plane", "a": [1, 0, 1, 0]}),
    _surface("verify-graph_poly", {"kind": "graph_poly", "f_coeffs": [[0, 0, 1]],
                                   "g_coeffs": [[0, 1], [1, 0]]}),
    # catalog errors: exit 2, 2, 3 and 3
    _surface("verify-torus-radius", {"kind": "clifford_torus", "radius": 1}),
    _surface("verify-graph_poly-no-g", {"kind": "graph_poly", "f_coeffs": [[0, 0, 1]]}),
    _surface("verify-orbit-nope", {"kind": "revolution_orbit", "profile": "nope"}),
    _surface("verify-cylinder-mismatch", {"kind": "product_helix_cylinder", "theta": 0.6,
                                          "radius": 1, "pitch": 0.7}),
    # a small torus: principal angles do not depend on scale
    _surface("verify-tiny-torus", {"kind": "product_circles", "r1": 1e-4, "r2": 1e-4}),
    # a plane without orientation has no Gauss map: exit 3
    _surface("verify-unoriented-plane", {"kind": "clifford_torus"},
             plane={**P12, "oriented": False}),
    ("deform-forward", ["deform", "--m", "1.5", "--c", "3"], None),
    ("deform-inverse", ["deform", *THETAS], None),
    ("construct-verify", ["construct", *THETAS, "--verify", "--save", f"{TMP}/A"], None),
    ("construct-fine", ["construct", *THETAS, "--hx", "2.5e-4", "--hy", "2.5e-4",
                        "--save", f"{TMP}/B"], None),
    *((f"export-{fmt}", ["export", "--grid", f"{TMP}/B", "--format", fmt,
                         "--out", f"{TMP}/B.export.{fmt}"], None)
      for fmt in ("csv", "obj", "json")),
    ("construct-mirror", ["construct", "--theta1", "0.2", "--theta2", "0.9", "--branch", "-1"],
     None),
    _with_config("construct-custom", ["construct"],
                 {"c1": 3.3333333333, "phi": "x^2 + 0.3*x", "psi": "x + 0.9"}),
    # psi = 0.5 + 0.1*2^x has a variable exponent, which the parser cannot
    # differentiate: construct reads psi for its values only
    _with_config("construct-custom-psi-no-derivative", ["construct"],
                 {"c1": 3.3333333333333335, "phi": "x^2 + 0.9*x", "psi": "0.5 + 0.1*2^x"}),
    ("construct-gate", ["construct", *THETAS, "--gate", "1e-12"], None),
    # hy = 0.69 hx over 96 steps each way
    ("construct-hy-below-hx", ["construct", *THETAS, "--hx", "2.5e-4", "--hy", "1.725e-4",
                               "--ymax", "0.01656", "--verify"], None),
    # documented failures
    ("angles-one-plane", ["angles", "--v", json.dumps(P12)], None),
    # planes that are no frame: a short vector, an entry past float range (a
    # JSON literal), a frame that is not orthonormal, a string orientation
    *((f"angles-plane-{name}", ["angles", "--v", v, "--w", json.dumps(P12)], None)
      for name, v in (("b1-three-entries", _plane([1, 0, 0], [0, 1, 0, 0])),
                      ("b1-1e400", '{"b1": [1e400, 0, 0, 0], "b2": [0, 1, 0, 0]}'),
                      ("not-orthonormal", _plane([1, 1, 0, 0], [0, 1, 0, 0])),
                      ("oriented-string", json.dumps({**P12, "oriented": "yes"})))),
    _surface("verify-plane-without-b2", {"kind": "clifford_torus"},
             plane={"b1": [1, 0, 0, 0]}),
    ("deform-m-alone", ["deform", "--m", "1"], None),
    ("construct-theta1-alone", ["construct", "--theta1", "0.5"], None),
    ("construct-window-too-narrow", ["construct", *THETAS, "--x0", "-0.004", "--x1", "0.004"],
     None),
    ("construct-window-too-wide", ["construct", *THETAS, "--x0", "-5", "--x1", "5",
                                   "--hx", "0.1"], None),
    # a seed near a characteristic point: the first step's sub-steps outrun the window
    ("construct-near-characteristic", ["construct", *THETAS, "--x0", "0.2", "--x1", "0.3",
                                       "--seed=-0.18104267892575457,1.2881855960876407"],
     None),
    # the same Cauchy data written out as a custom config
    _with_config("construct-custom-near-characteristic", ["construct"],
                 {"c1": 3.3333333333333335, "x": [0.2, 0.3],
                  "phi": "x^2 - 0.18104267892575457*x", "psi": "x + 1.2881855960876407"}),
    # phi'' = 2 curvature vanishes for every seed: refused before the seed scan
    ("construct-zero-curvature", ["construct", *THETAS, "--curvature", "0"], None),
    # an expression and a plane nested deeper than the stack: one fixed line
    _with_config("verify-graph-nested-too-deep", ["verify"],
                 {"graph": {"f": "(" * 2000 + "x" + ")" * 2000, "g": "y"}}),
    ("angles-v-nested-too-deep", ["angles", "--v", "[" * 2000 + "]" * 2000,
                                  "--w", json.dumps(P12)], None),
]


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": version("numpy")}


def _stats(directory: Path) -> dict:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in directory.iterdir()}


def run_commands(directory: Path) -> list:
    """Run ``COMMANDS`` in ``directory``, which must be empty, and return
    the ledger entry of each."""
    real = str(directory)
    entries = []
    for name, argv, document in COMMANDS:
        if document is not None:
            (directory / f"{name}.json").write_text(json.dumps(document))
        before = _stats(directory)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([a.replace(TMP, real) for a in argv])
            except SystemExit as exc:   # an argparse usage error
                code = exc.code
        stdout = out.getvalue().replace(real, TMP)
        try:
            decoded = json.loads(stdout)
        except json.JSONDecodeError:
            decoded = stdout
        entries.append({
            "name": name,
            "argv": argv,
            "exit": code,
            "stdout": decoded,
            "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            "stderr": err.getvalue().replace(real, TMP),
            "files": {k: hashlib.sha256((directory / k).read_bytes()).hexdigest()
                      for k, stat in sorted(_stats(directory).items()) if before.get(k) != stat},
        })
    return entries


def _leaves(node, path="$"):
    """(path, value) for every scalar of a decoded JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _leaves(value, f"{path}[{k}]")
    else:
        yield path, node


def _is_number(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


def differences(old: list, new: list) -> list:
    """One line per change between two ledgers' command entries: exit codes,
    stderr, each stdout JSON path with its old and new value, the largest
    absolute numeric change of each command, and each written file whose
    digest moved."""
    lines = []
    old_by_name = {e["name"]: e for e in old}
    new_by_name = {e["name"]: e for e in new}
    lines += [f"{name}: not in the ledger" for name in new_by_name.keys() - old_by_name.keys()]
    lines += [f"{name}: no longer run" for name in old_by_name.keys() - new_by_name.keys()]
    for name, a in old_by_name.items():
        b = new_by_name.get(name)
        if b is None:
            continue
        for key in ("argv", "exit", "stderr"):
            if a[key] != b[key]:
                lines.append(f"{name}: {key} {a[key]!r} -> {b[key]!r}")
        old_leaves, new_leaves = dict(_leaves(a["stdout"])), dict(_leaves(b["stdout"]))
        largest = 0.0
        for path in {**old_leaves, **new_leaves}:
            x, y = old_leaves.get(path, "<absent>"), new_leaves.get(path, "<absent>")
            if x != y or type(x) is not type(y):
                lines.append(f"{name}: stdout {path} {x!r} -> {y!r}")
                if _is_number(x) and _is_number(y):
                    largest = max(largest, abs(y - x))
        if largest:
            lines.append(f"{name}: largest absolute change {largest:.3g}")
        if a["stdout_sha256"] != b["stdout_sha256"] and a["stdout"] == b["stdout"]:
            lines.append(f"{name}: stdout bytes moved with the same decoded values")
        for file in sorted(a["files"].keys() | b["files"].keys()):
            if a["files"].get(file) != b["files"].get(file):
                lines.append(f"{name}: file {file} digest {a['files'].get(file)} -> "
                             f"{b['files'].get(file)}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        entries = run_commands(Path(directory))
    if LEDGER.exists():
        old = json.loads(LEDGER.read_text())
        if old["versions"] != versions():
            print(f"versions {old['versions']} -> {versions()}")
        print("\n".join(differences(old["commands"], entries)) or "no output moved")
    LEDGER.write_text(json.dumps({"versions": versions(), "commands": entries}, indent=1)
                      + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
