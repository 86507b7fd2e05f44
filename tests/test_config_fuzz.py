"""A seeded fuzzer over the CLI's JSON configs: valid documents, each mutated
by deleting a key, swapping in a value from a fixed table or adding an
unknown key, at any depth; and every ordered pair of a table of extreme
values for the --theta1/--theta2 flags.  Whatever the input, a command exits
with a documented code, writes at most one ``error:`` line and no traceback
or warning to stderr, and leaves stdout empty or one JSON document.
Standard library only."""

import contextlib
import copy
import io
import json
import random
import traceback
import warnings

from helix4.cli import main

P12 = {"b1": [1, 0, 0, 0], "b2": [0, 1, 0, 0]}
TILTED = {"b1": [0.6, 0, 0.8, 0], "b2": [0, 0.8, 0, 0.6], "oriented": True}
GRAPH = {"f": "0.3*sin(2*x)*cos(y) + 0.2*x*y^2", "g": "0.25*exp(0.5*x)*y - 0.1*x^3",
         "domain": [-0.5, 0.5, -0.5, 0.5]}
WINDOW = {"x": [-0.05, 0.05], "ymax": 0.006, "hx": 1e-3, "hy": 1e-3}
C1 = 10.0 / 3.0
SEED = {"u0": -1.176142304907481, "v0": 1.2179310100632075}

# (command, valid document): every catalog kind, a graph, a custom plane, and
# the construct variants, on small grids and windows
BASES = [
    ("angles", {"V": TILTED, "W": P12}),
    ("verify", {"surface": {"kind": "clifford_torus", "r1": 1, "r2": 0.5}, "grid": [5, 5]}),
    ("verify", {"surface": {"kind": "product_circles", "r1": 1, "r2": 0.5}, "grid": [5, 5]}),
    ("verify", {"surface": {"kind": "product_helix_cylinder", "theta": 0.6, "pitch": 0.8},
                "grid": [5, 5]}),
    ("verify", {"surface": {"kind": "revolution_orbit", "profile": "helix", "a": 1, "b": 0.5,
                            "z0": 1, "s_range": [0, 2], "phi_range": [0, 3]},
                "grid": [5, 5]}),
    ("verify", {"surface": {"kind": "revolution_orbit", "profile": "line", "theta": 0.5,
                            "offset": 1}, "grid": [5, 5]}),
    ("verify", {"surface": {"kind": "plane", "p0": [0, 0, 0, 0], "a": [1, 0, 0, 0],
                            "b": [0, 0.6, 0.8, 0]}, "grid": [5, 5]}),
    ("verify", {"surface": {"kind": "graph_poly", "f_coeffs": [[0, 0], [0, 1]],
                            "g_coeffs": [[0, 0.5], [0.2, 0]], "x_range": [-1, 1],
                            "y_range": [-1, 1]}, "grid": [5, 5]}),
    ("verify", {"graph": GRAPH, "grid": [6, 5], "gate": 1e-3}),
    ("verify", {"graph": GRAPH, "plane": TILTED, "grid": [5, 6]}),
    ("construct", {"c1": C1, **WINDOW}),
    ("construct", {"c1": C1, **WINDOW, "seed": SEED}),
    ("construct", {"c1": C1, **WINDOW, "seed": SEED, "phi": "x^2 - 1.176142304907481*x",
                   "psi": "x + 1.2179310100632075"}),
    ("construct", {"c1": C1, **WINDOW, "branch": -1}),
]

BAD_EXPRESSIONS = ["x +", "sqrt(-1)", "1/0", "exp(1e3*x)", "log(x - 5)", "y(x)", "x^0.5"]
VALUES = [2 ** 63, 2 ** 70, 1e78, 1e200, 1e308, -0.0, "", [], {}, True, *BAD_EXPRESSIONS]

# --theta1/--theta2 values: zero, the smallest subnormal, angles whose tan
# products underflow, pi/2 one ulp below and at its float64 rounding, past
# pi/2, NaN, inf and a negative one
ANGLE_VALUES = ["0", "5e-324", "1e-300", "1e-200", "1e-160", "1e-8", "0.5", "1.0",
                "1.5707963267948963", "1.5707963267948966", "3.2", "nan", "inf", "-1e-300"]
ANGLE_COMMANDS = [["deform"],
                  ["construct", "--hx", "2e-3", "--hy", "2e-3", "--ymax", "0.004"]]

EXIT_CODES = {0, 2, 3, 4, 5}
SEED_VALUE = 20231
CASES = 300


def paths(node, prefix=()):
    """Every place in a decoded JSON document: (path to the container, key
    or index), objects and lists alike, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def at(document, path):
    for key in path:
        document = document[key]
    return document


def mutate(rng, document):
    """One random mutation of ``document`` in place, described.  Every base
    has two top-level keys or more, so one mutation leaves a place for the
    next."""
    places = list(paths(document))
    kind = rng.choice(("delete", "swap", "swap", "add"))
    if kind == "add":
        objects = [()] + [p + (k,) for p, k in places if isinstance(at(document, p)[k], dict)]
        path = rng.choice(objects)
        at(document, path)["zz_unknown"] = 1.0
        return f"add {'.'.join(map(str, path)) or '<root>'}.zz_unknown"
    path, key = rng.choice(places)
    holder = at(document, path)
    name = ".".join(map(str, path + (key,)))
    if kind == "delete":
        del holder[key]
        return f"delete {name}"
    value = rng.choice(VALUES)
    holder[key] = copy.deepcopy(value)
    return f"{name} = {value!r}"


def run(tmp_path, command, document):
    """``run_argv`` of ``command`` on ``document`` as its config file."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    return run_argv([command, "--config", str(config)])


def run_argv(argv):
    """Exit code, stdout, stderr and the warnings of one in-process command;
    an exception that leaves ``main`` is written to stderr as a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except Exception:   # an exception that leaves main is the defect looked for
            code = None
            traceback.print_exc(file=err)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def problems(code, out, err, caught):
    found = []
    if code not in EXIT_CODES:
        found.append(f"exit {code}")
    if "Traceback" in err or "Warning" in err or caught:
        found.append("traceback or warning")
    if sum(line.startswith("error:") for line in err.splitlines()) > 1:
        found.append("more than one error line")
    if out:
        try:
            json.loads(out)
        except json.JSONDecodeError:
            found.append("stdout is not one JSON document")
    return found


def test_every_base_config_runs_clean(tmp_path, capfd):
    for command, document in BASES:
        code, out, err, caught = run(tmp_path, command, copy.deepcopy(document))
        assert code in (0, 5) and err == "" and not caught, (command, document, err)
        assert isinstance(json.loads(out), dict)
    assert capfd.readouterr() == ("", "")


def test_mutated_configs_exit_with_a_documented_code_and_one_line(tmp_path, capfd):
    # capfd also catches what C code writes to the process's stdout, such
    # as LAPACK's parameter messages, which bypass sys.stdout
    rng = random.Random(SEED_VALUE)
    failures = []
    for case in range(CASES):
        command, base = rng.choice(BASES)
        document = copy.deepcopy(base)
        steps = [mutate(rng, document) for _ in range(rng.choice((1, 1, 2)))]
        code, out, err, caught = run(tmp_path, command, document)
        leaked = capfd.readouterr()
        found = problems(code, out + leaked.out, err + leaked.err, caught)
        if found:
            failures.append(f"case {case}: {command} {'; '.join(steps)} -> {found}: "
                            f"{(err or leaked.out).strip().splitlines()[-1:]} {caught[:1]}")
    assert not failures, "\n".join(failures)


def test_extreme_angle_flags_exit_with_a_documented_code_and_one_line(capfd):
    # the --flag=value form lets a value such as -1e-300 through argparse
    failures = []
    for command in ANGLE_COMMANDS:
        for t1 in ANGLE_VALUES:
            for t2 in ANGLE_VALUES:
                argv = [command[0], f"--theta1={t1}", f"--theta2={t2}", *command[1:]]
                code, out, err, caught = run_argv(argv)
                leaked = capfd.readouterr()
                found = problems(code, out + leaked.out, err + leaked.err, caught)
                if code == 0 and "null" in out:
                    found.append("exit 0 with null in the report")
                if found:
                    failures.append(f"{' '.join(argv)} -> {found}: "
                                    f"{(err or leaked.out).strip().splitlines()[-1:]}")
    assert not failures, "\n".join(failures)
