"""The four helix4 workloads.

Each workload is a closed loop with one client and no extra threads:

- ``inputs(seed, workdir)`` makes the benchmark-side random inputs (not timed);
- ``build(h4, raw)`` makes the program-side inputs (timed as ``setup_s``);
- ``ops(h4, state)`` lists one pass as operations (argument-free callables),
  which the runner calls and times one by one;
- ``check(state, results)`` gives a verdict per operation outside the timing,
  as ``(attempted, [(operation, detail), ...failures])``;
- ``named(state, passes, results)`` turns the calibrated operation times of
  the timed passes, and the results of the run's last pass, into the
  workload's named metrics;
- ``witnesses(state, results)`` gives the accuracy figures recorded beside
  the layer times, from the results of the run's last (traced) pass.

``h4`` is a namespace holding the six helix4 modules.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import statistics
from pathlib import Path

import numpy as np

HALF_PI = math.pi / 2
ANGLE_TOL = 1e-10

# accuracy witnesses of the traced run; a workload that has no value for one
# reports 0
WITNESSES = (
    [f"helix_construct.loop_defect_max.L{k}" for k in range(1, 6)]
    + [f"helix_construct.symplecto_dev.L{k}" for k in range(1, 6)]
    + ["angles.max_err", "verify.angle_std_max", "verify.min_align_dot",
       "cli.bytes_written", "cli.bytes_read"])

# (workload, operation) failures that are known program defects: they are
# counted in ``failed`` but do not make the run incorrect
KNOWN_DEFECTS = {
    ("construct-ladder", "L5"):
        "at h = 6.25e-5 the march loses second-order convergence "
        "(loop defect and symplecto deviation grow from level 4)",
}


def median(values) -> float:
    return float(statistics.median(values))


def latency_rows(prefix: str, ms: np.ndarray, also=()) -> list:
    """Rows for operation latencies in milliseconds: the median, the
    percentiles in ``also``, and the tail.

    The tail is the highest of p99.9/p99/p95/p90/p80 with at least ten
    samples beyond it; there is none with fewer than 50 samples.
    """
    n = ms.size

    def row(p):
        return (f"{prefix}_p{p:g}_ms", float(np.percentile(ms, p)), "ms",
                f"{n} operations, {n - int(n * p / 100.0)} beyond")

    rows = [row(p) for p in (50, *also)]
    tail = next((p for p in (99.9, 99.0, 95.0, 90.0, 80.0)
                 if n * (1.0 - p / 100.0) >= 10), None)
    if tail is not None and tail not in also:
        rows.append(row(tail))
    return rows


def convergence_order(coarse: float, fine: float) -> float:
    """log2 of the error ratio between two levels that halve h."""
    return math.log2(coarse / fine) if fine > 0 else math.inf


def random_bases(rng: np.random.Generator, n: int) -> np.ndarray:
    """n random orthonormal bases of R^4 as columns, as in criterion 1."""
    q, r = np.linalg.qr(rng.standard_normal((n, 4, 4)))
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


def planted_angles(rng: np.random.Generator, n: int) -> np.ndarray:
    """n sorted angle pairs drawn uniformly from [0, pi/2]."""
    return np.sort(rng.uniform(0.0, HALF_PI, (n, 2)), axis=1)


class Workload:
    name = ""

    def patches(self, state):
        """Catalog patches whose ``jet`` the traced run wraps."""
        return []


class AnglesBatch(Workload):
    """Principal angles of planted plane pairs in three strata."""

    name = "angles-batch"
    per_stratum = 2000
    strata = ("uniform", "ends", "near")
    chunk = 200   # pairs per timed operation

    def inputs(self, seed, workdir):
        rng = np.random.default_rng(seed)
        n = self.per_stratum
        ends = np.column_stack([rng.uniform(0.0, 1e-7, n),
                                HALF_PI - rng.uniform(0.0, 1e-7, n)])
        t1 = rng.uniform(0.0, HALF_PI - 1e-10, n)
        near = np.column_stack([t1, t1 + rng.uniform(0.0, 1e-10, n)])
        angles = np.concatenate([planted_angles(rng, n), ends, near])
        return {"angles": angles, "bases": random_bases(rng, 3 * n)}

    def build(self, h4, raw):
        pairs = [h4.grassmann.planes_with_angles(t1, t2, basis=q)
                 for (t1, t2), q in zip(raw["angles"], raw["bases"])]
        return {"pairs": pairs, "angles": raw["angles"],
                "near": np.repeat(np.arange(3) == 2, self.per_stratum)}

    def sizes(self, state):
        return {"pairs": len(state["pairs"]),
                "per_stratum": dict.fromkeys(self.strata, self.per_stratum)}

    def ops(self, h4, state):
        g = h4.grassmann

        def chunk(pairs):
            res = np.empty((len(pairs), 7))
            for k, (V, W) in enumerate(pairs):
                pa = g.principal_angles(V, W)
                pp = g.principal_angles(V, g.orthogonal_complement(W))
                theta, theta_perp = g.plane_angles_via_bivectors(V, W)
                res[k] = (pa.theta1, pa.theta2, pa.degenerate, pp.theta1, pp.theta2,
                          theta, theta_perp)
            return res

        pairs, n = state["pairs"], self.chunk
        return [functools.partial(chunk, pairs[i:i + n]) for i in range(0, len(pairs), n)]

    @staticmethod
    def _errors(state, results):
        a, r = state["angles"], np.concatenate(results)
        t1, t2 = r[:, 0], r[:, 1]
        planted = np.maximum(np.abs(t1 - a[:, 0]), np.abs(t2 - a[:, 1]))
        complement = np.maximum(np.abs(r[:, 3] - (HALF_PI - t2)),
                                np.abs(r[:, 4] - (HALF_PI - t1)))
        product = np.maximum(
            np.abs(np.abs(np.cos(r[:, 5])) - np.cos(t1) * np.cos(t2)),
            np.abs(np.abs(np.cos(r[:, 6])) - np.sin(t1) * np.sin(t2)))
        return planted, complement, product

    def check(self, state, results):
        planted, complement, product = self._errors(state, results)
        degenerate_ok = (np.concatenate(results)[:, 2] == 1.0) == state["near"]
        ok = ((planted < ANGLE_TOL) & (complement < ANGLE_TOL)
              & (product < ANGLE_TOL) & degenerate_ok)
        failures = [(f"pair {k}",
                     f"planted err {planted[k]:.2e}, complement {complement[k]:.2e}, "
                     f"product {product[k]:.2e}, degenerate ok {degenerate_ok[k]}")
                    for k in np.flatnonzero(~ok)]
        return len(ok), failures

    def witnesses(self, state, results):
        return {"angles.max_err": float(np.max(self._errors(state, results)[0]))}

    def named(self, state, passes, results):
        n = len(state["pairs"])
        chunk_ms = np.array([t for times in passes for t in times]) * 1e3
        return [("angles_pairs_per_s", n / median(sum(t) for t in passes), "1/s",
                 f"{n} pairs / median pass"),
                *latency_rows(f"angles_chunk{self.chunk}", chunk_ms)]


class VerifyCatalog(Workload):
    """verify_helix on analytic catalog jets, 9,900 nodes per pass."""

    name = "verify-catalog"
    surfaces = (("clifford_torus", 70), ("helix_cylinder", 40),
                ("orbit_cone", 40), ("spherical_helix_revolution", 30),
                ("round_sphere_patch", 30))
    helix_tol = 1e-9
    control_min_std = 1e-2

    def inputs(self, seed, workdir):
        # the seed only fixes the order in which the surfaces are verified
        order = np.random.default_rng(seed).permutation(len(self.surfaces))
        return {"order": [self.surfaces[k] for k in order]}

    def build(self, h4, raw):
        items = []
        for label, n in raw["order"]:
            if label == "round_sphere_patch":
                items.append((label, h4.catalog.round_sphere_patch(1.0),
                              h4.catalog.PI_12, None, n))
            else:
                cs = h4.catalog.named_example(label)
                items.append((label, cs.patch, cs.plane,
                              (cs.expected.theta1, cs.expected.theta2), n))
        return {"items": items}

    def sizes(self, state):
        return {"grids": {label: [n, n] for label, *_, n in state["items"]},
                "nodes": sum(n * n for *_, n in state["items"])}

    def patches(self, state):
        return [patch for _, patch, *_ in state["items"]]

    def ops(self, h4, state):
        def verify(patch, plane, n):
            rep = h4.surface_analysis.verify_helix(patch, plane, (n, n))
            return (rep.angle_stats["theta1"][0], rep.angle_stats["theta2"][0],
                    rep.angle_std(), rep.min_align_dot)

        return [functools.partial(verify, patch, plane, n)
                for _, patch, plane, _, n in state["items"]]

    def check(self, state, results):
        failures = []
        for (label, _, _, expected, _), (m1, m2, std, _) in zip(state["items"], results):
            if expected is None:
                if not std > self.control_min_std:
                    failures.append((label, f"control angle std {std:.2e} "
                                            f"<= {self.control_min_std:g}"))
            elif not (std < self.helix_tol and abs(m1 - expected[0]) < self.helix_tol
                      and abs(m2 - expected[1]) < self.helix_tol):
                failures.append((label, f"angle std {std:.2e}, mean errors "
                                        f"{abs(m1 - expected[0]):.2e}, "
                                        f"{abs(m2 - expected[1]):.2e}"))
        return len(results), failures

    def witnesses(self, state, results):
        helix = [r for (_, _, _, expected, _), r in zip(state["items"], results)
                 if expected is not None]
        return {"verify.angle_std_max": max(r[2] for r in helix),
                "verify.min_align_dot": min(r[3] for r in results)}

    def named(self, state, passes, results):
        nodes = self.sizes(state)["nodes"]
        rows = [("verify_nodes_per_s", nodes / median(sum(t) for t in passes),
                 "nodes/s", f"{nodes} nodes / median pass")]
        for k, (label, *_, n) in enumerate(state["items"]):
            rows.append((f"verify_{label}_s", median(t[k] for t in passes), "s",
                         f"{n}x{n} grid"))
        return rows


class ConstructLadder(Workload):
    """The (pi/6, pi/3) construction on a five-level refinement ladder."""

    name = "construct-ladder"
    c_norm = 10.0 / 3.0
    x_range = (-0.05, 0.05)
    y_max = 0.006
    levels = (1e-3, 5e-4, 2.5e-4, 1.25e-4, 6.25e-5)
    tol = 5e-6
    min_order = 1.5

    def inputs(self, seed, workdir):
        return {}  # the ladder is fixed; the seed does not change it

    def build(self, h4, raw):
        hc = h4.helix_construct
        return {"seed": hc.find_noncharacteristic_seed(self.c_norm),
                "params": hc.HelixParams(math.pi / 6, math.pi / 3)}

    def sizes(self, state):
        return {"h": list(self.levels),
                "grids_ny_nx": [[int(round(2 * self.y_max / h)) + 1,
                                 int(round((self.x_range[1] - self.x_range[0]) / h)) + 1]
                                for h in self.levels],
                "seed_u0_v0": list(state["seed"])}

    def ops(self, h4, state):
        hc = h4.helix_construct

        def level(h):
            prob = hc.default_problem(self.c_norm, x_range=self.x_range,
                                      y_max=self.y_max, hx=h, hy=h, seed=state["seed"])
            sol = hc.recover_g(hc.solve_pde(prob))
            dev = max(hc.symplecto_check(hc.solution_graph(sol), state["params"]))
            return {"dev": float(dev), "loop": float(np.nanmax(np.abs(sol.loop_defect))),
                    "terminations": (sol.termination_up, sol.termination_down)}

        return [functools.partial(level, h) for h in self.levels]

    def check(self, state, results):
        failures = []
        for k, lv in enumerate(results):
            problems = [f"termination {t}" for t in lv["terminations"] if t != "completed"]
            if k > 0:
                prev = results[k - 1]
                orders = {"loop defect": convergence_order(prev["loop"], lv["loop"]),
                          "symplecto": convergence_order(prev["dev"], lv["dev"])}
                problems += [f"{what} order {o:.2f} < {self.min_order}"
                             for what, o in orders.items() if not o >= self.min_order]
            if problems:
                failures.append((f"L{k + 1}", f"h={self.levels[k]:g}: " + "; ".join(problems)
                                 + f" (loop {lv['loop']:.2e}, symplecto {lv['dev']:.2e})"))
        return len(results), failures

    def witnesses(self, state, results):
        w = {}
        for k, lv in enumerate(results, start=1):
            w[f"helix_construct.loop_defect_max.L{k}"] = lv["loop"]
            w[f"helix_construct.symplecto_dev.L{k}"] = lv["dev"]
        return w

    def named(self, state, passes, results):
        # the ladder is deterministic, so every pass meets tol at the same level
        first = next((k for k, lv in enumerate(results) if lv["dev"] <= self.tol), None)
        to_tol = (median(sum(t[:first + 1]) for t in passes) if first is not None
                  else math.inf)
        rows = [("construct_ladder_s", median(sum(t) for t in passes), "s", "5 levels"),
                ("construct_time_to_tol_s", to_tol, "s",
                 f"first level with symplecto max <= {self.tol:g}")]
        for k, h in enumerate(self.levels):
            rows.append((f"construct_L{k + 1}_s", median(t[k] for t in passes),
                         "s", f"h={h:g}"))
        return rows


class CliSession(Workload):
    """One in-process ``helix4.cli.main`` script per pass."""

    name = "cli-session"
    n_angles = 50
    graph = {"f": "0.3*sin(2*x)*cos(y) + 0.2*x*y^2",
             "g": "0.25*exp(0.5*x)*y - 0.1*x^3"}
    angles_args = ("--theta1", "0.5235987756", "--theta2", "1.0471975512")
    export_formats = ("csv", "obj", "json")
    sidecar_fields = 8

    def inputs(self, seed, workdir):
        rng = np.random.default_rng(seed)
        angles = planted_angles(rng, self.n_angles)
        script = []
        for (t1, t2), q in zip(angles, random_bases(rng, self.n_angles)):
            w1, w2, w3, w4 = q.T
            v = {"b1": (math.cos(t1) * w2 + math.sin(t1) * w4).tolist(),
                 "b2": (math.cos(t2) * w1 + math.sin(t2) * w3).tolist()}
            w = {"b1": w1.tolist(), "b2": w2.tolist()}
            script.append(("angles", ["angles", "--v", json.dumps(v),
                                      "--w", json.dumps(w)], 0))
        config = workdir / "graph.json"
        config.write_text(json.dumps({"graph": self.graph, "grid": [40, 40]}))
        a, b = str(workdir / "A"), str(workdir / "B")
        script += [
            ("example", ["example", "clifford_torus", "--grid", "30", "30"], 0),
            ("verify", ["verify", "--config", str(config)], 5),
            ("construct_verify", ["construct", *self.angles_args, "--verify",
                                  "--save", a], 0),
            ("construct_save", ["construct", *self.angles_args, "--hx", "2.5e-4",
                                "--hy", "2.5e-4", "--save", b], 0),
        ]
        script += [(f"export_{fmt}", ["export", "--grid", b, "--format", fmt,
                                      "--out", f"{b}.export.{fmt}"], 0)
                   for fmt in self.export_formats]
        return {"angles": angles, "script": script, "config": config, "a": a, "b": b}

    def build(self, h4, raw):
        parser = h4.cli.build_parser()
        for _, argv, _ in raw["script"]:
            parser.parse_args(argv)
        for src in self.graph.values():
            h4.expressions.parse_expr(src)
        return dict(raw, stdout=None)

    def sizes(self, state):
        return {"angles_calls": self.n_angles, "example_grid": [30, 30],
                "verify_grid": [40, 40], "construct_h": [1e-3, 2.5e-4],
                "script_steps": len(state["script"])}

    def ops(self, h4, state):
        def command(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = h4.cli.main(argv)
            return rc, out.getvalue(), err.getvalue()

        return [functools.partial(command, argv) for _, argv, _ in state["script"]]

    @staticmethod
    def _angle_error(stdout, planted):
        doc = json.loads(stdout)
        return max(abs(doc["theta1"] - planted[0]), abs(doc["theta2"] - planted[1]))

    def _file_checks(self, state, label):
        """Problems with the files a step wrote, or with what it exported."""
        prefix = state["a"] if label == "construct_verify" else state["b"]
        meta = json.loads(Path(prefix + ".meta.json").read_text())
        nx, ny = meta["nx"], meta["ny"]
        if label.startswith("construct"):
            problems = []
            if len(meta) != self.sidecar_fields:
                problems.append(f"sidecar has {len(meta)} fields")
            if Path(prefix + ".bin").stat().st_size != 8 * len(meta["fields"]) * nx * ny:
                problems.append("binary size does not match the sidecar")
            return problems
        fmt = label.removeprefix("export_")
        text = Path(f"{prefix}.export.{fmt}").read_text()
        if fmt == "csv":
            count = text.count("\n") - 1
        elif fmt == "obj":
            count = sum(1 for line in text.splitlines() if line.startswith("v "))
        else:
            doc = json.loads(text)
            count = len(doc["x"]) * len(doc["y"])
            if any(np.shape(v) != (ny, nx) for v in doc["fields"].values()):
                return ["json field shapes differ from (ny, nx)"]
        return [] if count == nx * ny else [f"{count} rows for nx*ny = {nx * ny}"]

    def check(self, state, results):
        if state["stdout"] is None:
            state["stdout"] = [stdout for _, stdout, _ in results]
        failures = []
        for k, ((label, _, want_rc), (rc, stdout, stderr)) in enumerate(
                zip(state["script"], results)):
            problems = []
            if rc != want_rc:
                problems.append(f"exit {rc}, expected {want_rc}: {stderr.strip()[:200]}")
            if stdout != state["stdout"][k]:
                problems.append("stdout differs from the first pass")
            if label == "angles" and rc == 0:
                err = self._angle_error(stdout, state["angles"][k])
                if not err < ANGLE_TOL:
                    problems.append(f"angle error {err:.2e}")
            elif label.startswith(("construct", "export")) and rc == 0:
                problems += self._file_checks(state, label)
            if problems:
                failures.append((f"{k}:{label}", "; ".join(problems)))
        return len(results), failures

    def witnesses(self, state, results):
        angle_err = max((self._angle_error(stdout, planted) for (rc, stdout, _), planted
                         in zip(results, state["angles"]) if rc == 0), default=math.inf)
        written = sum(p.stat().st_size for p in Path(state["b"]).parent.iterdir()
                      if p.name[0] in "AB")
        read = Path(state["config"]).stat().st_size + len(self.export_formats) * sum(
            Path(state["b"] + ext).stat().st_size for ext in (".bin", ".meta.json"))
        return {"angles.max_err": angle_err, "cli.bytes_written": float(written),
                "cli.bytes_read": float(read)}

    def named(self, state, passes, results):
        labels = [label for label, _, _ in state["script"]]

        def step_median(prefix):
            return median(sum(t for label, t in zip(labels, times) if label.startswith(prefix))
                          for times in passes)

        angles_ms = np.array([t for times in passes
                              for label, t in zip(labels, times) if label == "angles"]) * 1e3
        return [("cli_session_s", median(sum(t) for t in passes), "s",
                 f"{len(labels)} commands"),
                *latency_rows("cli_angles", angles_ms, also=(80,)),
                ("cli_verify_graph_s", step_median("verify"), "s", "40x40 graph, exit 5"),
                ("cli_construct_verify_s", step_median("construct_verify"), "s",
                 "h=1e-3 --verify --save"),
                ("cli_construct_save_s", step_median("construct_save"), "s",
                 "h=2.5e-4 --save"),
                ("cli_export_s", step_median("export"), "s", "csv + obj + json")]


WORKLOADS = {w.name: w for w in (AnglesBatch(), VerifyCatalog(), ConstructLadder(),
                                 CliSession())}
