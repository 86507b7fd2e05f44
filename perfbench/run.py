#!/usr/bin/env python3
"""helix4 benchmark: four workloads, end-to-end metrics, traced layer times.

Run from the repository root:

    python3 perfbench/run.py --workload angles-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run builds the workload's inputs from ``--seed``, sets up the program
several times (``setup_s`` is the median), then repeats passes over the
inputs for about ``--seconds`` seconds.  The first pass is a warm-up; every
pass is checked for correct output.  Times are calibrated against a kernel
that a timer signal runs during each pass (see ``SpeedProbe``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics listed in BENCHMARK.json; with ``--trace 1`` untraced and
traced passes alternate and the line holds the per-layer metrics.
``--workload all`` runs the four workloads one after the other, each in its
own process, and prints every result.  See perfbench/README.md for the
metrics and why each workload exists.
"""

from __future__ import annotations

import os

# one BLAS thread: the kernels are tiny matrices, and threads only add jitter
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import KNOWN_DEFECTS, WITNESSES, WORKLOADS, median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("grassmann", "catalog", "expressions", "surface_analysis",
           "helix_construct", "cli")
SETUP_REPEATS = 7
MIN_TIMED_PASSES = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 600

# The host's speed drifts by tens of per cent within seconds, and a run
# cannot stop that.  So while a pass runs, a timer signal runs a fixed
# calibration kernel every PROBE_INTERVAL_S, and the pass's wall times
# (without the kernel's own time) are scaled by CAL_REF_S / (mean kernel
# time in the pass).  Samples taken at even intervals make the mean track the
# host's average slowness over the pass.  "Calibrated seconds" are seconds on
# a host that runs the kernel in CAL_REF_S, its fast-state time on a 2-core
# Xeon at 2.1 GHz, so calibrated and wall seconds agree there.  Wall seconds
# are printed too.
PROBE_INTERVAL_S = 0.03
CAL_ITERATIONS = 120
CAL_REF_S = 0.71e-3
_CAL_MATRIX = np.array([[2.0, 1.0], [1.0, 3.0]])


def calibration_s() -> float:
    """Wall time of a fixed mix of interpreter work and 2x2 LAPACK calls."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    for _ in range(CAL_ITERATIONS):
        float(np.linalg.svd(_CAL_MATRIX, compute_uv=False)[0])
    elapsed = perf_counter() - t0
    if gc_was_enabled:
        gc.enable()
    return elapsed


class SpeedProbe:
    """Samples the calibration kernel from SIGALRM while the block runs.

    ``spent`` is the kernel time so far, which callers subtract from the
    wall time they measure; ``scale`` converts wall to calibrated seconds.
    With a tracer, each sample is a span of its own, so the kernel's time
    is not charged to the program span it interrupts.
    """

    def __init__(self, tracer: tracing.Tracer | None = None):
        self.samples: list[float] = []
        self.spent = 0.0
        self._tick = (self._sample if tracer is None
                      else tracer.wrap(tracing.CALIBRATION_SPAN, self._sample))

    def _sample(self, _signum=None, _frame=None):
        t = calibration_s()
        self.samples.append(t)
        self.spent += t

    def __enter__(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn):
        """(result, wall seconds without kernel time) of ``fn()``."""
        spent, t0 = self.spent, perf_counter()
        result = fn()
        return result, perf_counter() - t0 - (self.spent - spent)

    @property
    def scale(self) -> float:
        return CAL_REF_S * len(self.samples) / sum(self.samples)


class SetupError(RuntimeError):
    """The program cannot be loaded from this checkout."""


def import_program() -> types.SimpleNamespace:
    """Import helix4 afresh from the checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "helix4" or m.startswith("helix4.")]:
        del sys.modules[name]
    cli = importlib.import_module("helix4.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"helix4 was imported from {cli.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: sys.modules[f"helix4.{m}"] for m in MODULES})


def set_up(wl, raw):
    """Import helix4 and build the program-side inputs SETUP_REPEATS times.

    Returns the modules and state of the last repeat and the calibrated
    setup times.
    """
    def once():
        h4 = import_program()
        return h4, wl.build(h4, raw)

    wall = []
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            (h4, state), seconds = probe.timed(once)
            wall.append(seconds)
    return h4, state, [t * probe.scale for t in wall]


class Pass:
    """One pass: wall seconds per operation, its calibration scale, and the
    whole pass's elapsed time (with calibration and checks)."""

    def __init__(self, wall, scale, elapsed):
        self.wall, self.scale, self.elapsed = wall, scale, elapsed

    @property
    def times(self) -> list[float]:
        """Calibrated seconds per operation."""
        return [t * self.scale for t in self.wall]

    @property
    def seconds(self) -> float:
        return sum(self.wall) * self.scale


class Measurement:
    """Passes of one run and their correctness counts.

    Only the last pass's results are kept, so memory does not grow with the
    number of passes that fit in a run.
    """

    def __init__(self, wl, h4, state):
        self.wl, self.h4, self.state = wl, h4, state
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.tracer = tracing.Tracer()
        self.last_results = None

    def one_pass(self, traced: bool = False) -> Pass:
        start = perf_counter()
        self.last_results = None
        gc.collect()
        ops = self.wl.ops(self.h4, self.state)
        inst = (tracing.Installation(self.tracer, self.h4, self.wl.patches(self.state))
                if traced else None)
        wall, results = [], []
        try:
            with SpeedProbe(self.tracer if traced else None) as probe:
                for op in ops:
                    result, seconds = probe.timed(op)
                    results.append(result)
                    wall.append(seconds)
        finally:
            if inst is not None:
                inst.uninstall()
        attempted, failures = self.wl.check(self.state, results)
        self.attempted += attempted
        self.failures += failures
        self.last_results = results
        return Pass(wall, probe.scale, perf_counter() - start)


def measure(wl, h4, state, seconds: float, traced: bool):
    """Warm-up pass, then timed passes (alternating with traced passes when
    ``traced``) until starting another would overrun ``seconds``."""
    m = Measurement(wl, h4, state)
    start = perf_counter()
    m.one_pass()
    plain: list[Pass] = []
    traced_runs: list[Pass] = []

    def room_for(*groups):
        need = sum(median([p.elapsed for p in g]) for g in groups)
        return perf_counter() - start + need <= seconds

    if not traced:
        while len(plain) < MIN_TIMED_PASSES or room_for(plain):
            plain.append(m.one_pass())
    else:
        while len(traced_runs) < MIN_TRACED_PAIRS or room_for(plain, traced_runs):
            plain.append(m.one_pass())
            traced_runs.append(m.one_pass(traced=True))
    return m, plain, traced_runs


def environment(wl, state, args) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "sizes": wl.sizes(state)}


def end_to_end(plain, setup_times) -> dict[str, float]:
    return {"pass_s": median([p.seconds for p in plain]),
            "setup_s": median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def per_layer(m, plain, traced_runs) -> dict[str, float]:
    values = tracing.layer_metrics(m.tracer, len(traced_runs))
    values.update(dict.fromkeys(WITNESSES, 0.0))
    values.update(m.wl.witnesses(m.state, m.last_results))
    t_plain = median([p.seconds for p in plain])
    t_traced = median([p.seconds for p in traced_runs])
    values["trace.overhead_s"] = t_traced - t_plain
    values["trace.overhead_frac"] = (t_traced - t_plain) / t_plain
    return values


def result_line(spec_metrics, values, m) -> dict:
    mismatch = {s["name"] for s in spec_metrics} ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(mismatch)}")
    failed = len(m.failures)
    unexpected = [f for f in m.failures if (m.wl.name, f[0]) not in KNOWN_DEFECTS]
    return {"correct": not unexpected, "attempted": m.attempted, "failed": failed,
            "metrics": {s["name"]: {"value": float(values[s["name"]]), "unit": s["unit"]}
                        for s in spec_metrics}}


def report(wl, m, plain, traced_runs, setup_times, env, spec, trace: bool) -> dict:
    print(f"workload {wl.name}: {len(plain)} timed passes"
          + (f" + {len(traced_runs)} traced" if trace else "")
          + f" after 1 warm-up; {m.attempted} operations, {len(m.failures)} failed")
    print("env " + json.dumps(env))
    e2e = end_to_end(plain, setup_times)
    wall = median([sum(p.wall) for p in plain])
    speed = median([p.scale for p in plain])
    rows = [("pass_s", e2e["pass_s"], "s",
             f"median of {len(plain)} passes; wall {wall:.4g} s at speed {speed:.3f}"),
            ("setup_s", e2e["setup_s"], "s", f"median of {len(setup_times)}"),
            ("failed_frac", len(m.failures) / m.attempted, "1",
             f"{len(m.failures)}/{m.attempted}"),
            ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "")]
    rows += wl.named(m.state, [p.times for p in plain], m.last_results)
    for name, value, unit, note in rows:
        print(f"  {name:<28} {value:>14.6g} {unit:<8} {note}")
    seen = set()
    for op, detail in m.failures:
        if op in seen:
            continue
        seen.add(op)
        known = KNOWN_DEFECTS.get((wl.name, op))
        print(f"  {'known defect' if known else 'FAILED'} {op}: {detail}"
              + (f" [{known}]" if known else ""))
        if len(seen) >= 10:
            break
    if trace:
        values = per_layer(m, plain, traced_runs)
        total = statistics.mean(sum(p.wall) for p in traced_runs)
        shares = sorted(((values[f"{s}.self_s"], s) for s in tracing.REPORTED_SPANS),
                        reverse=True)
        print(f"  traced pass {total:.4g} s, overhead {values['trace.overhead_frac']:.1%};"
              " largest self times:")
        for self_s, span in shares[:8]:
            if self_s > 0:
                print(f"    {span:<42} {self_s:10.4g} s {self_s / total:6.1%}")
        return result_line(spec["per_layer"], values, m)
    return result_line(spec["end_to_end"], e2e, m)


def run_workload(args, spec) -> int:
    if not (SRC / "helix4" / "__init__.py").is_file():
        print(f"error: no helix4 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench-work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        raw = wl.inputs(args.seed, workdir)
        try:
            h4, state, setup_times = set_up(wl, raw)
        except (ImportError, SetupError) as exc:
            print(f"error: cannot load helix4: {exc}", file=sys.stderr)
            return 2
        gc.collect()
        gc.freeze()
        m, plain, traced_runs = measure(wl, h4, state, args.seconds, bool(args.trace))
        line = report(wl, m, plain, traced_runs, setup_times,
                      environment(wl, state, args), spec, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"workload {name}: FAILED (exit {proc.returncode})")
            status = 1
        sys.stdout.flush()
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
