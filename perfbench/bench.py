"""Running one workload: set-up, passes, checks and metrics.

A run of the benchmark does, in order:

1. *Preparation* (not timed): inputs from the seed, each app's NumPy
   reference computed once, and on ``sanitized`` the unsanitized twin of
   every run.
2. A *warm-up pass* over every run: it fills lazy caches and yields the
   modeled metrics and counts, which are deterministic.
3. *Timed passes* until ``seconds`` are up.  Every run is timed between
   two loops of :mod:`perfbench.calibration` and scaled to its reference
   speed; ``host_s`` sums each run's median over the passes.  With
   tracing, every untraced pass is followed by a traced one, and the
   per-layer self times (as measured, not scaled) come from the median
   traced pass.
4. *Set-up* (``setup_s``): before each timed pass, and after them until
   there are ``SETUP_REPEATS``, one cold compile of the workload's
   programs in a fresh interpreter (:mod:`perfbench.compile_probe`),
   scaled like the runs; the median counts.

Every run of every pass is checked; a run that raises or fails a check
counts as failed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import repro
from repro.apps import AppSpec

from perfbench import calibration
from perfbench.layers import (RUN_LAYERS, SpanRecorder, installed,
                              require_spans)
from perfbench.workloads import (APPS, EXTRA_CHECKS, Topology, Workload,
                                 all_run_labels, run_label, sized_params)

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 7
MIB = 1 << 20
#: ``breakdown.other`` may differ from zero by float rounding only.
OTHER_RTOL = 1e-9

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "modeled_ms": ("ms", "lower"),
    "host_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "passed_frac": ("ratio", "higher"),
    "device_peak_mb": ("MiB", "lower"),
    "host_peak_mb": ("MiB", "lower"),
}

#: Per-layer metrics other than the per-run rows: name -> (unit, better).
LAYER_METRICS = {
    "frontend.host_s": ("s", "lower"),
    "translator.host_s": ("s", "lower"),
    "translator.kernels": ("count", "lower"),
    "translator.kernel_lines": ("count", "lower"),
    "host.host_s": ("s", "lower"),
    "executor.host_s": ("s", "lower"),
    "executor.loops": ("count", "lower"),
    "kernels.host_s": ("s", "lower"),
    "kernels.host_ns_per_iter": ("ns", "lower"),
    "kernels.launches": ("count", "lower"),
    "kernels.modeled_ms": ("ms", "lower"),
    "loader.host_s": ("s", "lower"),
    "loader.cpu_gpu_ms": ("ms", "lower"),
    "loader.h2d_bytes": ("B", "lower"),
    "loader.d2h_bytes": ("B", "lower"),
    "loader.reload_skip_ratio": ("ratio", "higher"),
    "comm.host_s": ("s", "lower"),
    "comm.gpu_gpu_ms": ("ms", "lower"),
    "comm.gpu_gpu_hidden_ms": ("ms", "higher"),
    "comm.halo_bytes": ("B", "lower"),
    "comm.replica_bytes": ("B", "lower"),
    "comm.miss_bytes": ("B", "lower"),
    "comm.reduction_bytes": ("B", "lower"),
    "comm.transactions": ("count", "lower"),
    "net.exposed_ms": ("ms", "lower"),
    "net.hidden_ms": ("ms", "higher"),
    "net.cross_node_bytes": ("B", "lower"),
    "net.nic_transfers": ("count", "lower"),
    "net.internode_bytes": ("B", "lower"),
    "net.staged_exchanges": ("count", "lower"),
    "bus.host_s": ("s", "lower"),
    "bus.transfers": ("count", "lower"),
    "sim.host_us_per_event": ("us", "lower"),
    "sanitizer.host_s": ("s", "lower"),
    "sanitizer.share": ("ratio", "lower"),
    "sanitizer.violations": ("count", "lower"),
    "bench.raw_host_s": ("s", "lower"),
    "bench.raw_setup_s": ("s", "lower"),
    "bench.traced_host_s": ("s", "lower"),
    "bench.unattributed_host_s": ("s", "lower"),
    "bench.trace_overhead": ("ratio", "lower"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric, the per-run rows of all workloads last."""
    rows = {}
    for label in all_run_labels():
        rows[f"run.{label}.modeled_ms"] = ("ms", "lower")
        rows[f"run.{label}.host_ms"] = ("ms", "lower")
    return LAYER_METRICS | rows


@dataclass
class Case:
    """One program run of the workload, with what checks it."""

    label: str
    #: The app, its reference computed once for these inputs.
    app: AppSpec
    prog: repro.AccProgram
    inputs: dict[str, Any]
    topology: Topology
    sanitize: bool
    #: On ``sanitized``: every array and the elapsed time of the same
    #: inputs run unsanitized, which the sanitized run must reproduce bit
    #: for bit.
    twin: tuple[dict[str, np.ndarray], float] | None = None


@dataclass
class Outcome:
    #: Host seconds inside ``prog.run``, as measured.
    seconds: float
    #: The same at the calibration loop's reference speed.
    scaled: float
    failure: str | None = None
    violation: bool = False
    counts: dict[str, float] | None = None


def prepare(workload: Workload, seed: int) -> list[Case]:
    cases = []
    for app_run, params in zip(workload.apps, sized_params(workload, seed)):
        app = APPS[app_run.app]
        inputs = app.make_args(**params)
        expected = app.reference(app.snapshot(inputs))
        checker = dataclasses.replace(
            app, reference=lambda _args, expected=expected: expected)
        prog = repro.compile(app.source)
        for topo in app_run.topologies:
            case = Case(run_label(app.name, topo), checker, prog, inputs,
                        topo, workload.sanitize)
            if workload.sanitize:
                args = app.snapshot(inputs)
                run = prog.run(app.entry, args, machine=topo.machine,
                               ngpus=topo.ngpus)
                case.twin = ({n: np.array(v) for n, v in args.items()
                              if isinstance(v, np.ndarray)}, run.elapsed)
            cases.append(case)
    return cases


def check(case: Case, args: dict[str, Any],
          run: repro.ProgramRun) -> str | None:
    """The first failed check of one run, or None."""
    try:
        case.app.check(args)
        if case.app.name in EXTRA_CHECKS:
            EXTRA_CHECKS[case.app.name](args)
    except AssertionError as exc:
        return str(exc)
    other = run.breakdown.other
    if abs(other) > OTHER_RTOL * run.elapsed:
        return (f"breakdown.other = {other!r} s of {run.elapsed!r} s lies "
                "outside the Fig. 8 categories")
    if case.twin is not None:
        outputs, elapsed = case.twin
        for name, want in outputs.items():
            if not np.array_equal(args[name], want):
                return f"sanitized output {name!r} differs from unsanitized"
        if run.elapsed != elapsed:
            return (f"sanitized elapsed {run.elapsed!r} != unsanitized "
                    f"{elapsed!r}")
    return None


def run_counts(run: repro.ProgramRun) -> dict[str, float]:
    """Modeled seconds and counts of one run (all deterministic)."""
    bd = run.breakdown
    bus = run.platform.bus
    comm = run.executor.comm
    loader = run.executor.loader
    return {
        "modeled_ms": run.elapsed * 1e3,
        "device_peak_mb": run.memory_high_water() / MIB,
        "executor.loops": len(run.loop_stats),
        "kernels.launches": run.kernel_launches,
        "kernels.modeled_ms": bd.kernels * 1e3,
        "kernels.iterations": sum(max(0, t1 - t0) for s in run.loop_stats
                                  for t0, t1 in s.tasks),
        "loader.cpu_gpu_ms": bd.cpu_gpu * 1e3,
        "loader.h2d_bytes": bus.bytes_moved("h2d"),
        "loader.d2h_bytes": bus.bytes_moved("d2h"),
        "loader.skips": loader.reloads_skipped,
        "loader.attempts": (loader.reloads_skipped + loader.loads
                            + loader.migrations),
        "comm.gpu_gpu_ms": bd.gpu_gpu * 1e3,
        "comm.gpu_gpu_hidden_ms": bd.gpu_gpu_overlapped * 1e3,
        "comm.halo_bytes": comm.bytes_halo,
        "comm.replica_bytes": comm.bytes_replica,
        "comm.miss_bytes": comm.bytes_miss,
        "comm.reduction_bytes": comm.bytes_reduction,
        "comm.transactions": comm.transactions,
        "net.exposed_ms": bd.net * 1e3,
        "net.hidden_ms": bd.net_overlapped * 1e3,
        "net.cross_node_bytes": bus.cross_node_bytes(),
        "net.nic_transfers": sum(1 for t in bus.completed if t.kind == "net"),
        "net.internode_bytes": comm.bytes_internode,
        "net.staged_exchanges": comm.staged_exchanges,
        "bus.transfers": len(bus.completed) + bus.pending_count(),
    }


def execute(case: Case, keep_counts: bool = False) -> Outcome:
    """Run one case, timing only ``prog.run`` between two calibration
    loops, then check it."""
    args = case.app.snapshot(case.inputs)
    kwargs = {"sanitize": True} if case.sanitize else {}
    before = calibration.loop_seconds()
    t0 = time.perf_counter()
    try:
        run = case.prog.run(case.app.entry, args,
                            machine=case.topology.machine,
                            ngpus=case.topology.ngpus, **kwargs)
    except Exception as exc:  # a run that raises is counted as failed
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        scaled = calibration.scaled(seconds, before,
                                    calibration.loop_seconds())
        return Outcome(seconds, scaled,
                       f"{case.label}: {type(exc).__name__}: {exc}",
                       isinstance(exc, repro.CoherenceViolation))
    seconds = time.perf_counter() - t0
    scaled = calibration.scaled(seconds, before, calibration.loop_seconds())
    failure = check(case, args, run)
    if failure is not None:
        failure = f"{case.label}: {failure}"
    return Outcome(seconds, scaled, failure,
                   counts=run_counts(run) if keep_counts else None)


def compile_probe(workload: Workload, trace: bool) -> dict[str, float]:
    """One cold compile of the workload in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.compile_probe", workload.name,
         "1" if trace else "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        check=True)
    return json.loads(done.stdout.splitlines()[-1])


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            setup_repeats: int = SETUP_REPEATS) -> dict[str, Any]:
    """Run the workload and return the result object to print."""
    cases = prepare(workload, seed)
    warm = [execute(c, keep_counts=True) for c in cases]
    outcomes = list(warm)

    setups: list[dict[str, float]] = []
    untraced: list[list[Outcome]] = []
    traced: list[tuple[float, dict[str, float]]] = []
    recorder = SpanRecorder()
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        # Set-up samples are spread over the run, because the speed of a
        # shared host drifts over seconds.
        setups.append(compile_probe(workload, trace))
        done = [execute(c) for c in cases]
        outcomes += done
        untraced.append(done)
        if trace:
            recorder.reset()
            with installed(recorder):
                done = [execute(c) for c in cases]
            require_spans(recorder, workload.loads)
            outcomes += done
            traced.append((sum(o.seconds for o in done),
                           dict(recorder.self_s)))
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    setups += [compile_probe(workload, trace)
               for _ in range(setup_repeats - len(setups))]

    failures = [o.failure for o in outcomes if o.failure is not None]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    counted = [o.counts for o in warm if o.counts is not None]
    # Each run's median over the passes, summed: the per-run rows add up
    # to it, and it varies less than the median pass on a shared host.
    per_run = [statistics.median(o.scaled for o in runs)
               for runs in zip(*untraced)]
    if trace:
        violations = sum(o.violation for o in outcomes)
        metrics = layer_metrics(cases, warm, setups, untraced, traced,
                                per_run, violations)
        specs = per_layer_metrics()
    else:
        metrics = {
            "modeled_ms": _geomean_of(counted, "modeled_ms"),
            "host_s": sum(per_run),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "passed_frac": 1.0 - len(failures) / len(outcomes),
            "device_peak_mb": _geomean_of(counted, "device_peak_mb"),
            "host_peak_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        specs = END_TO_END
    return {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, (unit, _) in specs.items()},
    }


def _geomean_of(counted: list[dict[str, float]], key: str) -> float:
    return geomean([c[key] for c in counted]) if counted else 0.0


def layer_metrics(cases: list[Case], warm: list[Outcome],
                  setups: list[dict[str, float]],
                  untraced: list[list[Outcome]],
                  traced: list[tuple[float, dict[str, float]]],
                  per_run: list[float], violations: int) -> dict[str, float]:
    counted = [o.counts for o in warm if o.counts is not None]
    total = {k: sum(c[k] for c in counted) for k in counted[0]} \
        if counted else {}
    m: dict[str, float] = {k: total.get(k, 0.0) for k in LAYER_METRICS}

    m["frontend.host_s"] = statistics.median(s["frontend_s"] for s in setups)
    m["translator.host_s"] = statistics.median(
        s["translator_s"] for s in setups)
    m["translator.kernels"] = setups[0]["kernels"]
    m["translator.kernel_lines"] = setups[0]["kernel_lines"]
    m["bench.raw_setup_s"] = statistics.median(
        s["raw_setup_s"] for s in setups)

    # Layer self times are as measured (not scaled) and all come from one
    # pass, the median traced one, so that they and the unattributed
    # remainder add up to its host time.
    traced_host_s, self_s = sorted(traced, key=lambda p: p[0])[
        (len(traced) - 1) // 2]
    for layer in RUN_LAYERS:
        m[f"{layer}.host_s"] = self_s.get(layer, 0.0)
    m["bench.traced_host_s"] = traced_host_s
    m["bench.unattributed_host_s"] = traced_host_s - sum(
        self_s.get(layer, 0.0) for layer in RUN_LAYERS)
    m["bench.raw_host_s"] = sum(statistics.median(o.seconds for o in runs)
                                for runs in zip(*untraced))
    m["bench.trace_overhead"] = traced_host_s / statistics.median(
        sum(o.seconds for o in runs) for runs in untraced) - 1.0
    host_s = sum(per_run)

    iterations = total.get("kernels.iterations", 0)
    m["kernels.host_ns_per_iter"] = (
        m["kernels.host_s"] / iterations * 1e9 if iterations else 0.0)
    attempts = total.get("loader.attempts", 0)
    m["loader.reload_skip_ratio"] = (
        total["loader.skips"] / attempts if attempts else 0.0)
    events = total.get("kernels.launches", 0) + total.get("bus.transfers", 0)
    m["sim.host_us_per_event"] = host_s / events * 1e6 if events else 0.0
    m["sanitizer.share"] = m["sanitizer.host_s"] / traced_host_s
    m["sanitizer.violations"] = violations

    for label in all_run_labels():
        m[f"run.{label}.modeled_ms"] = 0.0
        m[f"run.{label}.host_ms"] = 0.0
    for case, outcome, seconds in zip(cases, warm, per_run):
        if outcome.counts is not None:
            m[f"run.{case.label}.modeled_ms"] = outcome.counts["modeled_ms"]
        m[f"run.{case.label}.host_ms"] = seconds * 1e3
    return m
