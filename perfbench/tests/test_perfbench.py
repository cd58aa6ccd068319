"""Tests of the benchmark itself, on shrunken copies of its workloads.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from perfbench import bench, layers
from perfbench.layers import RUN_LAYERS, Hook, HookError, SpanRecorder
from perfbench.workloads import (APPS, PROBE_APP, WORKLOADS, Workload,
                                 sized_params)

ROOT = Path(__file__).resolve().parents[2]

#: Metrics that time the host; everything else must repeat exactly.
HOST_TIMED = {"host_s", "setup_s", "host_peak_mb", "sanitizer.share",
              "sim.host_us_per_event", "kernels.host_ns_per_iter"}


def is_host_timed(name: str) -> bool:
    return (name in HOST_TIMED or name.endswith((".host_s", ".host_ms"))
            or name.startswith("bench."))


def tiny(workload: Workload) -> Workload:
    """The workload with every problem size cut by 16."""
    apps = []
    for a in workload.apps:
        key = a.size_key or "h"  # heat2d's size is not drawn from the seed
        apps.append(dataclasses.replace(
            a, params={**a.params, key: max(64, a.params[key] // 16)}))
    return dataclasses.replace(workload, apps=tuple(apps))


def measure(name: str, trace: bool, seed: int = 1) -> dict:
    return bench.measure(tiny(WORKLOADS[name]), seed, 0.0, trace,
                         setup_repeats=1)


def owner_attributes() -> dict:
    """Every attribute of every object the hooks touch, by identity."""
    return {hook.owner: dict(vars(owner))
            for hook, owner in {(h, t[1]) for h in layers.HOOKS
                                for t in layers.resolve((h,))}}


@pytest.fixture(scope="module")
def traced_twice() -> dict[str, tuple[dict, dict]]:
    return {name: (measure(name, True), measure(name, True))
            for name in WORKLOADS}


def values(result: dict) -> dict[str, float]:
    return {k: v["value"] for k, v in result["metrics"].items()}


# -- hooks ---------------------------------------------------------------


def test_wrappers_are_installed_only_during_the_traced_pass(monkeypatch):
    from repro.translator.host import HostExecutor

    original = vars(HostExecutor)["call"]
    before = owner_attributes()
    hooked = []
    real = bench.execute

    def spy(case, keep_counts=False):
        hooked.append(vars(HostExecutor)["call"] is not original)
        return real(case, keep_counts)

    monkeypatch.setattr(bench, "execute", spy)
    result = measure("paper-irregular", True)
    runs = len(hooked) // 3  # warm-up, untraced and traced pass
    assert result["correct"] and runs == 15
    assert hooked == [False] * (2 * runs) + [True] * runs
    after = owner_attributes()
    assert before.keys() == after.keys()
    for owner in before:
        assert before[owner].keys() == after[owner].keys(), owner
        for name, value in before[owner].items():
            assert after[owner][name] is value, (owner, name)


def test_renamed_entry_point_fails_loudly(monkeypatch):
    renamed = Hook("comm", "repro.runtime.comm:CommunicationManager",
                   ("after_kernels_renamed",))
    with pytest.raises(HookError, match="after_kernels_renamed"):
        layers.resolve((renamed,))
    before = owner_attributes()
    monkeypatch.setattr(layers, "HOOKS", layers.HOOKS + (renamed,))
    with pytest.raises(HookError, match="after_kernels_renamed"):
        measure("sanitized", True)
    monkeypatch.undo()
    assert owner_attributes() == before


def test_entry_point_no_longer_called_fails_loudly(monkeypatch):
    # A hook on a method nothing calls stands for a renamed call site.
    uncalled = Hook("comm", "repro.runtime.comm:CommunicationManager",
                    ("ready_time",))
    hooks = tuple(h for h in layers.HOOKS if h.layer != "comm") + (uncalled,)
    monkeypatch.setattr(layers, "HOOKS", hooks)
    with pytest.raises(HookError, match="comm"):
        measure("sanitized", True)


def test_self_time_excludes_nested_spans(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(layers.time, "perf_counter", lambda: next(ticks))
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda: None)

    def outer():
        inner()
        inner()

    recorder.wrap("outer", outer)()
    # outer spans ticks 0..5, each inner one tick inside it.
    assert recorder.spans == {"inner": 2, "outer": 1}
    assert recorder.self_s == {"inner": 2, "outer": 3}


# -- metrics -------------------------------------------------------------


def test_layer_self_times_and_remainder_sum_to_traced_host_s(traced_twice):
    for name, (result, _) in traced_twice.items():
        m = values(result)
        parts = [m[f"{layer}.host_s"] for layer in RUN_LAYERS]
        assert all(p >= 0 for p in parts), name
        assert m["bench.unattributed_host_s"] >= 0, name
        assert math.isclose(sum(parts) + m["bench.unattributed_host_s"],
                            m["bench.traced_host_s"], rel_tol=1e-9), name


def test_modeled_metrics_and_counts_repeat_exactly(traced_twice):
    for name, (first, second) in traced_twice.items():
        a, b = values(first), values(second)
        assert a.keys() == b.keys()
        for metric in a:
            if not is_host_timed(metric):
                assert a[metric] == b[metric], (name, metric)
    first, second = measure("cluster-exchange", False), \
        measure("cluster-exchange", False)
    for metric in ("modeled_ms", "device_peak_mb", "passed_frac"):
        assert first["metrics"][metric] == second["metrics"][metric]


def test_every_metric_is_printed_with_its_unit(traced_twice):
    for name, (result, _) in traced_twice.items():
        assert result["correct"] and result["failed"] == 0, name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            k: unit for k, (unit, _) in bench.per_layer_metrics().items()}
    result = measure("sanitized", False)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in bench.END_TO_END.items()}


def test_predicted_zero_metrics_read_zero(traced_twice):
    for name, (result, _) in traced_twice.items():
        workload = WORKLOADS[name]
        m = values(result)
        for prefix in workload.zero:
            zeros = [k for k in m if k.startswith(prefix.rstrip("*"))]
            assert zeros and all(m[k] == 0 for k in zeros), (name, prefix)
        for layer in workload.loads:
            assert m[f"{layer}.host_s"] > 0, (name, layer)


# -- checks and seeds ----------------------------------------------------


@pytest.mark.parametrize("seed", [2, 3, 1234])
def test_reference_checks_hold_for_any_seed(seed):
    for name in WORKLOADS:
        result = measure(name, False, seed=seed)
        assert result["correct"] and result["failed"] == 0, (name, seed)


def test_same_seed_same_inputs():
    for workload in WORKLOADS.values():
        a, b = sized_params(workload, 7), sized_params(workload, 7)
        assert a == b and a != sized_params(workload, 8)
        app = APPS[workload.apps[0].app]
        x, y = app.make_args(**a[0]), app.make_args(**b[0])
        for key in x:
            np.testing.assert_array_equal(x[key], y[key])


def test_checks_count_failures():
    cases = bench.prepare(tiny(WORKLOADS["sanitized"]), 1)
    assert bench.execute(cases[0]).failure is None
    outputs, elapsed = cases[0].twin
    cases[0].twin = (outputs, elapsed * (1 + 1e-12))
    assert "elapsed" in bench.execute(cases[0]).failure
    first = next(iter(outputs))
    outputs[first] = outputs[first] + 1
    cases[0].twin = (outputs, elapsed)
    assert "differs" in bench.execute(cases[0]).failure


def test_probe_reference_is_independent_of_the_compiler():
    from repro.bench.multinode import probe_args

    args = probe_args(n=64, nprobes=8, steps=3, seed=5)
    want = PROBE_APP.reference(PROBE_APP.snapshot(args))
    # By hand: the ends never change and the interior is a weighted mean.
    assert want["a"][0] == args["a"][0] and want["a"][-1] == args["a"][-1]
    assert np.all(want["record"] >= 0)
    a = args["a"].astype(np.float64)
    for _ in range(3):
        b = a.copy()
        b[1:-1] = 0.6 * a[1:-1] + 0.2 * (a[:-2] + a[2:])
        a = b
    np.testing.assert_allclose(want["a"], a, rtol=1e-5)


# -- BENCHMARK.json and baseline.json ------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == bench.per_layer_metrics()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_baseline_describes_the_current_workloads():
    from perfbench.steadiness import describe

    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    assert list(baseline["workloads"]) == list(WORKLOADS)
    for name, workload in WORKLOADS.items():
        recorded = baseline["workloads"][name]
        assert {k: recorded[k] for k in describe(workload)} == \
            json.loads(json.dumps(describe(workload))), name
        assert recorded["head"]["failed"] == 0
