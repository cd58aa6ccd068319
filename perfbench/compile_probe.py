"""One cold compile of a workload's programs, in a fresh interpreter.

Run as ``python -m perfbench.compile_probe <workload> <trace>`` with the
checkout root and ``src`` on ``PYTHONPATH``.  A fresh process is the only
way to start from empty caches, the compile cache and every memo behind
it.  Prints one JSON object: the compile seconds as measured and scaled
by :mod:`perfbench.calibration`, and with trace ``1`` the frontend and
translator self times and the generated kernel sizes.
"""

from __future__ import annotations

import json
import sys
import time

import repro
from repro.translator.compiler import clear_compile_cache

from perfbench import calibration
from perfbench.layers import COMPILE_LAYERS, HOOKS, SpanRecorder, installed
from perfbench.layers import require_spans
from perfbench.workloads import WORKLOADS


def cold_compile(sources: list[str]) -> tuple[dict[str, float], list]:
    """Compile every source once, timed between two calibration loops."""
    calibration.loop_seconds()  # the first loop of a process runs cold
    clear_compile_cache()
    before = calibration.loop_seconds()
    t0 = time.perf_counter()
    progs = [repro.compile(s) for s in sources]
    seconds = time.perf_counter() - t0
    after = calibration.loop_seconds()
    return {"setup_s": calibration.scaled(seconds, before, after),
            "raw_setup_s": seconds}, progs


def main(argv: list[str]) -> int:
    workload, trace = WORKLOADS[argv[0]], argv[1] == "1"
    sources = workload.sources()
    if not trace:
        times, _ = cold_compile(sources)
        print(json.dumps(times))
        return 0
    recorder = SpanRecorder()
    hooks = tuple(h for h in HOOKS if h.layer in COMPILE_LAYERS)
    with installed(recorder, hooks):
        times, progs = cold_compile(sources)
    require_spans(recorder, COMPILE_LAYERS)
    kernels = [prog.kernel_source(p.name) for prog in progs
               for p in prog.kernels]
    print(json.dumps(times | {
        "frontend_s": recorder.self_s["frontend"],
        "translator_s": recorder.self_s["translator"],
        "kernels": len(kernels),
        "kernel_lines": sum(len(k.splitlines()) for k in kernels),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
