"""``localaccess`` window auditor.

The paper's distribution-based placement trusts the programmer's
``localaccess`` declaration: each GPU loads only the declared
per-iteration read window (plus halo) of a distributed array.  An
*under-declared* window is a user-level race the model cannot express
-- iteration ``i`` reads an element its GPU never loaded, and on real
hardware gets stale or unmapped memory.

The auditor rides on the shadow oracle's pass: the kernel's audit
variant (:mod:`repro.translator.vectorizer`) -- or the scalar
interpreter, where it is the executing engine -- reports every array
access to a :class:`SpanRecorder`, which folds the indices into
per-iteration ``[min, max]`` spans.  :meth:`LocalAccessAuditor.verify`
then evaluates the declared bounds (``stride(s, l, r)`` ->
``s*i - l .. s*(i+1) - 1 + r``, plus the range/bounds forms) over the
touched iterations with NumPy.  Any access outside the declared window
raises :class:`CoherenceViolation` naming the loop, array, iteration
and offending index range.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..runtime.data_loader import DataLoader
from ..runtime.partition import (
    make_vector_window_evaluator,
    make_window_evaluator,
)
from ..translator.array_config import (
    ArrayConfig,
    Placement,
    ReadWindow,
    WriteHandling,
)
from .violations import CoherenceViolation

_NO_MIN = np.iinfo(np.int64).max
_NO_MAX = np.iinfo(np.int64).min


def audited_windows(configs: dict[str, ArrayConfig]) -> dict[str, str]:
    """Arrays the auditor checks in one loop: name -> window origin.

    Two kinds of active window are audited, with distinct violation
    kinds so the report names the right culprit:

    * ``"declared"`` -- a user ``localaccess`` directive (other than
      ``all``, which keeps replica placement and cannot race).  A
      violation is a *user error* (``localaccess-underdeclared``).
    * ``"inferred"`` -- a window the inference pass adopted.  A
      violation is a *compiler bug* (``localaccess-inference-unsound``):
      inference promised the window covers every access.

    The adaptive advisor's replica demotion candidates
    (``cfg.inferred_window`` on REPLICA arrays) are not audited: the
    array is replicated, every GPU holds all of it, and no read can
    miss.  ``repro.explain`` uses this same predicate to report which
    placements a sanitized run cross-checks.
    """
    out: dict[str, str] = {}
    for name, cfg in configs.items():
        if cfg.placement != Placement.DISTRIBUTED or cfg.window is None:
            continue
        if cfg.window.spec is not None and cfg.window.spec.kind == "all":
            continue
        out[name] = cfg.window.origin
    return out


class SpanRecorder:
    """Per-iteration ``[min, max]`` index spans of one loop's audited
    arrays.

    Two int64 entries per (iteration, array): memory grows with the
    loop's iterations, never with its accesses.  An iteration that
    touched an array has ``min <= max``.
    """

    def __init__(self, targets: list[str], write_exempt: set[str],
                 first: int, last: int) -> None:
        #: Iteration of entry 0.
        self.first = first
        self.write_exempt = write_exempt
        n = max(0, last - first)
        self.spans: dict[str, tuple[np.ndarray, np.ndarray]] = {
            name: (np.full(n, _NO_MIN, dtype=np.int64),
                   np.full(n, _NO_MAX, dtype=np.int64))
            for name in targets}

    def record(self, name: str, iterations: Any, indices: Any, mask: Any,
               kind: str) -> None:
        """Fold one access site (see ``KernelContext.audit``)."""
        span = self.spans.get(name)
        if span is None or (kind == "w" and name in self.write_exempt):
            return
        pos = np.asarray(iterations) - self.first
        idx = np.asarray(indices, dtype=np.int64)
        if mask is not None:
            m = np.asarray(mask, dtype=bool)
            if m.ndim == 0:
                if not m:
                    return
            else:
                pos = np.broadcast_to(pos, m.shape)[m]
                idx = np.broadcast_to(idx, m.shape)[m]
        np.minimum.at(span[0], pos, idx)
        np.maximum.at(span[1], pos, idx)


class LocalAccessAuditor:
    """Records and validates actual access spans per iteration."""

    def __init__(self, loader: DataLoader) -> None:
        self.loader = loader
        #: Telemetry: (loop, array) pairs audited.
        self.audited = 0

    def recorder(self, configs: dict[str, ArrayConfig],
                 tasks: list[tuple[int, int]]) -> SpanRecorder | None:
        """The span recorder for one loop's shadow pass (None when the
        loop has nothing to audit).

        Every active distribution window is audited -- user-declared
        *and* compiler-inferred (see :func:`audited_windows`); a
        too-narrow inferred window is an inference-pass bug and must
        surface in sanitized runs, not silently read stale halo.  Write
        misses on miss-checked arrays are legal (the runtime replays
        them), so their writes are exempt; reads never are.
        """
        targets = list(audited_windows(configs))
        if not targets:
            return None
        write_exempt = {
            name for name in targets
            if configs[name].write_handling == WriteHandling.MISS_CHECK
        }
        live = [(t0, t1) for t0, t1 in tasks if t1 > t0]
        first = min((t0 for t0, _ in live), default=0)
        last = max((t1 for _, t1 in live), default=0)
        return SpanRecorder(targets, write_exempt, first, last)

    def verify(self, plan: Any, configs: dict[str, ArrayConfig],
               recorder: SpanRecorder | None,
               host_env: dict[str, Any]) -> None:
        """Check every recorded span against the declared window."""
        if recorder is None:
            return
        evaluate = scalar = None
        for name, (mins, maxs) in recorder.spans.items():
            touched = np.flatnonzero(mins <= maxs)
            if not touched.size:
                continue
            if evaluate is None:
                host_arrays = {n: m.host
                               for n, m in self.loader.arrays.items()}
                evaluate = make_vector_window_evaluator(
                    plan.loop_var, host_env, host_arrays)
                scalar = make_window_evaluator(
                    plan.loop_var, dict(host_env), host_arrays)
            window = configs[name].window
            assert window is not None
            self.audited += 1
            its = touched + recorder.first
            mn = mins[touched]
            mx = maxs[touched]
            lo = evaluate(window.lower, its)
            hi = evaluate(window.upper, its) if lo is not None else None
            if hi is None:
                # Bounds the NumPy evaluator declines: iteration by
                # iteration, raising exactly what the scalar evaluator
                # raises, in its order.
                for k, it in enumerate(its.tolist()):
                    l = scalar(window.lower, it)
                    h = scalar(window.upper, it)
                    if mn[k] < l or mx[k] > h:
                        _raise_outside(plan.name, name, window, it,
                                       int(mn[k]), int(mx[k]), l, h)
                continue
            bad = np.flatnonzero((mn < lo) | (mx > hi))
            if bad.size:
                k = int(bad[0])
                _raise_outside(plan.name, name, window, int(its[k]),
                               int(mn[k]), int(mx[k]), int(lo[k]),
                               int(hi[k]))


def _raise_outside(loop: str, array: str, window: ReadWindow, it: int,
                   mn: int, mx: int, lo: int, hi: int) -> None:
    if window.origin == "inferred":
        raise CoherenceViolation(
            "localaccess-inference-unsound", loop=loop, array=array,
            lo=mn, hi=mx,
            detail=(f"iteration {it} accessed [{mn}, {mx}] but the "
                    f"compiler-inferred localaccess window is "
                    f"[{lo}, {hi}]; this is an inference-pass bug, not a "
                    "user error -- please report it"))
    raise CoherenceViolation(
        "localaccess-underdeclared", loop=loop, array=array, lo=mn, hi=mx,
        detail=(f"iteration {it} accessed [{mn}, {mx}] but the declared "
                f"localaccess window is [{lo}, {hi}]; under-declared "
                "windows are a race under distribution-based placement"))
