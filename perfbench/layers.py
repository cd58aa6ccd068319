"""Host-time spans per layer, recorded only during the traced pass.

Each layer is named after its module and measured at its public entry
points.  :func:`installed` wraps those entry points with
``perf_counter`` spans for the duration of a ``with`` block and puts the
original attributes back when the block ends, so untraced passes run the
library untouched.

A layer's self time is its span time minus the time of the spans nested
inside it (the sanitizer's shadow run calls ``KernelPlan.execute``, so
that part counts as kernel time).  A hooked name that no longer exists
raises :class:`HookError` instead of silently reporting zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any


class HookError(RuntimeError):
    """A hooked entry point is missing, or a loaded layer never fired."""


@dataclass(frozen=True)
class Hook:
    layer: str
    #: ``"module"`` for module functions, ``"module:Class"`` for methods.
    owner: str
    names: tuple[str, ...]


HOOKS = (
    # ``compile_source`` looks ``parse`` up in the compiler module's
    # namespace, so that is where the frontend entry point is wrapped.
    Hook("frontend", "repro.translator.compiler", ("parse",)),
    Hook("translator", "repro.translator.compiler", ("compile_program",)),
    Hook("host", "repro.translator.host:HostExecutor", ("call",)),
    Hook("executor", "repro.runtime.context:AccExecutor", ("run_loop",)),
    Hook("kernels", "repro.translator.compiler:KernelPlan", ("execute",)),
    Hook("loader", "repro.runtime.data_loader:DataLoader",
         ("ensure_for_loop", "enter_region", "exit_region", "update_host",
          "update_device")),
    Hook("comm", "repro.runtime.comm:CommunicationManager",
         ("after_kernels", "drain")),
    Hook("bus", "repro.vcuda.bus:Bus",
         ("h2d", "d2h", "p2p", "net", "net_pipeline", "sync", "sync_split",
          "sync_category")),
    Hook("sanitizer", "repro.sanitizer.core:Sanitizer",
         ("before_kernels", "after_kernels", "after_comm")),
)

COMPILE_LAYERS = ("frontend", "translator")
#: The layers that run inside ``prog.run``.
RUN_LAYERS = tuple(h.layer for h in HOOKS if h.layer not in COMPILE_LAYERS)


@dataclass
class SpanRecorder:
    """Self time and span count per layer, kept in memory."""

    self_s: dict[str, float] = field(default_factory=dict)
    spans: dict[str, int] = field(default_factory=dict)
    #: One slot per open span: the time of the spans nested in it.
    _open: list[list[float]] = field(default_factory=list)

    def reset(self) -> None:
        self.self_s.clear()
        self.spans.clear()

    def wrap(self, layer: str, fn: Callable) -> Callable:
        self.self_s.setdefault(layer, 0.0)
        self.spans.setdefault(layer, 0)
        clock = time.perf_counter
        stack = self._open

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            nested = [0.0]
            stack.append(nested)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.self_s[layer] += dt - nested[0]
                self.spans[layer] += 1
                if stack:
                    stack[-1][0] += dt

        return span


def resolve(hooks: tuple[Hook, ...]) -> list[tuple[str, Any, str]]:
    """``(layer, owner object, attribute name)`` for every hooked name.

    Raises :class:`HookError` naming the first entry point that is gone,
    before anything is wrapped.
    """
    targets = []
    for hook in hooks:
        module_name, _, class_name = hook.owner.partition(":")
        try:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
        except (ImportError, AttributeError) as exc:
            raise HookError(
                f"layer {hook.layer!r}: cannot find {hook.owner} ({exc}); "
                "update perfbench/layers.py HOOKS") from None
        for name in hook.names:
            raw = vars(owner).get(name, getattr(owner, name, None))
            if not callable(raw) or isinstance(raw, (staticmethod,
                                                     classmethod)):
                raise HookError(
                    f"layer {hook.layer!r}: {hook.owner}.{name} is missing "
                    "or not a plain function; update perfbench/layers.py "
                    "HOOKS")
            targets.append((hook.layer, owner, name))
    return targets


@contextmanager
def installed(recorder: SpanRecorder,
              hooks: tuple[Hook, ...] | None = None) -> Iterator[SpanRecorder]:
    """Wrap the entry points of ``hooks`` (default :data:`HOOKS`) for the
    duration of the block."""
    targets = resolve(HOOKS if hooks is None else hooks)
    saved: list[tuple[Any, str, Any]] = []
    try:
        for layer, owner, name in targets:
            saved.append((owner, name, vars(owner).get(name)))
            setattr(owner, name, recorder.wrap(layer, getattr(owner, name)))
        yield recorder
    finally:
        for owner, name, original in reversed(saved):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


def require_spans(recorder: SpanRecorder, layers: tuple[str, ...]) -> None:
    """Fail when a layer the workload loads recorded no span: its entry
    point was renamed or is no longer called, and would read as zero."""
    silent = [l for l in layers if recorder.spans.get(l, 0) == 0]
    if silent:
        raise HookError(
            f"layers {silent} recorded no span; their hooked entry points "
            "are no longer called -- update perfbench/layers.py HOOKS")
