"""Sanitizer facade: the hooks the executor and loader call.

One :class:`Sanitizer` is created per program run (``sanitize=True``)
and threaded through :class:`~repro.runtime.context.AccExecutor` and
:class:`~repro.runtime.data_loader.DataLoader`.  Per parallel loop:

1. ``before_kernels`` -- pre-launch invariants (halo freshness,
   replica agreement), pre-kernel snapshots of dirty-tracked buffers,
   and the single-GPU shadow run (which also records the localaccess
   auditor's spans);
2. ``after_kernels`` -- dirty-bit soundness, while the bits are still
   set;
3. ``after_comm`` -- replay completeness, post-communication replica
   agreement, the localaccess span verification, and the oracle diff
   of every written array and finalized scalar.

The loader additionally calls ``check_reload_skip`` whenever its
"same access pattern" fast path fires.

All state between the three phases of one loop lives in the sanitizer
(the executor runs loops strictly sequentially).  The sanitizer never
touches the virtual clock or the bus, so enabling it cannot change
modeled time -- a property the test suite pins down.
"""

from __future__ import annotations

from typing import Any

from ..runtime.data_loader import DataLoader, ManagedArray
from ..translator.array_config import ArrayConfig
from .audit import LocalAccessAuditor, SpanRecorder
from .invariants import InvariantChecker
from .oracle import OracleExpectation, ShadowOracle


class Sanitizer:
    """Opt-in coherence checking for one program run."""

    def __init__(self, loader: DataLoader,
                 rtol: float = 2e-5, atol: float = 1e-6) -> None:
        self.loader = loader
        self.oracle = ShadowOracle(loader, rtol=rtol, atol=atol)
        self.invariants = InvariantChecker(loader)
        self.auditor = LocalAccessAuditor(loader)
        #: Engine of the real run; the executor sets it on attach so the
        #: shadow pass matches the run's intra-slice visibility
        #: semantics.
        self.engine = "vector"
        #: Loops fully checked (all three phases ran).
        self.loops_checked = 0
        self._expect: OracleExpectation | None = None
        self._snapshots: dict[str, Any] = {}
        self._recorder: SpanRecorder | None = None
        self._configs: dict[str, ArrayConfig] = {}

    # -- executor hooks ---------------------------------------------------------

    def before_kernels(self, plan: Any, configs: dict[str, ArrayConfig],
                       tasks: list[tuple[int, int]],
                       host_env: dict[str, Any]) -> None:
        self.invariants.check_pre_consistency(plan, configs)
        self._snapshots = self.invariants.snapshot_dirty_arrays(configs)
        self._recorder = self.auditor.recorder(configs, tasks)
        self._expect = self.oracle.prepare(plan, configs, tasks, host_env,
                                           recorder=self._recorder,
                                           engine=self.engine)
        self._configs = configs

    def after_kernels(self, plan: Any) -> None:
        self.invariants.check_dirty_soundness(plan, self._snapshots)

    def after_comm(self, plan: Any, host_env: dict[str, Any]) -> None:
        configs = self._configs
        self.invariants.check_post_coherence(plan, configs)
        self.auditor.verify(plan, configs, self._recorder, host_env)
        if self._expect is not None:
            self.oracle.check(plan, configs, self._expect, host_env)
        self._expect = None
        self._snapshots = {}
        self._recorder = None
        self._configs = {}
        self.loops_checked += 1

    # -- loader hook ------------------------------------------------------------

    def check_reload_skip(self, ma: ManagedArray) -> None:
        self.invariants.check_reload_skip(ma)
