"""The concurrent program service: compile-and-serve over one fleet.

:class:`ProgramService` accepts many concurrent
:class:`RunRequest` submissions, compiles each through the persistent
:class:`~repro.serve.registry.ProgramRegistry` (or the in-memory
compile cache), and runs admitted requests on disjoint GPU-slot
subsets carved from one shared modeled fleet
(:meth:`~repro.vcuda.specs.MachineSpec.subset`).  Placement and
ordering live in :mod:`repro.serve.scheduler`; this module owns the
queue, the modeled clock, and the observability.

Time is modeled, not measured.  The service is a discrete-event loop
over a clock in modeled seconds: ``submit`` is an arrival at the
current clock, admission happens at that instant if the fleet has
room, and an admitted request occupies its slots for exactly its
modeled ``run.elapsed`` (compilation costs no modeled time).  Requests
still execute for real -- that is how their results and ``elapsed``
are obtained -- but the clock advances only while a caller waits
(``drain`` / ``RequestRecord.result``), completing requests in
modeled-finish order (ties in admission order).  Queue order, waits,
peak concurrency and utilization are therefore facts of the model,
identical on every host and independent of simulator speed.

Observability rides the trace subsystem: the service keeps a
:class:`~repro.trace.Tracer` whose event log receives one instant per
request-lifecycle transition (``req_enqueued`` / ``req_admitted`` /
``req_placed`` / ``req_completed`` -- plus ``req_rejected`` and
``req_failed``), timestamped on the modeled clock, and whose metrics
registry accumulates queue-wait and occupancy counters.  ``repro.trace.jsonl(service.tracer)`` and
``chrome_trace(service.tracer)`` export it like any traced run.

Isolation argument, in one place: a :class:`CompiledProgram` is
immutable at run time (the runtime copies per-loop state into its own
structures -- the same property that makes the in-memory compile cache
safe), every run builds its own ``Platform``/loader/executor, and the
fleet hands each admitted request a disjoint slot subset, so requests
submitted from N threads produce bit-identical results to the same
programs run serially; ``tests/test_serve_service.py`` pins this with
the determinism-matrix comparison harness.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..api import AccProgram, ProgramRun
from ..trace import Tracer
from ..trace.events import (
    EVENT_REQ_ADMITTED,
    EVENT_REQ_COMPLETED,
    EVENT_REQ_ENQUEUED,
    EVENT_REQ_FAILED,
    EVENT_REQ_PLACED,
    EVENT_REQ_REJECTED,
)
from ..translator.compiler import CompileOptions, compile_source_with_info
from ..vcuda.specs import ClusterSpec, MachineSpec
from .registry import ProgramRegistry
from .scheduler import (
    AdmissionError,
    FleetState,
    QueueEntry,
    estimate_request_bytes,
    make_policy,
    plan_placement,
)


@dataclass
class RunRequest:
    """One compile-and-run request against the shared fleet."""

    source: str
    entry: str
    args: dict[str, Any]
    options: CompileOptions | None = None
    ngpus: int = 1
    tenant: str = "default"
    #: Per-GPU device-byte admission estimate; ``None`` derives the
    #: replica worst case from the argument arrays
    #: (:func:`~repro.serve.scheduler.estimate_request_bytes`).
    bytes_per_gpu: int | None = None
    #: Extra keyword arguments for :meth:`repro.AccProgram.run`
    #: (``engine``, ``overlap``, ``adaptive``, ...).
    run_kwargs: dict[str, Any] = field(default_factory=dict)
    #: Optional caller-chosen label (defaults to an assigned id).
    label: str | None = None


@dataclass
class RequestRecord:
    """Lifecycle + outcome of one submitted request (ticket)."""

    request_id: str
    request: RunRequest
    bytes_per_gpu: int = 0
    #: Modeled seconds since service start, per transition.
    enqueued_at: float = 0.0
    admitted_at: float | None = None
    completed_at: float | None = None
    slots: list[int] = field(default_factory=list)
    #: How compilation was satisfied: hit_memory / hit_disk / compiled
    #: (registry) or cache_hit / cache_miss (in-memory only).
    compile_outcome: str | None = None
    run: ProgramRun | None = None
    error: BaseException | None = None
    #: Modeled completion time, known once the request has executed.
    _finish_at: float | None = field(default=None, repr=False)
    _service: ProgramService | None = field(default=None, repr=False)

    @property
    def wait_seconds(self) -> float | None:
        """Queue wait: enqueue to admission."""
        if self.admitted_at is None:
            return None
        return self.admitted_at - self.enqueued_at

    @property
    def service_seconds(self) -> float | None:
        """Admission to completion: the run's modeled ``elapsed``."""
        if self.admitted_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.admitted_at

    def result(self, timeout: float | None = None) -> ProgramRun:
        """Advance the service until this request finishes; re-raise
        its failure."""
        if self._service is not None:
            self._service._advance(self, timeout)
        if self.error is not None:
            raise self.error
        assert self.run is not None
        return self.run

    def done(self) -> bool:
        return self.completed_at is not None


@dataclass
class ServiceReport:
    """Aggregate queueing/fairness numbers for one service lifetime."""

    fleet: str
    fleet_gpus: int
    policy: str
    submitted: int
    completed: int
    failed: int
    rejected: int
    #: Modeled clock at report time: the last completion.
    makespan_seconds: float
    #: Queue-wait stats over admitted requests (modeled seconds).
    wait_mean: float
    wait_max: float
    #: Time-averaged busy-slot fraction: busy slot-seconds divided by
    #: (fleet slots x makespan).
    utilization: float
    #: Highest number of concurrently placed requests observed.
    peak_concurrency: int
    per_tenant_completed: dict[str, int]
    compile_outcomes: dict[str, int]
    registry_stats: dict[str, int] | None = None

    def summary(self) -> str:
        lines = [
            f"fleet: {self.fleet} ({self.fleet_gpus} GPUs), "
            f"policy: {self.policy}",
            f"requests: {self.submitted} submitted, "
            f"{self.completed} completed, {self.failed} failed, "
            f"{self.rejected} rejected",
            f"modeled makespan: {self.makespan_seconds * 1e3:.3f}ms, "
            f"fleet utilization: {self.utilization:.1%}, "
            f"peak concurrency: {self.peak_concurrency}",
            f"queue wait: mean {self.wait_mean * 1e3:.3f}ms, "
            f"max {self.wait_max * 1e3:.3f}ms",
            "completed per tenant: " + ", ".join(
                f"{t}={n}" for t, n in sorted(
                    self.per_tenant_completed.items())),
            "compile outcomes: " + (", ".join(
                f"{k}={n}" for k, n in sorted(self.compile_outcomes.items()))
                or "(none)"),
        ]
        if self.registry_stats is not None:
            lines.append("registry: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.registry_stats.items())))
        return "\n".join(lines)


class ProgramService:
    """Admission queue + modeled clock over one shared modeled fleet.

    ``submit`` never blocks: requests the idle fleet could host are
    admitted at once if they fit or queue until slots free up; requests
    it could never host are rejected immediately with a structured
    :class:`~repro.serve.scheduler.AdmissionError` (as are submissions
    beyond ``max_queue``, when given).  Each admitted request runs on a
    carved sub-fleet, so at most ``fleet.gpu_count`` requests overlap
    in modeled time.  ``drain`` / ``RequestRecord.result`` run the
    event loop; ``submit`` may be called from any thread.
    """

    def __init__(self, fleet: MachineSpec | ClusterSpec,
                 registry: ProgramRegistry | None = None,
                 policy: str = "fifo",
                 max_queue: int | None = None,
                 span_nodes: bool = False) -> None:
        self.fleet = fleet
        self.registry = registry
        self.policy = make_policy(policy)
        self.max_queue = max_queue
        self.state = FleetState(fleet, span_nodes=span_nodes)
        self.tracer = Tracer(ngpus=fleet.gpu_count, machine=fleet.name)
        #: Guards the queue, records, fleet state and clock.
        self._lock = threading.Lock()
        #: Held by the one caller advancing the clock.
        self._pump = threading.Lock()
        self._queue: list[QueueEntry] = []
        self._records: dict[str, RequestRecord] = {}
        self._order: list[str] = []
        self._arrivals = itertools.count()
        #: Admitted, not yet completed, in admission order.
        self._running: list[RequestRecord] = []
        self._clock = 0.0
        self._peak_concurrency = 0
        self._busy_slot_seconds = 0.0
        self._rejected = 0
        self._closed = False

    # -- submission ----------------------------------------------------------

    def submit(self, request: RunRequest) -> RequestRecord:
        """Enqueue one request at the current modeled time; returns its
        ticket immediately.

        Raises :class:`AdmissionError` (``oversized_gpus`` /
        ``oversized_memory`` / ``queue_full``) when the request cannot
        be accepted at all.
        """
        bytes_per_gpu = (request.bytes_per_gpu
                         if request.bytes_per_gpu is not None
                         else estimate_request_bytes(request.args))
        with self._lock:
            if self._closed:
                raise RuntimeError("service is shut down")
            arrival = next(self._arrivals)
            request_id = request.label or f"req{arrival:04d}"
            try:
                if self.max_queue is not None and \
                        len(self._queue) >= self.max_queue:
                    raise AdmissionError(
                        "queue_full",
                        f"queue holds {len(self._queue)} requests "
                        f"(max {self.max_queue})",
                        max_queue=self.max_queue)
                self.state.check_admissible(request.ngpus, bytes_per_gpu)
            except AdmissionError as exc:
                self._rejected += 1
                self.tracer.emit(
                    EVENT_REQ_REJECTED, request_id, start=self._clock,
                    tenant=request.tenant, code=exc.code, reason=str(exc))
                self.tracer.metrics.count("requests_rejected", 1,
                                          tenant=request.tenant,
                                          code=exc.code)
                raise
            record = RequestRecord(request_id=request_id, request=request,
                                   bytes_per_gpu=bytes_per_gpu,
                                   enqueued_at=self._clock, _service=self)
            self._records[request_id] = record
            self._order.append(request_id)
            self._queue.append(QueueEntry(
                request_id=request_id, tenant=request.tenant,
                ngpus=request.ngpus, bytes_per_gpu=bytes_per_gpu,
                arrival=arrival, payload=record))
            self.tracer.emit(
                EVENT_REQ_ENQUEUED, request_id, start=record.enqueued_at,
                tenant=request.tenant, ngpus=request.ngpus,
                nbytes=bytes_per_gpu)
            self.tracer.metrics.count("requests_enqueued", 1,
                                      tenant=request.tenant)
            self._admit_locked()
        return record

    # -- scheduling ----------------------------------------------------------

    def _admit_locked(self) -> None:
        """Admit queued requests while the policy finds one that fits."""
        while True:
            entry = self.policy.pick(self._queue, self.state)
            if entry is None:
                return
            slots = plan_placement(self.state, entry.ngpus,
                                   entry.bytes_per_gpu)
            assert slots is not None, "policy picked an unplaceable entry"
            self._queue.remove(entry)
            self.policy.admitted(entry)
            record: RequestRecord = entry.payload
            now = self._clock
            record.admitted_at = now
            record.slots = slots
            self.state.reserve(entry.request_id, slots, entry.bytes_per_gpu)
            self._running.append(record)
            self._peak_concurrency = max(self._peak_concurrency,
                                         len(self._running))
            self.tracer.emit(EVENT_REQ_ADMITTED, entry.request_id, start=now,
                             tenant=entry.tenant)
            self.tracer.emit(EVENT_REQ_PLACED, entry.request_id, start=now,
                             tenant=entry.tenant, slots=list(slots),
                             nbytes=entry.bytes_per_gpu)
            self.tracer.metrics.count("requests_admitted", 1,
                                      tenant=entry.tenant)
            self.tracer.metrics.observe(
                "queue_wait_seconds", record.wait_seconds or 0.0,
                tenant=entry.tenant)
            self.tracer.metrics.count("slot_acquisitions", len(slots))

    def _compile(self, request: RunRequest) -> tuple[AccProgram, str]:
        if self.registry is not None:
            compiled, outcome = self.registry.load_or_compile(
                request.source, request.options)
            return AccProgram(compiled), outcome
        compiled, info = compile_source_with_info(request.source,
                                                  request.options)
        return AccProgram(compiled), \
            ("cache_hit" if info.hit else "cache_miss")

    def _execute(self, record: RequestRecord) -> None:
        """Compile and run one admitted request; fixes its modeled
        finish time (a failed request frees its slots at admission)."""
        request = record.request
        try:
            program, outcome = self._compile(request)
            record.compile_outcome = outcome
            sub = self.fleet.subset(record.slots)
            record.run = program.run(
                request.entry, request.args, machine=sub,
                ngpus=len(record.slots), **request.run_kwargs)
        except Exception as exc:  # noqa: BLE001 -- ticket carries it
            record.error = exc
        elapsed = record.run.elapsed if record.error is None else 0.0
        with self._lock:
            record._finish_at = record.admitted_at + elapsed

    def _complete_locked(self, record: RequestRecord) -> None:
        request = record.request
        self._clock = record._finish_at
        record.completed_at = self._clock
        self._running.remove(record)
        self._busy_slot_seconds += record.service_seconds * len(record.slots)
        self.state.release(record.request_id, record.slots,
                           record.bytes_per_gpu)
        kind = (EVENT_REQ_COMPLETED if record.error is None
                else EVENT_REQ_FAILED)
        attrs = {"tenant": request.tenant,
                 "slots": list(record.slots),
                 "wait_seconds": record.wait_seconds,
                 "service_seconds": record.service_seconds,
                 "compile_outcome": record.compile_outcome}
        if record.error is not None:
            attrs["error"] = repr(record.error)
        else:
            attrs["modeled_seconds"] = record.run.elapsed
        self.tracer.emit(kind, record.request_id, start=self._clock,
                         **attrs)
        self.tracer.metrics.count(
            "requests_completed" if record.error is None
            else "requests_failed", 1, tenant=request.tenant)
        self.tracer.metrics.observe(
            "service_seconds", record.service_seconds,
            tenant=request.tenant)

    def _step(self) -> bool:
        """Complete the running request that finishes first in modeled
        time, then admit what now fits.  Returns False when nothing is
        running."""
        while True:
            with self._lock:
                pending = [r for r in self._running if r._finish_at is None]
                if not pending:
                    if not self._running:
                        assert not self._queue, \
                            "queued requests on an idle fleet"
                        return False
                    # min() keeps the first of equal finish times:
                    # ties complete in admission order.
                    first = min(self._running, key=lambda r: r._finish_at)
                    self._complete_locked(first)
                    self._admit_locked()
                    return True
            for record in pending:
                self._execute(record)

    def _advance(self, until: RequestRecord | None,
                 timeout: float | None) -> None:
        """Run the event loop until ``until`` completes (``None``: until
        the fleet is idle).  ``timeout`` bounds the host seconds spent."""
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._pump.acquire(timeout=-1 if timeout is None
                                  else timeout):
            raise TimeoutError(f"service busy for {timeout}s")
        try:
            while until is None or not until.done():
                if deadline is not None and time.monotonic() > deadline:
                    what = ("drain" if until is None
                            else f"request {until.request_id}")
                    raise TimeoutError(f"{what} not done after {timeout}s")
                if not self._step():
                    return
        finally:
            self._pump.release()

    # -- lifecycle -----------------------------------------------------------

    def drain(self, timeout: float | None = None) -> list[RequestRecord]:
        """Run until every submitted request finished; return tickets
        in submission order (failures stay on the ticket, they do not
        raise here).  ``timeout`` bounds the host seconds spent."""
        self._advance(None, timeout)
        with self._lock:
            return [self._records[rid] for rid in self._order]

    def shutdown(self, timeout: float | None = None) -> None:
        self.drain(timeout)
        with self._lock:
            self._closed = True

    # -- reporting -----------------------------------------------------------

    def report(self) -> ServiceReport:
        with self._lock:
            records = [self._records[rid] for rid in self._order]
            makespan = self._clock
            busy = self._busy_slot_seconds
            peak = self._peak_concurrency
            rejected = self._rejected
        done = [r for r in records if r.done()]
        completed = [r for r in done if r.error is None]
        failed = [r for r in done if r.error is not None]
        waits = [r.wait_seconds for r in records
                 if r.wait_seconds is not None]
        per_tenant: dict[str, int] = {}
        outcomes: dict[str, int] = {}
        for r in completed:
            per_tenant[r.request.tenant] = \
                per_tenant.get(r.request.tenant, 0) + 1
            if r.compile_outcome:
                outcomes[r.compile_outcome] = \
                    outcomes.get(r.compile_outcome, 0) + 1
        return ServiceReport(
            fleet=self.fleet.name,
            fleet_gpus=self.fleet.gpu_count,
            policy=self.policy.name,
            submitted=len(records),
            completed=len(completed),
            failed=len(failed),
            rejected=rejected,
            makespan_seconds=makespan,
            wait_mean=sum(waits) / len(waits) if waits else 0.0,
            wait_max=max(waits) if waits else 0.0,
            utilization=(busy / (makespan * self.fleet.gpu_count)
                         if makespan > 0 else 0.0),
            peak_concurrency=peak,
            per_tenant_completed=per_tenant,
            compile_outcomes=outcomes,
            registry_stats=(self.registry.stats_snapshot()
                            if self.registry is not None else None),
        )


__all__ = ["ProgramService", "RequestRecord", "RunRequest", "ServiceReport"]
