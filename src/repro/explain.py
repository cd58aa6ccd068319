"""Compiler placement "explain" reports.

For every parallel loop and every device array it touches, the
translator makes a placement decision: replicate the array on every
GPU (the safe default), or distribute it using a per-iteration access
window -- either one the programmer *declared* with ``localaccess`` or
one the compiler *inferred* from the affine access analysis
(:mod:`repro.translator.infer`).  This module renders those decisions
as a report so the programmer can see, per loop and per array:

* the placement (replica vs distributed) and who decided it
  (``declared`` / ``inferred`` / ``replica-default``),
* the window formula (e.g. ``[i - 1, i + 1]``) and, for inferred
  windows, the ``localaccess`` clause that would declare the same
  window by hand,
* why inference *declined* an array (the bail-out reason), and
* whether the sanitizer's localaccess auditor cross-checks the window
  in sanitized runs (every active distribution window is audited, so a
  too-narrow inferred window raises ``CoherenceViolation`` instead of
  silently reading stale halo), and
* how the generated kernel runs each inner loop: flattened onto
  ``(j, lane)`` blocks, sequential (with the reason it is not
  independent), or CSR-flattened (see :mod:`repro.translator.vectorizer`).

Use it three ways::

    import repro
    repro.compile(src).explain().render()     # from an AccProgram

    from repro.explain import explain
    explain(src, options=CompileOptions(infer=False))

    python -m repro.explain program.c         # CLI; --json, --fortran,
    python -m repro.explain --app stencil     # --no-infer, --app NAME

See ``docs/ANALYSIS.md`` for the inference rules the report reflects.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from typing import Any

from .frontend.analysis import affine_in, const_value
from .frontend.cast import Expr, render_expr
from .sanitizer.audit import audited_windows
from .translator.array_config import LoopConfig, Placement
from .translator.compiler import (
    CompiledProgram,
    CompileOptions,
    compile_source,
)
from .translator.infer import equivalent_stride_clause


@dataclass(frozen=True)
class ArrayReport:
    """Placement decision for one (loop, array) pair."""

    array: str
    #: ``"replica"`` or ``"distributed"``.
    placement: str
    #: Who decided: ``"declared"`` (a ``localaccess`` directive),
    #: ``"inferred"`` (the inference pass), ``"replica-default"``.
    origin: str
    #: ``"read"``, ``"write"``, or ``"read+write"``.
    access: str
    #: Post-kernel write strategy (``none`` for read-only arrays).
    write_handling: str
    #: Inclusive per-iteration window ``[lower, upper]`` as C source,
    #: or None for windowless replica placement.
    window: str | None
    #: For inferred windows: the ``localaccess`` clause a programmer
    #: would write to declare the same window (None otherwise).
    stride_clause: str | None
    #: Why the inference pass declined this array (None when it adopted
    #: a window, a directive decided, or the array is a reduction
    #: target handled elsewhere).
    bail_reason: str | None
    #: Layout transformation applied (reads priced as coalesced).
    coalesced: bool
    #: True when sanitized runs audit this window against the actual
    #: per-iteration access spans.
    audited: bool

    def describe(self) -> str:
        """One human-readable line (without the array name)."""
        if self.placement == "distributed":
            parts = [f"distributed, {self.origin} window {self.window}"]
            if self.stride_clause is not None:
                parts[-1] += f"  (= localaccess {self.array}:" \
                             f"{self.stride_clause})"
        elif self.window is not None:
            parts = [f"replica, {self.origin} whole-array window"]
        else:
            parts = ["replica (default)"]
        parts.append(self.access if self.write_handling == "none"
                     else f"{self.access} [{self.write_handling}]")
        if self.bail_reason is not None:
            parts.append(f"not inferred: {self.bail_reason}")
        if self.coalesced:
            parts.append("coalesced layout")
        if self.audited:
            parts.append("audited in sanitized runs")
        return "; ".join(parts)


@dataclass(frozen=True)
class LoopReport:
    """All array decisions of one parallel loop."""

    loop: str
    loop_var: str
    arrays: tuple[ArrayReport, ...]
    #: (inner loop variable, strategy) in source order; empty when the
    #: loop has no inner loops or runs on the scalar interpreter.
    inner_loops: tuple[tuple[str, str], ...] = ()

    def array(self, name: str) -> ArrayReport:
        for a in self.arrays:
            if a.array == name:
                return a
        raise KeyError(f"loop {self.loop!r} does not touch array {name!r}")


@dataclass(frozen=True)
class FusionGroupReport:
    """One fused run of adjacent parallel loops."""

    name: str
    #: Member kernel names in program order.
    members: tuple[str, ...]
    #: Arrays demoted to kernel-local scratch (no host/device copy).
    demoted: tuple[str, ...]
    #: Per-array elision note: which inter-member communication round
    #: the fusion removed.
    elided: dict[str, str]


@dataclass(frozen=True)
class FusionReport:
    """What the fusion pass did (``CompileOptions(fuse=True)``)."""

    groups: tuple[FusionGroupReport, ...]
    #: Adjacent pairs that did *not* fuse: (first, second, reason).
    bails: tuple[tuple[str, str, str], ...]

    def render(self) -> str:
        lines: list[str] = ["fusion:"]
        for g in self.groups:
            lines.append(f"  group {g.name}: {' + '.join(g.members)} "
                         f"-> 1 launch")
            for name in g.demoted:
                lines.append(f"    {name}: {g.elided[name]}")
            for name, note in sorted(g.elided.items()):
                if name not in g.demoted:
                    lines.append(f"    {name}: {note}")
        if not self.groups:
            lines.append("  (no groups fused)")
        for first, second, reason in self.bails:
            lines.append(f"  bail {first} | {second}: {reason}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ExplainReport:
    """Placement decisions for every parallel loop of a program."""

    loops: tuple[LoopReport, ...]
    #: Fusion pass results; None when compiled without ``fuse=True``.
    fusion: FusionReport | None = None

    def loop(self, name: str) -> LoopReport:
        for l in self.loops:
            if l.loop == name:
                return l
        raise KeyError(f"no parallel loop named {name!r}")

    def render(self) -> str:
        """Multi-line text report (what the CLI prints)."""
        lines: list[str] = []
        for lp in self.loops:
            lines.append(f"loop {lp.loop} (iterates {lp.loop_var}):")
            width = max((len(a.array) for a in lp.arrays), default=0)
            for a in lp.arrays:
                lines.append(f"  {a.array:<{width}}  {a.describe()}")
            if not lp.arrays:
                lines.append("  (no device arrays)")
            for var, strategy in lp.inner_loops:
                lines.append(f"  inner loop {var}: {strategy}")
        if self.fusion is not None:
            lines.append(self.fusion.render())
        return "\n".join(lines)

    def to_json(self, indent: int | None = 2) -> str:
        doc: dict[str, Any] = {"loops": [asdict(l) for l in self.loops]}
        if self.fusion is not None:
            doc["fusion"] = asdict(self.fusion)
        return json.dumps(doc, indent=indent)


def _bound_text(e: Expr, loop_var: str) -> str:
    """Canonical text of one window bound.

    Bounds affine in the loop variable with a constant offset print in
    the normal form ``2*i + 3`` / ``i - 1`` / ``7``; anything else
    (dynamic bounds reading host arrays, symbolic scalars) falls back
    to verbatim C rendering.
    """
    aff = affine_in(e, loop_var)
    if aff is None:
        return render_expr(e)
    off = const_value(aff.offset)
    if off is None:
        return render_expr(e)
    if aff.coeff == 0:
        return str(off)
    head = loop_var if aff.coeff == 1 else f"{aff.coeff}*{loop_var}"
    if off == 0:
        return head
    return f"{head} {'+' if off > 0 else '-'} {abs(off)}"


def _loop_report(plan: Any) -> LoopReport:
    config: LoopConfig = plan.config
    audited = audited_windows(config.arrays)
    rows: list[ArrayReport] = []
    for name, cfg in sorted(config.arrays.items()):
        if cfg.read and cfg.written:
            access = "read+write"
        else:
            access = "read" if cfg.read else "write"
        window = None
        if cfg.window is not None:
            window = (f"[{_bound_text(cfg.window.lower, config.loop_var)}, "
                      f"{_bound_text(cfg.window.upper, config.loop_var)}]")
        clause = None
        if (cfg.window_origin == "inferred" and cfg.inferred_span is not None
                and cfg.placement == Placement.DISTRIBUTED):
            clause = equivalent_stride_clause(cfg.inferred_span)
        rows.append(ArrayReport(
            array=name,
            placement=cfg.placement.value,
            origin=cfg.window_origin or "replica-default",
            access=access,
            write_handling=cfg.write_handling.value,
            window=window,
            stride_clause=clause,
            bail_reason=cfg.infer_reason,
            coalesced=cfg.coalesced_hint,
            audited=name in audited,
        ))
    info = plan.source_info
    return LoopReport(loop=config.kernel_name, loop_var=config.loop_var,
                      arrays=tuple(rows),
                      inner_loops=tuple(info.inner_strategies)
                      if info is not None else ())


def explain(target: Any,
            options: CompileOptions | None = None) -> ExplainReport:
    """Build the placement report for a program.

    ``target`` may be an :class:`repro.AccProgram`, a
    :class:`CompiledProgram`, or OpenACC C source text (compiled here
    with ``options``; for Fortran source compile first via
    ``repro.compile_fortran`` and pass the program).  ``options`` is
    only consulted for source text -- already-compiled programs carry
    their own.
    """
    if isinstance(target, CompiledProgram):
        compiled = target
    elif hasattr(target, "compiled"):  # AccProgram (duck-typed: no cycle)
        compiled = target.compiled
    elif isinstance(target, str):
        compiled = compile_source(target, options)
    else:
        raise TypeError(
            f"explain() wants an AccProgram, CompiledProgram, or source "
            f"string, not {type(target).__name__}")
    fusion = None
    if compiled.options.fuse:
        fusion = FusionReport(
            groups=tuple(
                FusionGroupReport(name=g.name, members=g.members,
                                  demoted=tuple(d.name for d in g.demoted),
                                  elided=dict(g.elided))
                for g in compiled.fusion_groups),
            bails=tuple((b.first, b.second, b.reason)
                        for b in compiled.fusion_bails))
    return ExplainReport(
        loops=tuple(_loop_report(p) for p in compiled.plans),
        fusion=fusion)


# ---------------------------------------------------------------------------
# CLI: python -m repro.explain
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.explain",
        description="Report per-loop, per-array placement decisions "
                    "(declared / inferred / replica) of an OpenACC "
                    "program.")
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("file", nargs="?", help="OpenACC source file")
    src.add_argument("--app", metavar="NAME",
                     help="explain a bundled application instead of a file")
    src.add_argument("--topology", metavar="MACHINE",
                     help="print the node/hub/GPU topology tree of a "
                          "Table I machine or named cluster instead of "
                          "explaining a program")
    src.add_argument("--collectives", metavar="MACHINE",
                     help="print the collective schedule report for a "
                          "named cluster: modeled ring vs tree broadcast "
                          "cost across payload sizes and which schedule "
                          "collective='auto' picks")
    ap.add_argument("--fortran", action="store_true",
                    help="parse the file as OpenACC Fortran")
    ap.add_argument("--no-infer", action="store_true",
                    help="disable localaccess inference "
                         "(paper-faithful manual-annotation behavior)")
    ap.add_argument("--fuse", action="store_true",
                    help="enable kernel fusion and report fused groups, "
                         "bail reasons, and (with --app) measured "
                         "transfer bytes elided on the tiny workload")
    ap.add_argument("--json", action="store_true",
                    help="emit the report as JSON")
    ns = ap.parse_args(argv)

    if ns.topology is not None:
        from .vcuda.specs import CLUSTERS, MACHINES
        known = {**MACHINES, **CLUSTERS}
        if ns.topology not in known:
            ap.error(f"unknown machine {ns.topology!r}; "
                     f"choose from {', '.join(sorted(known))}")
        print(render_topology(known[ns.topology]))
        return 0

    if ns.collectives is not None:
        from .vcuda.specs import CLUSTERS, MACHINES
        known = {**MACHINES, **CLUSTERS}
        if ns.collectives not in known:
            ap.error(f"unknown machine {ns.collectives!r}; "
                     f"choose from {', '.join(sorted(known))}")
        print(render_collectives(known[ns.collectives]))
        return 0

    options = CompileOptions(infer=not ns.no_infer, fuse=ns.fuse)
    if ns.app is not None:
        from .apps import ALL_APPS, EXTRA_APPS
        apps = {**ALL_APPS, **EXTRA_APPS}
        if ns.app not in apps:
            ap.error(f"unknown app {ns.app!r}; "
                     f"choose from {', '.join(sorted(apps))}")
        source = apps[ns.app].source
    else:
        with open(ns.file, encoding="utf-8") as f:
            source = f.read()
    if ns.fortran:
        from .frontend.fortran import parse_fortran
        from .translator.compiler import compile_program
        report = explain(compile_program(parse_fortran(source), options))
    else:
        report = explain(source, options)
    print(report.to_json() if ns.json else report.render())
    if ns.fuse and ns.app is not None and not ns.json:
        print(render_measured_elision(apps[ns.app]))
    return 0


def measured_elision(spec: Any, ngpus: int = 2,
                     workload: str = "tiny") -> dict[str, int]:
    """Run an app fused and unfused and measure what fusion elided.

    Returns transfer bytes and kernel-launch counts for both runs (the
    numbers the ablation benchmark records at scale).  Outputs of the
    two runs are asserted bit-identical first.
    """
    import numpy as np

    from .api import compile as compile_api

    results = {}
    arrays = {}
    for fuse in (False, True):
        prog = compile_api(spec.source,
                           CompileOptions(infer=True, fuse=fuse))
        args = spec.args_for(workload)
        run = prog.run(spec.entry, args, machine="desktop", ngpus=ngpus,
                       trace=True)
        t = run.tracer
        results[fuse] = {
            "transfer_bytes": t.metrics.counter_total("transfer_bytes"),
            "kernel_launches": t.metrics.counter_total("kernel_launches"),
        }
        arrays[fuse] = {k: v for k, v in args.items()
                        if isinstance(v, np.ndarray)}
    for name, a in arrays[False].items():
        np.testing.assert_array_equal(
            arrays[True][name], a,
            err_msg=f"{spec.name}.{name} perturbed by fusion")
    return {
        "unfused_bytes": int(results[False]["transfer_bytes"]),
        "fused_bytes": int(results[True]["transfer_bytes"]),
        "elided_bytes": int(results[False]["transfer_bytes"]
                            - results[True]["transfer_bytes"]),
        "unfused_launches": int(results[False]["kernel_launches"]),
        "fused_launches": int(results[True]["kernel_launches"]),
    }


def render_measured_elision(spec: Any, ngpus: int = 2) -> str:
    m = measured_elision(spec, ngpus=ngpus)
    return (f"measured on {spec.name!r} tiny workload at {ngpus} GPUs "
            f"(bit-identical outputs):\n"
            f"  transfer bytes {m['unfused_bytes']} -> {m['fused_bytes']} "
            f"(elided {m['elided_bytes']})\n"
            f"  kernel launches {m['unfused_launches']} -> "
            f"{m['fused_launches']}")


def render_topology(spec: Any) -> str:
    """ASCII tree of a machine or cluster: nodes, hubs, GPUs, links.

    The runtime prices every transfer off this structure -- same-hub
    peer copies ride PCIe, cross-hub ones cross the QPI, cross-node
    ones cross the NIC (with extra switch hops across leaf groups), so
    seeing the tree explains where a fleet's communication time goes.
    """
    from .vcuda.specs import ClusterSpec

    def node_lines(node: Any, indent: str) -> list[str]:
        by_hub: dict[int, list[int]] = {}
        for g in range(node.gpu_count):
            by_hub.setdefault(node.hub_of(g), []).append(g)
        out = []
        for hub in sorted(by_hub):
            gpus = by_hub[hub]
            names = {node.gpu_specs[g].name for g in gpus}
            label = names.pop() if len(names) == 1 else "mixed"
            out.append(f"{indent}hub{hub}: "
                       f"gpu{gpus[0]}..gpu{gpus[-1]} ({len(gpus)}x {label})"
                       if len(gpus) > 1 else
                       f"{indent}hub{hub}: gpu{gpus[0]} ({label})")
        out.append(f"{indent}bus: {node.bus.name}")
        return out

    if not isinstance(spec, ClusterSpec):
        lines = [f"{spec.name} (1 node, {spec.gpu_count} GPUs)"]
        lines += node_lines(spec, "  ")
        return "\n".join(lines)

    lines = [f"{spec.name} ({spec.node_count} nodes, "
             f"{spec.gpu_count} GPUs)",
             f"  nic: {spec.nic.name}  {spec.nic.bandwidth / 1e9:.2f} GB/s, "
             f"{spec.nic.latency * 1e6:.1f} us"]
    for n, node in enumerate(spec.nodes):
        group = f", group {spec.group_of(n)}" if spec.node_group else ""
        lo, hi = spec.node_gpu_range(n)
        lines.append(f"  node{n} [gpu{lo}..gpu{hi - 1}{group}]: {node.name}")
        lines += node_lines(node, "    ")
    degraded = [
        f"  link node{a}<->node{b}: {bw / 1e9:.3f} GB/s (override)"
        for a, b, bw in spec.link_overrides]
    if degraded:
        lines.append("overridden links:")
        lines += degraded
    return "\n".join(lines)


def render_collectives(spec: Any) -> str:
    """Collective schedule report for a cluster: the modeled ring vs
    tree broadcast cost (source node 0 to every other node) across
    payload sizes, and the schedule ``collective="auto"`` would pick
    for each.  The same :func:`repro.runtime.collectives.
    node_schedule_costs` model drives the runtime's selection, so this
    table *is* the auto rule for the given fabric
    (docs/COLLECTIVES.md)."""
    from .runtime.collectives import node_schedule_costs, ring_order
    from .vcuda.specs import ClusterSpec

    if not isinstance(spec, ClusterSpec):
        return (f"{spec.name}: single node -- no NIC, no inter-node "
                f"collectives.\nIntra-node broadcasts may still use a "
                f"hub-local ring or binomial p2p tree; see "
                f"docs/COLLECTIVES.md.")

    nodes = list(range(spec.node_count))
    dsts = nodes[1:]
    chunk = spec.nic.collective_chunk_bytes
    lines = [f"{spec.name}: collective broadcast schedules "
             f"(node0 -> {spec.node_count - 1} nodes)",
             f"  nic: {spec.nic.name}  {spec.nic.bandwidth / 1e9:.2f} GB/s, "
             f"{spec.nic.latency * 1e6:.1f} us, "
             f"pipeline chunk {chunk // 1024} KiB",
             f"  ring path: "
             + " -> ".join(f"node{n}"
                           for n in ring_order(spec, 0, nodes)),
             "",
             f"  {'payload':>10s} {'ring':>12s} {'tree':>12s}   auto"]
    for nbytes in (4 * 1024, 64 * 1024, 1024 * 1024, 16 * 1024 * 1024):
        costs = node_schedule_costs(spec, 0, dsts, nbytes, chunk)
        pick = "ring" if costs["ring"] < costs["tree"] else "tree"
        label = (f"{nbytes // 1024} KiB" if nbytes < 1024 * 1024
                 else f"{nbytes // (1024 * 1024)} MiB")
        lines.append(f"  {label:>10s} {costs['ring'] * 1e6:>10.1f}us "
                     f"{costs['tree'] * 1e6:>10.1f}us   {pick}")
    lines += [
        "",
        "  Any collective mode also enables the staged-exchange",
        "  progress engine: gather/NIC/scatter legs pipeline in",
        "  chunk-sized pieces so NIC time hides behind PCIe time.",
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
