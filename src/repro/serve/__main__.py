"""``python -m repro.serve``: replay a workload file, print the summary.

Example::

    python -m repro.serve examples/serve_workload.json \
        --registry /tmp/prog-registry --jsonl serve-events.jsonl

Runs every request of the workload through the concurrent program
service on the workload's modeled fleet, then prints per-request rows
(wait, service time, slots, compile outcome) and the aggregate
queueing/fairness summary.  ``--registry`` enables the persistent
compiled-program store: run the command twice and the second replay
compiles nothing.
"""

from __future__ import annotations

import argparse
import sys

from ..trace import write_chrome_trace, write_jsonl
from .registry import ProgramRegistry
from .scheduler import POLICIES
from .workload import WorkloadError, load_workload, run_workload


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Replay a run-request workload against the concurrent "
                    "program service on a modeled GPU fleet.")
    ap.add_argument("workload", help="JSON workload file")
    ap.add_argument("--registry", metavar="DIR", default=None,
                    help="persistent compiled-program registry directory")
    ap.add_argument("--policy", choices=sorted(POLICIES), default=None,
                    help="override the workload's scheduling policy")
    ap.add_argument("--jsonl", metavar="PATH", default=None,
                    help="write the request-event log as JSONL")
    ap.add_argument("--chrome", metavar="PATH", default=None,
                    help="write the request-event log as Chrome trace JSON")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="print only the aggregate summary")
    args = ap.parse_args(argv)

    try:
        doc = load_workload(args.workload)
    except (WorkloadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    registry = ProgramRegistry(args.registry) if args.registry else None
    try:
        service, records, report = run_workload(doc, registry=registry,
                                                policy=args.policy)
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not args.quiet:
        header = (f"{'request':12} {'tenant':10} {'gpus':>4} {'slots':16} "
                  f"{'wait ms':>8} {'svc ms':>8} {'modeled s':>10} compile")
        print(header)
        print("-" * len(header))
        for r in records:
            slots = ",".join(map(str, r.slots))
            wait = (r.wait_seconds or 0.0) * 1e3
            svc = (r.service_seconds or 0.0) * 1e3
            modeled = f"{r.run.elapsed:10.6f}" if r.run is not None \
                else f"{'-':>10}"
            status = r.compile_outcome or "?"
            if r.error is not None:
                status = f"FAILED: {r.error}"
            print(f"{r.request_id:12} {r.request.tenant:10} "
                  f"{r.request.ngpus:>4} {slots:16} {wait:8.3f} {svc:8.3f} "
                  f"{modeled} {status}")
        print()
    print(report.summary())

    if args.jsonl:
        write_jsonl(service.tracer, args.jsonl)
        print(f"wrote {len(service.tracer.events)} events -> {args.jsonl}")
    if args.chrome:
        write_chrome_trace(service.tracer, args.chrome)
        print(f"wrote Chrome trace -> {args.chrome}")
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
