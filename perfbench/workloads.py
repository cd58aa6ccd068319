"""The benchmark's four workloads and the inputs they generate.

Every workload is a list of program runs executed one after another in
one process (a closed loop with a single caller).  Runs use the library
only through ``repro.compile`` and ``AccProgram.run(entry, args,
machine=..., ngpus=...)`` -- plus ``sanitize=True`` on ``sanitized`` --
so every other run keyword stays at its default.

Inputs come from the workload seed alone: each application's input
generator receives it, and the problem size of most applications is
drawn from it within 1/64 above the base size, so modeled time varies a
little from seed to seed instead of reading the same on every run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.apps import ALL_APPS, EXTRA_APPS, AppSpec
from repro.bench.collectives import grouped_cluster
from repro.bench.machines import hypothetical_cluster
from repro.bench.multinode import ENTRY as PROBE_ENTRY
from repro.bench.multinode import STENCIL_PROBES_SOURCE, probe_args

from perfbench.layers import RUN_LAYERS

def probe_reference(args: dict[str, Any]) -> dict[str, np.ndarray]:
    """NumPy reference of the monitored probe stencil.

    Written from the program text, independently of the compiler: per
    step, a three-point relaxation with copied end points, then a running
    maximum of the field at each probe site into its record slot, then
    the copy back.
    """
    n, steps = args["n"], args["steps"]
    alpha = np.float32(args["alpha"])
    a = np.asarray(args["a"], dtype=np.float32).copy()
    site = np.asarray(args["site"])
    slot = np.asarray(args["slot"])
    record = np.asarray(args["record"], dtype=np.float32).copy()
    half = np.float32(0.5)
    for _ in range(steps):
        b = a.copy()
        if n > 2:
            b[1:-1] = ((np.float32(1.0) - alpha) * a[1:-1]
                       + alpha * half * (a[:-2] + a[2:]))
        record[slot] = np.fmax(record[slot], b[site])
        a = b
    return {"a": a, "record": record}


#: The monitored probe stencil of :mod:`repro.bench.multinode` as an app.
PROBE_APP = AppSpec(
    name="probe",
    description="monitored 1-D stencil with scattered probe records",
    source=STENCIL_PROBES_SOURCE,
    entry=PROBE_ENTRY,
    make_args=probe_args,
    reference=probe_reference,
    outputs=["a", "record"],
)


def kmeans_centres(args: dict[str, Any]) -> None:
    """Assert that kmeans' centres and counts belong to its own labels.

    Splitting the float32 partial sums across GPUs reorders them, which
    flips a few boundary labels (at most 0.07% of points over seeds
    1-40 at bench size, within the app's 1% label budget).  Each flip
    moves two whole centres by about 1e-4, so comparing the centres
    element by element with the single-process reference fails on some
    seeds although nothing is wrong.  The centres must instead be the
    means, computed here in float64, of the points under the labels the
    program returned, with :meth:`AppSpec.check`'s default tolerances;
    the labels themselves are checked against the reference.
    """
    n, k, f = args["npoints"], args["nclusters"], args["nfeatures"]
    labels = np.asarray(args["membership"])
    counts = np.bincount(labels, minlength=k)
    if not np.array_equal(args["counts"], counts):
        raise AssertionError("kmeans: counts are not the label populations")
    sums = np.zeros((k, f))
    np.add.at(sums, labels, np.asarray(args["features"],
                                       dtype=np.float64).reshape(n, f))
    got = np.asarray(args["clusters"]).reshape(k, f)[counts > 0]
    want = (sums / np.maximum(counts, 1)[:, None])[counts > 0]
    if not np.allclose(got, want, rtol=1e-4, atol=1e-5):
        raise AssertionError("kmeans: centres are not the means of the "
                             "points under the returned labels")


APPS = ALL_APPS | EXTRA_APPS | {
    "probe": PROBE_APP,
    "kmeans": dataclasses.replace(ALL_APPS["kmeans"], outputs=["membership"]),
}

#: Checks run after :meth:`AppSpec.check`, by app name.
EXTRA_CHECKS = {"kmeans": kmeans_centres}


@dataclass(frozen=True)
class Topology:
    """A machine and a GPU count, with the label used in metric names."""

    label: str
    machine: Any
    ngpus: int


NODE_TOPOLOGIES = (
    Topology("desktop1", "desktop", 1),
    Topology("desktop2", "desktop", 2),
    Topology("supercomputer3", "supercomputer", 3),
)
CLUSTER_TOPOLOGIES = (
    Topology("cluster2x4", hypothetical_cluster(2, 4), 8),
    Topology("cluster4x4g2", grouped_cluster(4, 4, 2), 16),
)
SANITIZED_TOPOLOGY = Topology("desktop2-sanitize", "desktop", 2)


@dataclass(frozen=True)
class AppRun:
    """One application at one size, run on each of ``topologies``."""

    app: str
    params: dict[str, Any]
    #: The parameter drawn from the seed (the problem size), if any.
    size_key: str | None
    topologies: tuple[Topology, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    apps: tuple[AppRun, ...]
    #: Layers this workload must exercise: the traced pass fails if one
    #: of them records no span.
    loads: tuple[str, ...]
    #: Metric names (or ``prefix.*``) predicted to read zero here.  Hidden
    #: communication needs ``overlap=True``, which is off by default.
    zero: tuple[str, ...] = ()
    sanitize: bool = False

    @property
    def bypasses(self) -> tuple[str, ...]:
        return tuple(l for l in RUN_LAYERS if l not in self.loads)

    def sources(self) -> list[str]:
        """The distinct program sources, in first-use order."""
        return list(dict.fromkeys(APPS[a.app].source for a in self.apps))


def _bench(app: str) -> dict[str, Any]:
    """An app's ``bench`` parameters without their fixed seed."""
    params = APPS[app].workloads["bench"].params
    return {k: v for k, v in params.items() if k != "seed"}


NODE_DENSE = Workload(
    name="node-dense",
    why=("Distributed arrays with halo exchange larger than the 1 MiB dirty "
         "chunk: kernels and the loader dominate; the NIC is unused."),
    apps=(
        AppRun("jacobi", dict(n=1 << 19, maxiter=40, tol=1e-5), "n",
               NODE_TOPOLOGIES),
        AppRun("stencil", dict(n=1 << 19, steps=8), "n", NODE_TOPOLOGIES),
        # Fixed size: heat2d's modeled time moves by up to 1.9x between
        # h = 512 and h = 518, which a seed-drawn size would turn into
        # seed-to-seed noise.  Two steps instead of four keep the pass
        # short enough for several passes per run.
        AppRun("heat2d", _bench("heat2d") | {"steps": 2}, None,
               NODE_TOPOLOGIES),
    ),
    loads=("host", "executor", "kernels", "loader", "comm", "bus"),
    # Every array is distributed with a declared window: halos only.
    zero=("net.*", "sanitizer.*", "comm.gpu_gpu_hidden_ms",
          "comm.replica_bytes", "comm.miss_bytes", "comm.reduction_bytes"),
)

PAPER_IRREGULAR = Workload(
    name="paper-irregular",
    why=("The paper's Table II apps plus spmv and shift_scale: replicas, "
         "dirty bits, write misses, reductiontoarray and a host-side loop."),
    apps=tuple(
        AppRun(app, _bench(app), key, NODE_TOPOLOGIES)
        for app, key in (("md", "natoms"), ("kmeans", "npoints"),
                         ("bfs", "nverts"), ("spmv", "n"),
                         ("shift_scale", "n"))),
    loads=("host", "executor", "kernels", "loader", "comm", "bus"),
    zero=("net.*", "sanitizer.*", "comm.gpu_gpu_hidden_ms"),
)

CLUSTER_EXCHANGE = Workload(
    name="cluster-exchange",
    why=("Probe stencil plus jacobi, kmeans and bfs on a 2x4 and a grouped "
         "4x4 cluster: the NET lane, staged exchange and collectives."),
    apps=(
        AppRun("probe", dict(n=1 << 16, nprobes=256, steps=6), "n",
               CLUSTER_TOPOLOGIES),
        AppRun("jacobi", _bench("jacobi"), "n", CLUSTER_TOPOLOGIES),
        AppRun("kmeans", _bench("kmeans"), "npoints", CLUSTER_TOPOLOGIES),
        AppRun("bfs", _bench("bfs"), "nverts", CLUSTER_TOPOLOGIES),
    ),
    loads=("host", "executor", "kernels", "loader", "comm", "bus"),
    zero=("sanitizer.*", "comm.gpu_gpu_hidden_ms", "net.hidden_ms"),
)

SANITIZED = Workload(
    name="sanitized",
    why=("Small jacobi, stencil, kmeans and bfs on desktop x2 with the "
         "coherence sanitizer on, the only workload that runs it."),
    apps=(
        AppRun("jacobi", dict(n=256, maxiter=40, tol=1e-4), "n",
               (SANITIZED_TOPOLOGY,)),
        AppRun("stencil", dict(n=1024, steps=3), "n",
               (SANITIZED_TOPOLOGY,)),
        AppRun("kmeans", dict(npoints=400, nclusters=3, nfeatures=4,
                              niters=3), "npoints", (SANITIZED_TOPOLOGY,)),
        AppRun("bfs", dict(nverts=1000, avg_degree=6), "nverts",
               (SANITIZED_TOPOLOGY,)),
    ),
    loads=RUN_LAYERS,
    zero=("net.*", "comm.gpu_gpu_hidden_ms", "comm.miss_bytes"),
    sanitize=True,
)

WORKLOADS = {w.name: w for w in (NODE_DENSE, PAPER_IRREGULAR,
                                 CLUSTER_EXCHANGE, SANITIZED)}


def run_label(app: str, topology: Topology) -> str:
    return f"{app}-{topology.label}"


def all_run_labels() -> list[str]:
    """Every ``<app>-<topology>`` row of every workload, in order."""
    return [run_label(a.app, t) for w in WORKLOADS.values()
            for a in w.apps for t in a.topologies]


def sized_params(workload: Workload, seed: int) -> list[dict[str, Any]]:
    """Each app's generator parameters for ``seed``: the base parameters
    with the size raised by a seed-drawn share below 1/64, plus the seed."""
    rng = np.random.default_rng(seed)
    out = []
    for a in workload.apps:
        params = dict(a.params)
        if a.size_key is not None:
            base = params[a.size_key]
            params[a.size_key] = base + int(
                rng.integers(0, max(1, base // 64)))
        params["seed"] = seed
        out.append(params)
    return out

