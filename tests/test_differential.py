"""Differential testing: vectorized engine vs scalar interpreter.

The scalar interpreter executes loop bodies with real control flow, one
iteration at a time; the vectorizer executes them with predication and
flattening.  Any program both accept must produce identical effects.
Hypothesis generates random inputs for a family of parameterized
programs covering every translation strategy (predication, constant
inner loops, CSR flattening, reductions, dirty-bit stores, miss-checked
stores), and for each we also vary the GPU count so the partitioning
and communication layers are inside the differential net.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.util import compare_engines

_SETTINGS = dict(max_examples=25, deadline=None)

floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False,
                   width=32)


def farr(draw, n, lo=-100.0, hi=100.0):
    vals = draw(st.lists(st.floats(min_value=lo, max_value=hi,
                                   allow_nan=False, width=32),
                         min_size=n, max_size=n))
    return np.array(vals, dtype=np.float32)


class TestElementwisePrograms:
    SRC = """
    void k(int n, float a, float *x, float *y) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        float t = a * x[i] + 1.0f;
        if (t > 0.0f) { y[i] = t; } else { y[i] = -t * 0.5f; }
      }
    }
    """

    @given(st.data(), st.integers(1, 17), st.integers(1, 3))
    @settings(**_SETTINGS)
    def test_predicated_elementwise(self, data, n, ngpus):
        x = farr(data.draw, n)
        a = data.draw(floats)
        machine = "desktop" if ngpus <= 2 else "supercomputer"
        compare_engines(
            self.SRC,
            lambda: {"n": n, "a": a, "x": x.copy(),
                     "y": np.zeros(n, np.float32)},
            ngpus_list=(1, ngpus), machine=machine)


class TestGatherScatter:
    SRC = """
    void k(int n, int m, int *idx, float *x, float *y) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        y[idx[i]] = x[i] + 1.0f;
      }
    }
    """

    @given(st.data(), st.integers(1, 12), st.integers(1, 2))
    @settings(**_SETTINGS)
    def test_replica_scatter_with_dirty_bits(self, data, n, ngpus):
        m = n + data.draw(st.integers(0, 5))
        # Unique destinations: duplicate scatter order differs between a
        # sequential interpreter and fancy assignment, and is a race in
        # the source program anyway.
        idx = np.array(data.draw(st.permutations(list(range(m))))[:n],
                       dtype=np.int32)
        x = farr(data.draw, n)
        compare_engines(
            self.SRC,
            lambda: {"n": n, "m": m, "idx": idx.copy(), "x": x.copy(),
                     "y": np.zeros(m, np.float32)},
            ngpus_list=(1, ngpus))


class TestMissCheckedScatter:
    SRC = """
    void k(int n, int shift, float *x, float *y) {
      #pragma acc localaccess x[stride(1)] y[stride(1)]
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        y[(i + shift) % n] = 2.0f * x[i];
      }
    }
    """

    @given(st.data(), st.integers(2, 24), st.integers(0, 23),
           st.integers(1, 3))
    @settings(**_SETTINGS)
    def test_distributed_scatter_with_miss_routing(self, data, n, shift,
                                                   ngpus):
        x = farr(data.draw, n)
        machine = "desktop" if ngpus <= 2 else "supercomputer"
        compare_engines(
            self.SRC,
            lambda: {"n": n, "shift": shift, "x": x.copy(),
                     "y": np.zeros(n, np.float32)},
            ngpus_list=(1, ngpus), machine=machine)


class TestConstantInnerLoop:
    SRC = """
    void k(int n, int m, float *x, float *y) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        float s = 0.0f;
        for (int j = 0; j < m; j++) {
          float v = x[i * m + j];
          if (v > 0.0f) { s += v; }
        }
        y[i] = s;
      }
    }
    """

    @given(st.data(), st.integers(1, 8), st.integers(0, 6),
           st.integers(1, 2))
    @settings(**_SETTINGS)
    def test_masked_accumulation(self, data, n, m, ngpus):
        x = farr(data.draw, max(1, n * m))
        compare_engines(
            self.SRC,
            lambda: {"n": n, "m": m, "x": x.copy(),
                     "y": np.zeros(n, np.float32)},
            ngpus_list=(1, ngpus))


class TestCsrPrograms:
    SRC = """
    void k(int n, int *row, int *col, float *vals, float *y, int *touched) {
      #pragma acc localaccess row[stride(1, 0, 1)]
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        float s = 0.0f;
        for (int e = row[i]; e < row[i + 1]; e++) {
          if (vals[e] > 0.0f) {
            s += vals[e];
            touched[col[e]] = 1;
          }
        }
        y[i] = s;
      }
    }
    """

    @given(st.data(), st.integers(1, 10), st.integers(1, 2))
    @settings(**_SETTINGS)
    def test_csr_flatten_with_scatter(self, data, n, ngpus):
        degrees = data.draw(st.lists(st.integers(0, 5), min_size=n,
                                     max_size=n))
        row = np.zeros(n + 1, dtype=np.int32)
        row[1:] = np.cumsum(degrees)
        ne = int(row[-1])
        col = np.array(
            [data.draw(st.integers(0, n - 1)) for _ in range(ne)],
            dtype=np.int32) if ne else np.zeros(0, np.int32)
        vals = farr(data.draw, max(1, ne))[:ne] if ne else \
            np.zeros(0, np.float32)
        compare_engines(
            self.SRC,
            lambda: {"n": n, "row": row.copy(), "col": col.copy(),
                     "vals": vals.copy(), "y": np.zeros(n, np.float32),
                     "touched": np.zeros(n, np.int32)},
            ngpus_list=(1, ngpus))


class TestScalarReductions:
    SRC = """
    float k(int n, float thresh, float *x) {
      float total = 5.0f;
      #pragma acc parallel loop reduction(+:total)
      for (int i = 0; i < n; i++) {
        if (x[i] > thresh) { total += x[i]; }
      }
      return total;
    }
    """

    @given(st.data(), st.integers(1, 30), st.integers(1, 3))
    @settings(**_SETTINGS)
    def test_masked_sum(self, data, n, ngpus):
        from tests.util import run_source

        x = farr(data.draw, n, lo=-10, hi=10)
        thresh = data.draw(st.floats(min_value=-5, max_value=5, width=32))
        machine = "desktop" if ngpus <= 2 else "supercomputer"
        vals = []
        for engine in ("vector", "interp"):
            for g in (1, ngpus):
                _, run = run_source(
                    self.SRC, {"n": n, "thresh": thresh, "x": x.copy()},
                    ngpus=g, machine=machine, engine=engine)
                vals.append(run.value)
        assert all(abs(v - vals[0]) <= 1e-3 * max(1.0, abs(vals[0]))
                   for v in vals)


class TestReductionToArray:
    SRC = """
    void k(int n, int nb, int *bin, float *w, float *hist) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        #pragma acc reductiontoarray(+: hist[0:nb])
        hist[bin[i]] += w[i];
      }
    }
    """

    @given(st.data(), st.integers(1, 30), st.integers(1, 6),
           st.integers(1, 3))
    @settings(**_SETTINGS)
    def test_histogram(self, data, n, nb, ngpus):
        bins = np.array([data.draw(st.integers(0, nb - 1))
                         for _ in range(n)], dtype=np.int32)
        w = farr(data.draw, n, lo=0, hi=10)
        machine = "desktop" if ngpus <= 2 else "supercomputer"
        compare_engines(
            self.SRC,
            lambda: {"n": n, "nb": nb, "bin": bins.copy(), "w": w.copy(),
                     "hist": np.zeros(nb, np.float32)},
            ngpus_list=(1, ngpus), machine=machine, rtol=1e-4, atol=1e-4)


class TestHaloStencil:
    SRC = """
    void k(int n, float *a, float *b) {
      #pragma acc localaccess a[stride(1, 1, 1)] b[stride(1)]
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        if (i > 0 && i < n - 1) {
          b[i] = a[i - 1] + a[i] + a[i + 1];
        } else {
          b[i] = a[i];
        }
      }
    }
    """

    @given(st.data(), st.integers(1, 40), st.integers(1, 3))
    @settings(**_SETTINGS)
    def test_halo_windows(self, data, n, ngpus):
        a = farr(data.draw, n)
        machine = "desktop" if ngpus <= 2 else "supercomputer"
        compare_engines(
            self.SRC,
            lambda: {"n": n, "a": a.copy(), "b": np.zeros(n, np.float32)},
            ngpus_list=(1, ngpus), machine=machine)


class TestFlattenedInnerLoops:
    """Independent constant-trip inner loops run as one (j, lane) block
    in the vector engine.  Two oracles must agree with it bit for bit:
    the same kernel emitted as the sequential ``for _j_`` loop (forced
    by patching :meth:`Vectorizer.flatten_blocker`; its cost buckets
    must equal the flattened kernel's), and the scalar interpreter.
    Compared: arrays, write-miss records (address/value sequences,
    stable-sorted by address, so per-address order is checked; as
    issued, against the sequential form) and modeled ``elapsed``.
    Addresses only ever repeat within one outer iteration, where every
    engine writes in ascending ``j``; the interpreter's cross-lane
    order legitimately differs."""

    SITES = """
    void k(int n, int m, int shift, float *x, float *y, float *z) {
      #pragma acc localaccess x[stride(m)] y[stride(m)]
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        float t = x[i * m];
        for (int j = 0; j < m; j++) {
          if (x[i * m + j] > t) {
            y[(i * m + j + shift) % (n * m)] = x[i * m + j] * 2.0f;
            z[i * 2 + j % 2] = x[i * m + j];
          } else {
            y[(i * m + j % 2 + shift) % (n * m)] = x[i * m + j] - t;
            z[i * 2 + (j + 1) % 2] = t + 1.0f;
          }
        }
      }
    }
    """

    # Values are small integers, so accumulation is exact in any order
    # and the cross-lane merge order of the private copies cannot show.
    REDUCE = """
    void k(int n, int m, int nb, float scale, int *bin, float *w,
           float *hist, int *cnt) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        int b = bin[i];
        float s = w[i] * scale;
        for (int j = 0; j < m; j++) {
          if (j < m - 1 || b > 0) {
            #pragma acc reductiontoarray(+: hist[0:nb*m])
            hist[b * m + j] += s + w[i];
          }
          #pragma acc reductiontoarray(+: cnt[0:nb])
          cnt[b] += 1;
        }
      }
    }
    """

    @staticmethod
    def machine(ngpus):
        from repro.bench.machines import hypothetical_node
        return {1: "desktop", 2: "desktop", 3: "supercomputer"}.get(ngpus) \
            or hypothetical_node(ngpus)

    _sequential: dict = {}

    @classmethod
    def sequential(cls, src):
        """``src`` compiled with every inner loop left sequential."""
        import repro
        from unittest import mock

        from repro.translator.compiler import compile_source
        from repro.translator.vectorizer import Vectorizer

        if src not in cls._sequential:
            with mock.patch.object(Vectorizer, "flatten_blocker",
                                   lambda *a: "forced by the test"):
                cls._sequential[src] = repro.AccProgram(
                    compile_source(src, cache=False))
        return cls._sequential[src]

    def run_both(self, src, make_args, ngpus):
        import repro
        from unittest import mock

        from repro.runtime.writemiss import WriteMissBuffer

        flat, seq = repro.compile(src), self.sequential(src)
        assert "for _j_j in range(" in seq.kernel_source("k_L0")
        assert flat.kernel("k_L0").cost.buckets == \
            seq.kernel("k_L0").cost.buckets
        record = WriteMissBuffer.record
        out = []
        for prog, engine in ((flat, "vector"), (seq, "vector"),
                             (flat, "interp")):
            log = []

            def logged(buf, addresses, values, op):
                log.append((buf.name, np.array(addresses, np.int64),
                            np.broadcast_to(values, np.shape(addresses))
                            .copy(), op))
                return record(buf, addresses, values, op)

            args = make_args()
            with mock.patch.object(WriteMissBuffer, "record", logged):
                run = prog.run("k", args, machine=self.machine(ngpus),
                               ngpus=ngpus, engine=engine)
            misses = {}
            for name, addrs, vals, op in log:
                a, v, ops = misses.setdefault(name, ([], [], set()))
                a.append(addrs)
                v.append(vals)
                ops.add(op)
            for name, (a, v, ops) in list(misses.items()):
                a, v = np.concatenate(a), np.concatenate(v)
                order = np.argsort(a, kind="stable")
                misses[name] = (a[order], v[order], ops, a, v)
            out.append((args, misses, run.elapsed))
        (va, vm, ve) = out[0]
        for other, (oa, om, oe) in zip(("sequential", "interp"), out[1:]):
            for name, arr in va.items():
                if isinstance(arr, np.ndarray):
                    np.testing.assert_array_equal(
                        arr, oa[name], err_msg=f"{name} vs {other}")
            assert vm.keys() == om.keys(), other
            # Both vector forms issue misses in (j, statement, lane)
            # order: their unsorted sequences must match as well.
            fields = (0, 1, 3, 4) if other == "sequential" else (0, 1)
            for name in vm:
                for k in fields:
                    np.testing.assert_array_equal(vm[name][k], om[name][k])
                assert vm[name][2] == om[name][2]
            assert ve == oe, other
        return vm

    def test_family_kernels_flatten(self):
        import repro
        for src in (self.SITES, self.REDUCE):
            text = repro.compile(src).kernel_source("k_L0")
            assert "ks.jblocks(" in text and "for _j_" not in text

    @given(st.data(), st.integers(1, 9), st.integers(1, 6),
           st.integers(1, 4))
    @settings(**_SETTINGS)
    def test_store_sites_order_and_misses(self, data, n, m, ngpus):
        x = farr(data.draw, n * m, lo=-8, hi=8)
        shift = data.draw(st.integers(0, n * m - 1))
        misses = self.run_both(self.SITES, lambda: {
            "n": n, "m": m, "shift": shift, "x": x.copy(),
            "y": np.zeros(n * m, np.float32),
            "z": np.zeros(2 * n, np.float32)}, ngpus)
        if ngpus == 1:
            assert not misses

    def test_out_of_window_writes_are_replayed(self):
        misses = self.run_both(self.SITES, lambda: {
            "n": 8, "m": 3, "shift": 5,
            "x": np.arange(24, dtype=np.float32) % 7 - 3,
            "y": np.zeros(24, np.float32),
            "z": np.zeros(16, np.float32)}, 2)
        assert misses["y"][0].size > 0

    @given(st.data(), st.integers(1, 9), st.integers(0, 5),
           st.integers(1, 4), st.integers(1, 4))
    @settings(**_SETTINGS)
    def test_reduction_to_array_inside(self, data, n, m, nb, ngpus):
        bins = np.array([data.draw(st.integers(0, nb - 1))
                         for _ in range(n)], dtype=np.int32)
        w = np.array([data.draw(st.integers(0, 8)) for _ in range(n)],
                     dtype=np.float32)
        scale = float(data.draw(st.integers(0, 3)))
        self.run_both(self.REDUCE, lambda: {
            "n": n, "m": m, "nb": nb, "scale": scale, "bin": bins.copy(),
            "w": w.copy(), "hist": np.zeros(max(1, nb * m), np.float32),
            "cnt": np.zeros(nb, np.int32)}, ngpus)

    # Body locals stored and then reassigned: a deferred store must
    # write the value (and use the index) the local had at the store.
    LOCALS = """
    void k(int n, int m, float *x, float *y, float *z) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        for (int j = 0; j < m; j++) {
          float d = x[i * m + j];
          int p = i * m + j;
          y[p] = d;
          d = d + 1.0f;
          if (d > 0.0f) {
            p = i * m + (j + 1) % m;
            d = d * 2.0f;
          }
          z[p] = d;
        }
      }
    }
    """

    # The same name declared in two sibling blocks of the body.
    SIBLINGS = """
    void k(int n, int m, float *x, float *y) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        for (int j = 0; j < m; j++) {
          {
            float d = x[i * m + j];
            y[i * m + j] = d;
          }
          {
            float d = x[i * m + j] * 2.0f - 1.0f;
            y[i * m + (j + 1) % m] = d;
          }
        }
      }
    }
    """

    def test_reassigned_locals_kernels_flatten(self):
        import repro
        for src in (self.LOCALS, self.SIBLINGS):
            text = repro.compile(src).kernel_source("k_L0")
            assert "ks.jblocks(" in text and "for _j_" not in text

    @given(st.data(), st.integers(1, 9), st.integers(1, 6),
           st.integers(1, 4))
    @settings(**_SETTINGS)
    def test_locals_reassigned_after_store(self, data, n, m, ngpus):
        x = farr(data.draw, n * m, lo=-8, hi=8)
        self.run_both(self.LOCALS, lambda: {
            "n": n, "m": m, "x": x.copy(),
            "y": np.zeros(n * m, np.float32),
            "z": np.zeros(n * m, np.float32)}, ngpus)

    @given(st.data(), st.integers(1, 9), st.integers(1, 6),
           st.integers(1, 4))
    @settings(**_SETTINGS)
    def test_sibling_block_locals(self, data, n, m, ngpus):
        x = farr(data.draw, n * m, lo=-8, hi=8)
        self.run_both(self.SIBLINGS, lambda: {
            "n": n, "m": m, "x": x.copy(),
            "y": np.zeros(n * m, np.float32)}, ngpus)
