"""The localaccess auditor's vector recording and NumPy verification.

The sanitizer records per-iteration access spans with each kernel's
*audit variant* (the generated kernel plus ``ctx.audit`` calls) during
the shadow pass, and evaluates window bounds with NumPy.  The scalar
interpreter stays the oracle: run over the same slices and loop-entry
state with its own per-access recorder, it must produce exactly the
same ``[min, max]`` span for every (array, iteration) -- across every
app, every GPU count, and the differential suite's program families.
"""

from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
import tests.test_differential as diff
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.apps import stencil
from repro.bench.machines import hypothetical_node
from repro.frontend import cast as C
from repro.frontend.directives import LocalAccessSpec
from repro.runtime.partition import (
    PartitionError,
    make_vector_window_evaluator,
    make_window_evaluator,
)
from repro.sanitizer import CoherenceViolation, LocalAccessAuditor
from repro.sanitizer.oracle import ShadowOracle, global_view
from repro.translator.array_config import ArrayConfig, Placement, ReadWindow
from repro.translator.array_config import window_from_spec
from repro.translator.compiler import compile_source
from repro.translator.infer import window_from_span
from repro.translator.interpreter import InterpError
from tests.util import run_source

APPS = {**ALL_APPS, **EXTRA_APPS}


def machine_for(ngpus):
    return {2: "desktop", 3: "supercomputer"}.get(ngpus) \
        or hypothetical_node(ngpus)


# ---------------------------------------------------------------------------
# Differential spans: audit variant vs scalar interpreter
# ---------------------------------------------------------------------------


def interpreter_spans(oracle, plan, configs, tasks, host_env):
    """The scalar interpreter's recorder over the same slices and
    loop-entry state the shadow pass sees."""
    rec = LocalAccessAuditor(oracle.loader).recorder(configs, tasks)
    pre = {n: global_view(oracle.loader._get(n)) for n in configs}
    for t0, t1 in tasks:
        ctx = oracle._shadow_context(plan, configs, pre, host_env, t0, t1)
        ctx.recorder = rec
        plan.interp.run(ctx)
    return rec


@contextmanager
def span_pairs():
    """Collect, for every sanitized loop with audited windows, the
    audit-variant recorder next to the interpreter's (``vec``/``ref``)
    with what re-verifying the latter needs."""
    pairs = []
    prepare = ShadowOracle.prepare

    def spy(self, plan, configs, tasks, host_env, recorder=None,
            engine="vector"):
        ref = None
        if recorder is not None:
            ref = interpreter_spans(self, plan, configs, tasks, host_env)
        expect = prepare(self, plan, configs, tasks, host_env,
                         recorder=recorder, engine=engine)
        if recorder is not None:
            pairs.append(SimpleNamespace(
                loop=plan.name, vec=recorder, ref=ref, plan=plan,
                configs=configs, host_env=dict(host_env),
                # The arrays as of this loop (a failed run unwinds its
                # data regions before the test re-verifies).
                loader=SimpleNamespace(arrays=dict(self.loader.arrays))))
        return expect

    ShadowOracle.prepare = spy
    try:
        yield pairs
    finally:
        ShadowOracle.prepare = prepare


def assert_same_spans(pairs):
    touched = 0
    for p in pairs:
        assert p.vec.first == p.ref.first
        assert list(p.vec.spans) == list(p.ref.spans)
        for name, (lo, hi) in p.vec.spans.items():
            np.testing.assert_array_equal(
                lo, p.ref.spans[name][0], err_msg=f"{p.loop}: {name} minima")
            np.testing.assert_array_equal(
                hi, p.ref.spans[name][1], err_msg=f"{p.loop}: {name} maxima")
            touched += int((lo <= hi).sum())
    return touched


def report(e):
    return (e.kind, e.loop, e.array, e.lo, e.hi, e.detail)


def both_violations(run):
    """The violation a sanitized (vector) ``run()`` raises, and the one
    verifying the interpreter's spans of the same loop raises.

    The interpreter cannot simply be the executing engine here: its
    real (partitioned) run would fault on the out-of-window read before
    the audit reports it."""
    with span_pairs() as pairs:
        with pytest.raises(CoherenceViolation) as got:
            run()
    last = pairs[-1]
    assert_same_spans([last])
    with pytest.raises(CoherenceViolation) as ref:
        LocalAccessAuditor(last.loader).verify(
            last.plan, last.configs, last.ref, last.host_env)
    assert report(got.value) == report(ref.value)
    return got.value


class TestSpansMatchInterpreter:
    @pytest.mark.parametrize("ngpus", [2, 3, 4])
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_apps(self, app, ngpus):
        spec = APPS[app]
        prog = repro.compile(spec.source)
        args = spec.args_for("tiny")
        with span_pairs() as pairs:
            prog.run(spec.entry, args, machine=machine_for(ngpus),
                     ngpus=ngpus, sanitize=True)
        assert_same_spans(pairs)

    def test_apps_are_audited(self):
        # Not vacuous: the apps with windows record real spans.
        spec = APPS["bfs"]
        with span_pairs() as pairs:
            repro.compile(spec.source).run(
                spec.entry, spec.args_for("tiny"), machine="desktop",
                ngpus=2, sanitize=True)
        assert assert_same_spans(pairs) > 0


_FAMILY_SETTINGS = dict(max_examples=12, deadline=None)


def sanitized_spans(src, args, ngpus):
    machine = "desktop" if ngpus <= 2 else "supercomputer"
    with span_pairs() as pairs:
        run_source(src, args, ngpus=ngpus, machine=machine, sanitize=True)
    return assert_same_spans(pairs)


class TestSpansMatchOnProgramFamilies:
    """The differential suite's program families, sanitized: each loop's
    audit-variant spans equal the interpreter's."""

    @given(st.data(), st.integers(1, 17), st.integers(1, 3))
    @settings(**_FAMILY_SETTINGS)
    def test_predicated_elementwise(self, data, n, ngpus):
        x = diff.farr(data.draw, n)
        a = data.draw(diff.floats)
        sanitized_spans(diff.TestElementwisePrograms.SRC,
                        {"n": n, "a": a, "x": x,
                         "y": np.zeros(n, np.float32)}, ngpus)

    @given(st.data(), st.integers(1, 12), st.integers(1, 2))
    @settings(**_FAMILY_SETTINGS)
    def test_gather_scatter(self, data, n, ngpus):
        m = n + data.draw(st.integers(0, 5))
        idx = np.array(data.draw(st.permutations(list(range(m))))[:n],
                       dtype=np.int32)
        sanitized_spans(diff.TestGatherScatter.SRC,
                        {"n": n, "m": m, "idx": idx,
                         "x": diff.farr(data.draw, n),
                         "y": np.zeros(m, np.float32)}, ngpus)

    @given(st.data(), st.integers(2, 24), st.integers(0, 23),
           st.integers(1, 3))
    @settings(**_FAMILY_SETTINGS)
    def test_miss_checked_scatter(self, data, n, shift, ngpus):
        sanitized_spans(diff.TestMissCheckedScatter.SRC,
                        {"n": n, "shift": shift,
                         "x": diff.farr(data.draw, n),
                         "y": np.zeros(n, np.float32)}, ngpus)

    @given(st.data(), st.integers(1, 8), st.integers(0, 6),
           st.integers(1, 2))
    @settings(**_FAMILY_SETTINGS)
    def test_constant_inner_loop(self, data, n, m, ngpus):
        sanitized_spans(diff.TestConstantInnerLoop.SRC,
                        {"n": n, "m": m,
                         "x": diff.farr(data.draw, max(1, n * m)),
                         "y": np.zeros(n, np.float32)}, ngpus)

    @given(st.data(), st.integers(1, 10), st.integers(1, 2))
    @settings(**_FAMILY_SETTINGS)
    def test_csr(self, data, n, ngpus):
        degrees = data.draw(st.lists(st.integers(0, 5), min_size=n,
                                     max_size=n))
        row = np.zeros(n + 1, dtype=np.int32)
        row[1:] = np.cumsum(degrees)
        ne = int(row[-1])
        col = np.array([data.draw(st.integers(0, n - 1))
                        for _ in range(ne)], dtype=np.int32)
        vals = diff.farr(data.draw, ne)
        touched = sanitized_spans(
            diff.TestCsrPrograms.SRC,
            {"n": n, "row": row, "col": col, "vals": vals,
             "y": np.zeros(n, np.float32),
             "touched": np.zeros(n, np.int32)}, ngpus)
        assert touched > 0  # row's declared window is always read

    @given(st.data(), st.integers(1, 30), st.integers(1, 3))
    @settings(**_FAMILY_SETTINGS)
    def test_scalar_reduction(self, data, n, ngpus):
        sanitized_spans(diff.TestScalarReductions.SRC,
                        {"n": n, "thresh": 0.5,
                         "x": diff.farr(data.draw, n, lo=-10, hi=10)},
                        ngpus)

    @given(st.data(), st.integers(1, 30), st.integers(1, 6),
           st.integers(1, 3))
    @settings(**_FAMILY_SETTINGS)
    def test_reduction_to_array(self, data, n, nb, ngpus):
        bins = np.array([data.draw(st.integers(0, nb - 1))
                         for _ in range(n)], dtype=np.int32)
        sanitized_spans(diff.TestReductionToArray.SRC,
                        {"n": n, "nb": nb, "bin": bins,
                         "w": diff.farr(data.draw, n, lo=0, hi=10),
                         "hist": np.zeros(nb, np.float32)}, ngpus)

    @given(st.data(), st.integers(1, 40), st.integers(1, 3))
    @settings(**_FAMILY_SETTINGS)
    def test_halo_stencil(self, data, n, ngpus):
        sanitized_spans(diff.TestHaloStencil.SRC,
                        {"n": n, "a": diff.farr(data.draw, n),
                         "b": np.zeros(n, np.float32)}, ngpus)


# ---------------------------------------------------------------------------
# Mask precision and coverage
# ---------------------------------------------------------------------------


def window_program(body, window="x[stride(1, 0, 0)]"):
    return f"""
    void k(int n, float *x, float *y) {{
      #pragma acc data copyin(x[0:n + 1]) copy(y[0:n])
      {{
        #pragma acc parallel
        {{
          #pragma acc localaccess {window} y[stride(1)]
          #pragma acc loop gang
          for (int i = 0; i < n; i++) {{
            {body}
          }}
        }}
      }}
    }}
    """


def window_args(n=24):
    return {"n": n, "x": np.arange(1, n + 2, dtype=np.float32),
            "y": np.zeros(n, np.float32)}


#: Each body reads ``x[i + i % 2]`` -- outside the declared ``[i, i]``
#: window on odd ``i`` -- only where a guard is false on odd lanes.
GUARDED = {
    "if": "if (i % 2 == 0) { y[i] = x[i + i % 2]; } else { y[i] = 0.0f; }",
    "and": "y[i] = (i % 2 == 0 && x[i + i % 2] > 0.0f) ? 1.0f : 2.0f;",
    "or": "y[i] = (i % 2 == 1 || x[i + i % 2] > 0.0f) ? 1.0f : 2.0f;",
    "ternary": "y[i] = (i % 2 == 0) ? x[i + i % 2] : 0.0f;",
    "inner-bounds": ("float s = 0.0f;"
                     "for (int j = i; j < i + 1 - i % 2; j++) "
                     "{ s += x[j + i % 2]; } y[i] = s;"),
}


class TestMaskPrecision:
    @pytest.mark.parametrize("guard", sorted(GUARDED))
    @pytest.mark.parametrize("engine", ["vector", "interp"])
    def test_false_guard_lanes_not_flagged(self, guard, engine):
        with span_pairs() as pairs:
            _, run = run_source(window_program(GUARDED[guard]),
                                window_args(), ngpus=2, sanitize=True,
                                engine=engine)
        assert run.sanitizer.auditor.audited > 0
        assert_same_spans(pairs)

    def test_unguarded_read_is_flagged(self):
        with pytest.raises(CoherenceViolation) as exc:
            run_source(window_program("y[i] = x[i + i % 2];"),
                       window_args(), ngpus=2, sanitize=True)
        e = exc.value
        assert (e.kind, e.array, e.lo, e.hi) == \
            ("localaccess-underdeclared", "x", 2, 2)
        assert e.detail.startswith("iteration 1 accessed [2, 2]")


CSR_UNDER = r"""
void k(int n, int ne, int *row, float *col, float *y) {
  #pragma acc data copyin(row[0:n + 1], col[0:ne]) copy(y[0:n])
  {
    #pragma acc parallel
    {
      #pragma acc localaccess row[stride(1, 0, 1)] col[bounds(row[u], row[u + 1] - 1)] y[stride(1)]
      #pragma acc loop gang
      for (int u = 0; u < n; u++) {
        float s = 0.0f;
        for (int e = row[u]; e < row[u + 1]; e++) {
          s += col[e] * col[e + 1];
        }
        y[u] = s;
      }
    }
  }
}
"""


class TestCoverage:
    def test_csr_under_declared_matches_interpreter(self):
        # Iteration 1 reads col[0..2]; bounds(row[u], row[u+1]-1)
        # declares [0, 1].
        args = {"n": 6, "ne": 8,
                "row": np.array([0, 0, 2, 3, 3, 6, 7], dtype=np.int32),
                "col": np.arange(1, 9, dtype=np.float32),
                "y": np.zeros(6, np.float32)}
        e = both_violations(
            lambda: run_source(CSR_UNDER, args, ngpus=2, sanitize=True))
        assert (e.kind, e.loop, e.array, e.lo, e.hi) == \
            ("localaccess-underdeclared", "k_L0", "col", 0, 2)
        assert e.detail.startswith(
            "iteration 1 accessed [0, 2] but the declared localaccess "
            "window is [0, 1]")

    def test_narrowed_inferred_window_is_unsound(self):
        cp = compile_source(stencil.SOURCE.replace(
            "#pragma acc localaccess", "// localaccess"), cache=False)
        for plan in cp.plans:
            cfg = plan.config.arrays["a"]
            assert cfg.window.origin == "inferred"
            cfg.window = window_from_span((1, 0, 0), plan.config.loop_var)
            cfg.inferred_span = (1, 0, 0)
        e = both_violations(lambda: repro.AccProgram(cp).run(
            "stencil", stencil.make_args(n=64, steps=2), ngpus=2,
            sanitize=True))
        assert (e.kind, e.array) == ("localaccess-inference-unsound", "a")

    MISS = r"""
    void k(int n, float *x, float *y) {
      #pragma acc data copyin(x[0:n]) copy(y[0:n])
      {
        #pragma acc parallel
        {
          #pragma acc localaccess x[stride(1)] y[stride(1)]
          #pragma acc loop gang
          for (int i = 0; i < n; i++) {
            y[(i + 3) % n] = BODY;
          }
        }
      }
    }
    """

    def miss_args(self, n=16):
        return {"n": n, "x": np.arange(n, dtype=np.float32),
                "y": np.zeros(n, np.float32)}

    @pytest.mark.parametrize("engine", ["vector", "interp"])
    def test_miss_checked_writes_exempt(self, engine):
        args, run = run_source(self.MISS.replace("BODY", "2.0f * x[i]"),
                               self.miss_args(), ngpus=2, sanitize=True,
                               engine=engine)
        assert run.sanitizer.auditor.audited > 0
        np.testing.assert_array_equal(
            np.roll(args["y"], -3), 2.0 * np.arange(16, dtype=np.float32))

    def test_miss_checked_reads_audited(self):
        src = self.MISS.replace("BODY", "x[i] + y[(i + 1) % n]")
        e = both_violations(lambda: run_source(
            src, self.miss_args(), ngpus=2, sanitize=True))
        assert (e.kind, e.array, e.lo, e.hi) == \
            ("localaccess-underdeclared", "y", 1, 1)


# ---------------------------------------------------------------------------
# NumPy window evaluator vs make_window_evaluator
# ---------------------------------------------------------------------------

HOST_SCALARS = {"n": 17, "s": 3, "neg": -4}
HOST_ARRAYS = {"row": np.array([0, 2, 2, 5, 9, 9, 12, 20], dtype=np.int32),
               "off": np.array([-3, 4, 0, -1, 7], dtype=np.int64)}

leaves = st.one_of(
    st.integers(-30, 30).map(C.IntLit),
    st.sampled_from(["i", "i", "n", "s", "neg"]).map(C.Ident),
)


def extend(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/%"), children, children).map(
            lambda t: C.BinOp(t[0], t[1], t[2])),
        children.map(lambda e: C.UnOp("-", e)),
        st.tuples(st.sampled_from(sorted(HOST_ARRAYS)), children).map(
            lambda t: C.Index(C.Ident(t[0]), [t[1]])),
    )


#: At most five leaves: every intermediate stays far below 2**31, so
#: the NumPy evaluator must never decline for magnitude.
exprs = st.recursive(leaves, extend, max_leaves=5)

iterations = st.lists(st.integers(0, 12), min_size=1, max_size=10).map(
    lambda v: np.array(sorted(v), dtype=np.int64))


def scalar_results(expr, its):
    scalar = make_window_evaluator("i", dict(HOST_SCALARS), HOST_ARRAYS)
    try:
        return [scalar(expr, int(it)) for it in its], None
    except (PartitionError, InterpError) as exc:
        return None, exc


def spec_window(draw):
    kind = draw(st.sampled_from(["stride", "range", "bounds"]))
    if kind == "stride":
        return window_from_spec(LocalAccessSpec(
            "stride", stride=draw(exprs), left=draw(exprs),
            right=draw(exprs)), "i")
    return window_from_spec(LocalAccessSpec(kind, lo=draw(exprs),
                                            hi=draw(exprs)), "i")


class TestVectorWindowEvaluator:
    @given(exprs, iterations)
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_evaluator(self, expr, its):
        vec = make_vector_window_evaluator("i", HOST_SCALARS, HOST_ARRAYS)
        want, exc = scalar_results(expr, its)
        got = vec(expr, its)
        if exc is not None:
            # Out-of-range reads and zero divisors: the NumPy evaluator
            # declines, the scalar fallback raises.
            assert got is None
        else:
            assert got is not None, "supported form declined"
            assert got.dtype == np.int64
            assert got.tolist() == want

    @given(st.data(), iterations)
    @settings(max_examples=200, deadline=None)
    def test_directive_forms(self, data, its):
        window = spec_window(data.draw)
        vec = make_vector_window_evaluator("i", HOST_SCALARS, HOST_ARRAYS)
        for expr in (window.lower, window.upper):
            want, exc = scalar_results(expr, its)
            got = vec(expr, its)
            if exc is None:
                assert got is not None and got.tolist() == want
            else:
                assert got is None

    def test_negative_offsets_division_and_modulo(self):
        vec = make_vector_window_evaluator("i", HOST_SCALARS, HOST_ARRAYS)
        its = np.arange(0, 9, dtype=np.int64)
        expr = C.BinOp("+", C.BinOp("/", C.BinOp("-", C.Ident("i"),
                                                  C.IntLit(7)),
                                    C.Ident("s")),
                       C.BinOp("%", C.UnOp("-", C.Ident("i")),
                               C.Ident("neg")))
        want, exc = scalar_results(expr, its)
        assert exc is None
        assert vec(expr, its).tolist() == want

    @pytest.mark.parametrize("expr", [
        C.Ternary(C.BinOp("<", C.Ident("i"), C.IntLit(3)), C.IntLit(0),
                  C.Ident("i")),
        C.FloatLit(2.0),
        C.Call("max", [C.Ident("i"), C.IntLit(1)]),
        C.Ident("unknown"),
        C.Index(C.Ident("fl"), [C.Ident("i")]),
        C.BinOp("*", C.Ident("big"), C.IntLit(2)),
        C.Index(C.Ident("wide"), [C.Ident("i")]),
    ])
    def test_unsupported_forms_decline(self, expr):
        vec = make_vector_window_evaluator(
            "i", {"big": 1 << 40},
            {"fl": np.zeros(16, np.float32),
             "wide": np.full(16, np.iinfo(np.int64).min)})
        assert vec(expr, np.arange(4, dtype=np.int64)) is None


def verify_spans(window, spans, first=0, host_arrays=HOST_ARRAYS):
    """Run LocalAccessAuditor.verify on hand-made spans of array 'a'."""
    loader = SimpleNamespace(arrays={
        n: SimpleNamespace(host=v) for n, v in host_arrays.items()})
    auditor = LocalAccessAuditor(loader)
    cfg = ArrayConfig(name="a", ctype="float", read=True,
                      placement=Placement.DISTRIBUTED, window=window)
    rec = auditor.recorder({"a": cfg}, [(first, first + len(spans))])
    for k, (mn, mx) in enumerate(spans):
        rec.record("a", first + k, mn, None, "r")
        rec.record("a", first + k, mx, None, "r")
    auditor.verify(SimpleNamespace(name="L", loop_var="i"), {"a": cfg},
                   rec, dict(HOST_SCALARS))
    return auditor


class TestVerifyFallback:
    def test_unsupported_bound_still_audited(self):
        # A ?: bound is outside the NumPy subset: the scalar evaluator
        # takes over and the violation is still found.
        lower = C.Ternary(C.BinOp("<", C.Ident("i"), C.IntLit(2)),
                          C.IntLit(0), C.Ident("i"))
        window = ReadWindow(lower=lower, upper=C.Ident("i"))
        assert verify_spans(window, [(0, 0), (0, 1), (2, 2)]).audited == 1
        with pytest.raises(CoherenceViolation) as exc:
            verify_spans(window, [(0, 0), (0, 1), (1, 2)])
        assert exc.value.detail.startswith(
            "iteration 2 accessed [1, 2] but the declared localaccess "
            "window is [2, 2]")

    def test_out_of_range_host_read_raises_same_error(self):
        # row has 8 entries: iteration 7 reads row[8].
        window = ReadWindow(
            lower=C.Index(C.Ident("row"), [C.Ident("i")]),
            upper=C.Index(C.Ident("row"), [C.BinOp("+", C.Ident("i"),
                                                   C.IntLit(1))]))
        scalar = make_window_evaluator("i", dict(HOST_SCALARS), HOST_ARRAYS)
        with pytest.raises(PartitionError) as want:
            scalar(window.upper, 7)
        spans = [(int(HOST_ARRAYS["row"][i]),) * 2 for i in range(8)]
        with pytest.raises(PartitionError) as got:
            verify_spans(window, spans)
        assert str(got.value) == str(want.value)

    def test_vectorized_and_scalar_paths_report_alike(self):
        # Same window written in the NumPy subset and behind a no-op
        # ?: (forcing the scalar path): identical reports.
        spans = [(3 * k, 3 * k + 2) for k in range(6)]
        spans[4] = (12, 15)
        plain = window_from_spec(LocalAccessSpec(
            "stride", stride=C.IntLit(3), left=C.IntLit(0),
            right=C.IntLit(0)), "i")
        wrapped = ReadWindow(
            lower=C.Ternary(C.IntLit(1), plain.lower, C.IntLit(0)),
            upper=plain.upper)
        details = []
        for window in (plain, wrapped):
            with pytest.raises(CoherenceViolation) as exc:
                verify_spans(window, spans)
            e = exc.value
            details.append((e.kind, e.lo, e.hi, e.detail))
        assert details[0] == details[1]
        assert details[0][:3] == ("localaccess-underdeclared", 12, 15)
