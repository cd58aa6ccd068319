"""Vectorizing kernel code generator: C loop bodies -> NumPy source.

This is the multi-GPU analogue of the paper's C-to-CUDA kernel
translation (section IV-B).  A parallel loop body becomes a Python
function ``kernel(ctx)`` operating on one GPU's *slice* of the
iteration space with these translation strategies:

* **Elementwise statements** vectorize directly over the lane vector
  ``_i = arange(i0, i1)`` -- no per-element Python loops, per the
  hpc-parallel guides.
* **Predication**: ``if``/``else`` become boolean lane masks; stores and
  reductions apply the mask, local assignments merge with
  ``np.where``.
* **Independent constant-trip inner loops** (lane-invariant bounds,
  e.g. HEAT2D's row loop, KMEANS' feature accumulation) are flattened:
  ``j`` becomes an ``arange`` column of shape ``(W, 1)`` that
  broadcasts against the ``(n,)`` outer lanes, so the whole loop is one
  pass of NumPy work over a j-major ``(W, n)`` lane block
  (:func:`~repro.translator.kernel_support.jblocks` bounds a block's
  size, splitting long ranges into ascending blocks).  A loop is
  *independent* when its body assigns no kernel local declared outside
  it, updates no scalar reduction, reads no array it stores to, holds
  no nested inner loop, stores to each array with one op and one value
  type, and declares no local shadowing an outer one; the loop must not
  sit inside a CSR loop, and ``j`` may feed only integer arithmetic
  (subscripts, integer comparisons, casts), so every value keeps the
  dtype the sequential form gives it.  One cost rule joins them: a
  loop with an access that is unit-stride in the outer variable and
  moves with ``j`` (``x[j*n + i]``) stays sequential, because there the
  sequential form slices where a block would gather.  Stores are deferred to the end
  of the block and issued as one store per array in the sequential
  ``(j, statement, lane)`` order
  (:func:`~repro.translator.kernel_support.block_sites` stacks the
  sites into a ``(W, S, n)`` block and compresses it by mask), so
  last-writer-wins, ``ufunc.at`` accumulation order and write-miss
  records are exactly the sequential loop's.
* **Other constant-trip inner loops** (e.g. MD's neighbor loop and
  KMEANS' cluster loop, which carry ``fx``/``dist`` across iterations)
  run as short sequential Python loops of vectorized operations;
  lane-varying affine bounds get an extra bounds mask.  Either way the
  loop charges the same cost buckets and the same ``ctx.dyn_count``.
  Inner loops must step by one (``j++``); any other step leaves the
  kernel to the scalar interpreter.
* **CSR-pattern inner loops** ``for (e = row[i]; e < row[i+1]; e++)``
  (BFS) are flattened with the repeat/cumsum transform
  (:func:`repro.translator.kernel_support.flat_ranges`): one flat lane
  per (i, e) pair, optionally compressed to the active outer lanes.

Array accesses are rewritten from global to buffer-local indices by
subtracting the per-array base offset (section IV-B3); stores are
instrumented per the array's :class:`~repro.translator.array_config.ArrayConfig`
(dirty-bit marking, write-miss checks, reduction-to-array routing, or
nothing when writes are statically proven local).  While emitting, the
generator charges every operation into a :class:`CostCollector`, which
becomes the kernel's pricing model.

The emitted source is kept on the compiled kernel object
(``CompiledKernel.source``) so tests and users can inspect it, just as
one would inspect the CUDA the paper's translator writes out.

With ``audit=True`` the generator emits the sanitizer's *audit
variant*: the same kernel plus a ``ctx.audit(name, iterations,
indices, mask, kind)`` call before every array load and store.  The
iterations are ``_i`` (``_i[pos]`` on a CSR axis) and the mask is the
lane mask under which the access executes -- ``if`` predication,
lane-varying loop bounds, and the ``&&``/``||``/``?:`` guards the
scalar interpreter short-circuits -- so the recorded per-iteration
index spans equal the interpreter's exactly.
"""

from __future__ import annotations

import textwrap
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from ..frontend import cast as C
from ..frontend.analysis import (
    InnerLoop,
    LoopAnalysis,
    affine_in,
    expr_mentions,
    is_unit_step,
)
from ..frontend.directives import AccReductionToArray
from .array_config import ArrayConfig, LoopConfig, Placement, WriteHandling
from .cost import (
    ACCESS_BROADCAST,
    ACCESS_COALESCED,
    ACCESS_RANDOM,
    ACCESS_STRIDED,
    CostCollector,
    KernelCostInfo,
)


class VectorizeError(NotImplementedError):
    """Raised when a body uses a construct outside the vectorizable set."""

    def __init__(self, message: str, line: int = 0) -> None:
        where = f" (line {line})" if line else ""
        super().__init__(f"cannot vectorize{where}: {message}")
        self.line = line


_MATH_CALLS = {
    "sqrt": ("np.sqrt", "sqrt"), "sqrtf": ("np.sqrt", "sqrt"),
    "rsqrt": ("_rsqrt", "rsqrt"), "rsqrtf": ("_rsqrt", "rsqrt"),
    "fabs": ("np.abs", "abs"), "fabsf": ("np.abs", "abs"), "abs": ("np.abs", "abs"),
    "exp": ("np.exp", "exp"), "expf": ("np.exp", "exp"),
    "log": ("np.log", "log"), "logf": ("np.log", "log"),
    "pow": ("np.power", "pow"), "powf": ("np.power", "pow"),
    "sin": ("np.sin", "sin"), "cos": ("np.cos", "cos"),
    "floor": ("np.floor", "floor"), "floorf": ("np.floor", "floor"),
    "ceil": ("np.ceil", "ceil"), "ceilf": ("np.ceil", "ceil"),
    "min": ("np.minimum", "minmax"), "fmin": ("np.minimum", "minmax"),
    "fminf": ("np.minimum", "minmax"),
    "max": ("np.maximum", "minmax"), "fmax": ("np.maximum", "minmax"),
    "fmaxf": ("np.maximum", "minmax"),
}

_DTYPES = {"float": "np.float32", "double": "np.float64", "char": "np.int8",
           "int": "np.int32", "unsigned int": "np.uint32",
           "long": "np.int64", "unsigned long": "np.uint64"}


@dataclass
class KernelSourceInfo:
    """Result of vectorization: source text + metadata the runtime needs."""

    name: str
    source: str
    cost: KernelCostInfo
    array_names: list[str]
    scalar_names: list[str]
    inner_labels: list[str]
    #: (op, var) scalar reductions the kernel reports via ctx.
    scalar_reductions: list[tuple[str, str]]
    #: (loop var, strategy) per inner loop, in ``inner_labels`` order.
    inner_strategies: list[tuple[str, str]]


@dataclass
class _Axis:
    """Current lane context."""

    kind: str  # 'outer' | 'csr' | 'block' (a flattened constant loop)
    lanes: str  # Python expression for the lane count
    axis_var: str  # loop variable this axis iterates (for coalescing analysis)
    pos: str | None = None  # csr: vector mapping flat lane -> outer lane index
    gathered: dict[str, str] = field(default_factory=dict)


class Vectorizer:
    """One-shot translator for a single parallel loop."""

    def __init__(
        self,
        kernel_name: str,
        analysis: LoopAnalysis,
        config: LoopConfig,
        scalar_types: dict[str, str],
        local_types: dict[str, str],
        audit: bool = False,
    ) -> None:
        self.kernel_name = kernel_name
        self.audit = audit
        #: Audit variant only: lane mask of the enclosing short-circuit
        #: or ``?:`` guard (None outside one).
        self.guard: str | None = None
        self.an = analysis
        self.config = config
        self.scalar_types = scalar_types
        self.local_types = local_types
        self.cost = CostCollector()
        self.lines: list[str] = []
        self.indent = 1
        self._tmp = 0
        self._label = 0
        self.inner_labels: list[str] = []
        #: (loop var, strategy) per inner loop, for ``repro.explain``.
        self.inner_strategies: list[tuple[str, str]] = []
        #: Inside a flattened loop: deferred store sites per array,
        #: ``name -> (statement, op, [(indices, values, mask)])``.
        self.sites: dict[str, tuple[str, str, list]] | None = None
        self.mask: str | None = None
        self.axis_stack: list[_Axis] = [
            _Axis(kind="outer", lanes="_n", axis_var=analysis.nest.var)
        ]
        #: Names of declared kernel locals -> python name.
        self.locals: dict[str, str] = {}
        #: Axis depth (index into axis_stack) at which a local was declared.
        self.local_axis: dict[str, int] = {}
        #: Inner loop vars of constant loops -> python scalar name.
        self.scalar_vars: dict[str, str] = {}
        #: csr loop vars -> flat vector name.
        self.csr_vars: dict[str, str] = {}
        self.reduction_vars = {v: op for op, v in analysis.scalar_reductions}
        self._inner_by_id = {id(il.stmt): il for il in analysis.inner_loops}
        self.private_names: list[str] = (
            list(analysis.nest.directive.private)
            if analysis.nest.directive is not None else [])

    # -- small utilities -------------------------------------------------------

    @property
    def axis(self) -> _Axis:
        return self.axis_stack[-1]

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def tmp(self, prefix: str = "_t") -> str:
        self._tmp += 1
        return f"{prefix}{self._tmp}"

    def hoist(self, src: str) -> str:
        """Bind ``src`` to a fresh temporary (audit variant: a value the
        access record and the expression both use is computed once;
        flattened loops: a store site's value at its statement)."""
        t = self.tmp("_h")
        self.emit(f"{t} = {src}")
        return t

    def emit_audit(self, name: str, idx_src: str, kind: str) -> None:
        """Audit variant: record one access site's indices per lane."""
        mask = self.guard if self.guard is not None else self.mask
        self.emit(f"ctx.audit({name!r}, {self.outer_lane_expr('_i')}, "
                  f"{idx_src}, {mask or 'None'}, {kind!r})")

    @contextmanager
    def guarded(self, cond_src: str, negate: bool = False):
        """Audit variant: accesses translated inside execute only on the
        lanes where ``cond_src`` holds (negated: fails), as under the
        interpreter's short-circuit and ``?:`` evaluation."""
        saved = self.guard
        outer = saved if saved is not None else self.mask
        cond = f"{'~' if negate else ''}{self._boolify(cond_src)}"
        g = self.tmp("_am")
        self.emit(f"{g} = {cond}" if outer is None
                  else f"{g} = {outer} & {cond}")
        self.guard = g
        try:
            yield
        finally:
            self.guard = saved

    def new_label(self) -> str:
        label = f"L{self._label}"
        self._label += 1
        self.inner_labels.append(label)
        return label

    # -- type inference --------------------------------------------------------

    def expr_type(self, e: C.Expr) -> str:
        """'float' or 'int' (bools count as int)."""
        if isinstance(e, C.FloatLit):
            return "float"
        if isinstance(e, C.IntLit):
            return "int"
        if isinstance(e, C.Ident):
            n = e.name
            if n in self.local_types:
                return "float" if self.local_types[n] in ("float", "double") else "int"
            if n in self.scalar_types:
                return "float" if self.scalar_types[n] in ("float", "double") else "int"
            return "int"  # loop vars and unknowns
        if isinstance(e, C.Index):
            name = e.base_name() if isinstance(e.array, C.Ident) else ""
            cfg = self.config.arrays.get(name)
            if cfg is not None:
                return "float" if cfg.ctype in ("float", "double") else "int"
            return "int"
        if isinstance(e, C.BinOp):
            if e.op in ("<", ">", "<=", ">=", "==", "!=", "&&", "||"):
                return "int"
            lt, rt = self.expr_type(e.left), self.expr_type(e.right)
            return "float" if "float" in (lt, rt) else "int"
        if isinstance(e, C.UnOp):
            return self.expr_type(e.operand) if e.op in ("-", "+") else "int"
        if isinstance(e, C.Ternary):
            lt, rt = self.expr_type(e.then), self.expr_type(e.other)
            return "float" if "float" in (lt, rt) else "int"
        if isinstance(e, C.Call):
            if e.func in ("min", "max", "abs"):
                return self.expr_type(e.args[0]) if e.args else "float"
            return "float"
        if isinstance(e, C.CastExpr):
            return "float" if e.to.is_float else "int"
        if isinstance(e, C.Assign):
            return self.expr_type(e.value)
        raise VectorizeError(f"untyped expression {type(e).__name__}")

    def lane_varying(self, e: C.Expr) -> bool:
        """Does ``e`` differ across lanes of the current axis?"""
        for x in C.walk_expr(e):
            if isinstance(x, C.Ident):
                n = x.name
                if n == self.an.nest.var or n in self.locals or n in self.csr_vars:
                    return True
        return False

    # -- access classification ----------------------------------------------------

    def classify_access(self, name: str, idx: C.Expr) -> str:
        """Coalescing class of an access wrt the current lane axis.

        Kernel locals are data-dependent values (forward substitution is
        not attempted), so an index through one is priced as random --
        the paper's "irregular" accesses.  Affine indices in the axis
        variable are coalesced at |coeff| == 1, lane-invariant at
        coeff == 0, and strided otherwise unless the layout
        transformation (section IV-B4) was applied to this array.
        """
        axis_var = self.axis.axis_var
        if expr_mentions(idx, set(self.locals)):
            return ACCESS_RANDOM
        if self.axis.kind == "csr" and expr_mentions(idx, {self.an.nest.var}):
            # Outer-loop-var index inside the flattened axis: a gather
            # through the position vector.
            return ACCESS_RANDOM
        cfg = self.config.arrays.get(name)
        aff = affine_in(idx, axis_var)
        if aff is None:
            # Symbolic stride (e.g. ``i*nfeatures + f``): not affine with an
            # integer coefficient, but a localaccess window bounds it to a
            # per-iteration strip -- price as strided, not random.
            if cfg is not None and cfg.has_localaccess:
                return (ACCESS_COALESCED if cfg.coalesced_hint
                        else ACCESS_STRIDED)
            return ACCESS_RANDOM
        if aff.coeff == 0:
            return ACCESS_BROADCAST
        if abs(aff.coeff) == 1:
            return ACCESS_COALESCED
        if cfg is not None and cfg.coalesced_hint:
            return ACCESS_COALESCED
        return ACCESS_STRIDED

    # -- expression translation ------------------------------------------------------

    def tx_quiet(self, e: C.Expr) -> str:
        """Translate ``e`` without charging the cost model.

        The span fast paths re-derive the affine *offset* of an index
        expression whose full form was already translated (and priced)
        the normal way; pricing the offset again would change the
        kernel's modeled cost depending on whether a fast path was
        emitted, breaking bit-identical modeled time.
        """
        saved = self.cost
        self.cost = CostCollector()
        try:
            return self.tx(e)
        finally:
            self.cost = saved

    def span_start(self, idx: C.Expr, *, for_store: bool) -> str | None:
        """Offset expression of a unit-stride outer-lane access, or None.

        An access spans ``[off + i0, off + i1)`` contiguously when the
        kernel is on the plain outer axis (CSR flattening reshuffles
        lanes), the index is affine in the loop variable with
        coefficient 1, and the offset is lane-invariant (host scalars,
        literals, and constant-inner-loop variables qualify; kernel
        locals do not).  Stores additionally require no predication
        mask -- a masked load may still span because every lane
        evaluates under predication anyway and the fallback gather is
        value-identical.
        """
        if len(self.axis_stack) != 1 or self.axis.kind != "outer":
            return None
        if for_store and self.mask is not None:
            return None
        aff = affine_in(idx, self.an.nest.var)
        if aff is None or aff.coeff != 1 or self.lane_varying(aff.offset):
            return None
        return self.tx_quiet(aff.offset)

    def tx(self, e: C.Expr) -> str:
        if isinstance(e, C.IntLit):
            return repr(e.value)
        if isinstance(e, C.FloatLit):
            return repr(e.value)
        if isinstance(e, C.Ident):
            return self.tx_ident(e)
        if isinstance(e, C.BinOp):
            return self.tx_binop(e)
        if isinstance(e, C.UnOp):
            return self.tx_unop(e)
        if isinstance(e, C.Ternary):
            c = self.as_bool(e.cond)
            if self.audit:
                c = self.hoist(c)
                with self.guarded(c):
                    a = self.tx(e.then)
                with self.guarded(c, negate=True):
                    b = self.tx(e.other)
            else:
                a = self.tx(e.then)
                b = self.tx(e.other)
            self.cost.flop("cmp")
            return f"np.where({c}, {a}, {b})"
        if isinstance(e, C.Call):
            return self.tx_call(e)
        if isinstance(e, C.Index):
            return self.tx_load(e)
        if isinstance(e, C.CastExpr):
            dt = _DTYPES.get(e.to.base if not e.to.pointers else "long", "np.float64")
            return f"ks.cast_to({self.tx(e.operand)}, {dt})"
        if isinstance(e, C.Assign):
            raise VectorizeError("assignment used as a value", e.line)
        raise VectorizeError(f"unsupported expression {type(e).__name__}")

    def tx_ident(self, e: C.Ident) -> str:
        n = e.name
        if n == self.an.nest.var:
            return self.outer_lane_expr("_i")
        if n in self.csr_vars:
            return self.csr_vars[n]
        if n in self.scalar_vars:
            return self.scalar_vars[n]
        if n in self.reduction_vars:
            raise VectorizeError(
                f"reduction variable {n!r} may only appear in its reduction "
                "statement", e.line,
            )
        if n in self.locals:
            return self.outer_lane_expr(self.locals[n], declared_at=self.local_axis[n])
        if n in self.config.arrays:
            raise VectorizeError(f"array {n!r} used without subscript", e.line)
        if n in self.scalar_types or n in (s for s in self.an.host_scalars):
            return f"v_{n}"
        raise VectorizeError(f"unknown identifier {n!r}", e.line)

    def outer_lane_expr(self, pyname: str, declared_at: int = 0) -> str:
        """Value of a lane vector, gathered into a csr axis if needed.

        Only csr loops push a new axis, so the lane structure changes
        exactly when the current axis is csr and the variable was
        declared at a shallower depth: each flat (i, e) lane then reads
        its outer lane's value through the position vector.
        """
        cur_depth = len(self.axis_stack) - 1
        if declared_at >= cur_depth or self.axis.kind != "csr":
            return pyname
        ax = self.axis
        if pyname not in ax.gathered:
            g = self.tmp("_g")
            assert ax.pos is not None
            self.emit(f"{g} = ks.ld({pyname}, {ax.pos}) if isinstance({pyname}, "
                      f"np.ndarray) else {pyname}")
            ax.gathered[pyname] = g
        return ax.gathered[pyname]

    def tx_binop(self, e: C.BinOp) -> str:
        op = e.op
        lt = self.expr_type(e.left)
        rt = self.expr_type(e.right)
        is_float = "float" in (lt, rt)
        l = self.tx(e.left)
        if self.audit and op in ("&&", "||"):
            l = self.hoist(l)
            with self.guarded(l, negate=op == "||"):
                r = self.tx(e.right)
        else:
            r = self.tx(e.right)
        if op == "&&":
            self.cost.intop()
            return f"({self._boolify(l)} & {self._boolify(r)})"
        if op == "||":
            self.cost.intop()
            return f"({self._boolify(l)} | {self._boolify(r)})"
        if op in ("<", ">", "<=", ">=", "==", "!="):
            self.cost.flop("cmp") if is_float else self.cost.intop()
            return f"({l} {op} {r})"
        if op == "/":
            if is_float:
                self.cost.flop("/")
                return f"({l} / {r})"
            self.cost.intop(4)
            return f"({l} // {r})"
        if op == "%":
            self.cost.flop("%") if is_float else self.cost.intop(4)
            return f"({l} % {r})"
        if op in ("+", "-", "*"):
            self.cost.flop(op) if is_float else self.cost.intop()
            return f"({l} {op} {r})"
        if op in ("<<", ">>", "&", "|", "^"):
            self.cost.intop()
            return f"({l} {op} {r})"
        raise VectorizeError(f"unsupported binary operator {op!r}", e.line)

    def _boolify(self, src: str) -> str:
        return f"(np.asarray({src}) != 0)"

    def tx_unop(self, e: C.UnOp) -> str:
        v = self.tx(e.operand)
        if e.op == "-":
            self.cost.flop("-") if self.expr_type(e.operand) == "float" else self.cost.intop()
            return f"(-{v})"
        if e.op == "+":
            return v
        if e.op == "!":
            self.cost.intop()
            return f"(~{self._boolify(v)})"
        if e.op == "~":
            self.cost.intop()
            return f"(~{v})"
        raise VectorizeError(f"unsupported unary operator {e.op!r}", e.line)

    def as_bool(self, e: C.Expr) -> str:
        src = self.tx(e)
        if isinstance(e, C.BinOp) and e.op in ("<", ">", "<=", ">=", "==", "!=",
                                               "&&", "||"):
            return src
        if isinstance(e, C.UnOp) and e.op == "!":
            return src
        return self._boolify(src)

    def tx_call(self, e: C.Call) -> str:
        if e.func in _MATH_CALLS:
            pyfn, costkind = _MATH_CALLS[e.func]
            args = ", ".join(self.tx(a) for a in e.args)
            self.cost.flop(costkind)
            return f"{pyfn}({args})"
        raise VectorizeError(f"unsupported function call {e.func!r}", e.line)

    def tx_load(self, e: C.Index) -> str:
        name = e.base_name()
        cfg = self.config.arrays.get(name)
        if cfg is None:
            raise VectorizeError(f"access to unmanaged array {name!r}", e.line)
        idx = self.linear_index(e)
        idx_src = self.tx(idx)
        if self.audit:
            idx_src = self.hoist(idx_src)
            self.emit_audit(name, idx_src, "r")
        self.cost.intop(1)
        self.cost.access(_itemsize(cfg.ctype), self.classify_access(name, idx))
        slow = f"ks.ld(v_{name}, ({idx_src}) - _b_{name})"
        off = self.span_start(idx, for_store=False)
        if off is None:
            return slow
        # Unit-stride gather -> slice: a view when this kernel never
        # stores to the array, else a copy (a view could alias a later
        # in-place span store).  Out-of-range spans fall back to the
        # clipped gather inside ld_span, so values match ks.ld exactly.
        copy = "True" if cfg.written else "False"
        fast = (f"ks.ld_span(v_{name}, ({off}) + ctx.i0 - _b_{name}, _n, "
                f"{copy})")
        return f"({fast} if ctx.fastpath else {slow})"

    def linear_index(self, e: C.Index) -> C.Expr:
        if len(e.indices) != 1:
            raise VectorizeError(
                "multi-dimensional subscripts must be linearized (the paper's "
                "prototype shares this 1-D limitation, section VI)", e.line)
        return e.indices[0]

    # -- statements -----------------------------------------------------------------

    def emit_stmt(self, s: C.Stmt) -> None:
        red = self._reduction_directive(s)
        if red is not None:
            self.emit_reduction_to_array(s, red)
            return
        if isinstance(s, C.Compound):
            for st in s.body:
                self.emit_stmt(st)
        elif isinstance(s, C.Decl):
            self.emit_decl(s)
        elif isinstance(s, C.ExprStmt):
            if s.expr is None:
                return
            if isinstance(s.expr, C.Assign):
                self.emit_assign(s.expr)
            elif isinstance(s.expr, C.Call):
                if s.expr.func in ("printf", "fprintf"):
                    self.emit(f"pass  # {s.expr.func} elided in kernel")
                else:
                    self.tx(s.expr)  # side-effect-free; evaluate for errors
            else:
                raise VectorizeError("expression statement has no effect", s.line)
        elif isinstance(s, C.If):
            self.emit_if(s)
        elif isinstance(s, C.For):
            self.emit_inner_loop(s)
        elif isinstance(s, (C.Break, C.Continue)):
            raise VectorizeError("break/continue not allowed in parallel bodies",
                                 s.line)
        elif isinstance(s, C.Return):
            raise VectorizeError("return not allowed in parallel bodies", s.line)
        elif isinstance(s, C.While):
            raise VectorizeError("while loops not allowed in parallel bodies",
                                 s.line)
        else:
            raise VectorizeError(f"unsupported statement {type(s).__name__}", s.line)

    def _reduction_directive(self, s: C.Stmt) -> AccReductionToArray | None:
        for d in s.directives:
            if isinstance(d, AccReductionToArray):
                return d
        return None

    def emit_decl(self, s: C.Decl) -> None:
        if s.ctype.is_arraylike:
            raise VectorizeError("local arrays are not supported in kernels",
                                 s.line)
        pyname = f"v_{s.name}"
        dt = _DTYPES.get(s.ctype.base, "np.float64")
        if s.init is not None:
            val = self.tx(s.init)
        else:
            val = "0"
        self.emit(f"{pyname} = ks.bcv({val}, {self.axis.lanes}, {dt})")
        self.locals[s.name] = pyname
        self.local_axis[s.name] = len(self.axis_stack) - 1
        self.local_types[s.name] = s.ctype.base

    def emit_assign(self, a: C.Assign) -> None:
        if isinstance(a.target, C.Ident):
            self.emit_scalar_assign(a)
        elif isinstance(a.target, C.Index):
            self.emit_store(a)
        elif isinstance(a.target, C.UnOp) and a.target.op == "*":
            raise VectorizeError(
                "pointer-dereference stores are not supported; use a scalar "
                "reduction clause or reductiontoarray", a.line)
        else:
            raise VectorizeError("unsupported assignment target", a.line)

    def emit_scalar_assign(self, a: C.Assign) -> None:
        name = a.target.name  # type: ignore[union-attr]
        if name in self.reduction_vars:
            self.emit_scalar_reduction(name, a)
            return
        if name not in self.locals:
            raise VectorizeError(
                f"assignment to non-local {name!r}: host scalars are read-only "
                "in kernels (use a reduction clause)", a.line)
        pyname = self.locals[name]
        declared_at = self.local_axis[name]
        cur_depth = len(self.axis_stack) - 1
        if declared_at < cur_depth and self.axis.kind == "csr":
            # Cross-axis update: only '+=' (segmented accumulation) is sound.
            if a.op != "+":
                raise VectorizeError(
                    f"only '+=' updates of outer variable {name!r} are "
                    "supported inside a data-dependent inner loop", a.line)
            val = self.tx(a.value)
            pos = self.axis.pos
            assert pos is not None
            if self.mask is None:
                self.emit(f"np.add.at({pyname}, {pos}, {val})")
            else:
                self.emit(f"np.add.at({pyname}, {pos}[{self.mask}], "
                          f"ks.msel(ks.bcv({val}, {self.axis.lanes}, None), {self.mask}))")
            self.cost.intop(2)
            self.cost.serialize(2.0)
            # Invalidate gather cache for this variable.
            self.axis.gathered.pop(pyname, None)
            return
        if a.op:
            cur = self.outer_lane_expr(pyname, declared_at)
            val_src = self.tx(a.value)
            is_float = self.expr_type(a.value) == "float" or \
                self.local_types.get(name) in ("float", "double")
            newv = self._apply_op(cur, a.op, val_src, is_float)
        else:
            newv = self.tx(a.value)
        # Round to the variable's declared type (C/Fortran assignment
        # semantics): without this, a float64 literal silently upgrades
        # a float local and the accumulation precision drifts.
        dt = _DTYPES.get(self.local_types.get(name, ""), "None")
        self.emit(f"{pyname} = ks.merge({pyname}, ks.bcv({newv}, "
                  f"{self._axis_lanes_for(declared_at)}, {dt}), "
                  f"{self.mask_for(declared_at)})")

    def _axis_lanes_for(self, declared_at: int) -> str:
        return self.axis_stack[declared_at].lanes

    def mask_for(self, declared_at: int) -> str:
        """Mask applicable to a variable declared at the given axis depth."""
        if declared_at == len(self.axis_stack) - 1:
            return self.mask if self.mask is not None else "None"
        # Variable lives on an outer axis while we're deeper: assignment to
        # it from a nested *same-axis* construct (constant inner loop) uses
        # the current mask directly since lanes coincide.
        if self.axis.kind != "csr":
            return self.mask if self.mask is not None else "None"
        raise VectorizeError("direct assignment to an outer variable from a "
                             "flattened inner loop")

    def _apply_op(self, cur: str, op: str, val: str, is_float: bool) -> str:
        if op == "/" and not is_float:
            self.cost.intop(4)
            return f"({cur} // {val})"
        kind = op if op in ("+", "-", "*", "/", "%") else None
        if kind and is_float:
            self.cost.flop(kind)
        else:
            self.cost.intop()
        if op in ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"):
            return f"({cur} {op} {val})"
        raise VectorizeError(f"unsupported compound op {op!r}")

    def emit_scalar_reduction(self, name: str, a: C.Assign) -> None:
        op = self.reduction_vars[name]
        if a.op:
            if not _op_matches(a.op, op):
                raise VectorizeError(
                    f"reduction variable {name!r} declared with {op!r} but "
                    f"updated with {a.op!r}=", a.line)
            contrib = self.tx(a.value)
        else:
            # Pattern: var = var op expr  /  var = max(var, expr) etc.
            contrib = self._extract_reduction_contrib(name, op, a.value)
        acc = f"_racc_{name}"
        self.emit(f"{acc} = ks.red_fold({op!r}, {acc}, {contrib}, "
                  f"{self.mask or 'None'}, {self.axis.lanes})")
        self.cost.flop("minmax" if op in ("max", "min") else "cmp")

    def _extract_reduction_contrib(self, name: str, op: str, value: C.Expr) -> str:
        if isinstance(value, C.BinOp) and _op_matches(value.op, op):
            if isinstance(value.left, C.Ident) and value.left.name == name:
                return self.tx(value.right)
            if isinstance(value.right, C.Ident) and value.right.name == name:
                return self.tx(value.left)
        if isinstance(value, C.Call) and value.func in ("min", "max", "fmin",
                                                        "fmax", "fminf", "fmaxf") \
                and _op_matches(value.func.lstrip("f").rstrip("f") , op):
            args = value.args
            if isinstance(args[0], C.Ident) and args[0].name == name:
                return self.tx(args[1])
            if isinstance(args[1], C.Ident) and args[1].name == name:
                return self.tx(args[0])
        raise VectorizeError(
            f"statement does not match the declared {op!r} reduction on "
            f"{name!r}")

    # -- array stores -------------------------------------------------------------------

    def emit_store(self, a: C.Assign) -> None:
        target: C.Index = a.target  # type: ignore[assignment]
        name = target.base_name()
        cfg = self.config.arrays.get(name)
        if cfg is None:
            raise VectorizeError(f"store to unmanaged array {name!r}", a.line)
        if cfg.write_handling == WriteHandling.REDUCTION:
            raise VectorizeError(
                f"store to reduction destination {name!r} without a "
                "reductiontoarray annotation", a.line)
        idx = self.linear_index(target)
        idx_src = self.tx(idx)
        access = self.classify_access(name, idx)
        if a.op and access == ACCESS_RANDOM and cfg.placement == Placement.REPLICA:
            raise VectorizeError(
                f"irregular compound update of {name!r} is a complicated "
                "reduction; annotate it with '#pragma acc reductiontoarray' "
                "(paper section III-B)", a.line)
        val_src = self.tx(a.value)
        if self.audit:
            idx_src = self.hoist(idx_src)
            self.emit_audit(name, idx_src, "w")
        self.cost.intop(1)
        self.cost.access(_itemsize(cfg.ctype), access)
        if a.op:
            # Compound store: read-modify-write -- one extra access plus
            # the combining operation itself.
            self.cost.access(_itemsize(cfg.ctype), access)
            if cfg.ctype in ("float", "double"):
                self.cost.flop(a.op if a.op in ("+", "-", "*", "/") else "cmp")
            else:
                self.cost.intop()
        if a.op:
            self.cost.serialize(2.0)
        handling = cfg.write_handling
        # Cost charges above are unconditional: the kernel carries both
        # the span fast path and the original scatter path, branching on
        # ctx.fastpath at run time, and its modeled cost must not depend
        # on which branch executes.
        if handling == WriteHandling.DIRTY_BITS:
            # Dirty-bit instrumentation cost (one byte flag + chunk bit).
            self.cost.access(1, ACCESS_RANDOM)
            self.cost.intop(2)
        elif handling == WriteHandling.MISS_CHECK:
            self.cost.intop(4)
        if self.sites is not None:
            self.add_site(name, "store", a.op, idx_src, val_src)
            return

        def emit_slow() -> None:
            gi = self.tmp("_gi")
            gv = self.tmp("_gv")
            self.emit(f"{gi} = ks.msel(ks.bcv({idx_src}, {self.axis.lanes}, "
                      f"np.int64), {self.mask or 'None'})")
            self.emit(f"{gv} = ks.msel(ks.bcv({val_src}, {self.axis.lanes}, "
                      f"None), {self.mask or 'None'})")
            if handling == WriteHandling.MISS_CHECK:
                self.emit(f"ctx.write_checked({name!r}, {gi}, {gv}, {a.op!r})")
            else:
                self.emit(f"ks.store(v_{name}, {gi} - _b_{name}, {gv}, "
                          f"{a.op!r})")
                if handling == WriteHandling.DIRTY_BITS:
                    self.emit(f"ctx.mark_dirty({name!r}, {gi})")

        off = self.span_start(idx, for_store=True)
        if off is None:
            # A predicated plain store may still span: masked copyto over
            # the slice writes exactly the active lanes, and flatnonzero
            # recovers their global indices for exact dirty marking (the
            # marks must not widen -- transfer bytes are modeled).
            if (self.mask is not None and not a.op
                    and handling != WriteHandling.MISS_CHECK):
                moff = self.span_start(idx, for_store=False)
                if moff is not None:
                    s = self.tmp("_s")
                    self.emit(f"{s} = ({moff}) + ctx.i0")
                    self.emit(f"if ctx.fastpath and 0 <= {s} - _b_{name} and "
                              f"{s} - _b_{name} + _n <= v_{name}.shape[0]:")
                    self.indent += 1
                    self.emit(f"ks.store_span_masked(v_{name}, "
                              f"{s} - _b_{name}, _n, {val_src}, {self.mask})")
                    if handling == WriteHandling.DIRTY_BITS:
                        self.emit(f"ctx.mark_dirty({name!r}, "
                                  f"np.flatnonzero({self.mask}) + {s})")
                    self.indent -= 1
                    self.emit("else:")
                    self.indent += 1
                    emit_slow()
                    self.indent -= 1
                    return
            emit_slow()
            return
        s = self.tmp("_s")
        self.emit(f"{s} = ({off}) + ctx.i0")
        if handling == WriteHandling.MISS_CHECK:
            # The span form performs the window check itself (misses
            # become one ascending record), so no bounds guard here.
            self.emit(f"if ctx.fastpath:")
            self.indent += 1
            self.emit(f"ctx.write_checked_span({name!r}, {s}, {s} + _n, "
                      f"{val_src}, {a.op!r})")
            self.indent -= 1
        else:
            # Out-of-range spans take the original path so its error
            # behavior (IndexError from the scatter) is preserved.
            self.emit(f"if ctx.fastpath and 0 <= {s} - _b_{name} and "
                      f"{s} - _b_{name} + _n <= v_{name}.shape[0]:")
            self.indent += 1
            self.emit(f"ks.store_span(v_{name}, {s} - _b_{name}, _n, "
                      f"{val_src}, {a.op!r})")
            if handling == WriteHandling.DIRTY_BITS:
                self.emit(f"ctx.mark_dirty_span({name!r}, {s}, _n)")
            self.indent -= 1
        self.emit("else:")
        self.indent += 1
        emit_slow()
        self.indent -= 1

    def emit_reduction_to_array(self, s: C.Stmt, d: AccReductionToArray) -> None:
        if not (isinstance(s, C.ExprStmt) and isinstance(s.expr, C.Assign)
                and isinstance(s.expr.target, C.Index)):
            raise VectorizeError(
                "reductiontoarray must annotate a single 'dest[idx] op= value' "
                "statement", s.line)
        a = s.expr
        target: C.Index = a.target  # type: ignore[assignment]
        name = target.base_name()
        if name != d.array:
            raise VectorizeError(
                f"reductiontoarray names {d.array!r} but the statement updates "
                f"{name!r}", s.line)
        if not a.op or not _op_matches(a.op, d.op):
            raise VectorizeError(
                f"reductiontoarray({d.op}) must annotate a compound "
                f"'{d.op}=' update", s.line)
        idx_src = self.tx(self.linear_index(target))
        val_src = self.tx(a.value)
        self.cost.intop(2)
        # Priced as coalesced read-modify-write: the translator emits the
        # hierarchical reduction (shared memory within a block, then per
        # GPU, section IV-B4), so the accumulations never hit DRAM at
        # scatter cost; the serialization factor covers the merge steps.
        self.cost.access(_itemsize(self.config.arrays[name].ctype) * 2,
                         ACCESS_COALESCED)
        self.cost.serialize(2.0)
        if self.sites is not None:
            self.add_site(name, "reduce", d.op, idx_src, val_src)
            return
        gi = self.tmp("_gi")
        gv = self.tmp("_gv")
        self.emit(f"{gi} = ks.msel(ks.bcv({idx_src}, {self.axis.lanes}, np.int64), "
                  f"{self.mask or 'None'})")
        self.emit(f"{gv} = ks.msel(ks.bcv({val_src}, {self.axis.lanes}, None), "
                  f"{self.mask or 'None'})")
        self.emit(f"ctx.reduce_to_array({name!r}, {gi}, {gv}, {d.op!r})")

    def add_site(self, name: str, stmt: str, op: str, idx_src: str,
                 val_src: str) -> None:
        """Flattened loop: bind one store site's indices and values
        (under the current mask) for the block's combined store.

        Both are bound to fresh temporaries here, even plain names: a
        body local stored now may be reassigned (rebound by
        ``ks.merge`` or a sibling declaration) before the block's
        stores are issued."""
        assert self.sites is not None
        gi = self.hoist(idx_src)
        gv = self.hoist(val_src)
        entry = self.sites.setdefault(name, (stmt, op, []))
        entry[2].append((gi, gv, self.mask))

    def emit_block_stores(self, shape: str) -> None:
        """Issue each array's deferred sites as one store, in the
        sequential ``(j, statement, lane)`` order."""
        assert self.sites is not None
        for name, (stmt, op, sites) in self.sites.items():
            gi = self.tmp("_gi")
            gv = self.tmp("_gv")
            listing = ", ".join(f"({i}, {v}, {m or 'None'})"
                                for i, v, m in sites)
            self.emit(f"{gi}, {gv} = ks.block_sites({shape}, [{listing}])")
            handling = self.config.arrays[name].write_handling
            if stmt == "reduce":
                self.emit(f"ctx.reduce_to_array({name!r}, {gi}, {gv}, "
                          f"{op!r})")
            elif handling == WriteHandling.MISS_CHECK:
                self.emit(f"ctx.write_checked({name!r}, {gi}, {gv}, {op!r})")
            else:
                self.emit(f"ks.store(v_{name}, {gi} - _b_{name}, {gv}, "
                          f"{op!r})")
                if handling == WriteHandling.DIRTY_BITS:
                    self.emit(f"ctx.mark_dirty({name!r}, {gi})")

    # -- control flow ----------------------------------------------------------------------

    def emit_if(self, s: C.If) -> None:
        cond_src = self.as_bool(s.cond)
        c = self.tmp("_c")
        self.emit(f"{c} = ks.bcv({cond_src}, {self.axis.lanes}, bool)")
        outer_mask = self.mask
        m_then = self.tmp("_m")
        if outer_mask is None:
            self.emit(f"{m_then} = {c}")
        else:
            self.emit(f"{m_then} = {outer_mask} & {c}")
        self.mask = m_then
        self.emit_stmt(s.then)
        if s.orelse is not None:
            m_else = self.tmp("_m")
            if outer_mask is None:
                self.emit(f"{m_else} = ~{c}")
            else:
                self.emit(f"{m_else} = {outer_mask} & ~{c}")
            self.mask = m_else
            self.emit_stmt(s.orelse)
        self.mask = outer_mask

    def emit_inner_loop(self, s: C.For) -> None:
        il = self._inner_by_id.get(id(s))
        if il is None:
            raise VectorizeError("unanalyzed inner loop", s.line)
        if il.kind == "opaque":
            raise VectorizeError(
                "inner loop bounds are neither lane-invariant nor CSR-shaped",
                s.line)
        if not is_unit_step(s.step, il.var):
            raise VectorizeError(
                f"inner loop step must be '{il.var}++' (unit stride)", s.line)
        if il.kind == "csr":
            self.inner_strategies.append(
                (il.var,
                 f"CSR (flattened ({self.an.nest.var}, {il.var}) lanes)"))
            self.emit_csr_loop(s, il)
        else:
            self.emit_constant_loop(s, il)

    def emit_constant_loop(self, s: C.For, il: InnerLoop) -> None:
        assert il.lower is not None and il.upper is not None
        label = self.new_label()
        lo_varying = self.lane_varying(il.lower)
        hi_varying = self.lane_varying(il.upper)
        jname = f"_j_{il.var}"
        lo = self.tmp("_lo")
        hi = self.tmp("_hi")
        self.emit(f"{lo} = {self.tx(il.lower)}")
        self.emit(f"{hi} = {self.tx(il.upper)}")
        if not lo_varying and not hi_varying:
            self.emit(f"ctx.dyn_count({label!r}, max(0, int({hi}) - int({lo})) * "
                      f"ks.lanes_of({self.mask or 'None'}, {self.axis.lanes}))")
            blocker = self.flatten_blocker(s, il)
            if blocker is None:
                self.inner_strategies.append(
                    (il.var, f"flattened onto ({il.var}, lane) blocks"))
                self.emit_flat_loop(s, il, label, lo, hi)
                return
            self.inner_strategies.append((il.var, f"sequential: {blocker}"))
            self.emit(f"for {jname} in range(int({lo}), int({hi})):")
            self.scalar_vars[il.var] = jname
            self.indent += 1
            self.cost.push(label)
            self.emit_stmt(s.body)
            self.cost.pop()
            self.indent -= 1
            del self.scalar_vars[il.var]
        else:
            # Lane-varying affine bounds: iterate the union range with a
            # per-lane bounds mask.
            self.inner_strategies.append(
                (il.var, "sequential: lane-varying bounds"))
            lov = self.tmp("_lov")
            hiv = self.tmp("_hiv")
            self.emit(f"{lov} = ks.bcv({lo}, {self.axis.lanes}, np.int64)")
            self.emit(f"{hiv} = ks.bcv({hi}, {self.axis.lanes}, np.int64)")
            self.emit(f"ctx.dyn_count({label!r}, int(np.maximum("
                      f"ks.msel({hiv}, {self.mask or 'None'}) - "
                      f"ks.msel({lov}, {self.mask or 'None'}), 0).sum()))")
            self.emit(f"for {jname} in range(int({lov}.min()) if {lov}.size else 0, "
                      f"int({hiv}.max()) if {hiv}.size else 0):")
            self.scalar_vars[il.var] = jname
            self.indent += 1
            outer_mask = self.mask
            bm = self.tmp("_m")
            cond = f"(({jname} >= {lov}) & ({jname} < {hiv}))"
            if outer_mask is None:
                self.emit(f"{bm} = {cond}")
            else:
                self.emit(f"{bm} = {outer_mask} & {cond}")
            self.mask = bm
            self.cost.push(label)
            self.emit_stmt(s.body)
            self.cost.pop()
            self.mask = outer_mask
            self.indent -= 1
            del self.scalar_vars[il.var]

    def flatten_blocker(self, s: C.For, il: InnerLoop) -> str | None:
        """Why a lane-invariant constant loop must stay sequential, or
        None when it is independent (the rules in the module
        docstring) and flattens onto a (j, lane) block."""
        if self.axis.kind != "outer":
            return "inside a CSR loop"
        declared: set[str] = set()
        stores: dict[str, tuple[str, str, str]] = {}
        loads: set[str] = set()
        sliced: str | None = None
        for st in C.walk(s.body):
            if isinstance(st, C.For):
                return "contains a nested inner loop"
            if isinstance(st, C.Decl):
                if st.name in self.locals:
                    return f"local `{st.name}` shadows an outer local"
                declared.add(st.name)
            red = self._reduction_directive(st)
            for e in C.stmt_exprs(st):
                if self._j_escapes(e, il.var):
                    return f"`{il.var}` used in non-integer arithmetic"
                target = e.target if isinstance(e, C.Assign) else None
                if isinstance(target, C.Ident):
                    if target.name in self.reduction_vars:
                        return f"updates scalar reduction `{target.name}`"
                    if target.name not in declared:
                        return (f"local `{target.name}` carried across "
                                "iterations")
                elif isinstance(target, C.Index):
                    name = target.base_name()
                    key = ("reduce" if red is not None else "store", e.op,
                           self.expr_type(e.value))
                    if stores.setdefault(name, key) != key:
                        return (f"stores to `{name}` with different ops "
                                "or value types")
                loads.update(x.base_name() for x in C.walk_expr(e)
                             if isinstance(x, C.Index) and x is not target)
                if sliced is None:
                    sliced = next((x.base_name() for x in C.walk_expr(e)
                                   if isinstance(x, C.Index)
                                   and self._unit_stride(x, il.var,
                                                         declared)),
                                  None)
        both = sorted(loads & set(stores))
        if both:
            return f"reads `{both[0]}`, which it stores to"
        if sliced is not None:
            return (f"`{sliced}` is unit-stride in `{self.an.nest.var}` "
                    f"(one slice per `{il.var}`)")
        return None

    def _unit_stride(self, x: C.Index, var: str, declared: set[str]) -> bool:
        """Would the sequential form read or write a different
        contiguous slice per ``var`` for this access (see
        :meth:`span_start`)?  A flattened block gathers it instead,
        which costs more once the outer lanes are wide, so such loops
        stay sequential.  A ``var``-invariant access (``w[i]``) is one
        gather per block, cheaper than a slice per ``var``."""
        if len(x.indices) != 1:
            return False
        aff = affine_in(x.indices[0], self.an.nest.var)
        return (aff is not None and aff.coeff == 1
                and expr_mentions(aff.offset, {var})
                and not self.lane_varying(aff.offset)
                and not expr_mentions(aff.offset, declared))

    def _j_escapes(self, e: C.Expr, var: str) -> bool:
        """Does a value computed from ``var`` reach non-integer
        arithmetic in ``e``?  A sequential loop's ``var`` is a Python
        int, which NumPy treats as weakly typed (``float32 * j`` stays
        float32); the flattened loop's is an int64 array, which would
        promote.  Subscripts, casts, logical operators and ``?:``
        conditions end the dependence; integer arithmetic and integer
        comparisons carry it, and give equal values either way."""
        escapes = False

        def visit(x: C.Expr) -> bool:
            nonlocal escapes
            if isinstance(x, C.Ident):
                return x.name == var
            if isinstance(x, (C.Index, C.CastExpr)) or (
                    isinstance(x, C.BinOp) and x.op in ("&&", "||")) or (
                    isinstance(x, C.UnOp) and x.op == "!"):
                for c in C.child_exprs(x):
                    visit(c)
                return False
            if isinstance(x, C.Ternary):
                visit(x.cond)
                tainted = visit(x.then) | visit(x.other)
            else:
                tainted = False
                for c in C.child_exprs(x):
                    tainted |= visit(c)
            if tainted and not isinstance(x, C.Assign) and (
                    self.expr_type(x) != "int" or (
                        isinstance(x, C.BinOp) and "float" in (
                            self.expr_type(x.left),
                            self.expr_type(x.right)))):
                escapes = True
            return tainted

        visit(e)
        return escapes

    def emit_flat_loop(self, s: C.For, il: InnerLoop, label: str, lo: str,
                       hi: str) -> None:
        """Emit an independent constant loop as j-major lane blocks.

        The body is translated once against a ``block`` axis whose
        lanes are the block shape; ``j`` is lane-invariant for cost
        classification, exactly as in the sequential form, so the
        charges are the same.  Locals declared in the body go out of
        scope at the end of the loop, as in C.
        """
        jname = f"_jb_{il.var}"
        shape = self.tmp("_sh")
        self.emit(f"for {jname}, {shape} in ks.jblocks(int({lo}), int({hi}), "
                  f"{self.axis.lanes}):")
        self.indent += 1
        scope = (dict(self.locals), dict(self.local_axis))
        self.axis_stack.append(
            _Axis(kind="block", lanes=shape, axis_var=self.axis.axis_var))
        self.scalar_vars[il.var] = jname
        self.sites = {}
        start = len(self.lines)
        self.cost.push(label)
        self.emit_stmt(s.body)
        self.cost.pop()
        self.emit_block_stores(shape)
        if len(self.lines) == start:
            self.emit("pass")
        self.sites = None
        del self.scalar_vars[il.var]
        self.axis_stack.pop()
        self.locals, self.local_axis = scope
        self.indent -= 1

    def emit_csr_loop(self, s: C.For, il: InnerLoop) -> None:
        if self.axis.kind != "outer":
            raise VectorizeError("nested data-dependent inner loops are not "
                                 "supported", s.line)
        assert il.lower is not None and il.upper is not None
        label = self.new_label()
        lo = self.tmp("_lo")
        hi = self.tmp("_hi")
        self.emit(f"{lo} = ks.bcv({self.tx(il.lower)}, {self.axis.lanes}, np.int64)")
        self.emit(f"{hi} = ks.bcv({self.tx(il.upper)}, {self.axis.lanes}, np.int64)")
        act = self.tmp("_act")
        if self.mask is None:
            self.emit(f"{act} = np.arange({self.axis.lanes})")
        else:
            self.emit(f"{act} = np.nonzero({self.mask})[0]")
        cnt = self.tmp("_cnt")
        self.emit(f"{cnt} = np.maximum({hi}[{act}] - {lo}[{act}], 0)")
        self.emit(f"ctx.dyn_count({label!r}, int({cnt}.sum()))")
        pos = self.tmp("_pos")
        evar = f"_e_{il.var}"
        self.emit(f"{pos} = np.repeat({act}, {cnt})")
        self.emit(f"{evar} = ks.flat_ranges({lo}[{act}], {cnt})")
        # Enter the flattened axis.
        outer_mask = self.mask
        self.mask = None
        self.axis_stack.append(
            _Axis(kind="csr", lanes=f"{evar}.size", axis_var=il.var, pos=pos)
        )
        self.csr_vars[il.var] = evar
        if self.audit:
            # Gather the flat lanes' iterations once, at axis level.
            self.outer_lane_expr("_i")
        self.cost.push(label)
        self.emit_stmt(s.body)
        self.cost.pop()
        del self.csr_vars[il.var]
        self.axis_stack.pop()
        self.mask = outer_mask

    # -- driver ------------------------------------------------------------------------------

    def generate(self) -> KernelSourceInfo:
        nest = self.an.nest
        header = [
            f"def kernel(ctx):",
            f"    np = ctx.np",
            f"    ks = ctx.ks",
            f"    _n = ctx.i1 - ctx.i0",
            f"    if _n <= 0:",
            f"        return",
            # ctx.iota() memoizes the lane-index vector across launches
            # with the same geometry (read-only; ks.bcv copies on write).
            f"    _i = (ctx.iota() if ctx.fastpath"
            f" else np.arange(ctx.i0, ctx.i1, dtype=np.int64))",
        ]
        for name in sorted(self.config.arrays):
            header.append(f"    v_{name} = ctx.arrays[{name!r}]")
            header.append(f"    _b_{name} = ctx.base[{name!r}]")
        for name in sorted(set(self.an.host_scalars)):
            header.append(f"    v_{name} = ctx.scalars[{name!r}]")
        for op, var in self.an.scalar_reductions:
            header.append(f"    _racc_{var} = ks.red_identity({op!r})")
        for name in self.private_names:
            dt = _DTYPES.get(self.local_types.get(name, "float"),
                             "np.float64")
            header.append(f"    v_{name} = ks.bcv(0, _n, {dt})")
            self.locals[name] = f"v_{name}"
            self.local_axis[name] = 0
        self.lines = []
        self.emit_stmt(nest.body)
        footer = []
        for op, var in self.an.scalar_reductions:
            footer.append(f"    ctx.reduce_scalar({op!r}, {var!r}, _racc_{var})")
        source = "\n".join(header + self.lines + footer) + "\n"
        return KernelSourceInfo(
            name=self.kernel_name,
            source=source,
            cost=KernelCostInfo(buckets=self.cost.buckets),
            array_names=sorted(self.config.arrays),
            scalar_names=sorted(set(self.an.host_scalars)),
            inner_labels=list(self.inner_labels),
            scalar_reductions=list(self.an.scalar_reductions),
            inner_strategies=list(self.inner_strategies),
        )


def _itemsize(ctype: str) -> int:
    return {"char": 1, "int": 4, "unsigned int": 4, "float": 4,
            "long": 8, "unsigned long": 8, "double": 8}.get(ctype, 4)


def _op_matches(stmt_op: str, red_op: str) -> bool:
    if stmt_op == red_op:
        return True
    return {"max": "max", "min": "min"}.get(stmt_op) == red_op


#: Source-text-keyed kernel callables: generated kernels are pure
#: functions of ``ctx`` (no free variables, no module state), so one
#: exec'd callable serves every program that generates identical
#: source -- recompiles with ``cache=False`` and repeated runs skip the
#: compile+exec entirely.
_EXEC_CACHE: dict[str, Any] = {}
_EXEC_CACHE_MAX = 512


def vectorize_loop(kernel_name: str, analysis: LoopAnalysis,
                   config: LoopConfig, scalar_types: dict[str, str],
                   local_types: dict[str, str],
                   audit: bool = False) -> KernelSourceInfo:
    """Generate one parallel loop's kernel (``audit=True``: its audit
    variant, see the module docstring)."""
    return Vectorizer(kernel_name, analysis, config, scalar_types,
                      dict(local_types), audit=audit).generate()


def compile_kernel_source(info: KernelSourceInfo):
    """Exec the generated source and return the kernel callable."""
    fn = _EXEC_CACHE.get(info.source)
    if fn is None:
        namespace: dict = {}
        code = compile(info.source, f"<kernel {info.name}>", "exec")
        exec(code, namespace)
        fn = namespace["kernel"]
        if len(_EXEC_CACHE) >= _EXEC_CACHE_MAX:
            _EXEC_CACHE.clear()
        _EXEC_CACHE[info.source] = fn
    return fn


def format_source(info: KernelSourceInfo) -> str:
    """Generated source with a provenance banner (for dumps/tests)."""
    banner = f"# kernel {info.name}: generated by repro.translator.vectorizer\n"
    return banner + textwrap.dedent(info.source)
