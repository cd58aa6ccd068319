"""Scalar reference interpreter for parallel-loop bodies.

Runs a kernel body one iteration at a time with real control flow --
no predication, no flattening -- against the same
:class:`~repro.runtime.kernelctx.KernelContext` API the generated
vectorized kernels use.  It is the semantic oracle: property-based
tests execute random programs through both engines and require
identical effects (array contents, dirty sets, miss records, reduction
partials).  It reports each inner loop's trips under the vectorizer's
labels (``ctx.dyn_count``), so both engines also price a launch alike.

The expression evaluator is shared with the host-program executor
(:mod:`repro.translator.host`), which interprets the *non-offloaded*
parts of the OpenACC program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..frontend import cast as C
from ..frontend.directives import AccReductionToArray
from .array_config import LoopConfig, WriteHandling
from .kernel_support import red_fold, red_identity

_NP_DTYPES = {"float": np.float32, "double": np.float64, "char": np.int8,
              "int": np.int32, "unsigned int": np.uint32,
              "long": np.int64, "unsigned long": np.uint64}


class InterpError(RuntimeError):
    def __init__(self, message: str, line: int = 0) -> None:
        where = f" (line {line})" if line else ""
        super().__init__(f"interpreter error{where}: {message}")


_MATH_FUNCS: dict[str, Callable[..., Any]] = {
    "sqrt": math.sqrt, "sqrtf": math.sqrt,
    "rsqrt": lambda x: 1.0 / math.sqrt(x), "rsqrtf": lambda x: 1.0 / math.sqrt(x),
    "fabs": abs, "fabsf": abs, "abs": abs,
    "exp": math.exp, "expf": math.exp,
    "log": math.log, "logf": math.log,
    "pow": math.pow, "powf": math.pow,
    "sin": math.sin, "cos": math.cos,
    "floor": math.floor, "floorf": math.floor,
    "ceil": math.ceil, "ceilf": math.ceil,
    "min": min, "fmin": min, "fminf": min,
    "max": max, "fmax": max, "fmaxf": max,
}


class ExprEvaluator:
    """Evaluates C expressions against name-resolution callbacks.

    ``load_var(name)`` returns a scalar value; ``load_elem(name, idx)``
    returns one array element; ``store`` callbacks are supplied by the
    statement executors built on top.
    """

    def __init__(
        self,
        load_var: Callable[[str], Any],
        load_elem: Callable[[str, int], Any],
        assign_hook: Callable[[C.Assign], Any] | None = None,
        call_hook: Callable[[C.Call], Any] | None = None,
    ) -> None:
        self.load_var = load_var
        self.load_elem = load_elem
        self.assign_hook = assign_hook
        self.call_hook = call_hook

    def eval(self, e: C.Expr) -> Any:
        if isinstance(e, C.IntLit):
            return e.value
        if isinstance(e, C.FloatLit):
            return e.value
        if isinstance(e, C.Ident):
            return self.load_var(e.name)
        if isinstance(e, C.BinOp):
            return self._binop(e)
        if isinstance(e, C.UnOp):
            v = self.eval(e.operand)
            if e.op == "-":
                return -v
            if e.op == "+":
                return v
            if e.op == "!":
                return 1 if not v else 0
            if e.op == "~":
                return ~int(v)
            raise InterpError(f"unsupported unary op {e.op!r}", e.line)
        if isinstance(e, C.Ternary):
            return self.eval(e.then) if self.eval(e.cond) else self.eval(e.other)
        if isinstance(e, C.Call):
            fn = _MATH_FUNCS.get(e.func)
            if fn is not None:
                return fn(*(self.eval(a) for a in e.args))
            if self.call_hook is not None:
                return self.call_hook(e)
            raise InterpError(f"unsupported call {e.func!r}", e.line)
        if isinstance(e, C.Index):
            if len(e.indices) != 1:
                raise InterpError("multi-dimensional subscript", e.line)
            idx = int(self.eval(e.indices[0]))
            return self.load_elem(e.base_name(), idx)
        if isinstance(e, C.CastExpr):
            v = self.eval(e.operand)
            if e.to.pointers:
                raise InterpError("pointer casts unsupported", e.line)
            dt = _NP_DTYPES.get(e.to.base, np.float64)
            return dt(v).item() if np.issubdtype(dt, np.integer) else dt(v)
        if isinstance(e, C.Assign):
            if self.assign_hook is None:
                raise InterpError("assignment in value position", e.line)
            return self.assign_hook(e)
        raise InterpError(f"unsupported expression {type(e).__name__}")

    def _binop(self, e: C.BinOp) -> Any:
        op = e.op
        if op == "&&":
            return 1 if (self.eval(e.left) and self.eval(e.right)) else 0
        if op == "||":
            return 1 if (self.eval(e.left) or self.eval(e.right)) else 0
        l = self.eval(e.left)
        r = self.eval(e.right)
        if op == "+":
            return l + r
        if op == "-":
            return l - r
        if op == "*":
            return l * r
        if op == "/":
            if _is_int(l) and _is_int(r):
                if r == 0:
                    raise InterpError("integer division by zero", e.line)
                return int(l) // int(r)
            return l / r
        if op == "%":
            if _is_int(l) and _is_int(r):
                if r == 0:
                    raise InterpError("integer modulo by zero", e.line)
                return int(l) % int(r)
            return math.fmod(l, r)
        if op == "<":
            return 1 if l < r else 0
        if op == ">":
            return 1 if l > r else 0
        if op == "<=":
            return 1 if l <= r else 0
        if op == ">=":
            return 1 if l >= r else 0
        if op == "==":
            return 1 if l == r else 0
        if op == "!=":
            return 1 if l != r else 0
        if op == "<<":
            return int(l) << int(r)
        if op == ">>":
            return int(l) >> int(r)
        if op == "&":
            return int(l) & int(r)
        if op == "|":
            return int(l) | int(r)
        if op == "^":
            return int(l) ^ int(r)
        raise InterpError(f"unsupported binary op {op!r}", e.line)


def _is_int(v: Any) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


class _BreakLoop(Exception):
    pass


class _ContinueLoop(Exception):
    pass


@dataclass
class KernelInterpreter:
    """Executes one parallel loop scalar-wise against a kernel context."""

    body: C.Stmt
    loop_var: str
    config: LoopConfig
    scalar_reductions: list[tuple[str, str]]
    #: Names the loop directive lists as private(...): fresh per iteration.
    private_names: tuple[str, ...] = ()
    #: Declared C types of kernel locals (assignment rounds to these).
    local_types: dict | None = None
    #: Label number of the body's first inner loop (nonzero for later
    #: members of a fused kernel, whose labels continue the previous
    #: member's).
    label_base: int = 0
    #: Inner loops in the vectorizer's labelling order (pre-order):
    #: loop k reports its trips as ``L{label_base + k}``, like the
    #: generated kernel's ``ctx.dyn_count``, so both engines price
    #: inner-loop work alike.
    inner_loops: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.inner_loops = [st for st in C.walk(self.body)
                            if isinstance(st, C.For)]

    def run(self, ctx) -> None:
        partials = {var: red_identity(op) for op, var in self.scalar_reductions}
        red_ops = {var: op for op, var in self.scalar_reductions}
        for i in range(ctx.i0, ctx.i1):
            env: dict[str, Any] = {self.loop_var: i}
            for name in self.private_names:
                env[name] = 0
            self._exec(self.body, env, ctx, partials, red_ops)
        for var, op in red_ops.items():
            ctx.reduce_scalar(op, var, partials[var])

    # -- environment ------------------------------------------------------------

    def _make_eval(self, env: dict, ctx, partials, red_ops) -> ExprEvaluator:
        def load_var(name: str) -> Any:
            if name in env:
                return env[name]
            if name in red_ops:
                raise InterpError(
                    f"reduction variable {name!r} read outside its reduction")
            if name in ctx.scalars:
                return ctx.scalars[name]
            raise InterpError(f"unknown identifier {name!r}")

        def load_elem(name: str, idx: int) -> Any:
            if name not in ctx.arrays:
                raise InterpError(f"unmanaged array {name!r}")
            if ctx.recorder is not None:
                ctx.audit(name, env[self.loop_var], idx, None, "r")
            local = idx - ctx.base[name]
            arr = ctx.arrays[name]
            if not (0 <= local < arr.shape[0]):
                raise InterpError(
                    f"read of {name}[{idx}] outside the loaded window")
            return arr[local]

        return ExprEvaluator(load_var, load_elem)

    # -- statements ---------------------------------------------------------------

    def _exec(self, s: C.Stmt, env, ctx, partials, red_ops) -> None:
        red = next((d for d in s.directives
                    if isinstance(d, AccReductionToArray)), None)
        if red is not None:
            self._exec_reduction_to_array(s, red, env, ctx, partials, red_ops)
            return
        ev = self._make_eval(env, ctx, partials, red_ops)
        if isinstance(s, C.Compound):
            for st in s.body:
                self._exec(st, env, ctx, partials, red_ops)
        elif isinstance(s, C.Decl):
            dt = _NP_DTYPES.get(s.ctype.base, np.float64)
            v = ev.eval(s.init) if s.init is not None else 0
            env[s.name] = dt(v).item() if np.issubdtype(dt, np.integer) else dt(v)
        elif isinstance(s, C.ExprStmt):
            if s.expr is None:
                return
            if isinstance(s.expr, C.Assign):
                self._exec_assign(s.expr, env, ctx, partials, red_ops)
            elif isinstance(s.expr, C.Call):
                if s.expr.func not in ("printf", "fprintf"):
                    ev.eval(s.expr)
        elif isinstance(s, C.If):
            if ev.eval(s.cond):
                self._exec(s.then, env, ctx, partials, red_ops)
            elif s.orelse is not None:
                self._exec(s.orelse, env, ctx, partials, red_ops)
        elif isinstance(s, C.For):
            self._exec_for(s, env, ctx, partials, red_ops)
        elif isinstance(s, (C.Break,)):
            raise _BreakLoop()
        elif isinstance(s, (C.Continue,)):
            raise _ContinueLoop()
        elif isinstance(s, C.While):
            raise InterpError("while loops not allowed in parallel bodies",
                              s.line)
        elif isinstance(s, C.Return):
            raise InterpError("return not allowed in parallel bodies", s.line)
        else:
            raise InterpError(f"unsupported statement {type(s).__name__}")

    def _exec_for(self, s: C.For, env, ctx, partials, red_ops) -> None:
        ev = self._make_eval(env, ctx, partials, red_ops)
        if isinstance(s.init, C.Decl):
            var = s.init.name
            env[var] = int(ev.eval(s.init.init))
        elif isinstance(s.init, C.ExprStmt) and isinstance(s.init.expr, C.Assign) \
                and isinstance(s.init.expr.target, C.Ident):
            var = s.init.expr.target.name
            env[var] = int(ev.eval(s.init.expr.value))
        else:
            raise InterpError("unsupported inner loop init", s.line)
        label = next(f"L{self.label_base + k}"
                     for k, f in enumerate(self.inner_loops) if f is s)
        trips = 0
        while True:
            if s.cond is not None and not ev.eval(s.cond):
                break
            trips += 1
            try:
                self._exec(s.body, env, ctx, partials, red_ops)
            except _BreakLoop:
                break
            except _ContinueLoop:
                pass
            if s.step is not None:
                self._exec_assign(_as_assign(s.step), env, ctx, partials, red_ops)
        ctx.dyn_count(label, trips)

    def _exec_assign(self, a: C.Assign, env, ctx, partials, red_ops) -> None:
        ev = self._make_eval(env, ctx, partials, red_ops)
        if isinstance(a.target, C.Ident):
            name = a.target.name
            if name in red_ops:
                self._exec_scalar_reduction(name, a, ev, partials, red_ops, ctx)
                return
            if name not in env:
                raise InterpError(
                    f"assignment to non-local {name!r} in kernel", a.line)
            value = ev.eval(a.value)
            if a.op:
                cur = env[name]
                value = _apply_scalar_op(cur, a.op, value, a.line)
            base = (self.local_types or {}).get(name)
            if base is not None and name != self.loop_var:
                dt = _NP_DTYPES.get(base)
                if dt is not None:
                    value = dt(value).item() \
                        if np.issubdtype(dt, np.integer) else dt(value)
            env[name] = value
            return
        if isinstance(a.target, C.Index):
            name = a.target.base_name()
            cfg = self.config.arrays.get(name)
            if cfg is None:
                raise InterpError(f"store to unmanaged array {name!r}", a.line)
            idx = int(ev.eval(a.target.indices[0]))
            value = ev.eval(a.value)
            if ctx.recorder is not None:
                ctx.audit(name, env[self.loop_var], idx, None, "w")
            gi = np.array([idx], dtype=np.int64)
            gv = np.array([value])
            handling = cfg.write_handling
            if handling == WriteHandling.MISS_CHECK:
                ctx.write_checked(name, gi, gv, a.op)
                return
            if handling == WriteHandling.REDUCTION:
                raise InterpError(
                    f"store to reduction destination {name!r} without "
                    "reductiontoarray annotation", a.line)
            local = idx - ctx.base[name]
            arr = ctx.arrays[name]
            if not (0 <= local < arr.shape[0]):
                raise InterpError(
                    f"write of {name}[{idx}] outside the loaded window")
            if a.op:
                arr[local] = _apply_scalar_op(arr[local], a.op, value, a.line)
            else:
                arr[local] = value
            if handling == WriteHandling.DIRTY_BITS:
                ctx.mark_dirty(name, gi)
            return
        raise InterpError("unsupported assignment target", a.line)

    def _exec_scalar_reduction(self, name, a, ev, partials, red_ops, ctx) -> None:
        op = red_ops[name]
        if a.op:
            if a.op != op:
                raise InterpError(
                    f"reduction variable {name!r} declared with {op!r} but "
                    f"updated with {a.op!r}=", a.line)
            contrib = ev.eval(a.value)
        else:
            contrib = self._reduction_contrib(name, op, a.value, ev)
        partials[name] = red_fold(op, partials[name], contrib, None, 1)

    def _reduction_contrib(self, name, op, value, ev):
        if isinstance(value, C.BinOp) and value.op == op:
            if isinstance(value.left, C.Ident) and value.left.name == name:
                return ev.eval(value.right)
            if isinstance(value.right, C.Ident) and value.right.name == name:
                return ev.eval(value.left)
        if isinstance(value, C.Call):
            stripped = value.func.lstrip("f").rstrip("f")
            if stripped == op and len(value.args) == 2:
                if isinstance(value.args[0], C.Ident) and value.args[0].name == name:
                    return ev.eval(value.args[1])
                if isinstance(value.args[1], C.Ident) and value.args[1].name == name:
                    return ev.eval(value.args[0])
        raise InterpError(
            f"statement does not match the declared {op!r} reduction on {name!r}")

    def _exec_reduction_to_array(self, s, d, env, ctx, partials, red_ops) -> None:
        if not (isinstance(s, C.ExprStmt) and isinstance(s.expr, C.Assign)
                and isinstance(s.expr.target, C.Index)):
            raise InterpError("reductiontoarray must annotate a store", s.line)
        a = s.expr
        ev = self._make_eval(env, ctx, partials, red_ops)
        idx = int(ev.eval(a.target.indices[0]))
        value = ev.eval(a.value)
        ctx.reduce_to_array(d.array, np.array([idx], dtype=np.int64),
                            np.array([value]), d.op)


def _as_assign(e: C.Expr) -> C.Assign:
    if isinstance(e, C.Assign):
        return e
    raise InterpError("loop step must be an assignment")


def _apply_scalar_op(cur, op, value, line=0):
    if op == "+":
        return cur + value
    if op == "-":
        return cur - value
    if op == "*":
        return cur * value
    if op == "/":
        if _is_int(cur) and _is_int(value):
            return int(cur) // int(value)
        return cur / value
    if op == "%":
        return int(cur) % int(value)
    if op == "&":
        return int(cur) & int(value)
    if op == "|":
        return int(cur) | int(value)
    if op == "^":
        return int(cur) ^ int(value)
    if op == "<<":
        return int(cur) << int(value)
    if op == ">>":
        return int(cur) >> int(value)
    raise InterpError(f"unsupported compound op {op!r}", line)
