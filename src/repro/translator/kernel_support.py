"""Runtime helpers imported by generated kernel code.

The vectorizer emits NumPy source that calls these small utilities for
the operations that are awkward to inline: guarded gathers (predicated
lanes may carry garbage indices), lane selection, segmented range
flattening for CSR inner loops, and reduction folding.

Everything here is vectorized per the hpc-parallel guides: no
per-element Python loops.
"""

from __future__ import annotations

import numpy as np


def ld(arr: np.ndarray, idx):
    """Guarded gather ``arr[idx]``.

    Under predication every lane evaluates the index expression, so
    inactive lanes may hold out-of-range indices; their values are
    discarded by the enclosing mask.  Clipping keeps the gather safe
    without branching, like a GPU's guarded load; ``take(mode="clip")``
    clips and gathers in one C pass, with the values (and shape) of
    ``arr[np.clip(idx, 0, n - 1)]``.
    """
    if isinstance(idx, np.ndarray):
        if idx.size == 0:
            return arr[idx]
        return arr.take(idx, mode="clip")
    return arr[min(max(int(idx), 0), arr.shape[0] - 1)]


def ld_span(arr: np.ndarray, lo: int, n: int, copy: bool = True):
    """Contiguous gather ``arr[lo:lo+n]`` -- the :func:`ld` fast path.

    Value-identical to ``ld(arr, arange(lo, lo+n))``: when the span is
    fully in bounds it is one slice (copied unless the caller proved the
    array is never written in this kernel, in which case a view is
    safe); otherwise it falls back to the exact clipped gather that
    :func:`ld` performs, preserving guarded-load semantics for
    predicated lanes.
    """
    size = arr.shape[0]
    if 0 <= lo and lo + n <= size:
        sl = arr[lo:lo + n]
        return sl.copy() if copy else sl
    if size == 0 or n <= 0:
        return ld(arr, np.arange(lo, lo + n, dtype=np.int64))
    # Partially out of bounds (halo loads at block edges): clipping maps
    # every underflowing index to 0 and every overflowing one to the
    # last element, so the gather is edge-padding -- two fills and one
    # slice, no index vector.
    head = min(max(-lo, 0), n)
    tail = min(max(lo + n - size, 0), n - head)
    core_lo = min(max(lo, 0), size)
    core = arr[core_lo:core_lo + n - head - tail]
    out = np.empty(n, dtype=arr.dtype)
    out[:head] = arr[0]
    out[head:head + core.shape[0]] = core
    out[head + core.shape[0]:] = arr[-1]
    return out


def store_span(arr: np.ndarray, lo: int, n: int, values, op: str = "") -> None:
    """Contiguous store ``arr[lo:lo+n] op= values`` -- the :func:`store`
    fast path.

    The indices of a span are unique, so slice assignment equals fancy
    assignment and in-place ufuncs equal unbuffered ``ufunc.at``:
    results are bit-identical to ``store(arr, arange(lo, lo+n), ...)``.
    Callers guard bounds (an out-of-range span takes the original
    indexed path, preserving its error behavior).
    """
    if op == "":
        arr[lo:lo + n] = values
    elif op == "+":
        arr[lo:lo + n] += values
    elif op == "-":
        arr[lo:lo + n] -= values
    elif op == "*":
        arr[lo:lo + n] *= values
    elif op == "max":
        np.maximum(arr[lo:lo + n], values, out=arr[lo:lo + n])
    elif op == "min":
        np.minimum(arr[lo:lo + n], values, out=arr[lo:lo + n])
    elif op == "&":
        arr[lo:lo + n] &= values
    elif op == "|":
        arr[lo:lo + n] |= values
    else:
        raise ValueError(f"unsupported store op {op!r}")


def store_span_masked(arr: np.ndarray, lo: int, n: int, values, mask) -> None:
    """Predicated contiguous store: lanes of ``[lo, lo+n)`` where ``mask``.

    Equals ``store(arr, arange(lo, lo+n)[mask], bcv(values)[mask])`` for
    plain assignment -- span indices are unique, so masked copyto and
    gather/scatter write the same lanes with the same values -- but
    skips building the index and value gather vectors entirely.
    """
    np.copyto(arr[lo:lo + n], values, where=mask)


def msel(v, mask):
    """Select active lanes of ``v`` (scalar values pass through)."""
    if mask is None:
        return v
    if isinstance(v, np.ndarray) and v.shape:
        return v[mask]
    return v


def bcv(v, n, dtype=None):
    """Materialize ``v`` as a length-``n`` lane vector (writable).

    ``n`` may also be the ``(W, lanes)`` shape of a j-major lane block
    (see :func:`jblocks`): lane vectors and ``(W, 1)`` columns broadcast
    up to it.
    """
    arr = np.asarray(v)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    if arr.ndim == 0:
        return np.full(n, arr)
    if isinstance(n, tuple):
        if arr.shape == n and arr.flags.writeable:
            return arr
        return np.array(np.broadcast_to(arr, n))
    if arr.shape[0] != n:
        raise ValueError(f"lane vector of length {arr.shape[0]} != {n}")
    return np.array(arr) if not arr.flags.writeable else arr


def lanes_of(mask, n: int) -> int:
    """Number of active lanes under ``mask`` (or all ``n``)."""
    return int(mask.sum()) if mask is not None else n


def flat_ranges(lo: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(lo[k], lo[k]+cnt[k])`` for all k.

    The CSR flattening primitive: one vector holding every (i, e) pair's
    inner index, built with repeat/cumsum instead of a Python loop.
    """
    cnt = np.maximum(cnt, 0)
    total = int(cnt.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.repeat(lo.astype(np.int64), cnt)
    # Offset within each segment: global position minus segment start pos.
    seg_start_pos = np.repeat(np.cumsum(cnt) - cnt, cnt)
    offsets = np.arange(total, dtype=np.int64) - seg_start_pos
    return starts + offsets


#: Element budget of one j-major lane block.  It bounds the host memory
#: of a flattened inner loop's temporaries (128 KiB per int64 block) and
#: keeps them cache-resident: on heat2d at 512 x 512, 2^14 ran faster
#: than both 2^12 and 2^18.
JBLOCK_ELEMS = 1 << 14


def jblocks(lo: int, hi: int, lanes: int):
    """Split the inner range ``[lo, hi)`` into j-major lane blocks.

    Yields ``(j, shape)``: ``j`` is an ``arange`` column of shape
    ``(W, 1)`` that broadcasts against the ``(lanes,)`` outer lane
    vectors, and ``shape`` is ``(W, lanes)``.  Blocks come in ascending
    ``j`` and hold at most :data:`JBLOCK_ELEMS` elements (at least one
    row), so a flattened loop issues its stores in sequential order.
    """
    step = max(1, JBLOCK_ELEMS // max(lanes, 1))
    for j0 in range(lo, hi, step):
        j1 = min(j0 + step, hi)
        yield np.arange(j0, j1, dtype=np.int64)[:, None], (j1 - j0, lanes)


def block_sites(shape: tuple[int, int], sites):
    """Flatten one array's store sites in a lane block to index/value
    vectors in the sequential ``(j, site, lane)`` order.

    ``sites`` lists ``(indices, values, mask)`` per store statement in
    body order; each broadcasts to ``shape`` and a None mask means all
    lanes.  Stacking them into a ``(W, S, lanes)`` block and compressing
    it by mask yields exactly the lanes, in exactly the order, of the
    per-``j`` stores a sequential inner loop issues -- so
    last-writer-wins, ``ufunc.at`` accumulation order and write-miss
    records are unchanged.  Values are stacked at their common dtype,
    as NumPy would promote them.
    """
    w, n = shape
    k = len(sites)
    dtype = np.result_type(*(np.asarray(v).dtype for _, v, _ in sites))
    gi = np.empty((w, k, n), dtype=np.int64)
    gv = np.empty((w, k, n), dtype=dtype)
    keep = (np.empty((w, k, n), dtype=bool)
            if any(m is not None for _, _, m in sites) else None)
    for s, (idx, val, mask) in enumerate(sites):
        gi[:, s, :] = idx
        gv[:, s, :] = val
        if keep is not None:
            keep[:, s, :] = True if mask is None else mask
    if keep is None:
        return gi.reshape(-1), gv.reshape(-1)
    return gi[keep], gv[keep]


def merge(old, new, mask):
    """Masked merge for local-variable assignment under predication."""
    if mask is None:
        if isinstance(old, np.ndarray) and old.shape and not (
            isinstance(new, np.ndarray) and new.shape
        ):
            out = old.copy()
            out[...] = new
            return out
        return np.asarray(new) if isinstance(new, np.ndarray) else new
    return np.where(mask, new, old)


def store(arr: np.ndarray, idx, values, op: str = "") -> None:
    """Elementwise store ``arr[idx] op= values``.

    For plain assignment duplicate indices resolve last-writer-wins
    (NumPy fancy assignment), matching the benign-race semantics of a
    GPU global-memory store.  Compound ops use unbuffered ``ufunc.at``
    so duplicates accumulate, matching an atomic RMW.
    """
    if op == "":
        arr[idx] = values
    elif op == "+":
        np.add.at(arr, idx, values)
    elif op == "-":
        np.subtract.at(arr, idx, values)
    elif op == "*":
        np.multiply.at(arr, idx, values)
    elif op == "max":
        np.maximum.at(arr, idx, values)
    elif op == "min":
        np.minimum.at(arr, idx, values)
    elif op == "&":
        np.bitwise_and.at(arr, idx, values)
    elif op == "|":
        np.bitwise_or.at(arr, idx, values)
    else:
        raise ValueError(f"unsupported store op {op!r}")


_RED_IDENTITY = {
    "+": 0,
    "*": 1,
    "max": -np.inf,
    "min": np.inf,
    "&": ~0,
    "|": 0,
    "^": 0,
    "&&": True,
    "||": False,
}


def red_identity(op: str):
    return _RED_IDENTITY[op]


def red_fold(op: str, acc, values, mask, n_lanes: int):
    """Fold ``values`` (vector or scalar) over active lanes into ``acc``."""
    lanes = lanes_of(mask, n_lanes)
    if lanes == 0:
        return acc
    v = msel(values, mask)
    is_vec = isinstance(v, np.ndarray) and v.shape
    if op == "+":
        return acc + (v.sum() if is_vec else v * lanes)
    if op == "*":
        if is_vec:
            return acc * v.prod()
        return acc * (v**lanes)
    if op == "max":
        m = v.max() if is_vec else v
        return max(acc, m)
    if op == "min":
        m = v.min() if is_vec else v
        return min(acc, m)
    if op in ("|", "||"):
        folded = bool(np.any(v)) if is_vec else bool(v)
        return (acc or folded) if op == "||" else (acc | (np.bitwise_or.reduce(v) if is_vec else v))
    if op in ("&", "&&"):
        folded = bool(np.all(v)) if is_vec else bool(v)
        return (acc and folded) if op == "&&" else (acc & (np.bitwise_and.reduce(v) if is_vec else v))
    if op == "^":
        return acc ^ (np.bitwise_xor.reduce(v) if is_vec else (v if lanes % 2 else 0))
    raise ValueError(f"unsupported reduction op {op!r}")


def cast_to(v, dtype):
    """C-style cast to a NumPy dtype, scalar- and vector-aware."""
    if isinstance(v, np.ndarray):
        return v.astype(dtype)
    return dtype(v)
