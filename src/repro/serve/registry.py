"""Persistent compiled-program registry (content-addressed, on disk).

The in-memory compile cache (:mod:`repro.translator.compiler`) only
helps within one process; a compile-and-serve deployment restarts, and
IPMACC-style persistent translation artifacts are what make the second
process cheap.  This module stores frozen :class:`CompiledProgram`
objects in a directory, keyed by ``(sha256(source), canonicalized
CompileOptions)`` -- the same canonical key the in-memory cache uses,
so every :class:`~repro.translator.compiler.CompileOptions` field
participates and two compiles differing in any single option never
share an entry.

Entry format (``<key>.prog``)::

    8 bytes   magic  b"RPROG2\\n\\0"
    8 bytes   payload length, big-endian
    32 bytes  SHA-256 of the payload
    N bytes   payload: pickled frozen program state

A truncated or corrupt entry (bad magic, short file, checksum or
unpickle failure) is *never* an error: :meth:`ProgramRegistry.get`
logs a warning, evicts the file, and returns ``None`` so the caller
falls back to recompilation -- the store is a cache, not a database.

Freezing: kernel callables are exec'd functions and cannot be pickled;
:class:`~repro.translator.compiler.KernelPlan` drops them on pickle and
re-execs the generated source on unpickle.  The ``regions_by_stmt`` /
``plans_by_loop`` / ``fused_stmts`` maps are keyed by ``id()`` of AST
statements, which is not stable across processes, so freezing converts
them to (statement object, value) pairs -- pickle preserves object
sharing with the AST inside ``program`` -- and thawing re-keys them
with the revived objects' ids.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import struct
import tempfile
import threading
from pathlib import Path

from ..frontend import cast as C
from ..translator.compiler import (
    CompiledProgram,
    CompileOptions,
    canonical_options_key,
    compile_source_with_info,
)

log = logging.getLogger(__name__)

#: Entry format tag.  Bump it when a pickled compiled-program class
#: changes shape: older entries then fail the magic check and are
#: evicted and recompiled instead of thawing without the new fields
#: (RPROG2: ``KernelInterpreter.inner_loops``/``label_base`` and
#: ``KernelSourceInfo.inner_strategies``).
MAGIC = b"RPROG2\n\0"
_HEADER = struct.Struct(">8sQ32s")

#: Registry stat counter names (all start at zero).
STAT_NAMES = ("memory_hits", "disk_hits", "compiles", "stores",
              "corrupt_evictions")


class RegistryError(RuntimeError):
    """Unrecoverable registry problem (unwritable directory, ...)."""


def _stmt_index(program: C.Program) -> dict[int, C.Stmt]:
    idx: dict[int, C.Stmt] = {}
    for fn in program.functions:
        for s in C.walk(fn.body):
            idx[id(s)] = s
    return idx


def freeze_program(compiled: CompiledProgram) -> bytes:
    """Pickle a compiled program into a process-independent payload."""
    idx = _stmt_index(compiled.program)
    state = {
        "program": compiled.program,
        "options": compiled.options,
        "plans": compiled.plans,
        "regions": [(idx[k], v)
                    for k, v in compiled.regions_by_stmt.items()],
        "plan_loops": [(idx[k], v)
                       for k, v in compiled.plans_by_loop.items()],
        "scopes": compiled.scopes,
        "global_scope": compiled.global_scope,
        "fusion_groups": compiled.fusion_groups,
        "fusion_bails": compiled.fusion_bails,
        "fused_stmts": [idx[k] for k in compiled.fused_stmts],
    }
    return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)


def thaw_program(payload: bytes) -> CompiledProgram:
    """Revive a frozen program; kernel callables are re-exec'd."""
    state = pickle.loads(payload)
    compiled = CompiledProgram(program=state["program"],
                               options=state["options"])
    compiled.plans = state["plans"]
    compiled.regions_by_stmt = {id(s): r for s, r in state["regions"]}
    compiled.plans_by_loop = {id(s): p for s, p in state["plan_loops"]}
    compiled.scopes = state["scopes"]
    compiled.global_scope = state["global_scope"]
    compiled.fusion_groups = state["fusion_groups"]
    compiled.fusion_bails = state["fusion_bails"]
    compiled.fused_stmts = {id(s) for s in state["fused_stmts"]}
    return compiled


def registry_key(source: str, options: CompileOptions | None = None) -> str:
    """Content-addressed entry name: source hash + options hash."""
    src_h = hashlib.sha256(source.encode("utf-8")).hexdigest()[:32]
    opt_repr = repr(canonical_options_key(options)).encode("utf-8")
    opt_h = hashlib.sha256(opt_repr).hexdigest()[:16]
    return f"{src_h}-{opt_h}"


class ProgramRegistry:
    """Disk-backed compiled-program store with an in-process front.

    Lookup order: per-process thawed-program map, then the on-disk
    store, then a fresh translation (which is persisted).  All methods
    are thread-safe; disk writes are atomic (temp file + rename), so a
    crashed writer can at worst leave a temp file, never a half entry
    under a live name.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise RegistryError(
                f"cannot create registry directory {self.root}: {exc}"
            ) from exc
        self._lock = threading.Lock()
        self._memory: dict[str, CompiledProgram] = {}
        #: Single-flight guards: key -> event set when its loader is
        #: done.  Concurrent requests for one program wait for the
        #: first loader instead of translating N times.
        self._inflight: dict[str, threading.Event] = {}
        self.stats = {n: 0 for n in STAT_NAMES}

    # -- paths ---------------------------------------------------------------

    def path_for(self, source: str,
                 options: CompileOptions | None = None) -> Path:
        return self.root / f"{registry_key(source, options)}.prog"

    def entries(self) -> list[Path]:
        return sorted(self.root.glob("*.prog"))

    # -- store / load --------------------------------------------------------

    def put(self, source: str, options: CompileOptions | None,
            compiled: CompiledProgram) -> Path:
        """Persist one compiled program (atomic replace)."""
        payload = freeze_program(compiled)
        digest = hashlib.sha256(payload).digest()
        blob = _HEADER.pack(MAGIC, len(payload), digest) + payload
        path = self.path_for(source, options)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with self._lock:
            self.stats["stores"] += 1
            self._memory[registry_key(source, options)] = compiled
        return path

    def get(self, source: str,
            options: CompileOptions | None = None) -> CompiledProgram | None:
        """Load one entry from disk, or ``None`` (missing *or* corrupt).

        Corrupt entries -- truncated files, bad magic, checksum
        mismatches, unpicklable payloads -- are logged, evicted and
        reported as a miss; the caller recompiles.
        """
        path = self.path_for(source, options)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._evict_corrupt(path, f"unreadable ({exc})")
            return None
        if len(blob) < _HEADER.size:
            self._evict_corrupt(path, f"truncated header ({len(blob)} bytes)")
            return None
        magic, length, digest = _HEADER.unpack_from(blob)
        if magic != MAGIC:
            self._evict_corrupt(path, f"bad magic {magic!r}")
            return None
        payload = blob[_HEADER.size:]
        if len(payload) != length:
            self._evict_corrupt(
                path, f"truncated payload ({len(payload)} of {length} bytes)")
            return None
        if hashlib.sha256(payload).digest() != digest:
            self._evict_corrupt(path, "checksum mismatch")
            return None
        try:
            compiled = thaw_program(payload)
        except Exception as exc:  # noqa: BLE001 -- any unpickle failure
            self._evict_corrupt(path, f"unpicklable payload ({exc!r})")
            return None
        return compiled

    def _evict_corrupt(self, path: Path, why: str) -> None:
        log.warning("evicting corrupt registry entry %s: %s", path.name, why)
        with self._lock:
            self.stats["corrupt_evictions"] += 1
        try:
            path.unlink()
        except OSError:
            pass

    # -- the serve fast path -------------------------------------------------

    def load_or_compile(
            self, source: str, options: CompileOptions | None = None,
    ) -> tuple[CompiledProgram, str]:
        """The registry's whole point, as one call.

        Returns ``(program, outcome)`` with outcome one of
        ``"hit_memory"`` / ``"hit_disk"`` / ``"compiled"``.  The
        per-process map guarantees repeated requests for one program
        share a single object (and its exec'd kernels); the disk store
        makes process restarts cheap; a miss translates, persists, and
        primes both.
        """
        key = registry_key(source, options)
        while True:
            with self._lock:
                hit = self._memory.get(key)
                if hit is not None:
                    self.stats["memory_hits"] += 1
                    return hit, "hit_memory"
                guard = self._inflight.get(key)
                if guard is None:
                    self._inflight[key] = threading.Event()
                    break
            # Another thread is loading/compiling this key: wait for it
            # and re-check (single-flight).  If the loader failed, the
            # re-check finds neither a program nor a guard and this
            # thread becomes the loader, surfacing the same error.
            guard.wait()
        try:
            compiled = self.get(source, options)
            outcome = "hit_disk"
            if compiled is None:
                compiled, _ = compile_source_with_info(source, options)
                outcome = "compiled"
                self.put(source, options, compiled)
            with self._lock:
                self.stats["disk_hits" if outcome == "hit_disk"
                           else "compiles"] += 1
                self._memory.setdefault(key, compiled)
            return compiled, outcome
        finally:
            with self._lock:
                self._inflight.pop(key).set()

    def stats_snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.stats)


def default_registry_root() -> Path:
    """``REPRO_REGISTRY_DIR`` or ``.repro-registry`` in the CWD."""
    env = os.environ.get("REPRO_REGISTRY_DIR", "")
    return Path(env) if env else Path(".repro-registry")


__all__ = ["MAGIC", "ProgramRegistry", "RegistryError", "STAT_NAMES",
           "default_registry_root", "freeze_program", "registry_key",
           "thaw_program"]
