"""Persistent, content-addressed compilation cache.

The auto-tuning loop (Sec. 5.3) and every ``akgc`` invocation re-run the
polyhedral middle-end from scratch in a fresh process; PR 1 made repeated
compilation cheap *within* one process by splitting the pipeline and
memoizing the exact solvers, but nothing survived the process boundary.
This module adds the third caching tier: compilation products are pickled
to disk under a key derived from the *content* of the kernel (a stable
digest of the tensor-expression IR), the build options, the hardware
spec and the compiler version.  A warm process then rebuilds a kernel by
unpickling instead of re-deriving — the same trade TVM makes with its
persistent tuning/compilation cache.

Design points:

- **Content addressing.**  Keys are sha256 hex digests computed by
  :func:`digest` over printable fingerprints.  The IR fingerprint walks
  the tensor DAG assigning ids by topological visit order, so two
  structurally identical kernels built in different processes (with
  different ``id()`` values and auto-generated axis names) map to the
  same key, while any change to shapes, dtypes, ops, immediates or
  wiring changes the key.
- **One read per warm build.**  ``build`` derives the front-end digest
  and from it the program digest before anything is loaded, and probes the
  program first; the ``FrontEnd`` entry serves program misses and the tuner.
- **What an entry holds (format 5).**  A ``FrontEnd`` entry holds the
  lowered kernel, its dependences, the clustering and the master schedule
  tree.  A ``CompileResult`` entry holds the program, kernel, tiled tree,
  clustering, groups, storage plans, unit assignments, tile sizes and
  hardware spec, but *not* the dependences (``CompileResult.deps``
  recomputes them on first access), replayers or anything a solver
  memoised.  An entry keeps what a cold build keeps and nothing derived
  from it: a tiled group its live-out band rows, not their ``tile ->
  instances`` relations; a dependence its access pair and level, not its
  relation; the tree's root each statement's dims, not its domain set.
  A restored object rebuilds those on first read through the path a cold
  build takes, so it answers in closed form as a cold one does.  Entries are pure: the bytes are a function of the key alone,
  whatever the hash seed or whatever the process compiled before (no
  ``set`` fields, dimension names interned where they are minted).
- **Atomic writes, checksummed reads.**  Entries are written to a temp
  file and ``os.replace``-d into place, so a concurrent reader never
  sees a half-written pickle.  Each entry carries a magic header and a
  sha256 of its pickled payload: pickle happily tolerates bit-flips and
  returns silently wrong data, so integrity is checked *before*
  deserialising.  Any bad entry (truncation, bit rot, stale class
  layout) raises :class:`~repro.core.errors.CacheCorruptionError`
  internally, which the read path converts into "delete the entry,
  count a miss, record a recovery event": a corrupt cache can cost a
  recompile, never a crash and never a stale result.  The
  ``diskcache.read`` fault-injection site mangles real entry bytes on
  disk, so tests exercise this exact path.
- **Kill switches.**  ``REPRO_NO_DISK_CACHE=1`` disables the cache;
  ``REPRO_CACHE_DIR`` moves it.  Both are read at call time so tests can
  isolate cache state per-test.  The default root is
  ``~/.cache/repro-akg``.
- **Bounded size.**  ``put`` evicts oldest-mtime entries beyond
  ``max_entries`` (default 4096).
- **Counters.**  Hits, misses, stores, evictions, errors,
  corruptions and the bytes of the entries read and written are the
  ``diskcache.*`` labels of the process-wide counter table (:mod:`repro.core.context`), read through
  :func:`disk_cache_stats`.  Every ``DiskCache`` of the process counts
  there; a rebind of the process's cache to another directory starts
  them from zero.  A private cache that only stores (the benchmark's
  write samples) adds stores, never hits or misses.
- **Shape classes.**  Probes for *symbolic* kernels land in one bucket
  per shape class (the fingerprint keys on the symbolic signature, not
  the requested batch size); ``build`` and ``run_frontend`` count them as
  ``shapeclass.hits`` / ``shapeclass.misses``, which ``akgc
  --cache-stats`` and the ``akgd`` ``stats`` verb show.

Correctness rests on the pipeline being a deterministic pure function of
(IR, options, hw, version): a hit returns a pickle of exactly what the
miss path would recompute, which the byte-identical-dump tests assert.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import sys
import tempfile
import threading
from contextlib import contextmanager
from fractions import Fraction
from typing import Any, Dict, Iterator, List, Optional, Tuple

import repro
from repro.core import faults, resilience
from repro.core.context import COUNTERS, LOCK, counters, reset_counters
from repro.core.errors import CacheCorruptionError

__all__ = [
    "CACHE_FORMAT_VERSION",
    "DiskCache",
    "FingerprintError",
    "digest",
    "ir_fingerprint",
    "graph_fingerprint",
    "hw_fingerprint",
    "default_hw_fingerprint",
    "options_fingerprint",
    "enabled",
    "get_cache",
    "set_cache_dir",
    "set_disk_cache_enabled",
    "disabled",
    "disk_cache_stats",
    "reset_disk_cache_stats",
]

#: Bump whenever the pickled payload layout or the fingerprint scheme
#: changes; old entries then miss instead of unpickling stale shapes.
#: v2: entries gained the magic + sha256 integrity header.
#: v3: pickled polyhedral numbers are ints (``Fraction`` only when fractional).
#: v4: ``CompileResult`` entries hold no dependences, entries are pure
#: (bytes a function of the key), ``AkgOptions.verify_schedule`` is gone.
#: v5: entries hold what a cold build keeps, never a relation derived from
#: it: tiled groups their live-out band rows (the fused producers'
#: relations stay), dependences their access pair and level, the schedule
#: tree's root each statement's dims.
#: v6: a ``FrontEnd`` holds no scheduler options and no key a ``sched(...)``
#: term (the scheduler has one setting).
CACHE_FORMAT_VERSION = 6

#: Entry header: magic, then the sha256 of the pickled payload.
_MAGIC = b"RAKG\x02"
_HEADER_LEN = len(_MAGIC) + hashlib.sha256().digest_size

#: The ``diskcache.*`` counters, in the order :func:`disk_cache_stats`
#: reports them; ``bytes_read`` / ``bytes_written`` sum the entry sizes of
#: the hits and stores.
_COUNTERS = (
    "hits", "misses", "stores", "evictions", "errors", "corruptions",
    "bytes_read", "bytes_written",
)


class FingerprintError(ValueError):
    """The value cannot be stably fingerprinted (callers skip caching)."""


# -- cache store ---------------------------------------------------------------


class DiskCache:
    """A directory of pickled values addressed by hex-digest keys.

    Layout: ``<root>/<key[:2]>/<key>.pkl`` (two-level fan-out keeps
    directory listings short).  All operations are safe against
    concurrent readers/writers in other processes *and* threads: writes
    land in a unique temp file and ``os.replace`` into place (two racing
    writers of the same key cannot interleave bytes — one whole entry
    wins the rename), reads treat any error as a miss, and every counter
    bump holds ``context.LOCK``, so concurrent service workers never drop
    increments.
    """

    def __init__(self, root: str, max_entries: int = 4096):
        self.root = os.path.abspath(root)
        self.max_entries = max_entries

    # -- paths ---------------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".pkl")

    def _entries(self) -> List[str]:
        """All entry paths currently on disk (unordered)."""
        found: List[str] = []
        try:
            shards = os.listdir(self.root)
        except OSError:
            return found
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            try:
                names = os.listdir(shard_dir)
            except OSError:
                continue
            found.extend(
                os.path.join(shard_dir, n) for n in names if n.endswith(".pkl")
            )
        return found

    # -- the store/load pair --------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """Return the cached value or ``None``; never raises.

        A present-but-unreadable entry (truncated write from a killed
        process, bit rot failing the checksum, pickle from an
        incompatible code version) is deleted, reported as a miss, and
        recorded as a recovery event on the active resilience report.
        """
        path = self._path(key)
        try:
            # Inside the try: an error-mode injection at this site must
            # exercise the same absorb-as-miss path real corruption takes.
            mode = faults.directive("diskcache.read")
            if mode in ("corrupt", "truncate"):
                _mangle_entry(path, mode)
            with open(path, "rb") as fh:
                blob = fh.read()
            value = self._decode(blob)
        except FileNotFoundError:
            with LOCK:
                COUNTERS["diskcache.misses"] += 1
            return None
        except Exception as exc:
            with LOCK:
                COUNTERS["diskcache.errors"] += 1
                if isinstance(exc, CacheCorruptionError):
                    COUNTERS["diskcache.corruptions"] += 1
                COUNTERS["diskcache.misses"] += 1
            resilience.note_event(
                "diskcache",
                "recovered",
                error=type(exc).__name__,
                detail=f"entry {key[:12]} dropped: {exc}",
            )
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        with LOCK:
            COUNTERS["diskcache.hits"] += 1
            COUNTERS["diskcache.bytes_read"] += len(blob)
        return value

    @staticmethod
    def _decode(blob: bytes) -> Any:
        """Verify the integrity header, then unpickle the payload."""
        if len(blob) < _HEADER_LEN or not blob.startswith(_MAGIC):
            raise CacheCorruptionError("cache entry has no valid header")
        expect = blob[len(_MAGIC):_HEADER_LEN]
        payload = blob[_HEADER_LEN:]
        if hashlib.sha256(payload).digest() != expect:
            raise CacheCorruptionError("cache entry failed its checksum")
        return pickle.loads(payload)

    def put(self, key: str, value: Any) -> bool:
        """Store ``value`` under ``key``; returns False on any failure.

        Unpicklable values and full disks degrade to "not cached" —
        compilation results must never depend on the cache's health.
        """
        path = self._path(key)
        try:
            pickled = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            payload = _MAGIC + hashlib.sha256(pickled).digest() + pickled
        except Exception:
            with LOCK:
                COUNTERS["diskcache.errors"] += 1
            return False
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            with LOCK:
                COUNTERS["diskcache.errors"] += 1
            return False
        with LOCK:
            COUNTERS["diskcache.stores"] += 1
            COUNTERS["diskcache.bytes_written"] += len(payload)
        self._evict()
        return True

    def _evict(self) -> None:
        """Drop oldest-mtime entries beyond ``max_entries``."""
        entries = self._entries()
        excess = len(entries) - self.max_entries
        if excess <= 0:
            return
        dated = []
        for path in entries:
            try:
                dated.append((os.path.getmtime(path), path))
            except OSError:
                continue
        dated.sort()
        for _, path in dated[:excess]:
            try:
                os.remove(path)
                with LOCK:
                    COUNTERS["diskcache.evictions"] += 1
            except OSError:
                pass

    def clear(self) -> None:
        """Remove every entry (the directories stay)."""
        for path in self._entries():
            try:
                os.remove(path)
            except OSError:
                pass

    def __len__(self) -> int:
        return len(self._entries())

    def __repr__(self) -> str:
        return f"DiskCache({self.root!r})"


def _mangle_entry(path: str, mode: str) -> None:
    """Damage an on-disk entry (fault injection only).

    ``corrupt`` flips one payload byte (caught by the checksum);
    ``truncate`` halves the file (caught by header/length checks).
    Missing files are left missing — the read path then just misses.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError:
        return
    if mode == "truncate":
        blob = blob[: len(blob) // 2]
    else:
        pos = _HEADER_LEN if len(blob) > _HEADER_LEN else len(blob) // 2
        if not blob:
            return
        pos = min(pos, len(blob) - 1)
        blob = blob[:pos] + bytes([blob[pos] ^ 0xFF]) + blob[pos + 1:]
    with open(path, "wb") as fh:
        fh.write(blob)


# -- module-level cache handle -------------------------------------------------

_DEFAULT_ROOT = os.path.join("~", ".cache", "repro-akg")
_cache: Optional[DiskCache] = None
_cache_root: Optional[str] = None
_force_disabled = False
_override_dir: Optional[str] = None


def _configured_root() -> str:
    return os.path.expanduser(
        _override_dir or os.environ.get("REPRO_CACHE_DIR") or _DEFAULT_ROOT
    )


def enabled() -> bool:
    """Whether the persistent cache is active (env read at call time)."""
    if _force_disabled:
        return False
    return os.environ.get("REPRO_NO_DISK_CACHE", "0") in ("0", "", "false")


_cache_lock = threading.Lock()


def get_cache() -> DiskCache:
    """The process-wide cache bound to the configured directory.

    Re-binds (zeroing the ``diskcache.*`` counters) when
    ``REPRO_CACHE_DIR`` changed since the last call, so per-test tmpdir
    isolation works without any explicit reset hook.  The rebind check
    runs under a lock so service worker threads racing through a
    directory change all see one cache object rather than each
    constructing their own.
    """
    global _cache, _cache_root
    root = _configured_root()
    with _cache_lock:
        if _cache is None or _cache_root != root:
            _cache = DiskCache(root)
            _cache_root = root
            reset_counters("diskcache.")
        return _cache


def set_cache_dir(path: Optional[str]) -> None:
    """Programmatic override of the cache directory (``None`` clears it)."""
    global _override_dir
    _override_dir = path


def set_disk_cache_enabled(flag: bool) -> None:
    """Programmatically force the cache on/off (overrides the env)."""
    global _force_disabled
    _force_disabled = not flag


@contextmanager
def disabled() -> Iterator[None]:
    """Context manager: run a block with the disk cache off."""
    global _force_disabled
    prior = _force_disabled
    _force_disabled = True
    try:
        yield
    finally:
        _force_disabled = prior


def disk_cache_stats() -> Dict[str, float]:
    """Counters of the active cache (all-zero when disabled)."""
    if not enabled():
        return dict(dict.fromkeys(_COUNTERS, 0), entries=0, hit_rate=0.0, enabled=False)
    entries = len(get_cache())  # first: a rebind zeroes the counters
    snap = counters("diskcache.")
    stats: Dict[str, float] = {name: snap.get(name, 0) for name in _COUNTERS}
    total = stats["hits"] + stats["misses"]
    stats["entries"] = entries
    stats["hit_rate"] = (stats["hits"] / total) if total else 0.0
    stats["enabled"] = True
    return stats


def reset_disk_cache_stats() -> None:
    """Zero the disk-cache counters (entries stay)."""
    reset_counters("diskcache.")


# -- cached load/store helpers -------------------------------------------------


def load(key: Optional[str]) -> Optional[Any]:
    """Fetch ``key`` when caching is on; ``None`` key or disabled → miss."""
    if key is None or not enabled():
        return None
    return get_cache().get(key)


def store(key: Optional[str], value: Any) -> bool:
    """Store under ``key`` when caching is on (no-op otherwise)."""
    if key is None or not enabled():
        return False
    return get_cache().put(key, value)


# -- fingerprints --------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _salted(fmt: int):
    """A sha256 primed with the version salt, rendered once per format."""
    py = sys.version_info
    return hashlib.sha256(
        f"repro={repro.__version__};fmt={fmt};py={py.major}.{py.minor}".encode()
    )


def digest(*parts: str) -> str:
    """sha256 over the version salt plus the given fingerprint strings."""
    h = _salted(CACHE_FORMAT_VERSION).copy()
    for part in parts:
        h.update(b"\x00")
        h.update(part.encode())
    return h.hexdigest()


def ir_fingerprint(outputs) -> str:
    """The fingerprint half of :func:`graph_fingerprint`."""
    return graph_fingerprint(outputs)[0]


def graph_fingerprint(outputs) -> Tuple[str, bool]:
    """One walk of a tensor-expression DAG: its stable, printable
    fingerprint and whether any reachable tensor has a symbolic dim (the
    shape-class counters' one definition of "symbolic").

    Identity-independent: tensors are numbered by topological visit
    order and iter vars by first registration, so the auto-generated
    names and Python object ids that differ between processes never leak
    into the key, while every semantic attribute (shape, dtype, op kind,
    immediates, access wiring, reduction axes) does.  Raises
    :class:`FingerprintError` on unknown node types — callers skip
    caching rather than guess.
    """
    from repro.ir.expr import (
        BinaryOp,
        Cast,
        FloatImm,
        IntImm,
        IterVar,
        Reduce,
        Select,
        TensorRef,
        UnaryOp,
    )
    from repro.ir.tensor import Tensor

    out_list = list(outputs) if isinstance(outputs, (list, tuple)) else [outputs]
    tensor_ids: Dict[int, int] = {}
    var_ids: Dict[int, int] = {}
    chunks: List[str] = []
    symbolic = False

    def var_id(v) -> int:
        key = id(v)
        if key not in var_ids:
            var_ids[key] = len(var_ids)
        return var_ids[key]

    def axis_fp(a) -> str:
        # The symbolic-dim marker keeps a shape-generic graph distinct
        # from a concrete graph at the declared maximum, while staying
        # identical across *requested* batch sizes (the shape-class key).
        sym = getattr(a, "sym", None)
        tail = f":sym={sym}" if sym else ""
        return f"v{var_id(a)}:{a.extent}:{a.kind}{tail}"

    def expr_fp(e) -> str:
        if isinstance(e, IntImm):
            return f"i{e.value}"
        if isinstance(e, FloatImm):
            return f"f{e.value!r}:{e.dtype}"
        if isinstance(e, IterVar):
            return f"v{var_id(e)}"
        if isinstance(e, TensorRef):
            tid = tensor_ids[id(e.tensor)]
            idx = ",".join(expr_fp(i) for i in e.indices)
            return f"t{tid}[{idx}]"
        if isinstance(e, BinaryOp):
            return f"{e.op}({expr_fp(e.a)},{expr_fp(e.b)})"
        if isinstance(e, UnaryOp):
            return f"{e.op}({expr_fp(e.a)})"
        if isinstance(e, Select):
            return (
                f"sel({expr_fp(e.cond)},{expr_fp(e.if_true)},"
                f"{expr_fp(e.if_false)})"
            )
        if isinstance(e, Cast):
            return f"cast<{e.dtype}>({expr_fp(e.a)})"
        if isinstance(e, Reduce):
            axes = ",".join(axis_fp(a) for a in e.axes)
            return f"{e.op}[{axes}]({expr_fp(e.value)})"
        raise FingerprintError(f"unfingerprintable expr node {type(e).__name__}")

    def visit(t) -> None:
        nonlocal symbolic
        if not isinstance(t, Tensor):
            raise FingerprintError(f"expected Tensor, got {type(t).__name__}")
        if id(t) in tensor_ids:
            return
        if t.op is not None:
            for dep in t.op.input_tensors():
                visit(dep)
        tid = len(tensor_ids)
        tensor_ids[id(t)] = tid
        head = f"T{tid}:{t.name}:{t.shape}:{t.dtype}"
        sym_axes = getattr(t, "sym_axes", None)
        if sym_axes:
            symbolic = True
            marks = ",".join(
                f"{i}={d.name}<={d.max}" for i, d in sorted(sym_axes.items())
            )
            head += f":sym{{{marks}}}"
        if t.op is None:
            chunks.append(head + ":ph")
        else:
            axes = ",".join(axis_fp(a) for a in t.op.axes)
            chunks.append(f"{head}:axes[{axes}]:{expr_fp(t.op.body)}")

    for out in out_list:
        visit(out)
    roots = ",".join(str(tensor_ids[id(t)]) for t in out_list)
    return ";".join(chunks) + f";roots={roots}", symbolic


def _stable_value(value) -> str:
    """Render plain option/spec values deterministically."""
    if isinstance(value, dict):
        items = ",".join(
            f"{_stable_value(k)}:{_stable_value(v)}"
            for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_stable_value(v) for v in value) + "]"
    if isinstance(value, (int, float, str, bool, Fraction)) or value is None:
        return repr(value)
    raise FingerprintError(f"unfingerprintable option value {type(value).__name__}")


def hw_fingerprint(hw) -> str:
    """Fingerprint of a :class:`~repro.hw.spec.HardwareSpec`."""
    items = ",".join(
        f"{name}={_stable_value(value)}"
        for name, value in sorted(vars(hw).items())
    )
    return f"{type(hw).__name__}({items})"


@functools.lru_cache(maxsize=None)
def default_hw_fingerprint() -> str:
    """``hw_fingerprint(HardwareSpec())``, rendered once per process (a
    caller's spec is mutable: never memoised, rendered for every key)."""
    from repro.hw.spec import HardwareSpec

    return hw_fingerprint(HardwareSpec())


def options_fingerprint(options) -> str:
    """Fingerprint of the backend-relevant fields of ``AkgOptions``.

    ``emit_trace`` *is* included because it changes the
    generated program.  ``budget`` is excluded: resource limits bound
    *how long* compilation may take, never what a successful first-choice
    compilation produces (degraded results are not cached at all).
    ``verify`` is excluded too: the static verifier checks a result
    without changing it, so verified and unverified builds share one
    entry (the clean bill rides on the entry as ``verified_clean``).
    """
    fields = {}
    for name, value in sorted(vars(options).items()):
        if name in ("budget", "verify"):
            continue
        if name == "tile_policy" and value is not None:
            value = value.render()
        fields[name] = value
    return "opts(" + _stable_value(fields) + ")"
