"""The on-disk, content-addressed compile cache.

Layout under the cache directory::

    objects/<k0k1>/<key>.rpc    the artifacts (k0k1 = first two hex chars)
    tmp/                        in-flight writes (same filesystem -> atomic rename)
    quarantine/                 artifacts that failed validation, kept for triage

Every artifact is a **versioned binary envelope**::

    magic "RPC1" | format u16 | reserved u16 | payload len u64 | sha256(payload) | payload

with the payload being the pickled :class:`~repro.compiler.CompiledProgram`
(whose ``__getstate__`` already drops run-time plan caches).  A reader
validates magic, format version, length and checksum before unpickling; any
failure **quarantines** the file (moved aside, never deleted in place, never
re-read) and counts as a miss — a corrupt or truncated artifact can slow a
cold start down, never crash it or serve wrong code.

Writes are atomic: the envelope is written to ``tmp/`` and ``os.replace``d
into place, so concurrent writers of the same key race safely (last rename
wins, both envelopes are valid, readers see one or the other, never a torn
file) and a crash mid-write leaves only tmp litter.

The store is **LRU size-bounded** (``max_bytes``, default 512 MiB or
``REPRO_CACHE_MAX_MB``): a hit bumps the artifact's mtime, and after each
write the oldest artifacts are evicted until the total size fits.  An
in-process **memo layer** (bounded, fork-inherited read-only) makes repeat
compiles of a hot program one dict lookup — no disk, no unpickle.

Counters (``hits``/``misses``/``stores``/``evictions``/``corrupt`` plus the
memo/disk hit split) are exported through
:func:`repro.obs.export.render_cache_prometheus`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
from collections import OrderedDict
from typing import Optional

from ..backends.registry import ForkSafeLock

_MAGIC = b"RPC1"
_FORMAT_VERSION = 1
_HEADER = struct.Struct(">4sHHQ32s")  # magic, format, reserved, payload len, sha256

#: default size bound (bytes) when neither the constructor nor
#: ``REPRO_CACHE_MAX_MB`` says otherwise
_DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: in-process memo bound (programs, not bytes — plans dominate a hot
#: program's footprint anyway and live on the instances themselves)
_MEMO_SIZE = 256

#: sentinel for "use the environment-configured default cache" — the default
#: of every ``cache=`` parameter, distinct from an explicit ``None`` (off)
ENV_DEFAULT = object()


class CacheError(RuntimeError):
    """The cache directory could not be used (permissions, not a dir, ...)."""


def _encode(payload: bytes) -> bytes:
    return (
        _HEADER.pack(
            _MAGIC, _FORMAT_VERSION, 0, len(payload), hashlib.sha256(payload).digest()
        )
        + payload
    )


def _decode(blob: bytes) -> bytes:
    """The validated payload of one envelope; raises ``ValueError`` otherwise."""
    if len(blob) < _HEADER.size:
        raise ValueError("envelope shorter than its header")
    magic, version, _, length, digest = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported envelope format {version}")
    payload = blob[_HEADER.size :]
    if len(payload) != length:
        raise ValueError(f"payload length {len(payload)} != header {length}")
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError("payload checksum mismatch")
    return payload


class CompileCache:
    """One cache directory: disk store + in-process memo + counters.

    Instances are cheap; several instances (even across processes) may share
    a directory — the disk format carries all coordination (atomic renames,
    self-validating envelopes).  Counters are per-instance.  Thread-safe;
    the lock is fork-safe (:class:`~repro.backends.registry.ForkSafeLock`),
    and a forked child inherits the memo read-only-usefully (shard workers
    start warm twice over).
    """

    def __init__(
        self,
        path: str,
        max_bytes: Optional[int] = None,
        memo_size: int = _MEMO_SIZE,
    ) -> None:
        self.path = os.path.abspath(path)
        if max_bytes is None:
            mb = os.environ.get("REPRO_CACHE_MAX_MB")
            max_bytes = int(float(mb) * 1024 * 1024) if mb else _DEFAULT_MAX_BYTES
        if max_bytes <= 0:
            raise CacheError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self.memo_size = memo_size
        self._memo: OrderedDict[str, object] = OrderedDict()
        self._lock = ForkSafeLock()
        self.counters = {
            "hits": 0,
            "memo_hits": 0,
            "disk_hits": 0,
            "misses": 0,
            "stores": 0,
            "evictions": 0,
            "corrupt": 0,
        }
        for sub in ("objects", "tmp", "quarantine"):
            os.makedirs(os.path.join(self.path, sub), exist_ok=True)
        if not os.path.isdir(os.path.join(self.path, "objects")):  # pragma: no cover
            raise CacheError(f"cannot create cache directory under {self.path!r}")

    # -- paths ---------------------------------------------------------------

    def _object_path(self, key: str) -> str:
        return os.path.join(self.path, "objects", key[:2], f"{key}.rpc")

    def _quarantine(self, path: str, reason: str) -> None:
        """Move a failed artifact aside (never delete, never re-read)."""
        dst = os.path.join(
            self.path, "quarantine", f"{os.path.basename(path)}.{os.getpid()}"
        )
        try:
            os.replace(path, dst)
            with open(dst + ".reason", "w", encoding="utf-8") as fh:
                fh.write(reason + "\n")
        except OSError:  # a racing process may have moved it first
            pass

    # -- core API ------------------------------------------------------------

    def get(self, key: str):
        """The cached program for ``key``, or ``None`` (a miss).

        Memo first, then disk (validated envelope -> unpickle -> memoised).
        A disk hit refreshes the artifact's mtime — the LRU clock.
        """
        with self._lock:
            prog = self._memo.get(key)
            if prog is not None:
                self._memo.move_to_end(key)
                self.counters["hits"] += 1
                self.counters["memo_hits"] += 1
                return prog
        path = self._object_path(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            with self._lock:
                self.counters["misses"] += 1
            return None
        try:
            prog = pickle.loads(_decode(blob))
        except Exception as e:  # noqa: BLE001 - any validation failure quarantines
            self._quarantine(path, f"{type(e).__name__}: {e}")
            with self._lock:
                self.counters["corrupt"] += 1
                self.counters["misses"] += 1
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        with self._lock:
            self.counters["hits"] += 1
            self.counters["disk_hits"] += 1
            self._memoize(key, prog)
        return prog

    def put(self, key: str, prog, payload: Optional[bytes] = None) -> None:
        """Store ``prog`` under ``key`` (atomic write + LRU eviction).

        ``payload`` short-circuits the pickling when the caller already
        serialised the program (the shard executor ships the same bytes).
        An existing valid-looking artifact is only touched (mtime), not
        rewritten — concurrent writers converge instead of churning.
        """
        with self._lock:
            self._memoize(key, prog)
            self.counters["stores"] += 1
        path = self._object_path(key)
        if os.path.exists(path):
            try:
                os.utime(path)
                return
            except OSError:
                pass
        if payload is None:
            payload = pickle.dumps(prog, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _encode(payload)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.join(self.path, "tmp"), suffix=".rpc")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._evict()

    def _memoize(self, key: str, prog) -> None:
        self._memo[key] = prog
        self._memo.move_to_end(key)
        while len(self._memo) > self.memo_size:
            self._memo.popitem(last=False)

    def clear_memo(self) -> None:
        """Drop the in-process memo (tests: simulate a fresh process)."""
        with self._lock:
            self._memo.clear()

    # -- eviction ------------------------------------------------------------

    def _artifacts(self) -> list[tuple[float, int, str]]:
        """(mtime, size, path) for every artifact under objects/."""
        out = []
        objects = os.path.join(self.path, "objects")
        for root, _, files in os.walk(objects):
            for name in files:
                p = os.path.join(root, name)
                try:
                    st = os.stat(p)
                except OSError:
                    continue
                out.append((st.st_mtime, st.st_size, p))
        return out

    def _evict(self) -> None:
        """Remove oldest artifacts until the store fits ``max_bytes``."""
        arts = self._artifacts()
        total = sum(size for _, size, _ in arts)
        if total <= self.max_bytes:
            return
        evicted = 0
        for _, size, p in sorted(arts):
            if total <= self.max_bytes:
                break
            try:
                os.unlink(p)
            except OSError:
                continue
            total -= size
            evicted += 1
        if evicted:
            with self._lock:
                self.counters["evictions"] += evicted

    # -- observability -------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able counters + store shape (the metrics-endpoint section)."""
        arts = self._artifacts()
        with self._lock:
            snap = dict(self.counters)
            snap["memo_entries"] = len(self._memo)
        snap["disk_entries"] = len(arts)
        snap["disk_bytes"] = sum(size for _, size, _ in arts)
        snap["max_bytes"] = self.max_bytes
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompileCache({self.path!r}, {self.counters})"


# -- the environment-configured default --------------------------------------

_DEFAULT_LOCK = ForkSafeLock()
_DEFAULT_INSTANCES: dict[str, CompileCache] = {}


def default_cache() -> Optional[CompileCache]:
    """The process-wide cache configured by ``REPRO_CACHE_DIR`` (or ``None``).

    One shared instance per directory, so counters accumulate across every
    ``compile_nsc`` in the process; re-reading the environment on each call
    keeps tests (and long-lived servers reconfigured via env) honest.
    """
    path = os.environ.get("REPRO_CACHE_DIR")
    if not path:
        return None
    path = os.path.abspath(path)
    with _DEFAULT_LOCK:
        inst = _DEFAULT_INSTANCES.get(path)
        if inst is None:
            inst = CompileCache(path)
            _DEFAULT_INSTANCES[path] = inst
        return inst


def resolve_cache(cache) -> Optional[CompileCache]:
    """Normalise a ``cache=`` argument: sentinel -> env default, falsy -> off."""
    if cache is ENV_DEFAULT:
        return default_cache()
    if not cache:
        return None
    return cache
