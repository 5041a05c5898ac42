"""The result cache: one on-disk format for every tool.

:class:`ShardedResultCache` memoises sweep-point values by
:func:`~repro.experiments.sweep.point_key` — ``load``/``store``, atomic
pickle-per-entry files — for ``ksr-experiments``, ``ksr-trace``,
``ksr-faults``, the benchmarks and ``ksr-serve`` alike, so a point one
tool computed is a hit for every other.  It lives under
``$KSR_CACHE_DIR`` or ``./.ksr-cache`` (:meth:`ShardedResultCache.default`)
and adds what a long-lived server needs:

* **Two-level fan-out** — entries live at ``objects/ab/cd/<key>.pkl``
  (first two byte-pairs of the SHA-256 key), so a cache holding
  hundreds of thousands of points never produces a directory large
  enough to make ``readdir`` a hot spot.
* **Size cap with LRU eviction** — ``cap_bytes`` bounds the resident
  set; eviction drops least-recently-*used* entries (access bumps the
  entry's mtime) until the cap holds again.
* **Pinning** — a :meth:`pin_session` marks every key a running job
  touches; eviction never removes pinned entries, so a campaign in
  flight cannot have points evicted between its own batches.
* **Safe concurrency** — all writes are tempfile + ``os.replace``;
  counters, pins and eviction are guarded by one lock so multiple
  server workers can share a single instance.

Like ``sweep.py``, this module is harness-side code: wall-clock mtimes
and filesystem state never touch simulated time.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = ["ShardedResultCache", "CACHE_FORMAT_VERSION", "default_root"]

#: Default cache directory (relative to the current working directory).
CACHE_DIR_DEFAULT = ".ksr-cache"
#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "KSR_CACHE_DIR"

#: Bumped when the on-disk layout changes; a mismatched cache directory
#: is refused rather than silently misread.
CACHE_FORMAT_VERSION = 2


def default_root() -> str:
    """Where every tool's cache lives: ``$KSR_CACHE_DIR`` or ``./.ksr-cache``."""
    return os.environ.get(CACHE_DIR_ENV, CACHE_DIR_DEFAULT)


class ShardedResultCache:
    """Two-level sharded, size-capped, pinnable point cache.

    A corrupt or unreadable entry degrades to a miss, is counted in
    :attr:`corrupt`, and the poisoned file is deleted so it cannot mask
    a subsequent good write.

    Parameters
    ----------
    root:
        Cache directory, resolved to an absolute path at construction:
        ``ShardedResultCache("./.ksr-cache")`` denotes the *same* cache
        no matter which directory later code runs from.
    cap_bytes:
        Resident-set bound; ``None`` means uncapped.  Enforced after
        every store, skipping pinned entries.
    """

    def __init__(self, root: str | os.PathLike[str], *, cap_bytes: int | None = None):
        if cap_bytes is not None and cap_bytes <= 0:
            raise ValueError(f"cap_bytes must be positive or None, got {cap_bytes}")
        self.root = Path(root).resolve()
        self.cap_bytes = cap_bytes
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.evictions = 0
        #: Misses served by :attr:`remote_fetch` (fleet read-through).
        self.remote_hits = 0
        #: Remote read-through seam.  When set (the fleet worker wires
        #: it to its replica peers), a local miss consults this callable
        #: — ``key -> (hit, value)`` — before being counted as a miss;
        #: a remote hit is adopted into the local shard so the key is
        #: served locally from then on.  ``None`` (the default) keeps
        #: single-daemon behaviour bit-identical.
        self.remote_fetch: Callable[[str], tuple[bool, Any]] | None = None
        self._lock = threading.Lock()
        #: Active pin sessions: owning thread id -> stack of key sets.
        #: Attribution is thread-local: the scheduler runs one job per
        #: worker thread, and every cache op of that job (hit checks
        #: and stores alike) happens on that thread, so keys pin to the
        #: job that actually touched them — not to every job in flight.
        self._pins: dict[int, list[set[str]]] = {}
        self._init_layout()

    @classmethod
    def default(cls) -> "ShardedResultCache":
        """Uncapped cache at :func:`default_root`."""
        return cls(default_root())

    # -- layout -------------------------------------------------------

    def _init_layout(self) -> None:
        objects = self.root / "objects"
        objects.mkdir(parents=True, exist_ok=True)
        marker = self.root / "CACHE_FORMAT"
        if marker.exists():
            found = marker.read_text().strip()
            if found != str(CACHE_FORMAT_VERSION):
                raise ValueError(
                    f"{self.root} holds cache format {found!r}, "
                    f"this build expects {CACHE_FORMAT_VERSION}"
                )
        else:
            marker.write_text(f"{CACHE_FORMAT_VERSION}\n")

    def _path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / key[2:4] / f"{key}.pkl"

    # -- pinning ------------------------------------------------------

    @contextmanager
    def pin_session(self) -> Iterator[set[str]]:
        """Pin every key this thread touches until exit.

        Yields the live key set.  ``load`` and ``store`` attribute each
        key to the calling thread's open session(s), and eviction skips
        the union of all sessions' keys — so an in-flight job's entries
        cannot be evicted out from under it by concurrent stores, while
        entries belonging to *other* (finished or unrelated) jobs stay
        ordinary LRU citizens.
        """
        ident = threading.get_ident()
        keys: set[str] = set()
        with self._lock:
            self._pins.setdefault(ident, []).append(keys)
        try:
            yield keys
        finally:
            with self._lock:
                stack = self._pins[ident]
                stack.remove(keys)
                if not stack:
                    del self._pins[ident]

    def _note_touch(self, key: str) -> None:
        ident = threading.get_ident()
        with self._lock:
            for keys in self._pins.get(ident, ()):
                keys.add(key)

    def _pinned_keys(self) -> set[str]:
        with self._lock:
            out: set[str] = set()
            for stack in self._pins.values():
                for keys in stack:
                    out |= keys
            return out

    # -- load/store (SweepRunner contract) ----------------------------

    def _read(self, key: str) -> tuple[dict[str, Any] | None, bool]:
        """``(entry, corrupt)`` for ``key`` from local disk.

        A missing file is ``(None, False)``.  A file that exists but
        fails to read or decode is unlinked, so it cannot shadow a
        later good store, and comes back as ``(None, True)``.  A
        readable entry bumps LRU recency: every read is a use.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
            entry["value"]  # an entry without its value is corrupt too
        except FileNotFoundError:
            return None, False
        except (OSError, pickle.PickleError, EOFError, KeyError, AttributeError):
            try:
                path.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - unlink race / permissions
                pass
            return None, True
        try:
            os.utime(path)
        except OSError:  # pragma: no cover
            pass
        return entry, False

    def load(self, key: str) -> tuple[bool, Any]:
        """Return ``(hit, value)``; corrupt entries are counted+dropped.

        A local miss consults :attr:`remote_fetch` (when wired): a
        remote hit is stored locally, counted in :attr:`remote_hits`
        *and* :attr:`hits` (the point was cache-served, just not by
        this shard yet), and returned as a hit.
        """
        self._note_touch(key)
        entry, corrupt = self._read(key)
        if entry is None:
            if corrupt:
                with self._lock:
                    self.corrupt += 1
            return self._remote_or_miss(key, count_miss_anyway=corrupt)
        with self._lock:
            self.hits += 1
        return True, entry["value"]

    def _remote_or_miss(
        self, key: str, *, count_miss_anyway: bool = False
    ) -> tuple[bool, Any]:
        """Resolve a local miss through the remote seam, else count it."""
        fetch = self.remote_fetch
        if fetch is not None:
            try:
                hit, value = fetch(key)
            except Exception:  # noqa: BLE001 - a sick peer degrades to a miss
                hit, value = False, None
            if hit:
                with self._lock:
                    self.remote_hits += 1
                    self.hits += 1
                    if count_miss_anyway:
                        self.misses += 1
                self.store(key, value, meta={"func": "", "origin": "read-through"})
                return True, value
        with self._lock:
            self.misses += 1
        return False, None

    def peek(self, key: str) -> tuple[bool, Any, dict[str, Any]]:
        """Local-only read of ``(hit, value, meta)`` for fleet peers.

        No counters move and :attr:`remote_fetch` is *not* consulted —
        this is what a worker answers when a peer read-throughs to it,
        so two workers missing the same key can never ping-pong.  A
        readable entry still bumps LRU recency (a replica serve is a
        use).
        """
        entry, _ = self._read(key)
        if entry is None:
            return False, None, {}
        return True, entry["value"], entry.get("meta", {})

    def contains(self, key: str) -> bool:
        """Whether ``key`` is resident locally (no counters, no remote)."""
        return self._path(key).exists()

    def store(self, key: str, value: Any, *, meta: dict[str, Any] | None = None) -> None:
        """Persist one entry atomically, then enforce the cap."""
        self._note_touch(key)
        path = self._path(key)
        entry = {"value": value, "meta": meta or {}}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.parent / f".tmp-{os.getpid()}-{threading.get_ident()}-{key[:16]}"
            with open(tmp, "wb") as fh:
                pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            return
        if self.cap_bytes is not None:
            self.evict_to_cap()

    # -- size accounting / eviction -----------------------------------

    def _resident(self) -> list[tuple[float, int, str, Path]]:
        """All entries as ``(mtime, size, key, path)`` (oldest-use first)."""
        out = []
        objects = self.root / "objects"
        for path in objects.glob("*/*/*.pkl"):
            try:
                st = path.stat()
            except OSError:  # pragma: no cover - concurrent eviction
                continue
            out.append((st.st_mtime, st.st_size, path.stem, path))
        out.sort()
        return out

    def resident_bytes(self) -> int:
        """Total size of all entries currently on disk."""
        return sum(size for _, size, _, _ in self._resident())

    def entry_count(self) -> int:
        """Number of entries currently on disk."""
        return len(self._resident())

    def keys(self) -> list[str]:
        """Sorted point keys currently resident in this shard.

        The fleet repair planner diffs these lists across workers to
        find under-replicated keys, so the answer is local disk truth
        — no counters move and :attr:`remote_fetch` is not consulted.
        """
        return sorted(key for _, _, key, _ in self._resident())

    def fingerprint(self) -> str:
        """Digest of the resident key set (shard identity at a glance).

        Workers advertise this at registration so the coordinator can
        tell a warm rejoin (same fingerprint lineage) from a wiped
        shard at a glance in its membership surfaces.  Content-only:
        two shards holding the same keys fingerprint identically.
        """
        digest = hashlib.sha256()
        for key in self.keys():
            digest.update(key.encode("ascii"))
            digest.update(b"\n")
        return digest.hexdigest()[:16]

    def evict_to_cap(self) -> int:
        """Drop least-recently-used unpinned entries until under the cap.

        Returns the number of entries evicted.  Pinned entries (of any
        in-flight :meth:`pin_session`) are never dropped, even if that
        leaves the cache over its cap until the session ends.
        """
        if self.cap_bytes is None:
            return 0
        entries = self._resident()
        total = sum(size for _, size, _, _ in entries)
        if total <= self.cap_bytes:
            return 0
        pinned = self._pinned_keys()
        dropped = 0
        for _, size, key, path in entries:
            if total <= self.cap_bytes:
                break
            if key in pinned:
                continue
            try:
                path.unlink(missing_ok=True)
            except OSError:  # pragma: no cover
                continue
            total -= size
            dropped += 1
        with self._lock:
            self.evictions += dropped
        return dropped

    # -- stats --------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Counters + layout facts for status surfaces and responses."""
        with self._lock:
            counters = {
                "hits": self.hits,
                "misses": self.misses,
                "corrupt": self.corrupt,
                "evictions": self.evictions,
                "remote_hits": self.remote_hits,
                "pinned": sum(len(k) for stack in self._pins.values() for k in stack),
            }
        entries = self._resident()
        return {
            "root": str(self.root),
            "format": CACHE_FORMAT_VERSION,
            "cap_bytes": self.cap_bytes,
            "bytes": sum(size for _, size, _, _ in entries),
            "entries": len(entries),
            "shards": len({path.parent for _, _, _, path in entries}),
            **counters,
        }
