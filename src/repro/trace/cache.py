"""On-disk trace cache: generate each workload trace once, replay forever.

Every experiment used to regenerate its synthetic trace from scratch — the
single most expensive step of a profile run.  The cache materialises a
workload once, serialises it in the binary packed format (see
:mod:`repro.trace.io`), and hands every later run a
:class:`~repro.trace.packed.PackedTrace` in milliseconds.

Entries are content-keyed by ``(workload, seed, length, code_copies,
format version)``; anything that changes the generated stream changes the
key, and bumping :data:`~repro.trace.io.PACKED_FORMAT_VERSION` invalidates
every existing entry.  Integrity is checked on load (magic, version,
per-column CRC, count, end marker); a corrupt or truncated entry is
silently discarded and regenerated, never served.

Configuration:

* ``REPRO_CACHE_DIR`` — cache directory (default
  ``~/.cache/repro-traces``).
* ``REPRO_CACHE=0`` — disable the cache entirely (experiments fall back
  to in-memory generation).

Telemetry: an attached :class:`~repro.telemetry.MetricsRegistry` receives
``cache.hit`` / ``cache.miss`` / ``cache.store`` / ``cache.invalid`` /
``cache.lock_wait`` counters, ``cache.bytes_written`` /
``cache.bytes_read``, the in-process memo's ``cache.mem_hit`` /
``cache.mem_evict``, and — from :meth:`TraceCache.stats` —
``cache.entries`` / ``cache.bytes`` gauges.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from itertools import islice

from ..telemetry import get_logger
from . import shm
from .io import PACKED_FORMAT_VERSION, TraceFormatError, load_packed, save_packed
from .packed import PackedTrace
from .synthetic import WorkloadSpec

log = get_logger("repro.trace.cache")

#: File extension of cache entries.
ENTRY_SUFFIX = ".rpt"

#: File extension of per-entry generation locks.
LOCK_SUFFIX = ".lock"


def cache_enabled() -> bool:
    """True unless ``REPRO_CACHE=0`` (or empty) is set in the environment."""
    return os.environ.get("REPRO_CACHE", "1") not in ("0", "")


def cache_root() -> Path:
    """The configured cache directory (not created until first write)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-traces"


def _resolve(workload: Union[str, WorkloadSpec]) -> WorkloadSpec:
    if isinstance(workload, WorkloadSpec):
        return workload
    from .workloads import get

    return get(workload)


def effective_length(spec: WorkloadSpec, length: int) -> int:
    """Clamp *length* to a finite workload's recording.

    Synthetic generators are endless, but imported workloads
    (:class:`repro.trace.ingest.store.ImportedWorkloadSpec`) carry a
    ``fixed_length``: asking for more instructions than the recording
    holds silently serves the whole recording.  Every tier (memo, shm,
    disk) keys on the clamped length, so an over-long request and an
    exact request share one entry instead of regenerating forever.
    """
    fixed = getattr(spec, "fixed_length", None)
    if fixed is None:
        return length
    return min(length, int(fixed))


class TraceCache:
    """Load-or-generate store of packed workload traces.

    Args:
        root: cache directory; defaults to :func:`cache_root`.
        metrics: optional :class:`~repro.telemetry.MetricsRegistry` for the
            hit/miss/size counters.
    """

    #: How long a waiter polls for another process's generation before
    #: giving up and generating itself (seconds).
    lock_timeout_s = 300.0
    #: A lockfile older than this is presumed abandoned (its holder
    #: crashed before unlinking it) and is broken.
    lock_stale_s = 600.0
    #: Poll interval while waiting on another process's lock.
    lock_poll_s = 0.05

    def __init__(self, root: Optional[Union[str, Path]] = None, metrics=None):
        self.root = Path(root) if root is not None else cache_root()
        self.metrics = metrics

    # -- keying ----------------------------------------------------------
    @staticmethod
    def key(name: str, length: int, seed: int, code_copies: int) -> str:
        """Content digest of one cache entry's identity."""
        ident = f"{name}|{seed}|{length}|{code_copies}|v{PACKED_FORMAT_VERSION}"
        return hashlib.sha256(ident.encode("ascii")).hexdigest()[:12]

    def entry_path(self, name: str, length: int, seed: int,
                   code_copies: int) -> Path:
        digest = self.key(name, length, seed, code_copies)
        return self.root / (
            f"{name}-L{length}-s{seed}-c{code_copies}"
            f"-v{PACKED_FORMAT_VERSION}-{digest}{ENTRY_SUFFIX}"
        )

    def _count(self, counter: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"cache.{counter}").inc(amount)

    # -- the core operation ----------------------------------------------
    def _try_load(self, path: Path, length: int) -> Optional[PackedTrace]:
        """Load an entry if present and intact; discard damaged ones."""
        if not path.exists():
            return None
        try:
            packed = load_packed(path)
            if len(packed) != length:
                raise TraceFormatError(
                    f"{path}: entry holds {len(packed)} instructions, "
                    f"key promised {length}")
            self._count("hit")
            self._count("bytes_read", path.stat().st_size)
            return packed
        except (TraceFormatError, OSError) as exc:
            log.warning("discarding unreadable cache entry %s: %s",
                        path, exc)
            self._count("invalid")
            try:
                path.unlink()
            except OSError:
                pass
            return None

    # -- generation lock --------------------------------------------------
    def _acquire_lock(self, lock: Path) -> bool:
        """Try to become the single generator for one entry.

        Returns True when this process holds the lock — or when the
        filesystem cannot express one (read-only root), in which case the
        pre-lock behaviour (everyone generates) is the graceful floor.
        """
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError:
            # Unusable cache root (e.g. a file where the directory should
            # be): locking is impossible, but _store already tolerates the
            # failed write, so generate without coordination.
            return True
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            return True
        try:
            os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        finally:
            os.close(fd)
        return True

    @staticmethod
    def _release_lock(lock: Path) -> None:
        try:
            lock.unlink()
        except OSError:
            pass

    def _wait_for_entry(self, path: Path, lock: Path) -> str:
        """Wait while another process generates this entry.

        Returns ``"entry"`` when the entry appeared, ``"retry"`` when the
        lock was released (or broken as stale) without one, ``"timeout"``
        when the holder outlived :attr:`lock_timeout_s`.
        """
        self._count("lock_wait")
        deadline = time.monotonic() + self.lock_timeout_s
        while time.monotonic() < deadline:
            if path.exists():
                return "entry"
            try:
                held_since = lock.stat().st_mtime
            except OSError:
                return "retry"
            if time.time() - held_since > self.lock_stale_s:
                log.warning("breaking stale cache lock %s", lock)
                self._release_lock(lock)
                return "retry"
            time.sleep(self.lock_poll_s)
        return "timeout"

    def load_or_generate(self, workload: Union[str, WorkloadSpec],
                         length: int, seed: Optional[int] = None,
                         code_copies: int = 1) -> PackedTrace:
        """Return the packed trace for *workload*, from disk when possible.

        A miss generates the trace (identical stream to
        :meth:`WorkloadSpec.trace`), stores it, and returns the packed
        form; an unreadable entry counts as ``cache.invalid`` and is
        regenerated in place.  Concurrent misses on the same key are
        serialised through a per-entry lockfile: exactly one process
        generates while the others wait (``cache.lock_wait``) and then
        load its entry, so a parallel campaign never burns N cores
        regenerating one trace N times.
        """
        spec = _resolve(workload)
        effective_seed = spec.seed if seed is None else seed
        length = effective_length(spec, length)
        if (hasattr(spec, "load_full")
                and length == getattr(spec, "fixed_length", None)):
            # The whole recording: serve the imported store's canonical
            # file directly instead of duplicating it as a cache entry.
            self._count("hit")
            self._count("imported_hit")
            return spec.load_full()
        path = self.entry_path(spec.name, length, effective_seed, code_copies)
        packed = self._try_load(path, length)
        if packed is not None:
            return packed
        lock = path.with_name(path.name + LOCK_SUFFIX)
        while True:
            if self._acquire_lock(lock):
                try:
                    # Double-check under the lock: the previous holder may
                    # have finished between our miss and our acquisition.
                    packed = self._try_load(path, length)
                    if packed is not None:
                        return packed
                    return self._generate_and_store(
                        spec, path, length, seed, code_copies)
                finally:
                    self._release_lock(lock)
            outcome = self._wait_for_entry(path, lock)
            if outcome == "entry":
                packed = self._try_load(path, length)
                if packed is not None:
                    return packed
                continue  # entry was damaged; compete for the lock
            if outcome == "timeout":
                # The holder is wedged: generate anyway.  The atomic
                # store makes a duplicate write harmless.
                return self._generate_and_store(
                    spec, path, length, seed, code_copies)
            # "retry": lock released or broken without an entry.

    def _generate_and_store(self, spec: WorkloadSpec, path: Path,
                            length: int, seed: Optional[int],
                            code_copies: int) -> PackedTrace:
        self._count("miss")
        stream = spec.generate(seed=seed, code_copies=code_copies)
        packed = PackedTrace.from_instructions(islice(stream, length),
                                               name=spec.name)
        self._store(packed, path)
        return packed

    def _store(self, packed: PackedTrace, path: Path) -> None:
        """Atomically write one entry (concurrent writers never tear it)."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root,
                                       prefix=path.stem, suffix=".tmp")
            os.close(fd)
            try:
                nbytes = save_packed(packed, tmp)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self._count("store")
            self._count("bytes_written", nbytes)
            log.info("cached %s (%d instructions, %d bytes)",
                     path.name, len(packed), nbytes)
        except OSError as exc:
            # A read-only or full cache directory must never fail the run.
            log.warning("could not store cache entry %s: %s", path, exc)

    # -- management ------------------------------------------------------
    def warm(self, workloads: Iterable[Union[str, WorkloadSpec]],
             length: int, seed: Optional[int] = None, code_copies: int = 1,
             on_progress=None) -> List[Tuple[str, bool]]:
        """Populate entries for *workloads*; returns ``(name, was_hit)``."""
        outcome: List[Tuple[str, bool]] = []
        names = list(workloads)
        for i, workload in enumerate(names):
            spec = _resolve(workload)
            effective_seed = spec.seed if seed is None else seed
            eff_length = effective_length(spec, length)
            path = self.entry_path(spec.name, eff_length, effective_seed,
                                   code_copies)
            hit = (path.exists()
                   or eff_length == getattr(spec, "fixed_length", None))
            if not hit:
                self.load_or_generate(spec, length, seed=seed,
                                      code_copies=code_copies)
            else:
                self._count("hit")
            outcome.append((spec.name, hit))
            if on_progress is not None:
                on_progress(i + 1, len(names))
        return outcome

    def entries(self) -> List[Tuple[str, int]]:
        """``(filename, size_bytes)`` of every entry, sorted by name."""
        if not self.root.is_dir():
            return []
        found = []
        for path in sorted(self.root.glob(f"*{ENTRY_SUFFIX}")):
            try:
                found.append((path.name, path.stat().st_size))
            except OSError:
                continue
        return found

    def stats(self) -> Dict[str, object]:
        """Entry count, total size, per-entry listing, a per-origin
        (generated vs imported) breakdown, and this process's hit/miss
        counters; mirrored into the metrics registry as gauges."""
        entries = self.entries()
        total = sum(size for _name, size in entries)
        counters = {}
        if self.metrics is not None:
            self.metrics.gauge("cache.entries").set(len(entries))
            self.metrics.gauge("cache.bytes").set(total)
            counters = {
                name: c.value for name, c in self.metrics.counters.items()
                if name.startswith("cache.")
            }
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": total,
            "files": [{"name": name, "bytes": size}
                      for name, size in entries],
            "origins": self._origins(entries),
            "counters": counters,
        }

    @staticmethod
    def _origins(entries: List[Tuple[str, int]]) -> Dict[str, object]:
        """Per-origin breakdown of the cache's contents.

        ``generated`` / ``imported`` split the cache entries by whether
        their workload name belongs to the imported store (imported
        entries exist only for truncated replays — full-length loads are
        served from the store's canonical file, reported under
        ``imported_store``).
        """
        from .ingest import store as ingest_store

        imported = ingest_store.imported_names()
        prefixes = tuple(f"{name}-L" for name in imported)
        split = {"generated": [0, 0], "imported": [0, 0]}
        for name, size in entries:
            origin = "imported" if name.startswith(prefixes) else "generated"
            split[origin][0] += 1
            split[origin][1] += size
        store_bytes = 0
        for name in imported:
            try:
                store_bytes += ingest_store.trace_path(name).stat().st_size
            except OSError:
                pass
        return {
            "generated": {"entries": split["generated"][0],
                          "bytes": split["generated"][1]},
            "imported": {"entries": split["imported"][0],
                         "bytes": split["imported"][1]},
            "imported_store": {"root": str(ingest_store.imported_root()),
                               "workloads": len(imported),
                               "bytes": store_bytes},
        }

    def clear(self) -> int:
        """Delete every cache entry (and stray generation lock); returns
        the number of entries removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob(f"*{ENTRY_SUFFIX}"):
            try:
                path.unlink()
                removed += 1
            except OSError as exc:
                log.warning("could not remove %s: %s", path, exc)
        for lock in self.root.glob(f"*{LOCK_SUFFIX}"):
            self._release_lock(lock)
        return removed


def default_cache(metrics=None) -> TraceCache:
    """A cache rooted at the configured directory.

    Constructed per call (it is stateless beyond the root path), so
    environment changes — tests pointing ``REPRO_CACHE_DIR`` at a tmpdir —
    always take effect.
    """
    return TraceCache(metrics=metrics)


#: In-process memo over the disk/shm tiers: repeated experiment calls
#: (bench rounds, campaign sweeps, warm pool workers) get the *same*
#: ``PackedTrace`` object back, so per-trace derived state keyed by
#: object identity — the pipeline kernel's dataflow/fetch/timing
#: auxiliaries — survives across calls instead of being rebuilt from a
#: fresh deserialisation each time.  Traces are immutable once packed,
#: so sharing is safe.  A true LRU: a hit refreshes recency
#: (``cache.mem_hit``), inserting past the cap evicts the least
#: recently used entry (``cache.mem_evict``).
_MEM_CACHE: "OrderedDict[tuple, PackedTrace]" = OrderedDict()

#: Memo capacity, in traces per process.
_MEM_CAP = 12


def _memo_get(memo_key: tuple, metrics) -> Optional[PackedTrace]:
    hit = _MEM_CACHE.get(memo_key)
    if hit is None:
        return None
    _MEM_CACHE.move_to_end(memo_key)
    if metrics is not None:
        metrics.counter("cache.mem_hit").inc()
        # A memo hit is still a cache hit: the entry was served warm,
        # just from the cheapest tier.
        metrics.counter("cache.hit").inc()
    return hit


def _memo_put(memo_key: tuple, trace: PackedTrace, metrics) -> None:
    while len(_MEM_CACHE) >= _MEM_CAP:
        _MEM_CACHE.popitem(last=False)
        if metrics is not None:
            metrics.counter("cache.mem_evict").inc()
    _MEM_CACHE[memo_key] = trace


def memo_clear() -> None:
    """Empty the in-process trace memo (test hook)."""
    _MEM_CACHE.clear()


def cached_trace(workload: Union[str, WorkloadSpec], length: int,
                 seed: Optional[int] = None, code_copies: int = 1,
                 metrics=None):
    """The experiment harness entry point: packed-and-cached when the
    cache is enabled, plain in-memory generation otherwise.

    Lookup tiers, cheapest first: the in-process memo (same object
    back), the shared-memory trace plane (zero-copy attach to a segment
    the campaign driver published — see :mod:`repro.trace.shm`), then
    the on-disk cache.  Every tier yields bit-identical columns; shm
    and memo hits both count ``cache.hit``.
    """
    if cache_enabled():
        spec = _resolve(workload)
        effective_seed = spec.seed if seed is None else seed
        length = effective_length(spec, length)
        memo_key = (str(cache_root()), spec.name, length, effective_seed,
                    code_copies)
        hit = _memo_get(memo_key, metrics)
        if hit is not None:
            return hit
        trace = shm.shm_trace(spec.name, length, effective_seed,
                              code_copies, metrics=metrics)
        if trace is not None:
            if metrics is not None:
                metrics.counter("cache.hit").inc()
        else:
            trace = default_cache(metrics=metrics).load_or_generate(
                spec, length, seed=seed, code_copies=code_copies)
        if isinstance(trace, PackedTrace):
            _memo_put(memo_key, trace, metrics)
        return trace
    spec = _resolve(workload)
    return spec.trace(length, seed=seed, code_copies=code_copies)
