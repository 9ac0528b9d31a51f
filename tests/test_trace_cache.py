"""On-disk trace cache: round-trip fidelity, integrity, and invalidation.

The cache may *never* change an experiment's numbers: a warm load must be
bit-identical to cold generation, and any damaged entry must be detected,
discarded, and regenerated rather than served.
"""

import os

import pytest

from repro.telemetry import MetricsRegistry
from repro.trace import PackedTrace
from repro.trace import cache as cache_mod
from repro.trace.cache import (
    TraceCache,
    cache_enabled,
    cache_root,
    cached_trace,
    memo_clear,
)
from repro.trace.io import (
    PACKED_MAGIC,
    TraceFormatError,
    load_packed,
    save_packed,
)
from repro.trace.workloads import get


@pytest.fixture
def cache(tmp_path):
    return TraceCache(root=tmp_path / "cache", metrics=MetricsRegistry())


def counters(cache):
    return {name: c.value for name, c in cache.metrics.counters.items()}


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        trace = get("vortex").trace(4000)
        packed = PackedTrace.from_instructions(trace, name="vortex")
        path = tmp_path / "t.rpt"
        nbytes = save_packed(packed, path)
        assert nbytes == path.stat().st_size > 0
        loaded = load_packed(path)
        assert loaded.name == "vortex"
        assert list(loaded) == list(trace)  # values, addrs, ops, everything

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.rpt"
        save_packed(PackedTrace.from_instructions(get("gcc").trace(100)), path)
        data = bytearray(path.read_bytes())
        assert data[:len(PACKED_MAGIC)] == PACKED_MAGIC
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="magic"):
            load_packed(path)

    def test_corrupt_payload_detected(self, tmp_path):
        path = tmp_path / "t.rpt"
        save_packed(PackedTrace.from_instructions(get("gcc").trace(500)), path)
        data = bytearray(path.read_bytes())
        # Flip a byte deep inside the column payloads; either zlib or the
        # CRC must catch it.
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError):
            load_packed(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "t.rpt"
        save_packed(PackedTrace.from_instructions(get("gcc").trace(500)), path)
        data = path.read_bytes()
        for cut in (len(data) - 1, len(data) // 2, 10):
            path.write_bytes(data[:cut])
            with pytest.raises(TraceFormatError):
                load_packed(path)


class TestTraceCache:
    def test_warm_load_equals_cold_generation(self, cache):
        cold = cache.load_or_generate("gcc", 3000)
        assert counters(cache)["cache.miss"] == 1
        warm = cache.load_or_generate("gcc", 3000)
        assert counters(cache)["cache.hit"] == 1
        assert list(warm) == list(cold)
        # ... and both match direct generation.
        assert list(cold) == list(get("gcc").trace(3000))

    def test_key_separates_parameters(self, cache):
        paths = {
            cache.entry_path("gcc", 1000, 1, 1),
            cache.entry_path("gcc", 2000, 1, 1),
            cache.entry_path("gcc", 1000, 2, 1),
            cache.entry_path("gcc", 1000, 1, 4),
            cache.entry_path("mcf", 1000, 1, 1),
        }
        assert len(paths) == 5

    def test_corrupt_entry_regenerated(self, cache):
        cache.load_or_generate("mcf", 1000)
        path = cache.entry_path("mcf", 1000, get("mcf").seed, 1)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        trace = cache.load_or_generate("mcf", 1000)
        assert counters(cache)["cache.invalid"] == 1
        assert counters(cache)["cache.miss"] == 2
        assert list(trace) == list(get("mcf").trace(1000))
        # The regenerated entry is healthy again.
        assert list(load_packed(path)) == list(trace)

    def test_truncated_entry_regenerated(self, cache):
        cache.load_or_generate("mcf", 1000)
        path = cache.entry_path("mcf", 1000, get("mcf").seed, 1)
        path.write_bytes(path.read_bytes()[:64])
        trace = cache.load_or_generate("mcf", 1000)
        assert counters(cache)["cache.invalid"] == 1
        assert list(trace) == list(get("mcf").trace(1000))

    def test_version_bump_invalidates(self, cache, monkeypatch):
        cache.load_or_generate("gzip", 800)
        old_path = cache.entry_path("gzip", 800, get("gzip").seed, 1)
        assert old_path.exists()
        import repro.trace.cache as cache_mod
        import repro.trace.io as io_mod

        monkeypatch.setattr(io_mod, "PACKED_FORMAT_VERSION",
                            io_mod.PACKED_FORMAT_VERSION + 1)
        monkeypatch.setattr(cache_mod, "PACKED_FORMAT_VERSION",
                            io_mod.PACKED_FORMAT_VERSION)
        new_path = cache.entry_path("gzip", 800, get("gzip").seed, 1)
        assert new_path != old_path  # old entry can never be served
        cache.load_or_generate("gzip", 800)
        assert counters(cache)["cache.miss"] == 2

    def test_warm_and_stats_and_clear(self, cache):
        outcome = cache.warm(["gcc", "mcf"], 500)
        assert outcome == [("gcc", False), ("mcf", False)]
        outcome = cache.warm(["gcc", "mcf"], 500)
        assert outcome == [("gcc", True), ("mcf", True)]
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] == sum(f["bytes"] for f in stats["files"]) > 0
        assert cache.metrics.gauges["cache.entries"].value == 2
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0

    def test_store_failure_is_not_fatal(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the cache dir should be")
        cache = TraceCache(root=blocker)  # mkdir will fail
        trace = cache.load_or_generate("gcc", 300)
        assert list(trace) == list(get("gcc").trace(300))


class TestGenerationLock:
    def test_concurrent_misses_generate_once(self, tmp_path):
        """Two threads missing the same key: one generates, the other
        waits on the lock and loads the winner's entry."""
        import threading

        cache = TraceCache(root=tmp_path / "cache",
                           metrics=MetricsRegistry())
        calls = []
        original = TraceCache._generate_and_store

        def slow_generate(self, spec, path, length, seed, code_copies):
            calls.append(threading.get_ident())
            import time
            time.sleep(0.15)  # widen the race window
            return original(self, spec, path, length, seed, code_copies)

        TraceCache._generate_and_store = slow_generate
        try:
            results = {}

            def worker(tag):
                results[tag] = cache.load_or_generate("gcc", 1500)

            threads = [threading.Thread(target=worker, args=(t,))
                       for t in ("a", "b")]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            TraceCache._generate_and_store = original
        assert len(calls) == 1, "exactly one thread must generate"
        assert list(results["a"]) == list(results["b"])
        assert counters(cache)["cache.lock_wait"] == 1
        # the lock is gone afterwards
        assert not list((tmp_path / "cache").glob("*.lock"))

    def test_stale_lock_broken(self, cache):
        path = cache.entry_path("gcc", 900, get("gcc").seed, 1)
        lock = path.with_name(path.name + ".lock")
        cache.root.mkdir(parents=True, exist_ok=True)
        lock.write_text("999999\n")
        old = os.stat(lock).st_mtime - cache.lock_stale_s - 10
        os.utime(lock, (old, old))
        # the pre-existing (stale) lock denies acquisition once, forcing
        # the waiter path, which detects the age and breaks it
        trace = cache.load_or_generate("gcc", 900)
        assert list(trace) == list(get("gcc").trace(900))
        assert counters(cache)["cache.lock_wait"] == 1
        assert not lock.exists()

    def test_lock_timeout_generates_anyway(self, cache):
        path = cache.entry_path("mcf", 700, get("mcf").seed, 1)
        lock = path.with_name(path.name + ".lock")
        cache.root.mkdir(parents=True, exist_ok=True)
        lock.write_text("1\n")  # fresh lock, wedged holder
        cache.lock_timeout_s = 0.2
        cache.lock_stale_s = 3600.0
        trace = cache.load_or_generate("mcf", 700)
        assert list(trace) == list(get("mcf").trace(700))
        assert counters(cache)["cache.miss"] == 1

    def test_clear_removes_stray_locks(self, cache):
        cache.load_or_generate("gcc", 400)
        stray = cache.root / ("orphan.rpt" + ".lock")
        stray.write_text("1\n")
        cache.clear()
        assert not stray.exists()


class TestEnvironment:
    def test_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "here"))
        assert cache_root() == tmp_path / "here"

    def test_cache_disable_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert cache_enabled()
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert not cache_enabled()
        trace = cached_trace("gcc", 400)
        assert not isinstance(trace, PackedTrace)  # plain in-memory path
        assert list(os.scandir(tmp_path)) == []  # nothing written

    def test_cached_trace_writes_and_reuses(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        first = cached_trace("twolf", 600)
        assert isinstance(first, PackedTrace)
        entries = [e.name for e in os.scandir(tmp_path)]
        assert len(entries) == 1 and entries[0].endswith(".rpt")
        again = cached_trace("twolf", 600)
        assert list(again) == list(first)


class TestMemoLRU:
    """The in-process memo over the disk/shm tiers is a true LRU: hits
    refresh recency and are counted, inserts past the cap evict the
    least recently used entry."""

    @pytest.fixture(autouse=True)
    def _fresh_memo(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        memo_clear()
        yield
        memo_clear()

    def test_hit_returns_same_object(self):
        reg = MetricsRegistry()
        first = cached_trace("twolf", 500, metrics=reg)
        second = cached_trace("twolf", 500, metrics=reg)
        assert second is first  # identity, not just equality
        snap = reg.as_dict()["counters"]
        assert snap["cache.mem_hit"] == 1
        # A memo hit still counts as a cache hit for cell telemetry.
        assert snap["cache.hit"] >= 1

    def test_eviction_is_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(cache_mod, "_MEM_CAP", 2)
        reg = MetricsRegistry()
        a = cached_trace("twolf", 500, metrics=reg)
        cached_trace("gcc", 500, metrics=reg)
        # Touch `a`: it becomes most-recent, so the *gcc* entry is evicted.
        assert cached_trace("twolf", 500, metrics=reg) is a
        cached_trace("mcf", 500, metrics=reg)
        snap = reg.as_dict()["counters"]
        assert snap["cache.mem_evict"] == 1
        assert cached_trace("twolf", 500, metrics=reg) is a  # survived
        # gcc fell out of the memo: served again, but from disk (new
        # object), and its reload evicts the next LRU victim.
        before = cache_mod._MEM_CACHE.copy()
        assert ("gcc" not in {k[1] for k in before})

    def test_memo_keyed_by_cache_root(self, monkeypatch, tmp_path):
        reg = MetricsRegistry()
        first = cached_trace("twolf", 500, metrics=reg)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "other"))
        second = cached_trace("twolf", 500, metrics=reg)
        assert second is not first  # different root, different entry


class TestMemoCap:
    """The memo holds at most ``_MEM_CAP`` traces; ``cache.mem_evict``
    counts every entry the cap pushes out."""

    @pytest.fixture(autouse=True)
    def _fresh_memo(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        memo_clear()
        yield
        memo_clear()

    def test_cap_evicts_least_recent(self, monkeypatch):
        monkeypatch.setattr(cache_mod, "_MEM_CAP", 1)
        reg = MetricsRegistry()
        a = cached_trace("twolf", 500, metrics=reg)
        cached_trace("gcc", 500, metrics=reg)  # evicts twolf
        snap = reg.as_dict()["counters"]
        assert snap["cache.mem_evict"] == 1
        assert cached_trace("twolf", 500, metrics=reg) is not a
        assert len(cache_mod._MEM_CACHE) == 1

    def test_evict_count_matches_actual_evictions(self, monkeypatch):
        """The counter reflects entries actually dropped, not puts."""
        monkeypatch.setattr(cache_mod, "_MEM_CAP", 2)
        reg = MetricsRegistry()
        for name in ("twolf", "gcc", "mcf", "gzip"):
            cached_trace(name, 500, metrics=reg)
        snap = reg.as_dict()["counters"]
        assert snap["cache.mem_evict"] == 2  # 4 inserts - cap 2
        # Hits never evict.
        cached_trace("mcf", 500, metrics=reg)
        cached_trace("gzip", 500, metrics=reg)
        assert reg.as_dict()["counters"]["cache.mem_evict"] == 2
