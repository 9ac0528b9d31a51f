"""Parallel experiment runner: determinism, metrics merging, degradation.

The one property that matters: fanning the registry across processes must
change wall-clock time and *nothing else* — identical ExperimentResult
rows, identical per-experiment phase accounting, and a clean serial
fallback when the pool cannot be used.
"""

import os
import threading
import time

import pytest

from repro.harness.parallel import (
    TASK_CRASH,
    TASK_OK,
    _crashing_worker,
    default_workers,
    get_pool,
    parallel_map,
    run_experiments,
    run_tasks,
    shutdown_pool,
)
from repro.telemetry import MetricsRegistry

#: Small-but-representative slice of the registry: one profile experiment
#: and one sweep, two benchmarks, short traces.
NAMES = ["fig8", "fig10"]
COMMON = {"length": 6000, "benchmarks": ["gcc", "mcf"]}


def _square(x):
    return x * x


class TestDeterminism:
    def test_parallel_equals_serial(self):
        serial = run_experiments(NAMES, max_workers=1, common_kwargs=COMMON)
        parallel = run_experiments(NAMES, max_workers=2, common_kwargs=COMMON)
        assert list(serial) == list(parallel) == NAMES
        for name in NAMES:
            assert serial[name].as_dict() == parallel[name].as_dict(), name

    def test_kwargs_for_overrides_common(self):
        results = run_experiments(
            ["fig8"], max_workers=1,
            common_kwargs={"length": 6000, "benchmarks": ["gcc", "mcf"]},
            kwargs_for={"fig8": {"benchmarks": ["mcf"]}},
        )
        rows = [row[0] for row in results["fig8"].rows]
        assert "gcc" not in rows and "mcf" in rows


class TestMetrics:
    def test_merged_metrics_match_serial(self):
        reg_s = MetricsRegistry()
        run_experiments(NAMES, max_workers=1, common_kwargs=COMMON,
                        registry=reg_s)
        reg_p = MetricsRegistry()
        run_experiments(NAMES, max_workers=2, common_kwargs=COMMON,
                        registry=reg_p)
        snap_s, snap_p = reg_s.as_dict(), reg_p.as_dict()
        # One timed phase per experiment, exactly once, either way.
        for name in NAMES:
            phase = f"experiment.{name}"
            assert snap_s["phases"][phase]["calls"] == 1
            assert snap_p["phases"][phase]["calls"] == 1
        # Driver-side orchestration counters (pool dispatch accounting)
        # legitimately differ; the *experiment* metrics must not.
        def experiment_counters(snap):
            return {name: value for name, value in snap["counters"].items()
                    if not name.startswith(("pool.", "shm.", "parallel."))}

        assert experiment_counters(snap_s) == experiment_counters(snap_p)

    def test_progress_callback_counts_up(self):
        seen = []
        run_experiments(NAMES, max_workers=2, common_kwargs=COMMON,
                        on_progress=lambda done, total: seen.append(
                            (done, total)))
        assert seen == [(1, 2), (2, 2)]


class TestDegradation:
    def test_worker_crash_falls_back_to_serial(self):
        reg = MetricsRegistry()
        results = run_experiments(NAMES, max_workers=2, common_kwargs=COMMON,
                                  registry=reg,
                                  pool_worker=_crashing_worker)
        expected = run_experiments(NAMES, max_workers=1, common_kwargs=COMMON)
        for name in NAMES:
            assert results[name].as_dict() == expected[name].as_dict(), name
        # The aborted parallel attempt must not leak partial metrics.
        for name in NAMES:
            assert reg.as_dict()["phases"][f"experiment.{name}"]["calls"] == 1

    def test_fallback_records_exception_type(self):
        """A silent serial degradation must be visible in the manifest:
        one total counter plus one per exception type naming the cause."""
        reg = MetricsRegistry()
        run_experiments(NAMES, max_workers=2, common_kwargs=COMMON,
                        registry=reg, pool_worker=_crashing_worker)
        counters = reg.as_dict()["counters"]
        assert counters["parallel.fallback"] == 1
        assert counters["parallel.fallback.BrokenProcessPool"] == 1

    def test_parallel_map_fallback_counted(self):
        reg = MetricsRegistry()
        fn = lambda x: x + 1  # noqa: E731 - unpicklable -> pool failure
        assert parallel_map(fn, [1, 2], max_workers=2,
                            registry=reg) == [2, 3]
        counters = reg.as_dict()["counters"]
        assert counters["parallel.fallback"] == 1
        assert any(name.startswith("parallel.fallback.")
                   for name in counters if name != "parallel.fallback")

    def test_single_experiment_runs_in_process(self):
        # total == 1 short-circuits the pool entirely.
        sentinel = []

        def boom(name, kwargs):  # would fail to pickle anyway
            sentinel.append(name)
            raise AssertionError("pool must not be used")

        results = run_experiments(["fig8"], max_workers=8,
                                  common_kwargs=COMMON, pool_worker=boom)
        assert not sentinel
        assert results["fig8"].name == "fig8"

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestParallelMap:
    def test_order_preserved(self):
        items = list(range(20))
        assert parallel_map(_square, items, max_workers=4) == [
            x * x for x in items]

    def test_serial_path(self):
        assert parallel_map(_square, [3], max_workers=8) == [9]
        assert parallel_map(_square, [2, 3], max_workers=1) == [4, 9]

    def test_unpicklable_fn_falls_back(self):
        items = [1, 2, 3]
        fn = lambda x: x + 1  # noqa: E731 - deliberately unpicklable
        assert parallel_map(fn, items, max_workers=2) == [2, 3, 4]


def _double(x):
    return x * 2


def _exit_on_negative(x):
    if x < 0:
        os._exit(13)
    return x * 2


class TestRunTasks:
    def test_outcomes_aligned_with_items(self):
        outcomes = run_tasks(_double, [1, 2, 3], max_workers=2)
        assert outcomes == [(TASK_OK, 2), (TASK_OK, 4), (TASK_OK, 6)]

    def test_serial_path(self):
        assert run_tasks(_double, [4], max_workers=1) == [(TASK_OK, 8)]
        assert run_tasks(_double, [], max_workers=4) == []

    def test_crash_marked_not_raised(self):
        """A worker dying hard must surface as TASK_CRASH data, never as
        an exception, and must not poison the outcome alignment."""
        outcomes = run_tasks(_exit_on_negative, [1, -1], max_workers=2)
        assert len(outcomes) == 2
        assert outcomes[1][0] == TASK_CRASH
        # the sibling either finished (kept!) or was a pool casualty;
        # both are legal, but its slot must exist and be well-formed.
        assert outcomes[0][0] in (TASK_OK, TASK_CRASH)
        if outcomes[0][0] == TASK_OK:
            assert outcomes[0][1] == 2

    def test_single_item_still_isolated(self):
        """One crashing item goes through a pool, not in-process — the
        driver must survive (a retried poison cell depends on this)."""
        outcomes = run_tasks(_exit_on_negative, [-1], max_workers=2)
        assert outcomes == [(TASK_CRASH, outcomes[0][1])]
        assert "BrokenProcessPool" in outcomes[0][1]

    def test_on_result_streams(self):
        seen = []
        run_tasks(_double, [5, 6], max_workers=2,
                  on_result=lambda i, outcome: seen.append((i, outcome)))
        assert sorted(seen) == [(0, (TASK_OK, 10)), (1, (TASK_OK, 12))]


def _pid(_x):
    return os.getpid()


def _exit_or_sleep(x):
    if x < 0:
        os._exit(13)
    time.sleep(0.2)
    return x * 2


def _exit_if_child(args):
    """Dies only in a pool worker: the serial salvage re-run (same pid as
    the driver that dispatched it) computes the real value."""
    driver_pid, x = args
    if x < 0 and os.getpid() != driver_pid:
        os._exit(13)
    return x * 10


class TestPersistentPool:
    """The default worker plane: long-lived workers reused across calls,
    dead workers replaced in place, crash blast radius of one worker."""

    def test_pool_created_once_and_reused(self):
        shutdown_pool()
        reg = MetricsRegistry()
        run_tasks(_double, [1, 2], max_workers=2, registry=reg)
        pool = get_pool()
        run_tasks(_double, [3, 4], max_workers=2, registry=reg)
        assert get_pool() is pool
        counters = reg.as_dict()["counters"]
        assert counters["pool.created"] == 1
        assert counters["pool.spawn"] == 2  # first call only
        assert counters["pool.reuse"] == 2  # both workers warm on call 2
        assert counters["pool.tasks"] == 4

    def test_workers_survive_between_calls(self):
        shutdown_pool()
        first = set(run_tasks(_pid, [0, 1], max_workers=2))
        second = set(run_tasks(_pid, [0, 1], max_workers=2))
        assert first == second  # literally the same worker processes

    def test_dead_worker_replaced_not_pool_restarted(self):
        """A crashing task takes down one worker; siblings and queued
        tasks complete, and the pool replaces the casualty in place."""
        shutdown_pool()
        reg = MetricsRegistry()
        # The poison item dies instantly while its sibling is mid-sleep,
        # so work is still queued when the casualty is reaped.
        outcomes = run_tasks(_exit_or_sleep, [-1, 1, 2, 3],
                             max_workers=2, registry=reg)
        assert outcomes[0][0] == TASK_CRASH
        assert "BrokenProcessPool" in outcomes[0][1]
        # Every sibling completed despite the crash — the legacy
        # pool-per-call executor would have broken them all.
        assert outcomes[1] == (TASK_OK, 2)
        assert outcomes[2] == (TASK_OK, 4)
        assert outcomes[3] == (TASK_OK, 6)
        counters = reg.as_dict()["counters"]
        assert counters["pool.replace"] >= 1
        # no serial degradation happened
        assert counters.get("parallel.fallback", 0) == 0

    def test_parallel_map_salvages_finished_results(self):
        """A mid-batch casualty must not discard completed siblings: only
        the failed items re-run (serially, in the driver)."""
        shutdown_pool()
        reg = MetricsRegistry()
        driver = os.getpid()
        items = [(driver, 1), (driver, -1), (driver, 2), (driver, 3)]
        results = parallel_map(_exit_if_child, items, max_workers=2,
                               registry=reg)
        assert results == [10, -10, 20, 30]
        counters = reg.as_dict()["counters"]
        assert counters["parallel.fallback"] == 1
        assert counters.get("parallel.salvaged", 0) >= 1

    def test_shutdown_pool_idempotent(self):
        shutdown_pool()
        shutdown_pool()
        assert run_tasks(_double, [7], max_workers=2) == [(TASK_OK, 14)]


def _timed_task(x):
    """Sleep briefly; report which worker ran the task and when it began."""
    started = time.time()
    time.sleep(0.05)
    return os.getpid(), started, x


class TestStreamingCallbacks:
    """The driver callback runs while the workers keep computing, and a
    failing callback leaves the warm pool clean for the next call."""

    def test_worker_refilled_before_callback_runs(self):
        shutdown_pool()
        returned = {}

        def slow_callback(tid, outcome):
            time.sleep(0.2)  # a slow store write
            returned[tid] = time.time()

        raw = get_pool().map_outcomes(_timed_task, list(range(6)),
                                      workers=2, on_outcome=slow_callback)
        assert [value[2] for _status, value in raw] == list(range(6))
        by_worker = {}
        for tid, (status, (pid, started, _x)) in enumerate(raw):
            assert status == "ok"
            by_worker.setdefault(pid, []).append((started, tid))
        assert len(by_worker) == 2
        for runs in by_worker.values():
            runs.sort()
            for (_s, tid), (next_start, _t) in zip(runs, runs[1:]):
                # The worker's next task began before the callback for
                # its previous one returned.
                assert next_start < returned[tid]

    def test_callback_error_raised_after_drain(self):
        shutdown_pool()
        seen = []

        def failing_write(i, outcome):
            seen.append(i)
            if len(seen) == 3:
                raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            run_tasks(_timed_task, list(range(12)), max_workers=2,
                      on_result=failing_write)
        # Tasks in flight when the callback failed were still drained
        # (and reported); no new ones were dispatched after it.
        assert 3 < len(seen) < 12
        pool = get_pool()
        assert all(not w.inflight for w in pool._workers)
        # An OSError from the callback is not a pool failure: nothing
        # re-ran in-process, and the warm pool serves the next call.
        assert run_tasks(_double, [1, 2, 3], max_workers=2) == [
            (TASK_OK, 2), (TASK_OK, 4), (TASK_OK, 6)]

    def test_pool_failure_midway_reruns_only_unfinished(self):
        """Outcomes already streamed are kept: the in-process fallback
        runs only the items the pool never finished, so no item is
        reported twice."""
        shutdown_pool()
        seen = []
        items = [0, 1, threading.Lock(), 3]  # item 2 cannot be pickled
        outcomes = run_tasks(_pid, items, max_workers=2,
                             on_result=lambda i, o: seen.append(i))
        assert sorted(seen) == [0, 1, 2, 3]
        assert [status for status, _pid in outcomes] == [TASK_OK] * 4
        driver = os.getpid()
        assert outcomes[0][1] != driver and outcomes[1][1] != driver
        assert outcomes[2][1] == driver


class TestConcurrentShutdown:
    def test_shutdown_pool_concurrent_callers(self):
        """atexit and an explicit caller racing shutdown_pool() must both
        return cleanly with every worker stopped exactly once."""
        import threading

        for _round in range(3):
            shutdown_pool()
            run_tasks(_double, [1, 2], max_workers=2)
            pids = get_pool().worker_pids()
            assert pids
            errors = []

            def call():
                try:
                    shutdown_pool()
                except Exception as exc:  # pragma: no cover - the bug
                    errors.append(exc)

            threads = [threading.Thread(target=call) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            for pid in pids:
                # Every worker is really gone (kill 0 probes existence).
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)

    def test_close_reentrant_on_pool_instance(self):
        shutdown_pool()
        run_tasks(_double, [1], max_workers=1)
        pool = get_pool()
        shutdown_pool()
        pool.close()  # second close on the same instance: a no-op
        assert pool.closed
