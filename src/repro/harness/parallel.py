"""Parallel experiment execution: fan the registry out across cores.

The figure suite is embarrassingly parallel — every experiment (and every
per-workload body inside one) is an independent pure function of its
arguments — so the driver here fans work across processes, ships each
worker's :class:`~repro.telemetry.MetricsRegistry` snapshot back as a
plain dict, and merges the snapshots into the caller's registry for one
consolidated manifest.

The worker plane is a module-singleton :class:`WorkerPool` of
long-lived forked workers, reused across ``run_tasks``/``parallel_map``
calls and across scheduler rounds.  Warm per-worker state — the
in-process :class:`PackedTrace` memo, the pipeline timing memos, the
validated shared-memory attachments — survives between calls, so a
campaign pays interpreter spawn and trace materialisation once per
worker, not once per round.  A dead worker is replaced without
restarting the pool.  The only other path is in-process serial
execution.

Determinism is a hard requirement: a worker computes *exactly* what the
serial path computes (same experiment function, same arguments, fresh
predictor state), so parallel runs reproduce the serial tables bit for bit
(asserted by ``tests/test_parallel.py``).  Degradation is graceful: one
worker, one experiment, or any pool-level failure (a crashed worker, a
sandbox that forbids subprocesses) falls back to in-process serial
execution with the same results — partial parallel metrics are discarded
first so nothing is double-counted.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import threading
from concurrent.futures import BrokenExecutor
from multiprocessing.connection import wait as _connection_wait
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..telemetry import MetricsRegistry, get_logger
from ..trace import shm

if TYPE_CHECKING:
    from .report import ExperimentResult

log = get_logger("repro.harness.parallel")

#: Exceptions that mean "the pool is unusable", not "the experiment is
#: broken" — these trigger the serial fallback instead of propagating.
#: AttributeError/TypeError are what pickle raises for local or otherwise
#: unpicklable callables; a genuine experiment bug of the same type still
#: surfaces, because the fallback re-runs the real body in-process.
#: ``BrokenExecutor`` is the base of the ``BrokenProcessPool`` that
#: :func:`_broken` raises, whose module is not imported up front.
POOL_FAILURES = (BrokenExecutor, OSError, PermissionError,
                 pickle.PicklingError, AttributeError, TypeError)


def _broken(reason: str) -> BaseException:
    """The ``BrokenProcessPool`` a pool failure raises (its module is
    imported only when a pool breaks)."""
    from concurrent.futures.process import BrokenProcessPool

    return BrokenProcessPool(reason)


#: Environment keys with this prefix are mirrored into persistent workers
#: before every dispatch: a forked worker outlives the environment it was
#: born under (tests monkeypatch ``REPRO_CACHE_DIR``; the CLI flips
#: ``REPRO_SHM``), so each call re-synchronises.
_ENV_PREFIX = "REPRO_"


def _count(registry: Optional[MetricsRegistry], name: str,
           amount: int = 1) -> None:
    if registry is not None and amount:
        registry.counter(name).inc(amount)


def _record_fallback(registry: Optional[MetricsRegistry],
                     exc: BaseException) -> None:
    """Count a pool failure so degraded runs are visible in manifests.

    ``parallel.fallback`` totals every silent serial degradation;
    ``parallel.fallback.<ExceptionType>`` records why, so a campaign
    manifest can distinguish a sandbox that forbids subprocesses from a
    worker that segfaulted.
    """
    if registry is not None:
        registry.counter("parallel.fallback").inc()
        registry.counter(f"parallel.fallback.{type(exc).__name__}").inc()


def default_workers() -> int:
    """Worker count: every core the scheduler lets this process use."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _run_one(name: str, kwargs: Dict,
             span_ctx: Optional[Dict] = None) -> Tuple[ExperimentResult, Dict]:
    """Worker body: one experiment, one fresh registry, shipped as dicts.

    *span_ctx* is the driver's :meth:`SpanTracker.context`; when given,
    the worker records spans (under its own pid) parented to the
    driver-side span that submitted it, and they ride home inside the
    registry snapshot.
    """
    from .experiments import run_experiment

    registry = MetricsRegistry()
    if span_ctx is not None:
        registry.enable_spans(context=span_ctx)
    result = run_experiment(name, registry=registry, **kwargs)
    return result, registry.as_dict()


def _crashing_worker(name: str, kwargs: Dict,
                     span_ctx=None):  # pragma: no cover - subprocess
    """Fault-injection worker for the crash-fallback tests: dies hard,
    taking its pool with it (the serial fallback never runs it)."""
    os._exit(13)


def _apply(task: Tuple[Callable, Tuple]) -> Any:
    """Pool trampoline: ``(fn, args)`` → ``fn(*args)``.

    Lets :func:`run_experiments` ship multi-argument experiment bodies
    through the single-argument :meth:`WorkerPool.map_outcomes`.
    """
    fn, args = task
    return fn(*args)


def span_context(registry: Optional[MetricsRegistry]) -> Optional[Dict]:
    """The picklable span context workers should record under, or None
    when the driver is not tracing."""
    if registry is None or registry.span_tracker is None:
        return None
    return registry.span_tracker.context()


# ---------------------------------------------------------------------------
# Persistent worker pool
# ---------------------------------------------------------------------------
def _sync_environ(env: Dict[str, str]) -> None:
    """Make the worker's ``REPRO_*`` environment match the driver's."""
    for key in [k for k in os.environ if k.startswith(_ENV_PREFIX)]:
        if key not in env:
            del os.environ[key]
    os.environ.update(env)


#: How often an idle worker checks that its driver is still alive.
_ORPHAN_POLL_S = 0.5


def _pool_worker_main(conn) -> None:  # pragma: no cover - subprocess body
    """Persistent worker loop: apply setup envelopes, run task batches.

    Everything module-level survives between batches — that is the point:
    the trace memo, pipeline timing memos, and shared-memory attachments
    stay warm for the worker's whole life.

    A forked worker inherits the driver's end of its own pipe (and of its
    older siblings' pipes), so a driver killed outright never shows up as
    EOF here.  An idle worker therefore also exits once it has been
    reparented; that closes its copy of the resource tracker's pipe, and
    the tracker can then unlink the dead driver's shared memory.
    """
    parent = os.getppid()
    while True:
        try:
            if not conn.poll(_ORPHAN_POLL_S):
                if os.getppid() != parent:
                    break
                continue
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "stop":
            break
        if kind == "setup":
            env, handles = msg[1], msg[2]
            _sync_environ(env)
            if handles is not None:
                shm.install_table(handles)
            continue
        _kind, fn, tagged = msg  # ("batch", fn, [(tid, item), ...])
        for tid, item in tagged:
            try:
                result = fn(item)
            except BaseException as exc:
                try:
                    conn.send(("raise", tid, exc))
                except Exception:
                    conn.send(("raise", tid, RuntimeError(
                        f"{type(exc).__name__}: {exc}")))
            else:
                try:
                    conn.send(("ok", tid, result))
                except Exception as exc:
                    conn.send(("raise", tid, RuntimeError(
                        f"task {tid} result failed to pickle: {exc}")))
    try:
        conn.close()
    except OSError:
        pass


class _Worker:
    """One persistent worker process plus its driver-side pipe end."""

    __slots__ = ("proc", "conn", "inflight", "shm_version")

    def __init__(self, ctx) -> None:
        driver_end, worker_end = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_pool_worker_main, args=(worker_end,),
                                daemon=True, name="repro-pool-worker")
        self.proc.start()
        worker_end.close()  # the child holds it now; keep EOF detectable
        self.conn = driver_end
        self.inflight: List[int] = []
        self.shm_version = -1


class WorkerPool:
    """Long-lived worker processes reused across dispatch calls.

    Crash semantics: a worker dying mid-batch resolves only *its* in-flight
    tasks as crashes — siblings keep running, queued tasks still dispatch,
    and the dead worker is replaced (while work remains) without
    restarting the pool.
    """

    def __init__(self, size: Optional[int] = None) -> None:
        self.size = max(1, size or default_workers())
        self._ctx = multiprocessing.get_context()
        self._workers: List[_Worker] = []
        self._closed = False
        # Guards close() against concurrent shutdown_pool callers
        # (atexit + signal handler).
        self._lock = threading.RLock()

    # -- lifecycle --------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def worker_pids(self) -> List[int]:
        return [w.proc.pid for w in self._workers]

    def _spawn(self, registry: Optional[MetricsRegistry]) -> _Worker:
        worker = _Worker(self._ctx)
        self._workers.append(worker)
        _count(registry, "pool.spawn")
        return worker

    def _setup(self, worker: _Worker,
               version: int, handles, env: Dict[str, str]) -> None:
        """Ship the dispatch envelope: env sync + shm handle table."""
        payload = handles if worker.shm_version != version else None
        worker.conn.send(("setup", env, payload))
        worker.shm_version = version

    def close(self) -> None:
        """Stop every worker; safe to call repeatedly or concurrently."""
        with self._lock:
            if self._closed and not self._workers:
                return
            self._closed = True
            workers, self._workers = list(self._workers), []
        for worker in workers:
            try:
                worker.conn.send(("stop",))
            except Exception:
                pass
        for worker in workers:
            worker.proc.join(timeout=2)
            if worker.proc.is_alive():  # pragma: no cover - stuck worker
                worker.proc.terminate()
                worker.proc.join(timeout=2)
            try:
                worker.conn.close()
            except Exception:
                pass

    # -- dispatch ---------------------------------------------------------
    def map_outcomes(
        self,
        fn: Callable[[Any], Any],
        items: Sequence,
        workers: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        batch: int = 1,
        on_outcome: Optional[Callable[[int, Tuple[str, Any]], None]] = None,
    ) -> List[Tuple[str, Any]]:
        """Run ``fn`` over *items* on persistent workers.

        Returns ``[(status, value)]`` aligned with *items*: ``("ok",
        result)``, ``("raise", exception)`` for an exception *fn* raised in
        a worker, or ``("crash", reason)`` for a worker that died before
        replying.

        *on_outcome* runs in the driver as each outcome arrives.  A reply
        that leaves its worker idle first hands that worker its next
        batch, so the callback's work (a campaign's store write) overlaps
        the workers instead of stalling one.  A driver-side dispatch
        failure (unpicklable *fn* or item) or an exception from
        *on_outcome* stops further dispatch and is raised — after every
        in-flight task has drained, so the next call on this warm pool
        never receives stale replies.
        """
        if self._closed:
            raise _broken("worker pool is shut down")
        items = list(items)
        if not items:
            return []
        outcomes: List[Optional[Tuple[str, Any]]] = [None] * len(items)
        # An explicit worker request wins over the core-count default.
        want = max(1, min(len(items), workers if workers else self.size))
        pending: List[int] = list(range(len(items) - 1, -1, -1))
        #: The first dispatch or callback failure, raised after the drain.
        error: Optional[BaseException] = None
        batch = max(1, batch)

        _count(registry, "pool.reuse", min(len(self._workers), want))
        while len(self._workers) < want:
            self._spawn(registry)
        active = list(self._workers[:want])
        env = {k: v for k, v in os.environ.items()
               if k.startswith(_ENV_PREFIX)}
        version, handles = shm.current_table()

        def resolve(tid: int, outcome: Tuple[str, Any]) -> None:
            nonlocal error
            outcomes[tid] = outcome
            if on_outcome is not None:
                try:
                    on_outcome(tid, outcome)
                except Exception as exc:
                    if error is None:
                        error = exc

        def handle(worker: _Worker, msg: Tuple, refill: bool = True) -> None:
            kind, tid, payload = msg
            worker.inflight.remove(tid)
            if refill and not worker.inflight and pending and error is None:
                give(worker)
            resolve(tid, ("ok" if kind == "ok" else "raise", payload))

        def reap(worker: _Worker) -> None:
            """A worker died: drain what it sent, crash the rest, replace."""
            nonlocal error
            while True:
                try:
                    if not worker.conn.poll(0):
                        break
                    msg = worker.conn.recv()
                except (EOFError, OSError):
                    break
                handle(worker, msg, refill=False)
            worker.proc.join(timeout=5)
            reason = (f"BrokenProcessPool: worker pid {worker.proc.pid} "
                      f"died (exit {worker.proc.exitcode})")
            log.warning("%s with %d task(s) in flight",
                        reason, len(worker.inflight))
            for tid in list(worker.inflight):
                resolve(tid, ("crash", reason))
            worker.inflight.clear()
            try:
                worker.conn.close()
            except Exception:
                pass
            if worker in self._workers:
                self._workers.remove(worker)
            if worker in active:
                active.remove(worker)
            if pending and error is None:
                try:
                    replacement = self._spawn(registry)
                    self._setup(replacement, version, handles, env)
                except OSError as exc:  # pragma: no cover - fork refused
                    error = exc
                else:
                    active.append(replacement)
                    _count(registry, "pool.replace")

        def give(worker: _Worker) -> None:
            """Hand the next batch of pending tasks to an idle worker."""
            nonlocal error
            take = [pending.pop() for _ in range(min(batch, len(pending)))]
            tagged = [(tid, items[tid]) for tid in take]
            try:
                worker.conn.send(("batch", fn, tagged))
            except (pickle.PicklingError, AttributeError,
                    TypeError) as exc:
                pending.extend(reversed(take))
                error = exc
            except OSError:
                pending.extend(reversed(take))
                reap(worker)
            else:
                worker.inflight.extend(take)
                _count(registry, "pool.batches")
                _count(registry, "pool.tasks", len(take))

        try:
            for worker in active:
                self._setup(worker, version, handles, env)
        except OSError as exc:
            # A fresh worker refusing its envelope means the pool cannot
            # run here at all (e.g. a sandbox killed the fork) — surface
            # as a pool failure so callers fall back serially.
            raise _broken(f"worker setup failed: {exc}") from exc

        while True:
            if error is None and pending:
                for worker in list(active):
                    if not pending:
                        break
                    if not worker.inflight:
                        give(worker)
            busy = [w for w in active if w.inflight]
            if not busy:
                break
            conn_of = {w.conn: w for w in busy}
            sentinel_of = {w.proc.sentinel: w for w in busy}
            ready = _connection_wait(list(conn_of) + list(sentinel_of))
            for obj in ready:
                # A worker reaped earlier in this pass (here, or when a
                # refill found its pipe gone) has left ``active``.
                worker = conn_of.get(obj)
                if worker is not None:
                    if worker not in active:
                        continue
                    try:
                        msg = worker.conn.recv()
                    except (EOFError, OSError):
                        reap(worker)
                    else:
                        handle(worker, msg)
                    continue
                worker = sentinel_of[obj]
                if worker not in active or not worker.inflight:
                    continue
                reap(worker)

        if registry is not None:
            registry.gauge("pool.workers").set(len(self._workers))
        if error is not None:
            raise error
        return [outcome or ("crash", "task never completed")
                for outcome in outcomes]


_POOL: Optional[WorkerPool] = None
_POOL_PID: Optional[int] = None
_ATEXIT_REGISTERED = False
_POOL_LOCK = threading.Lock()


def get_pool(registry: Optional[MetricsRegistry] = None) -> WorkerPool:
    """The process-wide persistent pool (created on first use).

    ``pool.created`` counts constructions: a whole campaign — every round,
    every retry, a stop/resume pair in one process — should see exactly
    one.  Forked children never inherit a usable pool (pid guard).
    """
    global _POOL, _POOL_PID, _ATEXIT_REGISTERED
    with _POOL_LOCK:
        if _POOL is None or _POOL.closed or _POOL_PID != os.getpid():
            _POOL = WorkerPool()
            _POOL_PID = os.getpid()
            _count(registry, "pool.created")
            if not _ATEXIT_REGISTERED:
                atexit.register(shutdown_pool)
                _ATEXIT_REGISTERED = True
        return _POOL


def shutdown_pool() -> None:
    """Stop the persistent pool's workers (driver exit / test teardown).

    Idempotent and safe under concurrent callers: atexit, a signal
    handler, and test teardown can all race it — exactly one caller wins
    the pool and closes it (``WorkerPool.close`` is itself re-entrant),
    the rest are no-ops.
    """
    global _POOL
    with _POOL_LOCK:
        pool, pid = _POOL, _POOL_PID
        _POOL = None
    if pool is not None and pid == os.getpid():
        pool.close()


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------
def run_experiments(
    names: Sequence[str],
    max_workers: Optional[int] = None,
    *,
    kwargs_for: Optional[Dict[str, Dict]] = None,
    common_kwargs: Optional[Dict] = None,
    registry: Optional[MetricsRegistry] = None,
    on_progress: Optional[Callable[[int, Optional[int]], None]] = None,
    pool_worker: Callable[..., Tuple[ExperimentResult, Dict]] = _run_one,
) -> Dict[str, ExperimentResult]:
    """Run experiments from the registry, fanned out across processes.

    Args:
        names: experiment ids, in the order results should be returned.
        max_workers: pool size; ``None`` uses every available core, ``1``
            (or a single experiment) runs serially in-process.
        kwargs_for: per-experiment keyword overrides ``{name: {...}}``.
        common_kwargs: keywords passed to every experiment (e.g.
            ``{"length": 20000}``).
        registry: optional driver-side registry; each worker's metrics
            snapshot is merged into it (only after the whole run commits,
            so a fallback never double-counts).
        on_progress: ``(completed, total)`` callback as experiments finish.
        pool_worker: the function executed in pool workers (overridable
            for fault-injection tests); the serial path always runs the
            real experiment body.

    Returns:
        ``{name: ExperimentResult}`` in *names* order.
    """
    names = list(names)
    kwargs_for = kwargs_for or {}
    common = common_kwargs or {}

    def kw(name: str) -> Dict:
        merged = dict(common)
        merged.update(kwargs_for.get(name, {}))
        return merged

    if max_workers is None:
        max_workers = default_workers()
    total = len(names)
    span_ctx = span_context(registry)

    if max_workers > 1 and total > 1:
        # Import the experiment bodies before the pool forks: workers
        # inherit them instead of each importing them again.
        from . import experiments  # noqa: F401

        fanned = _run_experiments_pooled(
            names, kw, span_ctx, max_workers, registry=registry,
            on_progress=on_progress, pool_worker=pool_worker)
        if fanned is not None:
            return fanned

    results: Dict[str, ExperimentResult] = {}
    snapshots: List[Dict] = []
    done = 0
    for name in names:
        result, snapshot = _run_one(name, kw(name), span_ctx)
        results[name] = result
        snapshots.append(snapshot)
        done += 1
        if on_progress is not None:
            on_progress(done, total)
    if registry is not None:
        for snapshot in snapshots:
            registry.merge_dict(snapshot)
    return results


def _run_experiments_pooled(
    names: List[str],
    kw: Callable[[str], Dict],
    span_ctx: Optional[Dict],
    max_workers: int,
    registry: Optional[MetricsRegistry],
    on_progress: Optional[Callable[[int, Optional[int]], None]],
    pool_worker: Callable[..., Tuple[ExperimentResult, Dict]],
) -> Optional[Dict[str, ExperimentResult]]:
    """The fan-out half of :func:`run_experiments`.

    Returns the committed results, or ``None`` when the pool failed and
    the caller should run the serial fallback (already counted).
    """
    total = len(names)
    tasks = [(pool_worker, (name, kw(name), span_ctx)) for name in names]
    done = 0

    def on_outcome(tid: int, outcome: Tuple[str, Any]) -> None:
        nonlocal done
        if outcome[0] == "ok" and on_progress is not None:
            done += 1
            on_progress(done, total)

    try:
        raw = get_pool(registry).map_outcomes(
            _apply, tasks, workers=min(max_workers, total),
            registry=registry, on_outcome=on_outcome)
    except POOL_FAILURES as exc:
        log.warning("experiment pool failed (%s: %s); "
                    "falling back to serial execution",
                    type(exc).__name__, exc)
        _record_fallback(registry, exc)
        return None
    failure: Optional[BaseException] = None
    for status, value in raw:
        if status == "crash":
            failure = _broken(value)
            break
        if status == "raise":
            if isinstance(value, POOL_FAILURES):
                failure = value
                break
            raise value
    if failure is not None:
        # One casualty discards the whole parallel attempt: the
        # serial fallback recomputes everything, so committing any
        # partial snapshot would double-count its metrics.
        log.warning("experiment pool failed (%s: %s); "
                    "falling back to serial execution",
                    type(failure).__name__, failure)
        _record_fallback(registry, failure)
        return None
    results = {name: raw[i][1][0] for i, name in enumerate(names)}
    if registry is not None:
        for _status, (_result, snapshot) in raw:
            registry.merge_dict(snapshot)
    return results


def parallel_map(
    fn: Callable,
    items: Iterable,
    max_workers: Optional[int] = None,
    on_progress: Optional[Callable[[int, Optional[int]], None]] = None,
    registry: Optional[MetricsRegistry] = None,
) -> List:
    """``[fn(item) for item in items]`` across processes, order preserved.

    The workhorse for fanning per-workload benchmark bodies out: *fn* must
    be a picklable module-level callable.  Falls back to an in-process
    loop on one worker, one item, or any pool failure (counted as
    ``parallel.fallback`` on *registry*) — and a mid-batch failure keeps
    every already-finished result, re-running only the casualties
    (``parallel.salvaged`` counts the reused results).
    """
    items = list(items)
    if max_workers is None:
        max_workers = default_workers()
    total = len(items)
    if max_workers > 1 and total > 1:
        done = 0

        def on_outcome(tid: int, outcome: Tuple[str, Any]) -> None:
            nonlocal done
            if outcome[0] == "ok" and on_progress is not None:
                done += 1
                on_progress(done, total)

        try:
            raw = get_pool(registry).map_outcomes(
                fn, items, workers=min(max_workers, total),
                registry=registry, batch=_auto_batch(total, max_workers),
                on_outcome=on_outcome)
        except POOL_FAILURES as exc:
            log.warning("parallel_map pool failed (%s: %s); "
                        "falling back to serial execution",
                        type(exc).__name__, exc)
            _record_fallback(registry, exc)
        else:
            results: List = [None] * total
            failed: List[int] = []
            failure: Optional[BaseException] = None
            for i, (status, value) in enumerate(raw):
                if status == "ok":
                    results[i] = value
                elif status == "raise" and not isinstance(value,
                                                          POOL_FAILURES):
                    raise value
                else:
                    failed.append(i)
                    if failure is None:
                        failure = (value if isinstance(value, BaseException)
                                   else _broken(value))
            if failed:
                log.warning(
                    "parallel_map lost %d/%d item(s) (%s); re-running "
                    "them serially, keeping the rest",
                    len(failed), total, failure)
                _record_fallback(registry, failure)
                _count(registry, "parallel.salvaged", total - len(failed))
                for i in failed:
                    results[i] = fn(items[i])
                    if on_progress is not None:
                        done += 1
                        on_progress(done, total)
            return results
    results = []
    for i, item in enumerate(items):
        results.append(fn(item))
        if on_progress is not None:
            on_progress(i + 1, total)
    return results


def _auto_batch(total: int, workers: int) -> int:
    """Batch size amortising IPC for many-small-item maps: aim for ~4
    dispatches per worker so load stays balanced while framing shrinks."""
    return max(1, total // (workers * 4))


#: Outcome statuses yielded by :func:`run_tasks`.
TASK_OK = "ok"
TASK_CRASH = "crash"


def run_tasks(
    fn: Callable[[Any], Any],
    items: Sequence,
    max_workers: Optional[int] = None,
    registry: Optional[MetricsRegistry] = None,
    on_result: Optional[Callable[[int, Tuple[str, Any]], None]] = None,
) -> List[Tuple[str, Any]]:
    """Run *fn* over *items*, reporting per-item outcomes instead of
    failing the whole batch.

    Unlike :func:`parallel_map` — which re-runs the casualties serially
    when the pool dies — this keeps whatever finished and marks only the
    casualties, which is what a resumable scheduler needs: one poisoned
    task must not discard its siblings' completed work.

    Returns ``[(status, value)]`` aligned with *items*, where status is
    :data:`TASK_OK` (value = ``fn(item)``) or :data:`TASK_CRASH` (value =
    a short reason string; the worker died or the pool broke before the
    item ran).  *fn* is expected to catch its own application-level
    exceptions and encode them in its return value; an exception escaping
    *fn* in a worker is indistinguishable from a crash and reported as
    one.  Even a single item goes through the pool (unlike
    :func:`parallel_map`): a retried task that kills its worker must not
    take the driver down with it.  Only ``max_workers=1`` — or a pool
    that cannot be created at all (counted via ``parallel.fallback``) —
    runs items in-process, where an escaping exception propagates to the
    caller.

    A crash is contained to the worker that ran the item: siblings finish
    normally and the dead worker is replaced in place.

    *on_result* ``(index, outcome)`` runs in the driver as each outcome
    arrives, on both paths (the pool and in-process).  An exception it
    raises stops further dispatch and propagates once the tasks already
    running have finished; it is never mistaken for a pool failure.  A
    pool that fails part-way leaves its finished outcomes in place and
    only the rest run in-process.
    """
    items = list(items)
    outcomes: List[Optional[Tuple[str, Any]]] = [None] * len(items)
    callback_errors: List[BaseException] = []

    def report(i: int, outcome: Tuple[str, Any]) -> None:
        outcomes[i] = outcome
        if on_result is not None:
            try:
                on_result(i, outcome)
            except Exception as exc:
                callback_errors.append(exc)
                raise

    if max_workers is None:
        max_workers = default_workers()
    if max_workers > 1 and items:
        raised: List[BaseException] = []

        def on_outcome(tid: int, outcome: Tuple[str, Any]) -> None:
            status, value = outcome
            if status == "ok":
                mapped = (TASK_OK, value)
            elif status == "crash":
                mapped = (TASK_CRASH, value)
            elif isinstance(value, POOL_FAILURES):
                mapped = (TASK_CRASH, f"{type(value).__name__}: {value}")
                log.warning("task %d crashed its worker (%s)", tid, mapped[1])
            else:
                raised.append(value)
                return
            report(tid, mapped)

        try:
            get_pool(registry).map_outcomes(
                fn, items, workers=min(max_workers, len(items)),
                registry=registry, on_outcome=on_outcome)
        except POOL_FAILURES as exc:
            if callback_errors:
                raise callback_errors[0]
            log.warning("task pool could not run (%s: %s); "
                        "running tasks in-process",
                        type(exc).__name__, exc)
            _record_fallback(registry, exc)
        else:
            if raised:
                raise raised[0]
            return [outcome or (TASK_CRASH, "task never completed")
                    for outcome in outcomes]
    for i, item in enumerate(items):
        if outcomes[i] is None:
            report(i, (TASK_OK, fn(item)))
    return outcomes
