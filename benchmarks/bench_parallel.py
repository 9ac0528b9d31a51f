"""Shared-memory trace plane + persistent worker pool — campaign-scale
orchestration overhead.

PR 7 made the kernel fast; at sweep scale the harness itself is now the
bottleneck: per-round pool spawns and per-worker disk loads are paid for
the *same* packed trace over and over.  Two floors:

* **Per-cell trace acquisition ≥ 10x vs the warm disk load.**  A worker
  acquires its trace through :func:`repro.trace.shm.shm_trace`: the first
  touch of a segment maps it and validates every column checksum, every
  later touch is a validated-mapping hit.  Amortised over one 8-cell
  worker round that beats re-inflating the zlib disk entry per cell by
  well over an order of magnitude.  (The *cold* attach alone is
  checksum-bound — reported as ``shm_attach_cold_ms`` for the record,
  it is roughly the CRC scan of the columns.)
* **4-worker campaign round ≥ 1.5x vs the per-round-pool baseline.**
  The same cell batch dispatched through the persistent pool (workers
  reused, traces attached once) against a pool restarted before every
  round under ``REPRO_SHM=0`` (new workers each round, a disk load per
  worker per round).  Both configurations must produce identical
  results before speed counts.

Measured values land in ``BENCH_metrics.json`` under
``metrics.parallel`` with ``_x`` keys, so ``repro bench check`` gates
them against the recorded history.

``REPRO_PARALLEL_BENCH_LENGTH`` shrinks the trace for smoke runs (CI
uses 8000); the hard floors only apply at the full 120k length where
fixed per-call costs amortise — short runs assert a conservative sanity
ratio.
"""

import os
import time

from repro.harness.parallel import run_tasks, shutdown_pool
from repro.telemetry import MetricsRegistry
from repro.trace import shm
from repro.trace.cache import cached_trace, default_cache, memo_clear
from repro.trace.workloads import get

LENGTH = int(os.environ.get("REPRO_PARALLEL_BENCH_LENGTH", "120000"))
FULL_LENGTH = 120_000
BENCH = "gzip"
CELLS_PER_ROUND = 8
ROUNDS = 3
WORKERS = 4

#: (metric, full-length floor, smoke floor)
FLOORS = {
    "shm_attach_speedup_x": (10.0, 3.0),
    "warm_pool_round_speedup_x": (1.5, 1.1),
}


def _floor(name):
    full, smoke = FLOORS[name]
    return full if LENGTH >= FULL_LENGTH else smoke


def _assert_floor(name, ratio, detail):
    floor = _floor(name)
    assert ratio >= floor, (
        f"{name} {ratio:.2f}x under the {floor}x floor ({detail})")


def bench_shm_attach_vs_disk(benchmark, record_metrics):
    """Per-cell trace acquisition: shm plane vs warm disk cache."""
    spec = get(BENCH)
    cache = default_cache()
    trace = cache.load_or_generate(spec, LENGTH)  # generate + store once

    # Warm disk load: the file exists, every load re-reads and inflates.
    disk_s = min(_timed(lambda: cache.load_or_generate(spec, LENGTH))
                 for _ in range(3))

    handle = shm.publish(trace, (BENCH, LENGTH, spec.seed, 1))
    assert handle is not None, "shared memory unavailable on this runner"

    # Equivalence before speed: the attached columns are bit-identical.
    shm.detach_all()
    attached = shm.attach(handle)
    for col, data in trace.columns().items():
        assert bytes(attached.columns()[col]) == bytes(data), col

    # Cold attach: map + full checksum validation (reported, not gated).
    def cold():
        shm.detach_all()
        shm.attach(handle)

    cold_s = min(_timed(cold) for _ in range(3))

    # What a warm pool worker actually pays per cell: the first cell of a
    # round validates and maps, the rest hit the validated mapping.
    def round_of_cells():
        shm.detach_all()
        for _ in range(CELLS_PER_ROUND):
            shm.attach(handle)

    round_s = min(_timed(round_of_cells) for _ in range(3))
    per_cell_s = round_s / CELLS_PER_ROUND
    ratio = disk_s / per_cell_s
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    shm.detach_all()
    shm.unpublish_all()

    print(f"\nshm plane: warm disk load {disk_s * 1000:.2f} ms, cold "
          f"attach {cold_s * 1000:.2f} ms, per-cell (8-cell round) "
          f"{per_cell_s * 1000:.3f} ms — {ratio:.1f}x")
    record_metrics("parallel",
                   disk_load_ms=disk_s * 1000,
                   shm_attach_cold_ms=cold_s * 1000,
                   shm_attach_per_cell_ms=per_cell_s * 1000,
                   shm_attach_speedup_x=ratio)
    _assert_floor("shm_attach_speedup_x", ratio,
                  f"disk {disk_s * 1000:.2f} ms vs per-cell "
                  f"{per_cell_s * 1000:.3f} ms at length {LENGTH}")


def _cell(args):
    """A representative scheduler cell: acquire the trace, do a small
    pass over it, return a figure the driver can compare across planes."""
    bench, length = args
    trace = cached_trace(bench, length)
    pcs = trace.columns()["pcs"]
    step = max(1, len(pcs) // 10_000)
    return (len(trace), sum(pcs[0:len(pcs):step]) & 0xFFFFFFFF)


def _run_rounds(registry, restart=False):
    """R scheduler-style rounds of the same cell batch, timed per round
    (warm-up round excluded so steady state is what's measured).  With
    *restart* the pool and the driver's trace memo are dropped before
    every round, so each round spawns its workers anew."""
    items = [(BENCH, LENGTH)] * CELLS_PER_ROUND
    outcomes = run_tasks(_cell, items, max_workers=WORKERS,
                         registry=registry)
    per_round = []
    for _ in range(ROUNDS):
        if restart:
            shutdown_pool()
            memo_clear()  # new workers must not inherit a warm memo
        start = time.perf_counter()
        round_outcomes = run_tasks(_cell, items, max_workers=WORKERS,
                                   registry=registry)
        per_round.append(time.perf_counter() - start)
        assert round_outcomes == outcomes
    return outcomes, min(per_round)


def bench_warm_pool_campaign_round(benchmark, record_metrics):
    """A 4-worker cell round: persistent pool + shm vs pool-per-round."""
    spec = get(BENCH)
    trace = default_cache().load_or_generate(spec, LENGTH)

    saved = os.environ.get("REPRO_SHM")
    try:
        os.environ["REPRO_SHM"] = "0"
        shutdown_pool()
        memo_clear()
        fresh_outcomes, fresh_s = _run_rounds(MetricsRegistry(),
                                              restart=True)
    finally:
        if saved is None:
            os.environ.pop("REPRO_SHM", None)
        else:
            os.environ["REPRO_SHM"] = saved

    shutdown_pool()
    memo_clear()
    shm.publish(trace, (BENCH, LENGTH, spec.seed, 1))
    warm_reg = MetricsRegistry()
    warm_outcomes, warm_s = _run_rounds(warm_reg)
    shutdown_pool()
    shm.unpublish_all()

    # Equivalence before speed: identical per-cell results either way.
    assert warm_outcomes == fresh_outcomes

    counters = warm_reg.as_dict()["counters"]
    assert counters["pool.created"] == 1, "persistent plane restarted"
    ratio = fresh_s / warm_s
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print(f"\ncampaign round ({WORKERS} workers, {CELLS_PER_ROUND} "
          f"cells): per-round pool {fresh_s * 1000:.0f} ms, warm pool "
          f"{warm_s * 1000:.0f} ms — {ratio:.2f}x")
    record_metrics("parallel",
                   fresh_round_ms=fresh_s * 1000,
                   warm_round_ms=warm_s * 1000,
                   warm_pool_round_speedup_x=ratio)
    _assert_floor("warm_pool_round_speedup_x", ratio,
                  f"fresh {fresh_s * 1000:.0f} ms vs warm "
                  f"{warm_s * 1000:.0f} ms at length {LENGTH}")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
