"""Traced execution of one benchmark workload inside this process.

Spans are recorded from the benchmark's side, around calls into each
layer's public functions, by rebinding the names the callers actually use
(``harness.runner._kernel_pairs`` is ``core.kernels.run_pairs``;
``experiments.cached_trace`` is imported by name; ``run_fast`` is imported
lazily inside ``OutOfOrderCore.run``).  Nothing observable reaches the
program: no ``MetricsRegistry``, ``--metrics-out`` or ``--trace-out``,
any of which moves it onto its slower instrumented paths.

A layer's self time is its spans' durations minus the part covered by
child spans; the self times of :data:`SELF_LAYERS` plus ``unattributed.s``
add up to the traced wall time.

Phases:

* ``figures`` — one ``repro run-all`` (``profile`` / ``pipeline``).
* ``pooled`` — ``campaign run`` on the workload's worker count, then
  ``campaign report``; gives the parent-process layers of ``sweep``.
* ``serial`` — the same cells with ``--jobs 1`` in this process; gives
  the worker-side layers of ``sweep`` (cell bodies run here).

Usage::

    python3 perfbench/tracer.py --workload profile --phase figures \\
        --workdir DIR --out result.json [--input-seed N]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    WORKLOADS,
    campaign_digests,
    figure_argv,
    figure_digests,
    write_sweep_spec,
)

#: Layers whose self times, with ``unattributed.s``, sum to the wall time.
SELF_LAYERS = (
    "trace.acquire", "trace.shm.publish", "core.kernels", "harness.object",
    "tables.alloc", "pipeline.kernel", "pipeline.object", "pool.start",
    "pool.map", "campaign.run", "campaign.warm", "campaign.store.write",
    "campaign.report", "render",
)

#: Counts that must repeat exactly on every run of one input.
EXACT_COUNTS = ("events", "pipeline.sim_cycles", "pipeline.kernel.insns",
                "core.kernels.pairs", "core.kernels.decline",
                "pipeline.kernel.decline")


class Tracer:
    """Span stack, per-layer self time and the counters the hooks feed."""

    def __init__(self) -> None:
        self.stack: List[List[float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.active: Dict[str, int] = defaultdict(int)
        self.n: Dict[str, int] = defaultdict(int)
        self.s: Dict[str, float] = defaultdict(float)
        #: Open trace acquisitions (innermost last) and prediction calls.
        self.acquisitions: List[Dict[str, Any]] = []
        self.predictions: List[Dict[str, int]] = []
        self.segments: set = set()

    def wrap(self, owner: Any, attr: str, layer: str,
             after: Optional[Callable] = None,
             before: Optional[Callable] = None,
             outermost: bool = False) -> Callable:
        """Rebind ``owner.attr`` to a span-recording wrapper.

        *before(args, kwargs)* returns a context handed to
        *after(dt, args, kwargs, result, ctx)*, which runs even when the
        call raises (with ``result=None``).  With *outermost*, calls
        nested inside a span of the same layer run unwrapped.
        """
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if outermost and tracer.active[layer]:
                return orig(*args, **kwargs)
            ctx = before(args, kwargs) if before is not None else None
            frame = [0.0]
            tracer.stack.append(frame)
            tracer.active[layer] += 1
            result = None
            started = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - started
                tracer.active[layer] -= 1
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][0] += dt
                tracer.self_s[layer] += dt - frame[0]
                if after is not None:
                    after(dt, args, kwargs, result, ctx)

        functools.update_wrapper(wrapper, orig)
        setattr(owner, attr, wrapper)
        return wrapper

    # -- trace layer -------------------------------------------------------
    def _open_acquisition(self, args, kwargs):
        ctx = {"tier": None, "gen_s": 0.0}
        self.acquisitions.append(ctx)
        return ctx

    def _close_acquisition(self, ctx) -> None:
        self.acquisitions.pop()
        self.n["trace.acquire.calls"] += 1
        self.n[f"trace.acquire.{ctx['tier'] or 'memo'}.calls"] += 1

    def _load_before(self, args, kwargs):
        if self.acquisitions:
            return (self.acquisitions[-1], False)
        return (self._open_acquisition(args, kwargs), True)

    def _load_after(self, dt, args, kwargs, result, state) -> None:
        ctx, own = state
        gen_s = ctx["gen_s"]
        if ctx["tier"] != "gen":
            ctx["tier"] = "disk"
        self.s["trace.acquire.disk.s"] += dt - gen_s
        ctx["gen_s"] = 0.0
        if own:
            self._close_acquisition(ctx)

    def _gen_after(self, dt, args, kwargs, result, ctx) -> None:
        self.s["trace.acquire.gen.s"] += dt
        if self.acquisitions:
            self.acquisitions[-1]["tier"] = "gen"
            self.acquisitions[-1]["gen_s"] += dt

    def _shm_after(self, dt, args, kwargs, result, ctx) -> None:
        if result is not None and self.acquisitions:
            self.acquisitions[-1]["tier"] = "shm"
            self.s["trace.acquire.shm.s"] += dt

    def _publish_after(self, dt, args, kwargs, result, ctx) -> None:
        self.n["trace.shm.publish.calls"] += 1
        if result is not None and result.segment not in self.segments:
            self.segments.add(result.segment)
            self.n["trace.shm.publish.bytes"] += result.nbytes

    # -- predictor layers --------------------------------------------------
    def _pairs_after(self, dt, args, kwargs, result, ctx) -> None:
        self.n["core.kernels.calls"] += 1
        if result:
            pairs = len(args[1])
            self.n["core.kernels.pairs"] += pairs
            if self.predictions:
                self.predictions[-1]["kernel"] += pairs
        else:
            self.n["core.kernels.decline"] += 1

    def _predict_before(self, args, kwargs):
        ctx = {"kernel": 0}
        self.predictions.append(ctx)
        return ctx

    def _predict_after(self, dt, args, kwargs, result, ctx) -> None:
        self.predictions.pop()
        offered = sum(s.attempts for s in (result or {}).values())
        self.n["pairs.offered"] += offered
        self.n["harness.object.pairs"] += offered - ctx["kernel"]

    def _alloc_after(self, dt, args, kwargs, result, ctx) -> None:
        self.n["tables.alloc.calls"] += 1

    # -- pipeline layers ---------------------------------------------------
    def _fast_after(self, dt, args, kwargs, result, ctx) -> None:
        core = args[0]
        self.n["pipeline.kernel.calls"] += 1
        if result is None:
            self.n["pipeline.kernel.decline"] += 1
        else:
            self.n["pipeline.kernel.insns"] += result.retired
        if core.speculate and core.vp is not None:
            self.s["pipeline.kernel.spec.s"] += dt
        else:
            self.s["pipeline.kernel.passive.s"] += dt

    def _ooo_after(self, dt, args, kwargs, result, ctx) -> None:
        if result is not None:
            self.n["pipeline.sim_cycles"] += result.cycles
            self.n["pipeline.retired"] += result.retired

    # -- orchestration layers ----------------------------------------------
    def _map_after(self, dt, args, kwargs, result, ctx) -> None:
        pool = args[0]
        items = kwargs.get("items", args[2] if len(args) > 2 else ())
        workers = kwargs.get("workers", args[3] if len(args) > 3 else None)
        self.n["pool.tasks"] += len(items)
        want = max(1, min(len(items), workers or pool.size))
        self.s["pool.map.worker_s"] += dt * want

    def _write_after(self, dt, args, kwargs, result, ctx) -> None:
        self.n["campaign.store.write.calls"] += 1
        self.n["campaign.cells"] += 1
        self.s["campaign.cell.s"] += kwargs.get("duration_s") or 0.0

    def _quarantine_after(self, dt, args, kwargs, result, ctx) -> None:
        self.n["campaign.store.write.calls"] += 1
        self.n["campaign.cells.failed"] += 1

    def _count(self, name: str) -> Callable:
        def after(dt, args, kwargs, result, ctx) -> None:
            self.n[name] += 1
        return after

    # -- installation ------------------------------------------------------
    def install(self, worker_side: bool = True) -> None:
        """Wrap every layer boundary; with ``worker_side=False`` only the
        parent-process ones (the cell-body layers then run untraced)."""
        import repro.campaign as campaign
        from repro.campaign.scheduler import CampaignScheduler
        from repro.campaign.store import CampaignStore
        from repro.core.gdiff import GDiffPredictor
        from repro.core.hybrid import HybridGDiffPredictor
        from repro.harness import experiments, runner
        from repro.harness.parallel import WorkerPool
        from repro.harness.report import ExperimentResult
        from repro.pipeline import kernels as pipeline_kernels
        from repro.pipeline.ooo import OutOfOrderCore
        from repro.pipeline.vp import (HGVQAdapter, LocalPredictorAdapter,
                                       SGVQAdapter)
        from repro.predictors.confidence import ConfidenceTable
        from repro.predictors.dfcm import DFCMPredictor
        from repro.predictors.last_value import LastValuePredictor
        from repro.predictors.markov import MarkovPredictor
        from repro.predictors.stride import StridePredictor
        from repro.trace import cache, shm

        # Parent process: trace acquisition for the warm-up, shm publish,
        # pool, scheduler, store, report.
        self.wrap(cache.TraceCache, "load_or_generate", "trace.acquire",
                  before=self._load_before, after=self._load_after)
        self.wrap(cache.TraceCache, "_generate_and_store", "trace.acquire",
                  after=self._gen_after)
        self.wrap(shm, "publish", "trace.shm.publish",
                  after=self._publish_after)
        self.wrap(WorkerPool, "_spawn", "pool.start")
        self.wrap(WorkerPool, "map_outcomes", "pool.map",
                  after=self._map_after)
        self.wrap(CampaignScheduler, "run", "campaign.run")
        self.wrap(CampaignScheduler, "warm_cache", "campaign.warm")
        self.wrap(CampaignStore, "write_result", "campaign.store.write",
                  after=self._write_after)
        self.wrap(CampaignStore, "write_quarantine", "campaign.store.write",
                  after=self._quarantine_after)
        self.wrap(campaign, "render_report", "campaign.report")
        self.wrap(ExperimentResult, "render", "render",
                  after=self._count("render.calls"))
        if not worker_side:
            return
        # Cell-body side: trace tiers, kernels, object paths, tables,
        # the pipeline.
        experiments.cached_trace = self.wrap(
            cache, "cached_trace", "trace.acquire",
            before=self._open_acquisition,
            after=lambda dt, a, k, r, ctx: self._close_acquisition(ctx))
        self.wrap(shm, "shm_trace", "trace.acquire", after=self._shm_after)
        self.wrap(runner, "_kernel_pairs", "core.kernels",
                  after=self._pairs_after)
        for name in ("run_value_prediction", "run_address_prediction"):
            setattr(experiments, name, self.wrap(
                runner, name, "harness.object",
                before=self._predict_before, after=self._predict_after))
        for cls in (GDiffPredictor, HybridGDiffPredictor, StridePredictor,
                    DFCMPredictor, LastValuePredictor, MarkovPredictor,
                    ConfidenceTable, SGVQAdapter, HGVQAdapter,
                    LocalPredictorAdapter):
            self.wrap(cls, "__init__", "tables.alloc", outermost=True,
                      after=self._alloc_after)
        self.wrap(pipeline_kernels, "run_fast", "pipeline.kernel",
                  after=self._fast_after)
        self.wrap(OutOfOrderCore, "run", "pipeline.object",
                  after=self._ooo_after)

    # -- results -----------------------------------------------------------
    def metrics(self, wall_s: float) -> Dict[str, float]:
        n, s, own = self.n, self.s, self.self_s
        kern_s = own["core.kernels"]
        pipe_s = own["pipeline.kernel"]
        out: Dict[str, float] = {
            "trace.acquire.calls": n["trace.acquire.calls"],
            "trace.acquire.s": own["trace.acquire"],
        }
        for tier in ("memo", "shm", "disk", "gen"):
            out[f"trace.acquire.{tier}.calls"] = n[f"trace.acquire.{tier}.calls"]
        for tier in ("shm", "disk", "gen"):
            out[f"trace.acquire.{tier}.s"] = s[f"trace.acquire.{tier}.s"]
        out.update({
            "trace.shm.publish.calls": n["trace.shm.publish.calls"],
            "trace.shm.publish.s": own["trace.shm.publish"],
            "trace.shm.publish.bytes": n["trace.shm.publish.bytes"],
            "core.kernels.calls": n["core.kernels.calls"],
            "core.kernels.s": kern_s,
            "core.kernels.pairs": n["core.kernels.pairs"],
            "core.kernels.pairs_per_s": (n["core.kernels.pairs"] / kern_s
                                         if kern_s else 0.0),
            "core.kernels.decline": n["core.kernels.decline"],
            "harness.object.s": own["harness.object"],
            "harness.object.pairs": n["harness.object.pairs"],
            "tables.alloc.calls": n["tables.alloc.calls"],
            "tables.alloc.s": own["tables.alloc"],
            "pipeline.kernel.calls": n["pipeline.kernel.calls"],
            "pipeline.kernel.s": pipe_s,
            "pipeline.kernel.insns": n["pipeline.kernel.insns"],
            "pipeline.kernel.insn_per_s": (n["pipeline.kernel.insns"] / pipe_s
                                           if pipe_s else 0.0),
            "pipeline.kernel.decline": n["pipeline.kernel.decline"],
            "pipeline.kernel.spec.s": s["pipeline.kernel.spec.s"],
            "pipeline.kernel.passive.s": s["pipeline.kernel.passive.s"],
            "pipeline.object.s": own["pipeline.object"],
            "pipeline.sim_cycles": n["pipeline.sim_cycles"],
            "pool.start.s": own["pool.start"],
            "pool.map.s": own["pool.map"],
            "pool.tasks": n["pool.tasks"],
            "pool.wait.s": (s["pool.map.worker_s"] - s["campaign.cell.s"]
                            if n["pool.tasks"] else 0.0),
            "campaign.run.s": own["campaign.run"],
            "campaign.warm.s": own["campaign.warm"],
            "campaign.cell.s": s["campaign.cell.s"],
            "campaign.cells": n["campaign.cells"],
            "campaign.cells.failed": n["campaign.cells.failed"],
            "campaign.store.write.calls": n["campaign.store.write.calls"],
            "campaign.store.write.s": own["campaign.store.write"],
            "campaign.report.s": own["campaign.report"],
            "render.calls": n["render.calls"],
            "render.s": own["render"],
            "unattributed.s": wall_s - sum(own[k] for k in SELF_LAYERS),
        })
        return out

    def counts(self, events_key: str) -> Dict[str, int]:
        counts = {k: self.n[k] for k in EXACT_COUNTS if k != "events"}
        counts["events"] = self.n[events_key]
        return counts


def _call_main(argv: List[str], stdout) -> int:
    from repro.cli import main

    try:
        with contextlib.redirect_stdout(stdout):
            return int(main(argv) or 0)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def run_phase(workload_name: str, phase: str, workdir: Path,
              input_seed: Optional[int], tracer: Tracer) -> Dict[str, Any]:
    """Run one phase of *workload_name* in this process, traced; returns
    its wall time, exit code, output digests, layer metrics and counts."""
    import repro.cli  # noqa: F401  (import cost is startup, not wall)

    workload = WORKLOADS[workload_name]
    tracer.install(worker_side=phase != "pooled")
    workdir.mkdir(parents=True, exist_ok=True)
    stdout = io.StringIO()
    started = time.perf_counter()
    if phase == "figures":
        out_dir = workdir / "out"
        rc = _call_main(figure_argv(workload, out_dir), stdout)
        wall = time.perf_counter() - started
        digests = figure_digests(out_dir, workload.experiments)
        events_key = ("pipeline.retired" if workload_name == "pipeline"
                      else "pairs.offered")
    else:
        spec = write_sweep_spec(workdir / "sweep.json", workload, input_seed)
        store = workdir / "store"
        jobs = str(workload.workers if phase == "pooled" else 1)
        rc = _call_main(["campaign", "run", str(spec), "--dir", str(store),
                         "--jobs", jobs, "--no-progress"], io.StringIO())
        report = io.StringIO()
        rc = max(rc, _call_main(["campaign", "report", str(store),
                                 "--no-progress"], report))
        wall = time.perf_counter() - started
        digests = campaign_digests(store, report.getvalue())
        events_key = "pairs.offered"
    return {"wall_s": wall, "rc": rc, "digests": digests,
            "metrics": tracer.metrics(wall),
            "counts": tracer.counts(events_key)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--phase", choices=("figures", "pooled", "serial"),
                        required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--input-seed", type=int, default=None)
    args = parser.parse_args(argv)
    result = run_phase(args.workload, args.phase, args.workdir,
                       args.input_seed, Tracer())
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True),
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
