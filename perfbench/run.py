"""The repo benchmark: one closed-loop client per workload, measured in
fresh interpreters against a warm, benchmark-owned trace cache.

    python3 perfbench/run.py --workload profile --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

``--trace 0`` times repetitions of the workload (each a new ``repro``
process) and reports the end-to-end metrics; ``--trace 1`` runs the
separate traced execution (``tracer.py``) and reports per-layer metrics.
Every repetition's outputs are checked against the executable
reference's digests in ``perfbench/reference``.  The last stdout line is
the JSON result; a full record goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR,
    END_TO_END,
    PER_LAYER,
    ROOT,
    STATE_DIR,
    WORKLOADS,
    Proc,
    Workload,
    campaign_digests,
    child_env,
    count_drift,
    count_failures,
    figure_argv,
    figure_digests,
    fresh_dir,
    layer_unit,
    load_reference,
    median,
    python,
    remove_new_shm,
    run_child,
    shm_names,
    source_digest,
    stamp,
    write_sweep_spec,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Fewest timed repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3
#: Fewest traced repetitions per traced run (counts are compared
#: between them).
MIN_TRACED = 2
#: Stop starting repetitions after this long, to end well within the
#: 180 s a run may take.
HARD_STOP_S = 120.0
#: Any program process still running this long after the run began is
#: killed (and its operations fail), so a hung program cannot hold the
#: benchmark past 180 s.
RUN_BUDGET_S = 170.0
#: Layers of the sweep taken from its pooled phase (the campaign's parent
#: process); the rest come from its serial phase.
POOLED_LAYERS = ("trace.shm.publish.", "pool.", "campaign.", "render.",
                 "unattributed.s")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no program, no reference)."""


class Run:
    """One benchmark invocation: its directories, reference and tallies."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = fresh_dir(STATE_DIR / "runs" / (
            f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"))
        self.cache = self.dir / "cache"
        self.attempted = 0
        self.failures: List[str] = []
        self.leftover_shm = 0
        self.reference: Dict = {}
        self.detail: Dict = {}
        self.deadline = time.perf_counter() + RUN_BUDGET_S

    def child(self, cmd: List[str], out_name: str) -> Proc:
        """Run one process against this run's cache, within its budget."""
        left = max(1.0, self.deadline - time.perf_counter())
        return run_child(cmd, child_env(self.cache), self.dir / out_name,
                         timeout_s=left)

    # -- preparation -------------------------------------------------------
    def check_program(self) -> None:
        """The checkout's own ``repro`` must import; this also compiles
        its bytecode before anything is timed."""
        proc = self.child([python(), "-c",
                           "import repro, repro.cli; print(repro.__file__)"],
                          "import.txt")
        where = (self.dir / "import.txt").read_text(encoding="utf-8").strip()
        if proc.rc != 0 or not where.startswith(str(ROOT / "src")):
            raise BenchError(f"cannot import repro from {ROOT / 'src'} "
                             f"(rc={proc.rc}, found {where or 'nothing'})")
        try:
            self.reference = load_reference(self.workload, self.seed)
        except (OSError, ValueError) as exc:
            raise BenchError(f"no reference for this input: {exc}")

    def setup(self) -> List[float]:
        """Fill an empty trace cache ``SETUP_REPS`` times (once for a
        traced run, which does not report ``setup_s``); the last cache is
        kept for the run.  Returns each set-up's wall time."""
        w = self.workload
        cmd = [python(), str(BENCH_DIR / "warm.py"), "--length",
               str(w.length), "--copies", ",".join(map(str, w.copies))]
        seed = w.input_seed(self.seed)
        if seed is not None:
            cmd += ["--seed", str(seed)]
        times = []
        for i in range(1 if self.trace else SETUP_REPS):
            shutil.rmtree(self.cache, ignore_errors=True)
            proc = self.child(cmd, f"setup{i}.txt")
            if proc.rc != 0:
                raise BenchError(f"set-up failed (rc={proc.rc}); see "
                                 f"{self.dir / f'setup{i}.err'}")
            times.append(proc.wall_s)
        return times

    # -- one plain repetition ----------------------------------------------
    def plain_rep(self, i: int) -> Dict:
        w = self.workload
        repro = [python(), "-m", "repro"]
        if w.kind == "figures":
            out = self.dir / f"rep{i}"
            proc = self.child(repro + figure_argv(w, out), f"rep{i}.txt")
            found = figure_digests(out, w.experiments) if proc.rc == 0 else {}
            shutil.rmtree(out, ignore_errors=True)
            wall, cpu, rss = proc.wall_s, proc.cpu_s, proc.rss_mb
        else:
            spec = write_sweep_spec(self.dir / "sweep.json", w,
                                    w.input_seed(self.seed))
            store = self.dir / f"store{i}"
            before = shm_names()
            run = self.child(repro + ["campaign", "run", str(spec), "--dir",
                                      str(store), "--jobs", str(w.workers),
                                      "--no-progress"], f"rep{i}.txt")
            report = self.child(repro + ["campaign", "report", str(store),
                                         "--no-progress"], f"report{i}.txt")
            self.leftover_shm += remove_new_shm(before)
            found = campaign_digests(store, (self.dir / f"report{i}.txt")
                                     .read_text(encoding="utf-8"))
            if run.rc or report.rc:
                # A quarantined cell also shows as a missing cell record;
                # the report operation carries the exit status.
                found["report"] = None
            shutil.rmtree(store, ignore_errors=True)
            wall = run.wall_s + report.wall_s
            cpu = run.cpu_s + report.cpu_s
            rss = max(run.rss_mb, report.rss_mb)
        self.check_outputs(found, f"rep{i}")
        return {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss}

    def check_outputs(self, found: Dict[str, Optional[str]],
                      where: str) -> None:
        expected = self.reference["digests"]
        self.attempted += len(expected)
        self.failures += [f"{where}: output {name} does not match the "
                          "reference" for name in
                          count_failures(found, expected)]

    # -- timed run (--trace 0) ---------------------------------------------
    def timed(self, setups: List[float]) -> Dict[str, float]:
        reps: List[Dict] = []
        started = time.perf_counter()
        while (len(reps) < MIN_REPS
               or time.perf_counter() - started < self.seconds):
            if time.perf_counter() - started > HARD_STOP_S:
                break
            reps.append(self.plain_rep(len(reps)))
        self.detail = {"reps": reps, "setups": setups}
        wall = median([r["wall_s"] for r in reps])
        return {
            "wall_s": wall,
            "cpu_s": median([r["cpu_s"] for r in reps]),
            "events_per_s": self.reference["events"] / wall,
            "setup_s": median(setups),
            "peak_rss_mb": median([r["rss_mb"] for r in reps]),
            "ok_frac": self.ok_frac(),
        }

    def ok_frac(self) -> float:
        return (self.attempted - len(self.failures)) / max(1, self.attempted)

    # -- traced run (--trace 1) --------------------------------------------
    def traced_rep(self, i: int) -> Optional[Dict]:
        """One traced execution; ``None`` (with its operations counted
        as failed) when a phase exits non-zero."""
        w = self.workload
        seed = w.input_seed(self.seed)
        phases = (["figures"] if w.kind == "figures"
                  else ["pooled", "serial"])
        results = {}
        walls = {}
        for phase in phases:
            workdir = self.dir / f"traced{i}-{phase}"
            out = self.dir / f"traced{i}-{phase}.json"
            cmd = [python(), str(BENCH_DIR / "tracer.py"), "--workload",
                   w.name, "--phase", phase, "--workdir", str(workdir),
                   "--out", str(out)]
            if seed is not None:
                cmd += ["--input-seed", str(seed)]
            before = shm_names()
            proc = self.child(cmd, f"traced{i}-{phase}.txt")
            self.leftover_shm += remove_new_shm(before)
            shutil.rmtree(workdir, ignore_errors=True)
            if proc.rc != 0:
                self.check_outputs({}, f"traced{i}-{phase} (rc={proc.rc})")
                return None
            results[phase] = json.loads(out.read_text(encoding="utf-8"))
            walls[phase] = proc.wall_s
            found = results[phase]["digests"]
            if results[phase]["rc"]:
                found = ({} if w.kind == "figures"
                         else dict(found, report=None))
            self.check_outputs(found, f"traced{i}-{phase}")
        if w.kind == "figures":
            metrics = results["figures"]["metrics"]
            counts = results["figures"]["counts"]
            wall = walls["figures"]
        else:
            pooled, serial = results["pooled"], results["serial"]
            metrics = {k: (pooled if k.startswith(POOLED_LAYERS)
                           else serial)["metrics"][k]
                       for k in serial["metrics"]}
            counts = serial["counts"]
            wall = walls["pooled"]
        return {"metrics": metrics, "counts": counts, "wall_s": wall}

    def check_counts(self, counts: List[Dict[str, int]]) -> None:
        """Exact-repeat counts: equal across this run's traced reps, to
        earlier runs of the same source on this input, and (for the counts
        that do not depend on the execution path) to the reference."""
        w = self.workload
        seed = w.input_seed(self.seed)
        tag = "builtin" if seed is None else f"s{seed}"
        state = STATE_DIR / "counts" / (
            f"{w.name}-L{w.length}-{tag}-{source_digest()}.json")
        baseline = dict(counts[0])
        if state.exists():
            baseline = json.loads(state.read_text(encoding="utf-8"))
        else:
            state.parent.mkdir(parents=True, exist_ok=True)
            state.write_text(json.dumps(baseline, sort_keys=True),
                             encoding="utf-8")
        path_free = {"events": self.reference["events"]}
        if "sim_cycles" in self.reference:
            path_free["pipeline.sim_cycles"] = self.reference["sim_cycles"]
        for i, c in enumerate(counts):
            self.attempted += 1
            drift = count_drift(c, baseline) + count_drift(c, path_free)
            if drift:
                self.failures.append(
                    f"traced{i}: exact-repeat counts drifted: "
                    + ", ".join(f"{k}={c[k]}" for k in sorted(set(drift))))

    def traced(self, setups: List[float]) -> Dict[str, float]:
        startup = [self.child([python(), "-c", "import repro.cli"],
                              f"startup{i}.txt").wall_s for i in range(3)]
        traced: List[Dict] = []
        plain: List[Dict] = []
        attempts = 0
        started = time.perf_counter()
        while (attempts < MIN_TRACED or not plain
               or time.perf_counter() - started < self.seconds):
            if time.perf_counter() - started > HARD_STOP_S:
                break
            if len(plain) < attempts:
                plain.append(self.plain_rep(len(plain)))
                continue
            attempts += 1
            rep = self.traced_rep(attempts - 1)
            if rep is not None:
                traced.append(rep)
        if not traced:
            raise BenchError(f"every traced run failed; see {self.dir}")
        self.check_counts([t["counts"] for t in traced])
        # Times are medians over the traced reps; counts keep their type.
        metrics = {k: (statistics.median_low
                       if layer_unit(k) in ("count", "bytes")
                       else median)([t["metrics"][k] for t in traced])
                   for k in traced[0]["metrics"]}
        metrics["startup.import.s"] = median(startup)
        # The traced sweep renders its report in the same interpreter as
        # the campaign; add back the start-up the plain rep pays twice.
        extra = metrics["startup.import.s"] if self.workload.kind == \
            "campaign" else 0.0
        metrics["trace.overhead.s"] = (
            median([t["wall_s"] for t in traced]) + extra
            - median([p["wall_s"] for p in plain]))
        self.detail = {"traced": traced, "plain": plain, "setups": setups,
                       "startup": startup}
        return {k: metrics[k] for k in PER_LAYER}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> Dict:
    run = Run(workload, seed, seconds, trace)
    run.check_program()
    setups = run.setup()
    values = run.traced(setups) if trace else run.timed(setups)
    run.close()  # kept for inspection when anything above raised
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in values.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]}
                   for k, v in values.items()}
    record = {
        "stamp": stamp(workload, seed, trace),
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "leftover_shm": run.leftover_shm,
        "metrics": metrics,
        "detail": run.detail,
    }
    results = STATE_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = (f"{workload.name}-s{seed}-t{int(trace)}-"
            f"{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}.json")
    (results / name).write_text(json.dumps(record, indent=1),
                                encoding="utf-8")
    return record


def print_record(record: Dict) -> None:
    s = record["stamp"]
    print(f"== {s['workload']} (trace={s['trace']}) length={s['length']} "
          f"seed={s['seed']} input_seed={s['input_seed']}")
    print(f"   git {s['git_sha']} src {s['source_sha']} python {s['python']}"
          f" nproc {s['nproc']} cpu {s['cpu']}")
    for name, m in record["metrics"].items():
        print(f"   {name:<28} {m['value']:>16.6g} {m['unit']}")
    print(f"   outputs checked: {record['attempted']}, failed: "
          f"{record['failed']}, leftover shm segments removed: "
          f"{record['leftover_shm']}")
    for failure in record["failures"][:20]:
        print(f"   FAILED {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            record = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace))
            print_record(record)
            records.append(record)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": (records[0]["metrics"] if len(records) == 1 else
                    {f"{r['stamp']['workload']}.{k}": v for r in records
                     for k, v in r["metrics"].items()}),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
