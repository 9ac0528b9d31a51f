"""Shared definitions of the repo benchmark: workloads, environment,
child-process measurement, output digests and the run stamp.

Nothing here imports :mod:`repro`; the program is only ever reached
through child processes (or, in ``tracer.py``, from a child process of its
own), so the benchmark's own interpreter never holds program state
between repetitions.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of this dir).
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
#: Everything the benchmark writes lives under here (gitignored).
STATE_DIR = ROOT / ".perfbench"

#: The ten synthetic SPECint2000-like workloads of the suite.
SUITE = ["bzip2", "gap", "gcc", "gzip", "mcf", "parser", "perl", "twolf",
         "vortex", "vpr"]
#: Predictors a campaign ``predict`` cell accepts.
PREDICT_PREDICTORS = ["gdiff", "hgvq", "stride", "dfcm", "last-value"]
#: The sweep maps ``--seed`` onto this many input seeds; each has a
#: committed reference digest set (see ``reference.py``).
SWEEP_SEEDS = 16
SWEEP_SEED_BASE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "figures" or "campaign"
    why: str
    length: int
    experiments: Tuple[str, ...] = ()
    #: code_copies values whose traces the timed runs read.
    copies: Tuple[int, ...] = (1,)
    entries: Tuple[int, ...] = ()
    workers: int = 1

    def input_seed(self, seed: int) -> Optional[int]:
        """Trace seed the program receives; ``None`` means the suite's
        built-in per-benchmark seeds (the registry experiments take no
        seed, so ``--seed`` cannot reach their inputs)."""
        if self.kind == "campaign":
            return SWEEP_SEED_BASE + seed % SWEEP_SEEDS
        return None

    def reference_path(self, seed: int) -> Path:
        s = self.input_seed(seed)
        tag = "builtin" if s is None else f"s{s}"
        return REFERENCE_DIR / f"{self.name}-L{self.length}-{tag}.json"


def write_sweep_spec(path: Path, workload: "Workload", input_seed: int) -> Path:
    """The sweep's campaign spec: suite x predictors x table sizes,
    confidence-gated, at the workload's length and the given trace seed."""
    spec = {
        "campaign": {"name": "perfbench-sweep",
                     "description": "benchmark predict-cell grid"},
        "defaults": {"kind": "predict", "length": workload.length,
                     "seed": input_seed, "gated": True},
        "matrix": {"bench": SUITE, "predictor": PREDICT_PREDICTORS,
                   "entries": list(workload.entries)},
    }
    path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
    return path


def figure_argv(workload: "Workload", out_dir: Path) -> List[str]:
    """``repro`` arguments of one figure-workload repetition."""
    return ["run-all", "--jobs", "1", "--length", str(workload.length),
            "--experiments", ",".join(workload.experiments),
            "--no-progress", "--out-dir", str(out_dir)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "profile", "figures",
            "idealised profile regime: fused predictor kernels plus the "
            "fig18 object residue; hardly touches the pipeline",
            length=20000,
            experiments=("fig8", "fig9", "fig10", "fig18a", "fig18b"),
            copies=(1, 8)),
        Workload(
            "pipeline", "figures",
            "cycle-level OOO regime: nearly all time in the pipeline kernel; "
            "hardly touches predictor kernels or orchestration",
            length=20000,
            experiments=("fig12", "fig13", "fig16", "table2", "fig19"),
            copies=(4,)),
        Workload(
            "sweep", "campaign",
            "100-cell predict campaign on 2 workers: pool, shm, scheduler "
            "and store dominate; many short kernel calls",
            length=20000, entries=(2048, 8192), workers=2),
    )
}


#: End-to-end metrics of a timed run: name -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "events_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
}

#: Per-layer metrics of a traced run, in report order.
PER_LAYER = (
    "trace.acquire.calls", "trace.acquire.s",
    "trace.acquire.memo.calls", "trace.acquire.shm.calls",
    "trace.acquire.disk.calls", "trace.acquire.gen.calls",
    "trace.acquire.shm.s", "trace.acquire.disk.s", "trace.acquire.gen.s",
    "trace.shm.publish.calls", "trace.shm.publish.s",
    "trace.shm.publish.bytes",
    "core.kernels.calls", "core.kernels.s", "core.kernels.pairs",
    "core.kernels.pairs_per_s", "core.kernels.decline",
    "harness.object.s", "harness.object.pairs",
    "tables.alloc.calls", "tables.alloc.s",
    "pipeline.kernel.calls", "pipeline.kernel.s", "pipeline.kernel.insns",
    "pipeline.kernel.insn_per_s", "pipeline.kernel.decline",
    "pipeline.kernel.spec.s", "pipeline.kernel.passive.s",
    "pipeline.object.s", "pipeline.sim_cycles",
    "pool.start.s", "pool.map.s", "pool.tasks", "pool.wait.s",
    "campaign.run.s", "campaign.warm.s", "campaign.cell.s",
    "campaign.cells", "campaign.cells.failed",
    "campaign.store.write.calls", "campaign.store.write.s",
    "campaign.report.s",
    "render.calls", "render.s",
    "startup.import.s", "unattributed.s", "trace.overhead.s",
)


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# Environment and child processes
# ---------------------------------------------------------------------------
def child_env(cache_dir: Path, extra: Optional[Dict[str, str]] = None
              ) -> Dict[str, str]:
    """Environment of every program process: the checkout's ``src`` on the
    path, benchmark-owned cache and import dirs, and no inherited
    ``REPRO_*`` switch (legacy pools, kernels off, ...)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_IMPORT_DIR"] = str(STATE_DIR / "imports")
    env.update(extra or {})
    return env


@dataclass
class Proc:
    """Outcome of one child process (and every descendant it reaped)."""
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(cmd: Sequence[str], env: Dict[str, str], stdout_path: Path,
              timeout_s: float = 170.0) -> Proc:
    """Run *cmd* to completion; CPU and peak RSS come from ``wait4``, which
    covers the child and all descendants it waited for (pool workers are
    joined at exit).  A child past *timeout_s* is killed and reported with
    a non-zero code."""
    started = time.perf_counter()
    with open(stdout_path, "w", encoding="utf-8") as out, \
            open(stdout_path.with_suffix(".err"), "w",
                 encoding="utf-8") as err:
        proc = subprocess.Popen(list(cmd), env=env, cwd=str(ROOT),
                                stdout=out, stderr=err,
                                start_new_session=True)
        killer = threading.Timer(timeout_s, _kill_group, (proc.pid,))
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
    wall = time.perf_counter() - started
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    return Proc(rc=rc, wall_s=wall,
                cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except OSError:
        pass


def python() -> str:
    return sys.executable or "python3"


# ---------------------------------------------------------------------------
# Output digests (shared by the timed check, the tracer and the reference)
# ---------------------------------------------------------------------------
def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def figure_digests(out_dir: Path, experiments: Sequence[str]
                   ) -> Dict[str, Optional[str]]:
    """Digest of each experiment's rendered table plus its exact values
    (the ``--out-dir`` ``.txt`` and ``.json``); ``None`` when missing."""
    found: Dict[str, Optional[str]] = {}
    for name in experiments:
        try:
            text = (out_dir / f"{name}.txt").read_text(encoding="utf-8")
            data = json.loads((out_dir / f"{name}.json").read_text(
                encoding="utf-8"))
        except (OSError, ValueError):
            found[name] = None
            continue
        found[name] = sha(text + "\n" + canonical(data))
    return found


def report_body(report_text: str) -> str:
    """The tables of a ``campaign report``, without its status section
    (which carries per-cell wall times)."""
    _status, _sep, body = report_text.partition("\n\n")
    return body.strip()


def campaign_digests(store_dir: Path, report_text: str
                     ) -> Dict[str, Optional[str]]:
    """Digest of every stored cell result, keyed by cell label, plus the
    report's tables under ``"report"``.  A quarantined cell has no result
    and so no entry; the caller compares against the reference keys."""
    found: Dict[str, Optional[str]] = {}
    for path in sorted((store_dir / "cells").glob("*.json")):
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
            found[record["label"]] = sha(canonical(record["result"]))
        except (OSError, ValueError, KeyError):
            continue
    body = report_body(report_text)
    found["report"] = sha(body) if body else None
    return found


def count_failures(found: Dict[str, Optional[str]],
                   expected: Dict[str, str]) -> List[str]:
    """Names of the expected operations whose output is missing or does
    not match the reference digest."""
    return sorted(name for name, digest in expected.items()
                  if found.get(name) != digest)


def load_reference(workload: Workload, seed: int) -> Dict:
    with open(workload.reference_path(seed), encoding="utf-8") as fh:
        return json.load(fh)


def count_drift(counts: Dict[str, int], baseline: Dict[str, int]
                ) -> List[str]:
    """Names of exact-repeat counts that differ from *baseline* (only
    the counts both sides carry are compared)."""
    return sorted(k for k in counts if k in baseline
                  and counts[k] != baseline[k])


# ---------------------------------------------------------------------------
# Shared-memory hygiene
# ---------------------------------------------------------------------------
SHM_DIR = Path("/dev/shm")


def shm_names() -> set:
    try:
        return {p.name for p in SHM_DIR.iterdir()
                if p.name.startswith("psm_")}
    except OSError:
        return set()


def remove_new_shm(before: set) -> int:
    """Unlink segments that appeared since *before* and outlived the run
    that created them; returns how many were left over."""
    leftover = shm_names() - before
    for name in leftover:
        try:
            (SHM_DIR / name).unlink()
        except OSError:
            pass
    return len(leftover)


# ---------------------------------------------------------------------------
# Stamp and statistics
# ---------------------------------------------------------------------------
def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def git_sha() -> str:
    """HEAD of the checkout, or ``unknown`` when the checkout is not
    itself a git work tree (``source_sha`` identifies the code then)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=str(ROOT), capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def stamp(workload: Workload, seed: int, trace: bool) -> Dict:
    s = workload.input_seed(seed)
    return {
        "workload": workload.name,
        "git_sha": git_sha(),
        "source_sha": source_digest(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": nproc(),
        "length": workload.length,
        "seed": seed,
        "input_seed": "builtin per-benchmark seeds" if s is None else s,
        "trace": int(trace),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
