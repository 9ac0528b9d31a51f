"""Build the committed reference digests the benchmark checks against.

Each reference is produced once on the program's executable reference
path (``REPRO_KERNELS=0``: object predictors and the object OOO core), so
every timed run compares the fast path with the reference, not with
itself.  A reference holds, per (workload, length, input seed):

* ``digests`` — one per operation: each experiment's rendered table plus
  exact values, or each campaign cell's stored result plus the report's
  tables;
* ``events`` — the workload's fixed event count (predictor pairs
  offered, or instructions retired by the OOO core);
* ``sim_cycles`` — simulated cycles summed over every OOO run (pipeline).

Usage: python3 perfbench/reference.py [--workload NAME ...]
(``profile`` and ``pipeline`` read the suite's built-in seeds; ``sweep``
has one reference per input seed, ``SWEEP_SEEDS`` of them.)
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR,
    REFERENCE_DIR,
    STATE_DIR,
    SWEEP_SEEDS,
    WORKLOADS,
    child_env,
    fresh_dir,
    python,
    run_child,
)


def build(name: str, seed: int, work: Path) -> Path:
    workload = WORKLOADS[name]
    input_seed = workload.input_seed(seed)
    cache = work / "cache"
    env = child_env(cache)
    warm = [python(), str(BENCH_DIR / "warm.py"), "--length",
            str(workload.length), "--copies",
            ",".join(map(str, workload.copies))]
    if input_seed is not None:
        warm += ["--seed", str(input_seed)]
    if run_child(warm, env, work / "warm.txt", timeout_s=600).rc != 0:
        raise SystemExit(f"{name}: warm-up failed; see {work}")
    out = work / "traced.json"
    cmd = [python(), str(BENCH_DIR / "tracer.py"), "--workload", name,
           "--phase", "figures" if workload.kind == "figures" else "serial",
           "--workdir", str(work / "run"), "--out", str(out)]
    if input_seed is not None:
        cmd += ["--input-seed", str(input_seed)]
    proc = run_child(cmd, child_env(cache, {"REPRO_KERNELS": "0"}),
                     work / "traced.txt", timeout_s=1800)
    result = json.loads(out.read_text(encoding="utf-8"))
    missing = [k for k, v in result["digests"].items() if v is None]
    if proc.rc != 0 or result["rc"] != 0 or missing:
        raise SystemExit(f"{name}: reference run failed (rc={proc.rc}, "
                         f"missing {missing}); see {work}")
    counts = result["counts"]
    reference = {
        "workload": name,
        "length": workload.length,
        "input_seed": ("builtin per-benchmark seeds" if input_seed is None
                       else input_seed),
        "path": "REPRO_KERNELS=0 (object reference path)",
        "events": counts["events"],
        "digests": result["digests"],
    }
    if name == "pipeline":
        reference["sim_cycles"] = counts["pipeline.sim_cycles"]
    path = workload.reference_path(seed)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    args = parser.parse_args()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        seeds = (range(SWEEP_SEEDS) if WORKLOADS[name].kind == "campaign"
                 else [0])
        for seed in seeds:
            work = fresh_dir(STATE_DIR / "reference" / f"{name}-{seed}")
            print(f"wrote {build(name, seed, work)}")
            shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
