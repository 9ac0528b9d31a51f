"""Bring the trace cache named by ``REPRO_CACHE_DIR`` to the state a
workload's timed runs start from, through the program's public
``TraceCache.warm`` entry point.

Usage: python3 perfbench/warm.py --length 20000 --copies 1,8 [--seed N]
"""

import argparse

from repro.trace.cache import TraceCache
from repro.trace.workloads import BENCHMARKS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--length", type=int, required=True)
    parser.add_argument("--copies", default="1")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()
    cache = TraceCache()
    for copies in (int(c) for c in args.copies.split(",")):
        cache.warm(BENCHMARKS, args.length, seed=args.seed,
                   code_copies=copies)


if __name__ == "__main__":
    main()
