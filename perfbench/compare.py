"""Render two benchmark result sets side by side, per workload and per
layer.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by ``run.py`` (under
``.perfbench/results/``) or directories of them.  Each metric shows the
median over the set's runs of that workload and mode, and NEW's change
against BASE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

Key = Tuple[str, int]  # (workload, trace mode)


def load_set(path: Path) -> Dict[Key, List[Dict]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    grouped: Dict[Key, List[Dict]] = {}
    for f in files:
        record = json.loads(f.read_text(encoding="utf-8"))
        key = (record["stamp"]["workload"], record["stamp"]["trace"])
        grouped.setdefault(key, []).append(record)
    return grouped


def summarise(records: List[Dict]) -> Dict[str, Tuple[float, str]]:
    names = records[0]["metrics"]
    return {name: (statistics.median(r["metrics"][name]["value"]
                                     for r in records),
                   names[name]["unit"])
            for name in names}


def stamp_line(records: List[Dict]) -> str:
    s = records[0]["stamp"]
    shas = sorted({r["stamp"]["source_sha"] for r in records})
    return (f"{len(records)} run(s), git {s['git_sha'][:12]}, "
            f"src {'/'.join(shas)}, python {s['python']}, nproc {s['nproc']},"
            f" length {s['length']}, failed "
            f"{sum(r['failed'] for r in records)}")


def print_comparison(label: str, base: List[Dict], new: List[Dict],
                     names: Tuple[str, str]) -> None:
    print(f"\n{'=' * 78}")
    print(label)
    print(f"  {names[0]}: {stamp_line(base)}")
    print(f"  {names[1]}: {stamp_line(new)}")
    print(f"{'=' * 78}")
    print(f"  {'metric':<28} {names[0][:14]:>14} {names[1][:14]:>14} "
          f"{'change':>8}  unit")
    print(f"  {'-' * 28} {'-' * 14} {'-' * 14} {'-' * 8}  ----")
    a, b = summarise(base), summarise(new)
    for name, (value, unit) in a.items():
        other = b.get(name, (float("nan"), unit))[0]
        change = (f"{(other - value) / abs(value):+8.1%}" if value
                  else f"{'':>8}")
        print(f"  {name:<28} {value:>14.6g} {other:>14.6g} {change}  {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base, new = load_set(args.base), load_set(args.new)
    names = (args.base.name or "base", args.new.name or "new")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        title = "per layer (traced run)" if trace else "end to end"
        print_comparison(f"{workload} — {title}", base[key], new[key], names)
    for key in sorted(set(base) ^ set(new)):
        print(f"\n(only in one set: {key[0]} trace={key[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
