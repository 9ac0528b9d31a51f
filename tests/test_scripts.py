"""Smoke tests for the developer scripts in ``scripts/``.

These are not part of the library, but they are part of the
reproduction's due-diligence story (calibration and seed-stability), so
a refactor that silently breaks them must fail CI.  Each runs as a real
subprocess — import errors, CLI-argument drift, and output-format drift
all count — on traces small enough to keep the whole file under a few
seconds.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = REPO / "scripts"


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=300)


class TestCalibrateFig8:
    def test_small_run_exits_clean(self):
        proc = run_script("calibrate_fig8.py", 3000)
        assert proc.returncode == 0, proc.stderr
        assert "average" in proc.stdout
        assert "paper" in proc.stdout

    def test_output_parseable(self):
        """The average row carries four percentages in (0, 100]."""
        proc = run_script("calibrate_fig8.py", 3000)
        avg = next(line for line in proc.stdout.splitlines()
                   if line.startswith("average"))
        values = [float(v) for v in re.findall(r"(\d+\.\d)%", avg)]
        assert len(values) == 4
        assert all(0.0 < v <= 100.0 for v in values)
        # per-bench rows precede it, one per benchmark
        bench_rows = [line for line in proc.stdout.splitlines()
                      if re.match(r"^\w+ .*%.*%.*%", line)
                      and not line.startswith(("average", "paper"))]
        assert len(bench_rows) >= 6


class TestStabilityCheck:
    def test_single_seed_small_trace(self):
        """One seed at a length where the Figure 8 ordering holds: the
        script must exit 0 and print the OK verdict."""
        proc = run_script("stability_check.py", 1, 12000)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "OK" in proc.stdout
        assert "BROKEN" not in proc.stdout
        assert "holds under every seed tested" in proc.stdout

    def test_output_parseable(self):
        proc = run_script("stability_check.py", 1, 12000)
        row = next(line for line in proc.stdout.splitlines()
                   if line.strip().startswith("0 "))
        values = [float(v) for v in re.findall(r"(\d+\.\d)%", row)]
        assert len(values) == 3  # stride, dfcm, gdiff8
        stride, dfcm, gdiff8 = values
        assert gdiff8 > dfcm > stride  # the claim the script checks

    def test_broken_shape_exits_nonzero(self):
        """At a degenerate length the ordering collapses and the script
        must fail loudly (this is its whole job)."""
        proc = run_script("stability_check.py", 1, 300)
        assert proc.returncode != 0
