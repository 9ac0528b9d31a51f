"""The benchmark's own tests: its checks must count a perturbed output
or a drifting exact-repeat count as a failure.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import run as bench  # noqa: E402

FIG8_TABLE = """== fig8: profile prediction accuracy (unlimited tables) ==
bench    stride  dfcm   gdiff8
------------------------------
gcc       52.9%  61.2%   68.1%
average   52.9%  61.2%   68.1%
"""


def write_figure(out: Path, name: str, table: str, value: float) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.txt").write_text(table)
    (out / f"{name}.json").write_text(json.dumps({"rows": [[value]]}))


def write_cell(store: Path, label: str, result) -> None:
    cells = store / "cells"
    cells.mkdir(parents=True, exist_ok=True)
    (cells / f"{common.sha(label)}.json").write_text(
        json.dumps({"label": label, "result": result, "duration_s": 0.01}))


REPORT = ("campaign x: 1 cells — 1 done\n  cell-a  done  {t}s\n\n"
          "== x-predict ==\ncell-a  {acc}\n")


@pytest.fixture
def run(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "STATE_DIR", tmp_path / "state")
    r = bench.Run(common.WORKLOADS["profile"], seed=0, seconds=1,
                  trace=False)
    r.reference = {"events": 100, "digests": {}}
    return r


def test_perturbed_table_is_a_failure(tmp_path, run):
    write_figure(tmp_path / "ref", "fig8", FIG8_TABLE, 0.681)
    run.reference["digests"] = common.figure_digests(tmp_path / "ref",
                                                     ["fig8"])
    write_figure(tmp_path / "same", "fig8", FIG8_TABLE, 0.681)
    write_figure(tmp_path / "table", "fig8",
                 FIG8_TABLE.replace("68.1%", "68.2%", 1), 0.681)
    write_figure(tmp_path / "value", "fig8", FIG8_TABLE, 0.6810001)
    for rep in ("same", "table", "value", "missing"):
        run.check_outputs(common.figure_digests(tmp_path / rep, ["fig8"]),
                          rep)
    assert run.attempted == 4
    assert [f.split(":")[0] for f in run.failures] == [
        "table", "value", "missing"]
    assert run.ok_frac() == pytest.approx(0.25)


def test_campaign_check_ignores_timings_but_not_results(tmp_path, run):
    write_cell(tmp_path / "ref", "cell-a", {"acc": 0.5})
    run.reference["digests"] = common.campaign_digests(
        tmp_path / "ref", REPORT.format(t="0.01", acc="50.0%"))
    assert set(run.reference["digests"]) == {"cell-a", "report"}

    write_cell(tmp_path / "slow", "cell-a", {"acc": 0.5})
    run.check_outputs(common.campaign_digests(
        tmp_path / "slow", REPORT.format(t="9.99", acc="50.0%")), "slow")
    assert run.failures == []

    write_cell(tmp_path / "wrong", "cell-a", {"acc": 0.51})
    run.check_outputs(common.campaign_digests(
        tmp_path / "wrong", REPORT.format(t="0.01", acc="51.0%")), "wrong")
    assert sorted(f.split("output ")[1].split()[0]
                  for f in run.failures) == ["cell-a", "report"]

    # A quarantined cell leaves no record: missing counts as failed.
    (tmp_path / "quarantined" / "cells").mkdir(parents=True)
    run.check_outputs(common.campaign_digests(
        tmp_path / "quarantined", REPORT.format(t="0.01", acc="50.0%")),
        "quarantined")
    assert len(run.failures) == 3


def test_drifting_count_is_a_failure(run):
    counts = {"events": 100, "core.kernels.pairs": 90,
              "core.kernels.decline": 0, "pipeline.sim_cycles": 0,
              "pipeline.kernel.insns": 0, "pipeline.kernel.decline": 0}
    run.check_counts([dict(counts), dict(counts)])
    assert run.failures == []
    drifted = dict(counts, **{"core.kernels.decline": 1})
    run.check_counts([dict(counts), drifted])
    assert len(run.failures) == 1 and "core.kernels.decline=1" in \
        run.failures[0]
    # The first traced run of a checkout records its counts; a later run
    # that drifts from them fails even if it is self-consistent.
    later = dict(counts, **{"core.kernels.pairs": 91})
    run.check_counts([later, later])
    assert len(run.failures) == 3
    # Path-free counts must equal the reference's.
    run.reference["events"] = 101
    run.check_counts([counts])
    assert "events=100" in run.failures[-1]


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]
            } == common.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, common.layer_unit(name)) for name in common.PER_LAYER]
    assert spec["paths"] == ["perfbench"]


def test_every_reference_is_present():
    for workload in common.WORKLOADS.values():
        seeds = (range(common.SWEEP_SEEDS) if workload.kind == "campaign"
                 else [0])
        for seed in seeds:
            ref = common.load_reference(workload, seed)
            ops = (len(workload.experiments) if workload.kind == "figures"
                   else len(common.SUITE) * len(common.PREDICT_PREDICTORS)
                   * len(workload.entries) + 1)  # cells plus the report
            assert len(ref["digests"]) == ops
            assert ref["events"] > 0


def test_process_past_the_run_budget_is_killed(run):
    run.deadline = bench.time.perf_counter() + 1.0
    proc = run.child([common.python(), "-c", "import time; time.sleep(60)"],
                     "sleeper.txt")
    assert proc.rc != 0 and proc.wall_s < 10
