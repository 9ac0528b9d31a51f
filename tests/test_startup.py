"""Process startup: every ``repro`` subcommand imports only what it runs.

The import checks run in fresh interpreters, because this test process
has long since imported everything.  The reachability checks make sure
no lazily imported name is broken: a deferred import fails only when its
subcommand runs, so each one is resolved here instead.
"""

import ast
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro._lazy import import_module
from repro.cli import COMMANDS, main

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: Never loaded by ``import repro.cli``.
CLI_DENY = ("repro.pipeline", "repro.harness.experiments",
            "repro.campaign.scheduler", "repro.core.kernels", "repro.bench",
            "repro.analysis", "multiprocessing")
#: Never loaded by ``repro campaign report``.
REPORT_DENY = ("repro.pipeline", "repro.harness.experiments",
               "repro.core.kernels", "repro.trace.synthetic")

#: Every leaf of the command table, as typed on the command line.
LEAVES = [[name] if command.actions is None else [name, action]
          for name, command in COMMANDS.items()
          for action in (command.actions or [None])]


def _env():
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    env.pop("REPRO_SHM", None)
    return env


def _fresh(script, *argv):
    """Run *script* in a new interpreter; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          env=_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _denied(modules, deny):
    return sorted(m for m in modules
                  if any(m == d or m.startswith(d + ".") for d in deny))


#: Small campaigns of each cell kind.
GRIDS = {
    "predict": {"defaults": {"kind": "predict", "length": 2000,
                             "gated": True},
                "matrix": {"bench": ["gcc", "mcf"],
                           "predictor": ["gdiff", "stride"]}},
    "experiment": {"defaults": {"kind": "experiment", "experiment": "fig8",
                                "length": 2000},
                   "matrix": {"benchmarks": [["gcc"], ["mcf"]]}},
}


def _campaign(tmp_path, kind="predict"):
    spec = tmp_path / f"{kind}.json"
    spec.write_text(json.dumps(dict(GRIDS[kind], campaign={"name": kind})))
    return spec


class TestImports:
    def test_import_cli_loads_no_subsystem(self):
        modules = _fresh("import json, sys, repro.cli\n"
                         "print(json.dumps(sorted(sys.modules)))")
        assert "repro.cli" in modules
        assert _denied(modules, CLI_DENY) == []

    @pytest.mark.parametrize("kind", sorted(GRIDS))
    def test_campaign_report_loads_no_simulator(self, kind, tmp_path,
                                                capsys):
        store = tmp_path / "store"
        assert main(["campaign", "run", str(_campaign(tmp_path, kind)),
                     "--dir", str(store), "--jobs", "1",
                     "--no-progress"]) == 0
        report = _fresh(
            "import json, sys\n"
            "from repro.cli import main\n"
            "rc = main(['campaign', 'report', sys.argv[1], "
            "'--no-progress'])\n"
            "print(json.dumps({'rc': rc, 'modules': sorted(sys.modules)}))",
            store)
        assert report["rc"] == 0
        assert "repro.campaign.report" in report["modules"]
        assert _denied(report["modules"], REPORT_DENY) == []

    def test_pool_driver_imports_cell_bodies_before_fork(self, tmp_path):
        """Workers inherit the cell bodies' modules from the driver."""
        seen = _fresh(
            "import json, sys\n"
            "from repro.harness.parallel import WorkerPool\n"
            "spawn = WorkerPool._spawn\n"
            "seen = []\n"
            "def spy(self, registry):\n"
            "    seen.append([m in sys.modules for m in\n"
            "                 ('repro.core.kernels',\n"
            "                  'repro.harness.runner')])\n"
            "    return spawn(self, registry)\n"
            "WorkerPool._spawn = spy\n"
            "from repro.cli import main\n"
            "rc = main(['campaign', 'run', sys.argv[1],\n"
            "           '--dir', sys.argv[2], '--jobs', '2',\n"
            "           '--no-progress'])\n"
            "print(json.dumps({'rc': rc, 'seen': seen}))",
            _campaign(tmp_path), tmp_path / "store")
        assert seen["rc"] == 0
        assert seen["seen"], "the campaign never started a pool worker"
        assert seen["seen"][0] == [True, True]


class TestReachability:
    def test_command_table_covers_every_subcommand(self):
        assert sorted(" ".join(leaf) for leaf in LEAVES) == sorted([
            "list", "run", "trace gen", "trace import", "trace list",
            "trace info", "trace remove", "workloads", "predict",
            "simulate", "run-all", "cache stats", "cache warm",
            "cache clear", "campaign run", "campaign resume",
            "campaign status", "campaign report", "bench history",
            "bench check"])

    @pytest.mark.parametrize("leaf", LEAVES, ids=" ".join)
    def test_help_exits_zero(self, leaf, capsys):
        with pytest.raises(SystemExit) as exc:
            main(leaf + ["--help"])
        assert exc.value.code == 0
        assert "usage: repro" in capsys.readouterr().out

    def test_help_quotes_the_subsystem_defaults(self, capsys):
        """Defaults resolved by the handlers are the ones --help quotes."""
        from repro.bench.history import (DEFAULT_BASELINE_N,
                                         DEFAULT_HISTORY_PATH)

        with pytest.raises(SystemExit):
            main(["bench", "check", "--help"])
        check = " ".join(capsys.readouterr().out.split())
        assert f"(default {DEFAULT_BASELINE_N})" in check
        assert f"(default {DEFAULT_HISTORY_PATH})" in check

    def test_every_module_imports(self):
        names = [m.name for m in pkgutil.walk_packages(repro.__path__,
                                                       "repro.")]
        assert "repro.cli" in names and "repro.campaign.scheduler" in names
        for name in names:
            if name != "repro.__main__":  # the entry script runs main()
                import_module(name)

    def test_every_package_export_resolves(self):
        packages = ["repro"] + [
            m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
            if m.ispkg]
        checked = 0
        for name in packages:
            package = import_module(name)
            for export in getattr(package, "__all__", ()):
                assert getattr(package, export) is not None, (name, export)
                assert export in dir(package)
                checked += 1
        assert checked > 100

    def test_every_deferred_import_resolves(self):
        """Each ``from x import y`` inside a function of the package
        names a real module and a real attribute (or submodule)."""
        checked = 0
        for path in sorted((SRC_DIR / "repro").rglob("*.py")):
            parts = path.relative_to(SRC_DIR).with_suffix("").parts
            if parts[-1] == "__init__":
                package = module = ".".join(parts[:-1])
            else:
                module = ".".join(parts)
                package = module.rpartition(".")[0]
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for func in ast.walk(tree):
                if not isinstance(func, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(func):
                    if not isinstance(node, ast.ImportFrom):
                        continue
                    base = package.split(".")
                    if node.level:
                        base = base[:len(base) - node.level + 1]
                    else:
                        base = []
                    target = ".".join(base + ([node.module]
                                              if node.module else []))
                    owner = import_module(target)
                    for alias in node.names:
                        assert (hasattr(owner, alias.name) or import_module(
                            f"{target}.{alias.name}")), (module, target,
                                                         alias.name)
                        checked += 1
        assert checked > 90
