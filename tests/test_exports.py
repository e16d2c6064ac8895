"""Every name a module lists in ``__all__`` exists in that module, and every
name the benchmark under ``bench/`` patches or calls exists in ``steinmpc``.

The benchmark reaches past ``__all__``: ``bench/tracing.py::traced_layers``,
``bench/run.py::stamp_cycles`` and ``time_sub_batches`` replace module
attributes by name, and ``bench/workloads.py`` calls the CLI and the config
loader. A rename in ``src/`` breaks the benchmark; these tests make it fail here.

The repository has no linter, so one check here stands in for its unused-import
rule.
"""
import ast
import importlib
import inspect
import json
import os
import pkgutil

import pytest

import steinmpc
from steinmpc import cli
from steinmpc.configfile import load_config, serialize_config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

MODULES = sorted(m.name for m in pkgutil.iter_modules(steinmpc.__path__))


def test_every_module_is_covered():
    assert MODULES == ["cli", "configfile", "controllers", "costs", "dynamics", "harness",
                       "inference", "kernels", "reporting", "track"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"steinmpc.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"steinmpc.{name}.__all__ lists undefined names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    # a name an import binds is read in its module or re-exported by __all__
    path = os.path.join(os.path.dirname(steinmpc.__file__), f"{name}.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names} - {"annotations"}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = sorted(imported - read - set(importlib.import_module(f"steinmpc.{name}").__all__))
    assert not unused, f"steinmpc.{name} imports names it never reads: {unused}"


BENCH_NAMES = [
    # bench/tracing.py::traced_layers
    ("harness", "run_trial"), ("harness", "mppi_solve"), ("harness", "svgd_step"),
    ("harness", "_gap_model"), ("harness", "rk4_step"), ("harness", "rollout_cost_batch"),
    ("controllers", "rollout_cost_batch"), ("costs", "rollout_cost_batch"),
    ("track", "CenterlineReference.horizon_states"), ("track", "LapProgress.update"),
    ("cli", "write_step_csv"), ("cli", "write_summary_json"),
    *(("kernels", f"{cls}.{method}") for cls in ("RbfKernel", "ImqKernel", "ConstantKernel")
      for method in ("matrix", "grad_first_tensor")),
    # bench/run.py::stamp_cycles and time_sub_batches
    ("cli", "_run_one_batch"),
    # bench/workloads.py
    ("cli", "main"), ("configfile", "load_config"), ("configfile", "serialize_config"),
    ("configfile", "build_trial_config"),
]


@pytest.mark.parametrize("module,name", BENCH_NAMES, ids=[f"{m}.{n}" for m, n in BENCH_NAMES])
def test_every_name_the_benchmark_patches_exists(module, name):
    owner = importlib.import_module(f"steinmpc.{module}")
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_run_one_batch_takes_the_arguments_the_benchmark_passes():
    # bench/run.py::time_sub_batches calls it positionally with these
    assert list(inspect.signature(cli._run_one_batch).parameters) == [
        "trial", "seeds", "jobs", "out_dir", "doc_hash", "label"]


def test_ablate_kernels_runs_one_batch_per_kernel_label(tmp_path, monkeypatch):
    # bench/run.py::time_sub_batches times each kernel's sub-batch by its label
    calls = []
    run_one_batch = cli._run_one_batch

    def record(trial, seeds, jobs, out_dir, doc_hash, label):
        calls.append((label, os.path.relpath(out_dir, tmp_path)))
        return run_one_batch(trial, seeds, jobs, out_dir, doc_hash, label)

    monkeypatch.setattr(cli, "_run_one_batch", record)
    # the tiny ablate-kernels case of test_cli_outputs
    doc = load_config(os.path.join(CONFIG_DIR, "kernel_ablation.yaml"))
    doc["harness"]["duration"] = 0.06
    path = tmp_path / "kernel_ablation.yaml"
    path.write_text(serialize_config(doc))
    assert cli.main(["ablate-kernels", str(path), "--seeds", "2", "--out",
                     str(tmp_path / "out")]) == 0
    labels = ("rbf", "imq", "constant")
    assert calls == [(label, os.path.join("out", label)) for label in labels]
    # bench/run.py::batch_pass reads each trial's wall time under these keys
    with open(tmp_path / "out" / "timing.json") as fh:
        assert sorted(json.load(fh)) == sorted(f"{k}_trial_{s}" for k in labels for s in (0, 1))
