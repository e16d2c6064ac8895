"""Every name a module lists in ``__all__`` exists in that module, and every
name the benchmark under ``bench/`` patches or calls exists in ``steinmpc``.

The benchmark reaches past ``__all__``: ``bench/tracing.py::traced_layers``,
``bench/run.py::stamp_cycles`` and ``time_sub_batches`` replace module
attributes by name, and ``bench/workloads.py`` calls the CLI and the config
loader. A rename in ``src/`` breaks the benchmark; these tests make it fail here.
``stamp_cycles`` also relies on when those names are entered: once per step for
``harness.mppi_solve``, and once per trial, inside the forked workers of a batch,
for ``harness.run_trial``. A change to either is a change to the benchmark.

The repository has no linter, so three checks here stand in for its unused-import
and dead-definition rules and for one that keeps each value rule in its one place.
"""
import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import re

import numpy as np
import pytest

import steinmpc
from steinmpc import cli, harness
from steinmpc.configfile import build_trial_config, load_config, serialize_config
from steinmpc.controllers import ControllerSpec
from steinmpc.harness import CartpoleSuccess

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


def _tree(name):
    with open(os.path.join(os.path.dirname(steinmpc.__file__), f"{name}.py")) as fh:
        return ast.parse(fh.read())


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    # a name an import binds is read in its module or re-exported by __all__
    tree = _tree(name)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names} - {"annotations"}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = sorted(imported - read - set(importlib.import_module(f"steinmpc.{name}").__all__))
    assert not unused, f"steinmpc.{name} imports names it never reads: {unused}"


def _defined(tree):
    """The names a module's own statements define: functions, classes, assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


@pytest.mark.parametrize("name", MODULES)
def test_every_module_level_definition_is_read(name):
    # a module's function, class or assigned name is read somewhere in the
    # package, by name or as an attribute, or exported by __all__
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for module in (*MODULES, "__init__") for node in ast.walk(_tree(module))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    exported = {"__all__", *importlib.import_module(f"steinmpc.{name}").__all__}
    unread = sorted(set(_defined(_tree(name))) - read - exported)
    assert not unread, f"steinmpc.{name} defines names nothing reads: {unread}"


# A message that words a value rule: a range, a count, a shape, a bound order,
# a box or a name from a fixed set. Each such rule has one home:
# ``dynamics._check_ranges`` for every settings class, the loader's ``_as_*``
# for what a document is made of, ``costs._check_weight_matrix`` for a weight
# matrix and ``harness.run_batch`` for its worker count, a function argument.
VALUE_RULE = re.compile(r"must (be (real|nonnegative|positive|finite|at least|an integer"
                        r"|strictly below|one of)|have shape|lie inside)\b")


def _value_rule_raises(tree, where="<module>"):
    """(function, message) of each raise under ``tree`` whose message's text
    words a value rule, ``function`` the innermost one that holds it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _value_rule_raises(node, node.name)
            continue
        if isinstance(node, ast.Raise) and node.exc is not None:
            text = "".join(n.value for n in ast.walk(node.exc)
                           if isinstance(n, ast.Constant) and isinstance(n.value, str))
            if VALUE_RULE.search(text):
                yield where, text
        yield from _value_rule_raises(node, where)


@pytest.mark.parametrize("name", MODULES)
def test_no_settings_class_hand_writes_a_value_rule(name):
    # a new range, count, shape, order, box or name rule is one keyword of a
    # _check_ranges call
    stray = [(where, text) for where, text in _value_rule_raises(_tree(name))
             if where not in ("_check_ranges", "_check_weight_matrix", "run_batch")
             and not (name == "configfile" and where.startswith("_as_"))]
    assert not stray, f"steinmpc.{name} raises value rules outside their homes: {stray}"


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


def _short_cartpole(**overrides):
    trial, _ = build_trial_config(load_config(os.path.join(CONFIG_DIR, "cartpole.yaml")))
    return dataclasses.replace(trial, duration=0.1, **overrides)


@pytest.mark.parametrize("variant,upright", [
    ("stein_adaptive", False), ("nominal", False), ("nominal", True)],
    ids=["adaptive-timeout", "nominal-timeout", "nominal-success"])
def test_a_trial_enters_mppi_solve_once_per_step(monkeypatch, variant, upright):
    # bench/run.py::stamp_cycles times a cycle as the gap between two
    # consecutive entries of harness.mppi_solve within one run_trial call
    entries = []
    solve = harness.mppi_solve

    def counted(*args, **kwargs):
        entries.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(harness, "mppi_solve", counted)
    config = _short_cartpole(controller=ControllerSpec(variant=variant))
    if upright:
        # held from the start, so the trial succeeds at 0.06 s, after 3 steps
        config = dataclasses.replace(
            config, x0=np.array([0.0, np.pi, 0.0, 0.0]),
            success=CartpoleSuccess(angle_tol=3.0, rate_tol=100.0, hold_duration=0.06))
    result = harness.run_trial(config)
    assert result.terminal_reason == ("success" if upright else "timeout")
    assert result.steps > 1
    assert len(entries) == result.steps


def test_a_forked_batch_runs_each_seed_through_run_trial_in_a_worker(tmp_path, monkeypatch):
    # stamp_cycles patches harness.run_trial before a batch forks its pool:
    # each worker must reach the patched name once per trial it runs
    log = tmp_path / "trials.txt"
    run_trial = harness.run_trial

    def logged(config):
        with open(log, "a") as fh:
            fh.write(f"{config.seed} {os.getpid()}\n")
        return run_trial(config)

    monkeypatch.setattr(harness, "run_trial", logged)
    seeds = [3, 1, 4]
    results = harness.run_batch(_short_cartpole(), seeds, jobs=2)
    assert [r.seed for r in results] == seeds
    entries = [line.split() for line in log.read_text().splitlines()]
    assert sorted(int(seed) for seed, _ in entries) == sorted(seeds)
    assert all(int(pid) != os.getpid() for _, pid in entries)


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
