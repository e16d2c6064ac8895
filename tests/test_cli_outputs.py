"""The four CLI commands end to end, pinned byte for byte on tiny configs.

Each case builds a small config from a shipped file, runs the command, and
compares its exit code, its stdout and one SHA-256 over every file it wrote
(by relative path and content) except the wall-clock ``timing.json``.
"""
import hashlib
import os

import pytest

from steinmpc import cli
from steinmpc.configfile import load_config, serialize_config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _cartpole(doc):
    doc["harness"]["duration"] = 0.1
    doc["mppi"]["samples"] = 16
    return doc


def _ablation(doc):
    doc["harness"]["duration"] = 0.06
    return doc


def _racing(doc):
    # a small track that every variant laps at both seeds, at different steps,
    # so the best-lap and edge-padding branches run
    doc["harness"].update(duration=2.5, x0=[-0.15, -0.3, 0.0, 0.0, 0.0],
                          track={"straight_length": 0.3, "radius": 0.3,
                                 "reference_speed": 2.0})
    doc["mppi"]["samples"] = 32
    return doc


CASES = {
    "run": ("cartpole", _cartpole, ["--seed", "3"]),
    "batch": ("cartpole", _cartpole, ["--seeds", "3", "--jobs", "2"]),
    "ablate-kernels": ("kernel_ablation", _ablation, ["--seeds", "2"]),
    "race-progress": ("racing", _racing, ["--seeds", "2"]),
}


def _written_files_digest(out):
    """Sorted relative paths and one SHA-256 over (path, bytes) of each file."""
    names = sorted(
        os.path.relpath(os.path.join(root, f), out)
        for root, _, files in os.walk(out) for f in files
    )
    digest = hashlib.sha256()
    for name in names:
        if name == "timing.json":
            continue
        with open(os.path.join(out, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    return names, digest.hexdigest()


def _run_case(command, tmp_path, capsys):
    name, build, flags = CASES[command]
    path = tmp_path / f"{name}.yaml"
    path.write_text(serialize_config(build(load_config(os.path.join(CONFIG_DIR, f"{name}.yaml")))))
    out = tmp_path / "out"
    code = cli.main([command, str(path), *flags, "--out", str(out)])
    names, digest = _written_files_digest(str(out))
    return code, capsys.readouterr().out, names, digest


def _trial_files(prefix, seeds):
    return [f"{prefix}trial_{s}.{ext}" for s in seeds for ext in ("csv", "json")]


VARIANT_DIRS = ("dro", "emppi", "nominal", "stein_adaptive")

EXPECTED = {
    "run": (
        0,
        "seed 3: timeout t=0.10000000000000001\n",
        sorted(["timing.json", *_trial_files("", [3])]),
        "b7d4a3c0adf9a60c6ed528d4811a6a55f99bd65ddc2a14bf97450afa72097a1e",
    ),
    "batch": (
        0,
        "stein_adaptive on cartpole: 0% success over 3 seeds\n",
        sorted(["aggregate.csv", "timing.json", *_trial_files("", [0, 1, 2])]),
        "0ae6e1f5048a6cbedcf016dfe8dab885e82182bcf2fb18dfaa30b9648866258f",
    ),
    "ablate-kernels": (
        0,
        (
            "kernel rbf: 0% success, mean time nan\n"
            "kernel imq: 0% success, mean time nan\n"
            "kernel constant: 0% success, mean time nan\n"
        ),
        sorted(["ablation.csv", "timing.json",
                *(f for k in ("constant", "imq", "rbf") for f in _trial_files(f"{k}/", [0, 1]))]),
        "e091c8062b95d4664cc2157a3d4d1cbc52bd357bbdcd88e8150caeaa8276b9c3",
    ),
    "race-progress": (
        0,
        (
            "stein_adaptive: best lap 2.1000000000000001\n"
            "emppi: best lap 2.0249999999999999\n"
            "dro: best lap 2.04\n"
            "nominal: best lap 2.04\n"
        ),
        sorted(["best_laps.json", "timing.json",
                *(f"progress_{v}.csv" for v in VARIANT_DIRS),
                *(f for v in VARIANT_DIRS for f in _trial_files(f"{v}/", [0, 1]))]),
        "43c7114900afa07931bacb1a19f976cf9706065559a8b794aa4994363b69ec0d",
    ),
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_cli_command_output_is_pinned(command, tmp_path, capsys):
    assert _run_case(command, tmp_path, capsys) == EXPECTED[command]


def test_cli_run_exits_2_on_a_missing_config(tmp_path, capsys):
    missing = tmp_path / "missing.yaml"
    code = cli.main(["run", str(missing), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"config error at <path>: cannot read {missing}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_cli_run_exits_2_on_an_unreadable_config(kind, tmp_path, capsys):
    path = tmp_path / "config.yaml"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"env: {name: \xff}\n")
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"config error at <path>: cannot read {path}\n"
    assert sorted(os.listdir(tmp_path)) == ["config.yaml"]


@pytest.mark.parametrize("command", sorted(CASES))
def test_cli_exits_2_when_out_is_a_file(command, tmp_path, capsys, monkeypatch):
    name, build, flags = CASES[command]
    path = tmp_path / f"{name}.yaml"
    path.write_text(serialize_config(build(load_config(os.path.join(CONFIG_DIR, f"{name}.yaml")))))
    out = tmp_path / "out"
    out.write_text("kept\n")

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial started")

    monkeypatch.setattr(cli, "run_trial", no_trial)
    monkeypatch.setattr(cli, "run_batch", no_trial)
    assert cli.main([command, str(path), *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error at --out: cannot make directory {out} (")
    assert out.read_text() == "kept\n"


def test_cli_exits_2_when_out_cannot_be_made(tmp_path, capsys, monkeypatch):
    # no file stands in the way, so os.makedirs itself refuses: a 300-character
    # name is longer than any common file system allows (ENAMETOOLONG), after
    # it made the two parents
    name, build, flags = CASES["run"]
    path = tmp_path / f"{name}.yaml"
    path.write_text(serialize_config(build(load_config(os.path.join(CONFIG_DIR, f"{name}.yaml")))))
    out = tmp_path / "out" / "sub" / ("x" * 300)

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial started")

    monkeypatch.setattr(cli, "run_trial", no_trial)
    assert cli.main(["run", str(path), *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error at --out: cannot make directory {out} (")
    # the parents os.makedirs made before it refused the leaf are removed again
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, label", [("ablate-kernels", "imq"),
                                            ("race-progress", "dro")])
def test_cli_exits_2_when_a_setting_directory_is_a_file(command, label, tmp_path, capsys,
                                                        monkeypatch):
    # every setting's directory is made before the first trial starts
    name, build, flags = CASES[command]
    path = tmp_path / f"{name}.yaml"
    path.write_text(serialize_config(build(load_config(os.path.join(CONFIG_DIR, f"{name}.yaml")))))
    out = tmp_path / "out"
    out.mkdir()
    (out / label).write_text("kept\n")

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial started")

    monkeypatch.setattr(cli, "run_batch", no_trial)
    assert cli.main([command, str(path), *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error at --out: cannot make directory {out / label} (")
    assert (out / label).read_text() == "kept\n"
    assert [f for _, _, files in os.walk(out) for f in files] == [label]
    # no setting's directory is made unless every one can be
    assert os.listdir(out) == [label]


@pytest.mark.parametrize("command", sorted(CASES))
def test_config_dump_writes_nothing(command, tmp_path, capsys):
    name, build, flags = CASES[command]
    path = tmp_path / f"{name}.yaml"
    path.write_text(serialize_config(build(load_config(os.path.join(CONFIG_DIR, f"{name}.yaml")))))
    out = tmp_path / "out"
    assert cli.main([command, str(path), *flags, "--config-dump", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("env:\n")
    assert not out.exists()
    assert sorted(os.listdir(tmp_path)) == [f"{name}.yaml"]
