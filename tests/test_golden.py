"""Golden traces: fixed-seed trials must reproduce their logs bit for bit.

Each case runs one shipped config for 5 control steps at seed 0 with the
controller variant swapped in, and hashes the logged states, controls, costs
and particles. A changed hash means a change in what a trial computes; record
the new value only together with a note on why the trajectories moved.

Every case runs twice: from the shipped file, and from the document that
``run --config-dump`` prints for it (ids ending in ``-dump``). Both must give
the same hash, so the dump is a faithful, runnable copy of the config.
"""
import contextlib
import dataclasses
import hashlib
import io
import os

import numpy as np
import pytest

from steinmpc import cli
from steinmpc.configfile import build_trial_config, load_config, parse_config
from steinmpc.harness import run_trial

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
STEPS = 5

GOLDEN = {
    ("cartpole", "stein_adaptive"):
        "8f0c1be25498fa481ff474917dab3ef56bcc4f5096194502fdc87aae94598333",
    ("cartpole", "emppi"):
        "08f8bb90fb77b1988172d307145f2b6562f9edac6e36aaad764ff27d15f56093",
    ("cartpole", "dro"):
        "686a0f417c8aded4f856780cb4f07bcf699314ad549ecae2f7b7c3cb91b5d7aa",
    ("cartpole", "nominal"):
        "9d5d6b753e121335e606e1d0b793466eada77b8125b5467b87fb4c49c6852a60",
    ("rocket", "stein_adaptive"):
        "551198fa9cd44c253ed557a0557b3439976c38963c5786cf8494bf52ad122b8b",
    ("rocket", "emppi"):
        "9634bc9bf5cdf676e99acf780f698bcc6a6077844af7ab103529caa10825e5cb",
    ("rocket", "dro"):
        "c98178cbd8ed8c9dd077c7b60e007852929bd7da3df05ed1f03bd984637d6da1",
    ("rocket", "nominal"):
        "f15205f9c2ad8bb6ca294debafc1b1554052ec3e925640503b686eeb696bfa9c",
    ("racing", "stein_adaptive"):
        "4ef27e335b86d35feb2a44d43539e8a859f207463b7367d3a4268846e56d1f00",
    ("racing", "emppi"):
        "c042357f74f22a4b3c635e8d48b838c3f61c52514413c275aeb70261abbec0eb",
    ("racing", "dro"):
        "4d4de8a93237f0846cf856e39f59328502c222144f83d90e28c36901be7cbce2",
    ("racing", "nominal"):
        "2290bc8a1c8f9ef36c863282065198415be2f0469b2adf6ace49ff466a9c225e",
}


def trace_digest(result, extra=()) -> str:
    h = hashlib.sha256()
    for arr in (result.states, result.controls, result.costs, result.particles, *extra):
        arr = np.ascontiguousarray(arr, dtype="<f8")
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def config_document(config_name: str, source: str) -> dict:
    path = os.path.join(CONFIG_DIR, f"{config_name}.yaml")
    if source == "file":
        return load_config(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["run", path, "--config-dump"]) == 0
    return parse_config(out.getvalue())


def golden_trial(config_name: str, variant: str, source: str = "file"):
    trial, _ = build_trial_config(config_document(config_name, source), seed=0)
    controller = dataclasses.replace(trial.controller, variant=variant)
    return dataclasses.replace(trial, controller=controller,
                               duration=STEPS * trial.env.dt)


CASES = [
    pytest.param(name, variant, source,
                 id="-".join((name, variant) if source == "file" else (name, variant, source)))
    for source in ("file", "dump")
    for name, variant in sorted(GOLDEN)
]


@pytest.mark.parametrize("config_name,variant,source", CASES)
def test_golden_trace(config_name, variant, source):
    result = run_trial(golden_trial(config_name, variant, source))
    assert result.steps == STEPS
    assert trace_digest(result) == GOLDEN[(config_name, variant)]


# Paths no shipped config runs: a second SVGD iteration in every cycle, whose
# probe is rolled out afresh, and the logged KSD. Each case is the adaptive
# golden trial with ``svgd.iterations: 2`` and ``harness.log_ksd: true``, and
# its hash also covers the KSD log and the final particles.
UNSHIPPED = {
    "cartpole":
        "4138761b34c8c5943658eeb1735968df54b0f15bd7ad0054434e3819f4ac3d52",
    "rocket":
        "14e7c579c4c0ba699d48d536702bd33c90ef298fd0e58095519ca3955cb73c26",
    "racing":
        "b8f00a9ae28e8691d796079fc5873b5e8c9a3d730896179ad30485133e4c250f",
}


@pytest.mark.parametrize("config_name", sorted(UNSHIPPED))
def test_second_iteration_and_ksd_trace(config_name):
    trial = golden_trial(config_name, "stein_adaptive")
    trial = dataclasses.replace(trial, svgd=dataclasses.replace(trial.svgd, iterations=2),
                                log_ksd=True)
    result = run_trial(trial)
    assert result.steps == STEPS and len(result.ksd) == STEPS
    digest = trace_digest(result, (result.ksd, result.final_particles.particles))
    assert digest == UNSHIPPED[config_name]


# One whole lap: the racing config with the nominal variant at seed 0, run to
# the finish line. The 5-step cases above never leave the bottom straight, so
# this is the trace that covers the arcs, the top straight and the lap count.
FULL_LAP = "a84637fe1f5d25dd0f0b747a84a9aeeec034212e81aaf45e9138bae577678d51"


def test_full_lap_racing_trace():
    trial, _ = build_trial_config(config_document("racing", "file"), seed=0)
    trial = dataclasses.replace(
        trial, controller=dataclasses.replace(trial.controller, variant="nominal"))
    result = run_trial(trial)
    assert result.success and result.steps == 378
    assert result.completion_time == result.steps * trial.env.dt
    assert trace_digest(result) == FULL_LAP
