"""Strict experiment-document parsing and the shipped reference configs."""
import argparse
import copy
import dataclasses
import functools
import glob
import json
import math
import os
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steinmpc import cli
from steinmpc.configfile import (
    KERNELS,
    MAX_JOBS,
    MAX_SEEDS,
    ConfigError,
    build_trial_config,
    config_hash,
    load_config,
    parse_config,
    resolve_config,
    serialize_config,
)
from steinmpc.controllers import VARIANTS, ControllerSpec, MppiConfig
from steinmpc.costs import InverseDisplacementReward, UprightEnergyPenalty
from steinmpc.dynamics import make_cartpole, make_racecar, make_rocket
from steinmpc.harness import CartpoleSuccess, RaceSuccess, RocketSuccess, TrialConfig, run_trial
from steinmpc.inference import SvgdConfig
from steinmpc.kernels import ConstantKernel, ImqKernel, RbfKernel
from steinmpc.track import CenterlineReference, StadiumTrack

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
DUMP_DIR = os.path.join(os.path.dirname(__file__), "config_dumps")


def minimal_doc():
    return {
        "env": {"name": "cartpole"},
        "cost": {
            "q": [1.0, 1.0, 1.0, 1.0],
            "r": [0.1],
            "q_f": [2.0, 2.0, 2.0, 2.0],
            "x_des": [0.0, 3.14159, 0.0, 0.0],
        },
        "controller": {"variant": "nominal"},
        "svgd": {"step_size": 0.001},
        "mppi": {"samples": 8, "temperature": 1.0, "noise_fraction": 0.5},
        "harness": {
            "duration": 1.0,
            "horizon_seconds": 0.2,
            "x0": [0.0, 0.0, 0.0, 0.0],
        },
    }


def error_field(doc):
    with pytest.raises(ConfigError) as err:
        build_trial_config(doc)
    return err.value.field


def test_minimal_document_builds():
    trial, resolved = build_trial_config(minimal_doc())
    assert trial.env.name == "cartpole"
    assert trial.controller.variant == "nominal"
    assert trial.n_particles == 5
    assert trial.seed == 0
    assert resolved["batch"] == {"seeds": [0], "jobs": 1}
    assert isinstance(trial.svgd.kernel, RbfKernel)
    assert isinstance(trial.success, CartpoleSuccess)


def test_unknown_keys_rejected_with_dotted_path():
    doc = minimal_doc()
    doc["bogus"] = 1
    assert error_field(doc) == "<document>.bogus"

    doc = minimal_doc()
    doc["env"]["bogus"] = 1
    assert error_field(doc) == "env.bogus"

    doc = minimal_doc()
    doc["svgd"]["kernel"] = {"type": "rbf", "shininess": 2}
    assert error_field(doc) == "svgd.kernel.shininess"


def test_missing_required_sections_and_values():
    doc = minimal_doc()
    del doc["cost"]
    assert error_field(doc) == "<document>.cost"

    doc = minimal_doc()
    del doc["mppi"]["temperature"]
    assert error_field(doc) == "mppi.temperature"

    doc = minimal_doc()
    del doc["cost"]["x_des"]
    assert error_field(doc) == "cost.x_des"


def test_type_and_range_validation():
    doc = minimal_doc()
    doc["mppi"]["samples"] = 2.5
    assert error_field(doc) == "mppi.samples"

    doc = minimal_doc()
    doc["mppi"]["temperature"] = 0
    assert error_field(doc) == "mppi.temperature"

    doc = minimal_doc()
    doc["harness"]["duration"] = -1
    assert error_field(doc) == "harness.duration"

    doc = minimal_doc()
    doc["svgd"]["step_size"] = "fast"
    assert error_field(doc) == "svgd.step_size"


@pytest.mark.parametrize("noise", [[0.1, 0.2, 0.3], [0.1], []])
def test_noise_fraction_list_needs_one_entry_per_channel(noise, tmp_path, capsys):
    # racing has two control channels; a list of any other length used to
    # broadcast silently or fail inside the solver
    doc = load_config(os.path.join(CONFIG_DIR, "racing.yaml"))
    doc["mppi"]["noise_fraction"] = noise
    assert error_field(doc) == "mppi.noise_fraction"
    path = tmp_path / "racing.yaml"
    path.write_text(serialize_config(doc))
    for flags in (["--out", str(tmp_path / "out")], ["--config-dump"]):
        assert cli.main(["run", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert "config error at mppi.noise_fraction" in captured.err
        assert captured.out == ""
    assert not (tmp_path / "out").exists()


def _patched(doc, patch):
    """``doc`` with ``patch`` merged in, mapping by mapping; None drops a key."""
    for key, value in patch.items():
        if value is None:
            del doc[key]
        elif isinstance(value, dict) and isinstance(doc.get(key), dict):
            _patched(doc[key], value)
        else:
            doc[key] = value
    return doc


NOT_PSD = [[1.0, 2.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]


@pytest.mark.parametrize("command,name,patch,field", [
    # a constructor's rule, reported at the section it checks
    ("run", "racing", {"env": {"theta_lower": [0.3, 0.5], "theta_upper": [0.05, 1e-5]}}, "env"),
    ("run", "racing", {"env": {"theta_true": [10.0, 0.01]}}, "env"),
    ("run", "racing", {"env": {"control_lower": [0.5, 0.05], "control_upper": [-0.2, -0.05]}},
     "env"),
    ("run", "racing", {"cost": {"extra": {"weights": [-1.0, 1e-4, 0, 0, 0]}}},
     "cost.extra.weights"),
    ("run", "cartpole", {"cost": {"q": NOT_PSD}}, "cost"),
    ("run", "racing", {"cost": {"q": [4.0, 4.0, -6.0, 1.0, 2.0]}}, "cost"),
    ("run", "cartpole", {"svgd": {"sign_mode": "sideways"}}, "svgd.sign_mode"),
    # cross-field rules that used to pass validation and fail the trial
    ("run", "racing", {"cost": {"extra": {"weights": [1e-4, 1e-4, 0]}}}, "cost.extra.weights"),
    ("run", "cartpole", {"cost": {"x_des": None, "reference": {"type": "centerline"}}},
     "cost.reference"),
    ("run", "rocket", {"controller": {"variant": "nominal", "nominal_theta": [0.0, 0.01, 0.7]}},
     "controller.nominal_theta"),
    # one rejection of each value converter, and a command's environment
    ("run", "cartpole", {"svgd": {"step_size": -0.5}}, "svgd.step_size"),
    ("run", "cartpole", {"mppi": {"samples": 0}}, "mppi.samples"),
    ("run", "cartpole", {"harness": {"log_ksd": "yes"}}, "harness.log_ksd"),
    ("run", "cartpole", {"harness": {"x0": []}}, "harness.x0"),
    ("run", "cartpole", {"cost": {"q": 3.0}}, "cost.q"),
    ("ablate-kernels", "cartpole", {}, "env.name"),
    # a name looked up in a table must be a string, and a number must fit a float
    ("run", "cartpole", {"env": {"name": [1]}}, "env.name"),
    ("run", "cartpole", {"svgd": {"kernel": {"type": [1]}}}, "svgd.kernel.type"),
    ("run", "cartpole", {"cost": {"extra": {"type": {"x": 1}}}}, "cost.extra.type"),
    ("run", "cartpole", {"mppi": {"temperature": 10**400}}, "mppi.temperature"),
    ("run", "cartpole", {"harness": {"x0": [10**400, 0, 0, 0]}}, "harness.x0[0]"),
    # a number must be finite: .inf and .nan are YAML floats
    ("run", "racing", {"env": {"theta_upper": [math.inf, 1.0]}}, "env.theta_upper[0]"),
    ("run", "racing", {"harness": {"track": {"radius": math.inf}}}, "harness.track.radius"),
    ("run", "cartpole", {"env": {"control_upper": [math.inf]}}, "env.control_upper[0]"),
    ("run", "racing", {"env": {"theta_true": [math.nan, 0.5]}}, "env.theta_true[0]"),
    ("run", "cartpole", {"harness": {"duration": math.inf}}, "harness.duration"),
    # a success criterion's tolerances and laps are positive, its hold nonnegative
    ("run", "racing", {"harness": {"success": {"laps": -1}}}, "harness.success.laps"),
    ("run", "cartpole", {"harness": {"success": {"angle_tol": -1.0}}},
     "harness.success.angle_tol"),
    ("run", "cartpole", {"harness": {"success": {"hold_duration": -0.5}}},
     "harness.success.hold_duration"),
    ("run", "rocket", {"harness": {"success": {"speed_tol": 0.0}}}, "harness.success.speed_tol"),
    ("run", "rocket", {"harness": {"success": {"x_target": math.inf}}},
     "harness.success.x_target"),
    # seeds are nonnegative, and a batch has at most MAX_SEEDS seeds and MAX_JOBS workers
    ("batch", "cartpole", {"batch": {"seeds": [-3]}}, "batch.seeds[0]"),
    ("batch", "cartpole", {"batch": {"seeds": 2, "base_seed": -3}}, "batch.base_seed"),
    # a first seed beside a seed list used to be dropped without a word
    ("batch", "cartpole", {"batch": {"seeds": [3, 4], "base_seed": 7}}, "batch.base_seed"),
    ("run", "cartpole", {"batch": {"seeds": 10**400}}, "batch.seeds"),
    ("batch", "cartpole", {"batch": {"seeds": MAX_SEEDS + 1}}, "batch.seeds"),
    ("batch", "cartpole", {"batch": {"seeds": list(range(MAX_SEEDS + 1))}}, "batch.seeds"),
    ("batch", "cartpole", {"batch": {"jobs": MAX_JOBS + 1}}, "batch.jobs"),
    # a trial's arrays fit MAX_TRIAL_BYTES, reported at the key with the largest factor
    ("run", "cartpole", {"env": {"dt": 1.0e-300}}, "env.dt"),
    ("run", "cartpole", {"mppi": {"samples": 10**9}}, "mppi.samples"),
    ("run", "cartpole", {"harness": {"n_particles": 10**8}}, "harness.n_particles"),
    ("run", "cartpole", {"harness": {"duration": 1.0e12}}, "harness.duration"),
    ("run", "cartpole", {"harness": {"horizon_seconds": 1.0e308}}, "harness.horizon_seconds"),
    # 8 * 4 * 20 * (279620 + 2) * 6 bytes: the planner grid fits, the fused rescore does not
    ("run", "cartpole", {"mppi": {"samples": 279620}}, "mppi.samples"),
    # an integer longer than int() reads fails the whole document
    ("run", "cartpole", {"batch": {"seeds": 10**4999}}, "<document>"),
    # a value outside a range rule that only its class holds, at the key it names
    ("run", "cartpole", {"svgd": {"kernel": {"bandwidth": 0}}}, "svgd.kernel.bandwidth"),
    ("run", "cartpole", {"controller": {"gamma": -1}}, "controller.gamma"),
    ("run", "cartpole", {"svgd": {"iterations": -1}}, "svgd.iterations"),
    ("run", "cartpole", {"harness": {"n_particles": 0}}, "harness.n_particles"),
    ("run", "cartpole", {"harness": {"horizon_seconds": 0}}, "harness.horizon_seconds"),
    ("run", "racing", {"harness": {"track": {"radius": -1}}}, "harness.track.radius"),
    ("run", "racing", {"cost": {"extra": {"epsilon": 0}}}, "cost.extra.epsilon"),
    ("run", "cartpole", {"env": {"dt": 0}}, "env.dt"),
    ("run", "cartpole", {"mppi": {"noise_fraction": -0.1}}, "mppi.noise_fraction"),
], ids=["theta_box_empty", "theta_true_outside", "control_box_empty",
        "extra_weight_negative", "q_not_psd", "q_diagonal_negative", "sign_mode_unknown", "extra_weights_short",
        "centerline_off_the_track", "nominal_theta_outside", "step_size_negative",
        "samples_zero", "log_ksd_not_bool", "x0_empty", "q_not_a_list", "ablate_on_cartpole",
        "env_name_a_list", "kernel_type_a_list", "extra_type_a_mapping",
        "temperature_beyond_float", "x0_entry_beyond_float", "theta_upper_infinite",
        "track_radius_infinite", "control_upper_infinite", "theta_true_nan",
        "duration_infinite", "laps_negative", "angle_tol_negative", "hold_negative",
        "speed_tol_zero", "x_target_infinite", "seed_negative", "base_seed_negative", "base_seed_beside_list",
        "seed_count_beyond_platform",
        "seed_count_over_cap", "seed_list_over_cap", "jobs_over_cap", "dt_tiny", "samples_huge",
        "n_particles_huge", "duration_huge", "horizon_beyond_float",
        "samples_past_the_fused_rescore", "integer_of_5000_digits", "bandwidth_zero",
        "gamma_negative", "iterations_negative", "n_particles_zero", "horizon_zero",
        "track_radius_negative", "extra_epsilon_zero", "dt_zero", "noise_fraction_negative"])
def test_every_invalid_document_exits_2_at_its_field(command, name, patch, field, tmp_path,
                                                     capsys):
    doc = load_config(os.path.join(CONFIG_DIR, f"{name}.yaml"))
    doc = _patched(_patched(doc, {"harness": {"duration": 0.03}}), patch)
    path = tmp_path / f"{name}.yaml"
    # PyYAML writes an int with str(), which refuses more than 4300 digits by default
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        path.write_text(serialize_config(doc))
    finally:
        sys.set_int_max_str_digits(digits)
    for flags in (["--out", str(tmp_path / "out")], ["--config-dump"]):
        assert cli.main([command, str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert f"config error at {field}:" in captured.err
        assert captured.out == ""
    assert not (tmp_path / "out").exists()


CARTPOLE_TRIAL = build_trial_config(load_config(os.path.join(CONFIG_DIR, "cartpole.yaml")))[0]
# (constructor, field, value): every constructor argument that a config
# document's numbers reach, each set to infinity alone. The loader rejects
# a non-finite number at its key first; the constructors hold the same rule
# for callers that build them directly, as MppiConfig already did.
INFINITE_FIELDS = [
    (ControllerSpec, "gamma", math.inf),
    (ControllerSpec, "risk_lambda", math.inf),
    (ControllerSpec, "risk_epsilon", math.inf),
    (functools.partial(ControllerSpec, variant="nominal"), "nominal_theta", [math.inf, 1.0]),
    (SvgdConfig, "step_size", math.inf),
    (SvgdConfig, "fd_epsilon", math.inf),
    (RbfKernel, "bandwidth", math.inf),
    (ImqKernel, "offset", math.inf),
    (ImqKernel, "decay", math.inf),
    (StadiumTrack, "straight_length", math.inf),
    (StadiumTrack, "radius", math.inf),
    (StadiumTrack, "reference_speed", math.inf),
    (InverseDisplacementReward, "weights", [1.0, math.inf]),
    (functools.partial(InverseDisplacementReward, [1.0, 1.0]), "epsilon", math.inf),
    (UprightEnergyPenalty, "weight", math.inf),
    (CartpoleSuccess, "angle_tol", math.inf),
    (CartpoleSuccess, "rate_tol", math.inf),
    (CartpoleSuccess, "hold_duration", math.inf),
    (RocketSuccess, "x_target", math.inf),
    (RocketSuccess, "y_target", math.inf),
    (RocketSuccess, "x_tol", math.inf),
    (RocketSuccess, "y_tol", math.inf),
    (RocketSuccess, "angle_tol", math.inf),
    (RocketSuccess, "speed_tol", math.inf),
    (RaceSuccess, "laps", math.inf),
    (functools.partial(dataclasses.replace, make_cartpole()), "dt", math.inf),
    # a trial of infinite duration runs until it succeeds or fails
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL), "duration", math.inf),
]
# (constructor, field, value, id): one zero or negative value for each range
# rule of a constructor argument; the loader leaves these rules to the class.
OUT_OF_RANGE_FIELDS = [
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL.mppi), "samples", 0, "samples_zero"),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL.mppi), "temperature", 0,
     "temperature_zero"),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL.mppi), "noise_fraction", -0.1,
     "noise_fraction_negative"),
    (ControllerSpec, "gamma", -1.0, "gamma_negative"),
    (ControllerSpec, "risk_lambda", 0.0, "risk_lambda_zero"),
    (ControllerSpec, "risk_epsilon", -1.0, "risk_epsilon_negative"),
    (SvgdConfig, "step_size", -1.0, "step_size_negative"),
    (SvgdConfig, "iterations", -1, "iterations_negative"),
    (SvgdConfig, "fd_epsilon", 0.0, "fd_epsilon_zero"),
    (RbfKernel, "bandwidth", 0.0, "bandwidth_zero"),
    (ImqKernel, "offset", 0.0, "offset_zero"),
    (ImqKernel, "decay", -1.0, "decay_negative"),
    (StadiumTrack, "straight_length", 0.0, "straight_length_zero"),
    (StadiumTrack, "radius", -1.0, "radius_negative"),
    (StadiumTrack, "reference_speed", 0.0, "reference_speed_zero"),
    (InverseDisplacementReward, "weights", [1.0, -1.0], "weights_negative"),
    (functools.partial(InverseDisplacementReward, [1.0, 1.0]), "epsilon", 0.0, "epsilon_zero"),
    (UprightEnergyPenalty, "weight", -1.0, "weight_negative"),
    (CartpoleSuccess, "angle_tol", 0.0, "cartpole_angle_tol_zero"),
    (CartpoleSuccess, "rate_tol", -1.0, "rate_tol_negative"),
    (CartpoleSuccess, "hold_duration", -1.0, "hold_duration_negative"),
    (RocketSuccess, "x_tol", 0.0, "x_tol_zero"),
    (RocketSuccess, "y_tol", -1.0, "y_tol_negative"),
    (RocketSuccess, "angle_tol", 0.0, "rocket_angle_tol_zero"),
    (RocketSuccess, "speed_tol", 0.0, "speed_tol_zero"),
    (RaceSuccess, "laps", 0.0, "laps_zero"),
    (functools.partial(dataclasses.replace, make_cartpole()), "dt", 0.0, "dt_zero"),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL), "duration", -1.0,
     "duration_negative"),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL), "n_particles", 0,
     "n_particles_zero"),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL), "horizon_seconds", 0.0,
     "horizon_seconds_zero"),
]


@pytest.mark.parametrize(
    "build,field,value",
    INFINITE_FIELDS + [row[:3] for row in OUT_OF_RANGE_FIELDS],
    ids=[field for _, field, _ in INFINITE_FIELDS] + [row[3] for row in OUT_OF_RANGE_FIELDS])
def test_every_constructor_rejects_an_infinite_number(build, field, value):
    # the message names the field first: a config file reports it at that key
    rule = "be .*and finite" if np.any(np.isinf(value)) else ""
    with pytest.raises(ValueError, match=f"^{field} must {rule}"):
        build(**{field: value})


def test_the_memory_rule_counts_the_next_cycles_grid_in_the_rescore():
    # cartpole: n = 4, H = 0.4 / 0.02 = 20, P = 6. At 279618 samples the
    # fused rescore's (n, H, samples + 2, P) errors take 1 073 740 800
    # bytes, inside 2^30; two more samples take 1 073 748 480, past it.
    doc = load_config(os.path.join(CONFIG_DIR, "cartpole.yaml"))
    assert 8 * 4 * 20 * (279618 + 2) * 6 <= 2**30 < 8 * 4 * 20 * (279620 + 2) * 6
    doc["mppi"]["samples"] = 279618
    trial, _ = build_trial_config(doc)
    assert trial.mppi.samples == 279618
    doc["mppi"]["samples"] = 279620
    assert error_field(doc) == "mppi.samples"


@pytest.mark.parametrize("command,flags,field", [
    ("run", ["--seed", "-1"], "batch.seeds"),
    ("batch", ["--seeds", "0"], "batch.seeds"),
    ("batch", ["--seeds", str(MAX_SEEDS + 1)], "batch.seeds"),
    ("batch", ["--jobs", "0"], "batch.jobs"),
    ("batch", ["--jobs", str(MAX_JOBS + 1)], "batch.jobs"),
], ids=["seed_negative", "seeds_zero", "seeds_over_cap", "jobs_zero", "jobs_over_cap"])
def test_every_invalid_override_exits_2_at_its_field(command, flags, field, tmp_path, capsys):
    config = os.path.join(CONFIG_DIR, "cartpole.yaml")
    for more in (["--out", str(tmp_path / "out")], ["--config-dump"]):
        assert cli.main([command, config, *flags, *more]) == 2
        captured = capsys.readouterr()
        assert f"config error at {field}:" in captured.err
        assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_batch_caps_are_inclusive():
    doc = minimal_doc()
    doc["batch"] = {"seeds": MAX_SEEDS, "base_seed": 5, "jobs": MAX_JOBS}
    batch = resolve_config(doc)[1]["batch"]
    assert batch["seeds"] == list(range(5, 5 + MAX_SEEDS))
    assert batch["jobs"] == MAX_JOBS
    batch = resolve_config(minimal_doc(), seed_count=MAX_SEEDS, jobs=MAX_JOBS)[1]["batch"]
    assert (len(batch["seeds"]), batch["jobs"]) == (MAX_SEEDS, MAX_JOBS)


def test_weight_vector_becomes_diagonal():
    trial, _ = build_trial_config(minimal_doc())
    assert np.array_equal(trial.cost.Q, np.diag([1.0, 1.0, 1.0, 1.0]))


def test_weight_rows_become_full_matrix():
    doc = minimal_doc()
    rows = np.diag([1.0, 2.0, 3.0, 4.0])
    rows[0, 2] = -0.5
    rows[2, 0] = -0.5
    doc["cost"]["q"] = [list(r) for r in rows]
    trial, _ = build_trial_config(doc)
    assert np.array_equal(trial.cost.Q, rows)


def test_weight_matrix_dimension_mismatch():
    doc = minimal_doc()
    doc["cost"]["q"] = [1.0, 1.0]
    assert error_field(doc) == "cost.q"

    doc = minimal_doc()
    doc["cost"]["q"] = [[1.0] * 4] * 3
    assert error_field(doc) == "cost.q"


def test_env_overrides_applied():
    doc = minimal_doc()
    doc["env"]["dt"] = 0.025
    doc["env"]["theta_true"] = [0.4, 0.8]
    trial, _ = build_trial_config(doc)
    assert trial.env.dt == 0.025
    assert np.array_equal(trial.env.theta_true, [0.4, 0.8])


def test_unknown_environment_rejected():
    doc = minimal_doc()
    doc["env"]["name"] = "submarine"
    assert error_field(doc) == "env.name"


def test_extra_terminal_terms():
    doc = minimal_doc()
    doc["cost"]["extra"] = {"type": "upright_energy", "weight": 10.0}
    trial, _ = build_trial_config(doc)
    assert isinstance(trial.cost.extra_terminal, UprightEnergyPenalty)
    assert trial.cost.extra_terminal.weight == 10.0

    doc["cost"]["extra"] = {"type": "magic"}
    assert error_field(doc) == "cost.extra.type"


def racing_doc():
    doc = minimal_doc()
    doc["env"] = {"name": "racecar", "dt": 0.015}  # 0.15 s is 10 steps, as shipped
    doc["cost"] = {
        "q": [1.0] * 5,
        "r": [0.1, 0.1],
        "q_f": [2.0] * 5,
        "reference": {"type": "centerline"},
    }
    doc["harness"] = {
        "duration": 1.0,
        "horizon_seconds": 0.15,
        "x0": [-2.5, -2.0, 0.0, 0.0, 0.0],
        "track": {"reference_speed": 3.0},
    }
    return doc


def test_centerline_reference_shares_harness_track():
    trial, _ = build_trial_config(racing_doc())
    assert isinstance(trial.cost.x_des, CenterlineReference)
    assert trial.track.reference_speed == 3.0
    assert trial.cost.x_des.track is trial.track
    assert isinstance(trial.success, RaceSuccess)


def test_reference_speed_is_set_only_on_the_track():
    # the centerline reference marches at harness.track.reference_speed
    doc = racing_doc()
    doc["cost"]["reference"]["speed"] = 1.5
    assert error_field(doc) == "cost.reference.speed"


def test_x_des_and_reference_are_exclusive():
    doc = racing_doc()
    doc["cost"]["x_des"] = [0.0] * 5
    assert error_field(doc) == "cost.x_des"


def test_track_section_rejected_off_the_racetrack():
    doc = minimal_doc()
    doc["harness"]["track"] = {"reference_speed": 2.0}
    assert error_field(doc) == "harness.track"


def test_success_section_overrides_fields():
    doc = minimal_doc()
    doc["harness"]["success"] = {"angle_tol": 0.3, "hold_duration": 1.0}
    trial, _ = build_trial_config(doc)
    assert trial.success == CartpoleSuccess(angle_tol=0.3, rate_tol=1.0,
                                            hold_duration=1.0)

    doc["harness"]["success"] = {"altitude": 1.0}
    assert error_field(doc) == "harness.success.altitude"


def test_kernel_variants_parse():
    doc = minimal_doc()
    doc["svgd"]["kernel"] = {"type": "imq", "offset": 2.0, "decay": 0.25}
    trial, _ = build_trial_config(doc)
    assert trial.svgd.kernel == ImqKernel(offset=2.0, decay=0.25)

    doc["svgd"]["kernel"] = {"type": "constant"}
    trial, _ = build_trial_config(doc)
    assert isinstance(trial.svgd.kernel, ConstantKernel)

    doc["svgd"]["kernel"] = {"type": "rbf", "bandwidth": 0.0}
    assert error_field(doc) == "svgd.kernel.bandwidth"

    doc["svgd"]["kernel"] = {"type": "triangular"}
    assert error_field(doc) == "svgd.kernel.type"


def test_controller_section():
    doc = minimal_doc()
    doc["controller"] = {"variant": "dro", "risk_lambda": 2.0,
                         "risk_epsilon": 0.2}
    trial, _ = build_trial_config(doc)
    assert trial.controller.risk_lambda == 2.0
    assert trial.controller.risk_epsilon == 0.2

    doc["controller"] = {"variant": "psychic"}
    assert error_field(doc) == "controller.variant"

    doc["controller"] = {"variant": "nominal", "nominal_theta": [0.4, 0.9]}
    trial, _ = build_trial_config(doc)
    assert np.array_equal(trial.controller.nominal_theta, [0.4, 0.9])


def test_batch_seed_forms():
    doc = minimal_doc()
    doc["batch"] = {"seeds": 4}
    _, resolved = build_trial_config(doc)
    assert resolved["batch"]["seeds"] == [0, 1, 2, 3]

    doc["batch"] = {"seeds": 3, "base_seed": 10}
    _, resolved = build_trial_config(doc)
    assert resolved["batch"]["seeds"] == [10, 11, 12]

    doc["batch"] = {"seeds": [5, 9, 2]}
    _, resolved = build_trial_config(doc)
    assert resolved["batch"]["seeds"] == [5, 9, 2]

    doc["batch"] = {"seeds": [], "jobs": 2}
    assert error_field(doc) == "batch.seeds"


def test_repeated_batch_seeds_are_rejected(tmp_path, capsys):
    # two trials of one seed would write one trial file but count twice
    doc = minimal_doc()
    doc["batch"] = {"seeds": [3, 1, 3]}
    assert error_field(doc) == "batch.seeds"
    path = tmp_path / "cartpole.yaml"
    path.write_text(serialize_config(doc))
    code = cli.main(["batch", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error at batch.seeds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_override_wins():
    doc = minimal_doc()
    doc["batch"] = {"seeds": 4, "base_seed": 7}
    trial, _ = build_trial_config(doc, seed=99)
    assert trial.seed == 99


def test_resolve_seeds():
    # a seed count rebases the batch's seeds on its first
    doc = minimal_doc()
    doc["batch"] = {"seeds": [3, 4, 5]}
    assert resolve_config(doc, seed_count=None)[1]["batch"]["seeds"] == [3, 4, 5]
    assert resolve_config(doc, seed_count=2)[1]["batch"]["seeds"] == [3, 4]
    assert resolve_config(doc, seed_count=5)[1]["batch"]["seeds"] == [3, 4, 5, 6, 7]
    with pytest.raises(ConfigError):
        resolve_config(doc, seed_count=0)


def test_parse_round_trip():
    doc = minimal_doc()
    assert parse_config(serialize_config(doc)) == doc


def test_parse_rejects_bad_documents():
    with pytest.raises(ConfigError):
        parse_config(":\n  - ][")
    with pytest.raises(ConfigError):
        parse_config("")
    with pytest.raises(ConfigError):
        parse_config("- just\n- a\n- list\n")


def test_config_hash_is_order_independent():
    doc = minimal_doc()
    shuffled = {k: doc[k] for k in reversed(list(doc))}
    assert config_hash(doc) == config_hash(shuffled)
    changed = copy.deepcopy(doc)
    changed["mppi"]["samples"] = 9
    assert config_hash(changed) != config_hash(doc)


def test_cli_run_exits_2_on_a_horizon_of_partial_steps(tmp_path, capsys):
    doc = load_config(os.path.join(CONFIG_DIR, "racing.yaml"))
    doc["harness"]["horizon_seconds"] = 0.155  # 10.33 steps of dt 0.015
    path = tmp_path / "racing.yaml"
    path.write_text(serialize_config(doc))
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error at harness.horizon_seconds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_of_zero_duration_logs_no_step(tmp_path, capsys):
    # a zero duration is a valid trial, as TrialConfig says: it times out before its first step
    doc = load_config(os.path.join(CONFIG_DIR, "cartpole.yaml"))
    doc["harness"]["duration"] = 0
    path = tmp_path / "cartpole.yaml"
    path.write_text(serialize_config(doc))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("seed 0: timeout ")
    log = (tmp_path / "out" / "trial_0.csv").read_text().splitlines()
    assert len(log) == 1 and log[0].startswith("t,")
    summary = json.loads((tmp_path / "out" / "trial_0.json").read_text())
    assert (summary["steps"], summary["terminal_reason"]) == (0, "timeout")


def test_shipped_reference_configs_build():
    paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.yaml")))
    assert len(paths) == 4
    built = {}
    for path in paths:
        trial, resolved = build_trial_config(load_config(path))
        built[os.path.basename(path)] = (trial, resolved["batch"])

    cartpole, cartpole_batch = built["cartpole.yaml"]
    assert cartpole.env.name == "cartpole"
    assert cartpole.controller.variant == "stein_adaptive"
    assert cartpole.controller.gamma == 0.5
    assert cartpole.svgd.step_size == 0.001
    assert cartpole.n_particles == 5
    assert len(cartpole_batch["seeds"]) == 32

    rocket, rocket_batch = built["rocket.yaml"]
    assert rocket.env.name == "rocket2d"
    assert np.array_equal(rocket.env.theta_true, [0.1, 0.01, 0.7])
    assert rocket.horizon_seconds == 0.15
    # a per-channel noise list is held as a tuple; the resolved document keeps the list
    assert rocket.mppi.noise_fraction == (0.3, 0.04)
    assert len(rocket_batch["seeds"]) == 32

    ablation, ablation_batch = built["kernel_ablation.yaml"]
    assert ablation.env.name == "rocket2d"
    assert len(ablation_batch["seeds"]) == 20

    racing, racing_batch = built["racing.yaml"]
    assert racing.env.name == "racecar"
    assert racing.env.dt == 0.015
    assert racing.track.reference_speed == 4.5
    assert isinstance(racing.svgd.kernel, ImqKernel)
    assert racing.svgd.sign_mode == "favoring"
    assert racing.svgd.step_size == 0.01
    assert racing.controller.risk_lambda == 0.5
    assert isinstance(racing.cost.extra_terminal, InverseDisplacementReward)
    assert len(racing_batch["seeds"]) == 16


@pytest.mark.parametrize("name", ["cartpole", "kernel_ablation", "racing", "rocket"])
def test_config_dump_output_is_pinned(name, capsys):
    # the resolved, fully defaulted document of each shipped config, byte for byte
    code = cli.main(["run", os.path.join(CONFIG_DIR, f"{name}.yaml"), "--config-dump"])
    assert code == 0
    with open(os.path.join(DUMP_DIR, f"{name}.yaml"), "rb") as fh:
        expected = fh.read()
    assert capsys.readouterr().out.encode("utf-8") == expected


class Stop(Exception):
    pass


@pytest.mark.parametrize("argv,expected", [
    (["batch", "cartpole", "--seeds", "3", "--jobs", "2"], (0, (0, 1, 2), 2)),
    (["run", "racing", "--seed", "7"], (7, None, None)),
    (["ablate-kernels", "kernel_ablation", "--seeds", "2", "--jobs", "2"], (0, (0, 1), 2)),
    (["race-progress", "racing", "--seeds", "1"], (0, (0,), 1)),
], ids=["batch", "run", "ablate-kernels", "race-progress"])
def test_config_dump_carries_the_command_line_overrides(argv, expected, tmp_path, monkeypatch,
                                                        capsys):
    # the dump, run without the flags, starts the (seed, seeds, jobs) the flags asked for
    calls = []

    def record(trial, seeds=None, jobs=None):
        calls.append((trial.seed, seeds and tuple(seeds), jobs))
        raise Stop

    monkeypatch.setattr(cli, "run_trial", record)
    monkeypatch.setattr(cli, "run_batch", record)
    command, name, *flags = argv
    config = os.path.join(CONFIG_DIR, f"{name}.yaml")
    assert cli.main([command, config, *flags, "--config-dump"]) == 0
    dump = tmp_path / "dump.yaml"
    dump.write_text(capsys.readouterr().out)
    for args in ([config, *flags], [str(dump)]):
        with pytest.raises(Stop):
            cli.main([command, *args, "--out", str(tmp_path / "out")])
    assert calls == [expected, expected]


ENVS = {"cartpole": make_cartpole(), "rocket2d": make_rocket(), "racecar": make_racecar()}
SUCCESS = {"cartpole": CartpoleSuccess, "rocket2d": RocketSuccess, "racecar": RaceSuccess}
NUMBER = st.floats(0.01, 10.0) | st.integers(1, 10)


@st.composite
def documents(draw):
    """Valid documents: every optional key is dropped at random."""
    name = draw(st.sampled_from(sorted(ENVS)))
    env = ENVS[name]
    n, m, p = env.state_dim, env.control_dim, env.param_dim

    def numbers(size, values=NUMBER):
        return draw(st.lists(values, min_size=size, max_size=size))

    def optional(section, values):
        for key, value in values.items():
            if draw(st.booleans()):
                section[key] = value
        return section

    def weights(dim):
        diag = numbers(dim)
        if draw(st.booleans()):
            return diag
        return [[d if i == j else 0.0 for j in range(dim)] for i, d in enumerate(diag)]

    env_doc = optional({"name": name}, {
        "dt": draw(st.sampled_from([0.01, 0.015, 0.02])),
        **{key: getattr(env, key).tolist() for key in (
            "control_lower", "control_upper", "theta_true", "theta_lower", "theta_upper")},
    })
    cost = {"q": weights(n), "r": weights(m), "q_f": weights(n)}
    if name == "racecar" and draw(st.booleans()):
        cost["reference"] = {"type": "centerline"}
    else:
        cost["x_des"] = numbers(n, st.floats(-5.0, 5.0))
    extra = draw(st.sampled_from([None, "upright_energy", "inverse_displacement"]))
    if extra == "upright_energy":
        cost["extra"] = {"type": extra, "weight": draw(NUMBER)}
    elif extra == "inverse_displacement":
        cost["extra"] = optional({"type": extra, "weights": numbers(n)},
                                 {"epsilon": draw(NUMBER)})
    controller = optional({"variant": draw(st.sampled_from(VARIANTS))}, {
        "gamma": draw(NUMBER), "risk_lambda": draw(NUMBER), "risk_epsilon": draw(NUMBER),
        # inside the parameter box, as env.theta_true must be
        "nominal_theta": [draw(st.floats(lo, hi))
                          for lo, hi in zip(env.theta_lower, env.theta_upper)],
    })
    kernel = draw(st.sampled_from([None, *KERNELS]))
    svgd = optional({"step_size": draw(NUMBER)}, {
        "iterations": draw(st.integers(0, 3)), "fd_epsilon": draw(NUMBER),
        "sign_mode": draw(st.sampled_from(["adversarial", "favoring"])),
    })
    if kernel is not None:
        fields = [f.name for f in dataclasses.fields(KERNELS[kernel])]
        svgd["kernel"] = optional({"type": kernel}, {f: draw(NUMBER) for f in fields})
    mppi = {"samples": draw(st.integers(1, 512)), "temperature": draw(NUMBER),
            "noise_fraction": draw(NUMBER | st.lists(NUMBER, min_size=m, max_size=m))}
    harness = optional({
        "duration": draw(NUMBER), "x0": numbers(n),
        # a whole number of steps of the dt the trial runs at
        "horizon_seconds": draw(st.integers(1, 500)) * env_doc.get("dt", env.dt),
    }, {
        "n_particles": draw(st.integers(1, 8)), "log_ksd": draw(st.booleans()),
        "success": optional({}, {f.name: draw(NUMBER)
                                 for f in dataclasses.fields(SUCCESS[name])}),
    })
    if name == "racecar":
        optional(harness, {"track": optional({}, {
            key: draw(NUMBER) for key in ("straight_length", "radius", "reference_speed")})})
    doc = {"env": env_doc, "cost": cost, "controller": controller, "svgd": svgd,
           "mppi": mppi, "harness": harness}
    batch = optional({}, {
        "seeds": draw(st.integers(1, 5) | st.lists(st.integers(0, 99), min_size=1, max_size=5, unique=True)),
        "jobs": draw(st.integers(1, 3)),
    })
    if not isinstance(batch.get("seeds"), list):
        # a first seed is only meaningful with a seed count
        optional(batch, {"base_seed": draw(st.integers(0, 99))})
    return optional(doc, {"batch": batch})


@given(doc=documents())
def test_resolving_a_document_is_a_fixed_point(doc):
    assert config_hash(parse_config(serialize_config(doc))) == config_hash(doc)
    trial, resolved = resolve_config(doc)
    assert list(resolved) == ["env", "cost", "controller", "svgd", "mppi", "harness", "batch"]
    # a section built from one class has that class's fields as its keys, in order
    kernel = dict(resolved["svgd"]["kernel"])
    sections = [(resolved["controller"], ControllerSpec),
                (resolved["svgd"], SvgdConfig), (resolved["mppi"], MppiConfig),
                (kernel, KERNELS[kernel.pop("type")]),
                (resolved["harness"]["success"], type(trial.success))]
    if trial.track is not None:
        sections.append((resolved["harness"]["track"], StadiumTrack))
    for section, cls in sections:
        assert list(section) == [f.name for f in dataclasses.fields(cls)]
    # the harness section's keys are TrialConfig's fields less the sections and the seed
    assert list(resolved["harness"]) == [
        f.name for f in dataclasses.fields(TrialConfig)
        if f.name not in (*resolved, "seed") and (f.name != "track" or trial.track is not None)]
    # the record is plain data: it reads back as itself, and builds in memory
    again = parse_config(serialize_config(resolved))
    assert again == resolved
    assert config_hash(again) == config_hash(resolved)
    assert serialize_config(resolve_config(resolved)[1]) == serialize_config(resolved)
    trial_again, resolved_again = resolve_config(again)
    assert serialize_config(resolved_again) == serialize_config(resolved)
    # and the resolved document builds the trial the original one built
    assert resolved_again["batch"] == resolved["batch"]
    _assert_same_trial(trial_again, trial)


@given(doc=documents(), seed=st.none() | st.integers(0, 10**6),
       seed_count=st.none() | st.integers(1, MAX_SEEDS), jobs=st.none() | st.integers(1, MAX_JOBS))
def test_the_batch_overrides_are_a_fixed_point(doc, seed, seed_count, jobs):
    # the resolved batch carries the command line's overrides, so it needs none to rebuild
    trial, resolved = resolve_config(doc, seed=seed, seed_count=seed_count, jobs=jobs)
    batch = resolved["batch"]
    assert trial.seed == batch["seeds"][0]
    if seed is not None:
        assert batch["seeds"][0] == seed
    if seed_count is not None:
        assert len(batch["seeds"]) == seed_count
    if jobs is not None:
        assert batch["jobs"] == jobs
    trial_again, resolved_again = resolve_config(resolved)
    assert resolved_again["batch"] == batch
    assert trial_again.seed == trial.seed


def _assert_same_trial(got, expected):
    for name in ("seed", "svgd", "mppi", "success", "track", "duration", "horizon_seconds",
                 "n_particles", "log_ksd"):
        assert getattr(got, name) == getattr(expected, name)
    np.testing.assert_array_equal(got.x0, expected.x0)
    for name in ("variant", "gamma", "risk_lambda", "risk_epsilon"):
        assert getattr(got.controller, name) == getattr(expected.controller, name)
    if expected.controller.nominal_theta is None:
        assert got.controller.nominal_theta is None
    else:
        np.testing.assert_array_equal(got.controller.nominal_theta,
                                      expected.controller.nominal_theta)
    for name in ("Q", "R", "Q_f"):
        np.testing.assert_array_equal(getattr(got.cost, name), getattr(expected.cost, name))
    for name in ("dt", "control_lower", "control_upper", "theta_true", "theta_lower",
                 "theta_upper"):
        np.testing.assert_array_equal(getattr(got.env, name), getattr(expected.env, name))


# The two sweeps: the key each overrides, its (label, value) settings, and the
# trial each setting ran before the sweep built settings from the document,
# the built trial with one object replaced.
SWEEPS = [
    ("svgd.kernel", [(name, {"type": name}) for name in KERNELS],
     lambda trial, name: dataclasses.replace(
         trial, svgd=dataclasses.replace(trial.svgd, kernel=KERNELS[name]()))),
    ("controller.variant", [(variant, variant) for variant in VARIANTS],
     lambda trial, variant: dataclasses.replace(
         trial, controller=dataclasses.replace(trial.controller, variant=variant))),
]


@given(doc=documents())
def test_a_sweep_builds_the_trials_the_replaced_objects_built(doc):
    trial, resolved = resolve_config(doc)
    batch = resolved["batch"]
    runs = {}

    def record(trial, seeds, jobs, out_dir, doc_hash, label):
        runs[label] = (trial, seeds, jobs, os.path.basename(out_dir))
        return [], {}

    with tempfile.TemporaryDirectory() as out, mock.patch.object(cli, "_run_one_batch", record):
        args = argparse.Namespace(out=out, env_name=doc["env"]["name"])
        for key, settings, replaced in SWEEPS:
            runs.clear()
            swept = [(label, got)
                     for label, got, _ in cli._sweep(args, resolved, "", key, settings)]
            assert [label for label, _ in swept] == [label for label, _ in settings]
            for label, got in swept:
                assert runs[label][1:] == (batch["seeds"], batch["jobs"], label)
                assert runs[label][0] is got
                _assert_same_trial(got, replaced(trial, label))


@given(doc=documents())
def test_every_generated_document_runs_a_short_closed_loop(doc):
    # Three steps at <= 16 samples and a horizon of <= 20 steps: the trial
    # ends in a documented reason, every history has one row per step, every
    # logged particle lies in the box, and a rerun gives the same bytes.
    dt = doc["env"].get("dt", ENVS[doc["env"]["name"]].dt)
    harness = doc["harness"]
    harness["duration"] = 3 * dt
    harness["horizon_seconds"] = min(round(harness["horizon_seconds"] / dt), 20) * dt
    doc["mppi"]["samples"] = min(doc["mppi"]["samples"], 16)
    trial, _ = resolve_config(doc)
    result, again = run_trial(trial), run_trial(trial)

    assert result.terminal_reason in ("success", "timeout", "solver_failure", "inference_failure")
    steps = result.steps
    assert steps <= 3 and (steps == 3 or result.terminal_reason != "timeout")
    histories = [result.times, result.states, result.controls, result.costs, result.particles]
    if trial.track is not None:
        histories.append(result.progress)
    assert [len(h) for h in histories] == [steps] * len(histories)
    if result.ksd is not None:
        # a failing step logs no KSD
        assert len(result.ksd) == steps or (len(result.ksd) == steps - 1
                                            and result.terminal_reason != "success")
    lo, hi = trial.env.theta_lower, trial.env.theta_upper
    for particles in (result.particles, result.final_particles.particles):
        assert np.all((lo <= particles) & (particles <= hi))
    for name in ("states", "controls", "costs", "particles"):
        assert getattr(again, name).tobytes() == getattr(result, name).tobytes()


# (shipped config, key): every number a shipped config gives or defaults that
# a class checks; the integer keys are the three that take whole numbers.
NUMERIC_KEYS = [
    ("cartpole", key) for key in (
        "env.dt", "cost.extra.weight", "controller.gamma", "controller.risk_lambda",
        "controller.risk_epsilon", "svgd.step_size", "svgd.iterations", "svgd.fd_epsilon",
        "svgd.kernel.bandwidth", "mppi.samples", "mppi.temperature", "mppi.noise_fraction",
        "harness.duration", "harness.horizon_seconds", "harness.n_particles",
        "harness.success.angle_tol", "harness.success.rate_tol", "harness.success.hold_duration")
] + [
    ("rocket", key) for key in (
        "harness.success.x_target", "harness.success.x_tol", "harness.success.angle_tol",
        "harness.success.speed_tol")
] + [
    ("racing", key) for key in (
        "cost.extra.epsilon", "svgd.kernel.offset", "svgd.kernel.decay",
        "harness.track.straight_length", "harness.track.radius",
        "harness.track.reference_speed", "harness.success.laps")
]
INTEGER_KEYS = ("svgd.iterations", "mppi.samples", "harness.n_particles")
# zero, negatives, and small and large magnitudes; none so small or large that
# a trial's arrays would pass MAX_TRIAL_BYTES, a rule no class holds
INTEGER = st.integers(-100, 100)
REAL = st.just(0.0) | INTEGER | st.floats(-100.0, 100.0).filter(lambda v: abs(v) >= 0.01)


@functools.cache
def _shipped(name):
    doc = load_config(os.path.join(CONFIG_DIR, f"{name}.yaml"))
    return doc, build_trial_config(doc)[0]


def _rebuilt(trial, key, value):
    """The object of ``trial`` that holds ``key``, built again with ``value``."""
    section, _, field = key.rpartition(".")
    if section == "cost.extra":
        if field == "weight":
            return UprightEnergyPenalty(value)
        return InverseDisplacementReward(trial.cost.extra_terminal.weights, epsilon=value)
    holder = {"env": trial.env, "controller": trial.controller, "svgd": trial.svgd,
              "svgd.kernel": trial.svgd.kernel, "mppi": trial.mppi, "harness": trial,
              "harness.track": trial.track, "harness.success": trial.success}[section]
    return dataclasses.replace(holder, **{field: value})


@pytest.mark.parametrize("name,key", NUMERIC_KEYS, ids=[f"{n}:{k}" for n, k in NUMERIC_KEYS])
@given(data=st.data())
def test_the_loader_accepts_exactly_what_the_classes_accept(name, key, data):
    value = data.draw(INTEGER if key in INTEGER_KEYS else REAL)
    doc, trial = _shipped(name)
    doc = copy.deepcopy(doc)
    *sections, field = key.split(".")
    functools.reduce(lambda d, k: d.setdefault(k, {}), sections, doc)[field] = value
    try:
        _rebuilt(trial, key, value)
        class_rejects = False
    except ValueError:
        class_rejects = True
    try:
        resolve_config(doc)
        at = None
    except ConfigError as err:
        at = err.field
    assert (at == key) == class_rejects, (key, value, at)
