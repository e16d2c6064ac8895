"""Strict experiment-document parsing and the shipped reference configs."""
import argparse
import copy
import dataclasses
import functools
import glob
import json
import math
import operator
import os
import re
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
from steinmpc.costs import CostSpec, InverseDisplacementReward, UprightEnergyPenalty
from steinmpc.dynamics import make_cartpole, make_racecar, make_rocket
from steinmpc.harness import CartpoleSuccess, RaceSuccess, RocketSuccess, TrialConfig, run_trial
from steinmpc.inference import ParticleSet, SvgdConfig
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
    assert error_field(doc) == "bogus"

    doc = minimal_doc()
    doc["env"]["bogus"] = 1
    assert error_field(doc) == "env.bogus"

    doc = minimal_doc()
    doc["svgd"]["kernel"] = {"type": "rbf", "shininess": 2}
    assert error_field(doc) == "svgd.kernel.shininess"


def test_missing_required_sections_and_values():
    doc = minimal_doc()
    del doc["cost"]
    assert error_field(doc) == "cost"

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
# (constructor, field, value, rule): every constructor argument that a config
# document's numbers reach, and a particle set's bounds and rows, each set to
# infinity alone. The loader rejects a non-finite number at its key first;
# the constructors hold the same rule for callers that build them directly,
# as MppiConfig already did. ``rule``
# is the ``dynamics._check_ranges`` rule the message names, or None where the
# message has its own shape.
INFINITE_FIELDS = [
    (ControllerSpec, "gamma", math.inf, "nonnegative"),
    (ControllerSpec, "risk_lambda", math.inf, "positive"),
    (ControllerSpec, "risk_epsilon", math.inf, "nonnegative"),
    (functools.partial(ControllerSpec, variant="nominal"), "nominal_theta", [math.inf, 1.0],
     "real"),
    (SvgdConfig, "step_size", math.inf, "nonnegative"),
    (SvgdConfig, "fd_epsilon", math.inf, "positive"),
    (RbfKernel, "bandwidth", math.inf, "positive"),
    (ImqKernel, "offset", math.inf, "positive"),
    (ImqKernel, "decay", math.inf, "positive"),
    (StadiumTrack, "straight_length", math.inf, "positive"),
    (StadiumTrack, "radius", math.inf, "positive"),
    (StadiumTrack, "reference_speed", math.inf, "positive"),
    (InverseDisplacementReward, "weights", [1.0, math.inf], "nonnegative"),
    (functools.partial(InverseDisplacementReward, [1.0, 1.0]), "epsilon", math.inf, "positive"),
    (UprightEnergyPenalty, "weight", math.inf, "nonnegative"),
    (CartpoleSuccess, "angle_tol", math.inf, "positive"),
    (CartpoleSuccess, "rate_tol", math.inf, "positive"),
    (CartpoleSuccess, "hold_duration", math.inf, "nonnegative"),
    (RocketSuccess, "x_target", math.inf, "real"),
    (RocketSuccess, "y_target", math.inf, "real"),
    (RocketSuccess, "x_tol", math.inf, "positive"),
    (RocketSuccess, "y_tol", math.inf, "positive"),
    (RocketSuccess, "angle_tol", math.inf, "positive"),
    (RocketSuccess, "speed_tol", math.inf, "positive"),
    (RaceSuccess, "laps", math.inf, "positive"),
    (functools.partial(dataclasses.replace, make_cartpole()), "dt", math.inf, "positive"),
    # a trial of infinite duration runs until it succeeds or fails
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL), "duration", math.inf,
     "nonnegative"),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL), "x0", [0.0, math.inf, 0.0, 0.0],
     "real"),
    *[(functools.partial(dataclasses.replace, make_cartpole()), name, [math.inf] * dim, "real")
      for name, dim in (("control_lower", 1), ("control_upper", 1), ("theta_true", 2),
                        ("theta_lower", 2), ("theta_upper", 2))],
    (functools.partial(ParticleSet, [[0.5]], upper=[1.0]), "lower", [-math.inf], "real"),
    (functools.partial(ParticleSet, [[0.5]], [0.0]), "upper", [math.inf], "real"),
    (functools.partial(ParticleSet, lower=[0.0], upper=[1.0]), "particles", [[math.inf]],
     "real"),
]
# (constructor, field, value, rule, id): one zero or negative value for each
# range rule of a constructor argument; the loader leaves these rules to the
# class. ``rule`` is as in INFINITE_FIELDS.
OUT_OF_RANGE_FIELDS = [
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL.mppi), "samples", 0,
     "positive count", "samples_zero"),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL.mppi), "temperature", 0,
     "positive", "temperature_zero"),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL.mppi), "noise_fraction", -0.1,
     "nonnegative", "noise_fraction_negative"),
    (ControllerSpec, "gamma", -1.0, "nonnegative", "gamma_negative"),
    (ControllerSpec, "risk_lambda", 0.0, "positive", "risk_lambda_zero"),
    (ControllerSpec, "risk_epsilon", -1.0, "nonnegative", "risk_epsilon_negative"),
    (SvgdConfig, "step_size", -1.0, "nonnegative", "step_size_negative"),
    (SvgdConfig, "iterations", -1, "nonnegative count", "iterations_negative"),
    (SvgdConfig, "fd_epsilon", 0.0, "positive", "fd_epsilon_zero"),
    (RbfKernel, "bandwidth", 0.0, "positive", "bandwidth_zero"),
    (ImqKernel, "offset", 0.0, "positive", "offset_zero"),
    (ImqKernel, "decay", -1.0, "positive", "decay_negative"),
    (StadiumTrack, "straight_length", 0.0, "positive", "straight_length_zero"),
    (StadiumTrack, "radius", -1.0, "positive", "radius_negative"),
    (StadiumTrack, "reference_speed", 0.0, "positive", "reference_speed_zero"),
    (InverseDisplacementReward, "weights", [1.0, -1.0], "nonnegative", "weights_negative"),
    (functools.partial(InverseDisplacementReward, [1.0, 1.0]), "epsilon", 0.0, "positive",
     "epsilon_zero"),
    (UprightEnergyPenalty, "weight", -1.0, "nonnegative", "weight_negative"),
    (CartpoleSuccess, "angle_tol", 0.0, "positive", "cartpole_angle_tol_zero"),
    (CartpoleSuccess, "rate_tol", -1.0, "positive", "rate_tol_negative"),
    (CartpoleSuccess, "hold_duration", -1.0, "nonnegative", "hold_duration_negative"),
    (RocketSuccess, "x_tol", 0.0, "positive", "x_tol_zero"),
    (RocketSuccess, "y_tol", -1.0, "positive", "y_tol_negative"),
    (RocketSuccess, "angle_tol", 0.0, "positive", "rocket_angle_tol_zero"),
    (RocketSuccess, "speed_tol", 0.0, "positive", "speed_tol_zero"),
    (RaceSuccess, "laps", 0.0, "positive", "laps_zero"),
    (functools.partial(dataclasses.replace, make_cartpole()), "dt", 0.0, "positive", "dt_zero"),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL), "duration", -1.0, "nonnegative",
     "duration_negative"),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL), "n_particles", 0,
     "positive count", "n_particles_zero"),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL), "horizon_seconds", 0.0, None,
     "horizon_seconds_zero"),
    # a count that is no integer used to build, then fail the trial with
    # "'float' object cannot be interpreted as an integer"
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL.mppi), "samples", 2.5, "integer",
     "samples_fractional"),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL.mppi), "samples", math.nan,
     "integer", "samples_nan"),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL), "n_particles", 2.5, "integer",
     "n_particles_fractional"),
    (SvgdConfig, "iterations", 0.5, "integer", "iterations_fractional"),
]


# a count's message gives its least value, or that it is no integer, where a
# real rule's says "and finite"
COUNT_PHRASES = {"positive count": "at least 1", "nonnegative count": "nonnegative",
                 "integer": "an integer"}


@pytest.mark.parametrize(
    "build,field,value,rule",
    INFINITE_FIELDS + [row[:4] for row in OUT_OF_RANGE_FIELDS],
    ids=[row[1] for row in INFINITE_FIELDS] + [row[4] for row in OUT_OF_RANGE_FIELDS])
def test_every_constructor_rejects_an_infinite_number(build, field, value, rule):
    # the message names the field first: a config file reports it at that key
    if rule is not None:
        phrase = COUNT_PHRASES.get(rule, f"{rule} and finite")
        shown = np.asarray(value, dtype=float) if isinstance(value, list) else value
        message = f"^{field} must be {phrase}, got {re.escape(str(shown))}$"
    else:
        message = f"^{field} must " + ("be .*and finite" if np.any(np.isinf(value)) else "")
    with pytest.raises(ValueError, match=message):
        build(**{field: value})


# (constructor, two bad fields, the one reported): a constructor checks its
# fields in its own order, whatever order the arguments come in.
TWO_BAD_FIELDS = [
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL.mppi),
     {"noise_fraction": -1.0, "temperature": 0.0}, "temperature"),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL.mppi),
     {"temperature": 0.0, "samples": 0}, "samples"),
    (ControllerSpec, {"risk_epsilon": -1.0, "gamma": -1.0}, "gamma"),
    (SvgdConfig, {"fd_epsilon": 0.0, "iterations": -1}, "iterations"),
    (ImqKernel, {"decay": 0.0, "offset": 0.0}, "offset"),
    (StadiumTrack, {"reference_speed": 0.0, "radius": 0.0}, "radius"),
    (CartpoleSuccess, {"hold_duration": -1.0, "rate_tol": 0.0}, "rate_tol"),
    (RocketSuccess, {"x_tol": 0.0, "y_target": math.inf}, "y_target"),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL),
     {"duration": -1.0, "n_particles": 0}, "n_particles"),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL),
     {"horizon_seconds": 0.0, "duration": -1.0}, "duration"),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL),
     {"n_particles": 0, "x0": [0.0, math.nan, 0.0, 0.0]}, "x0"),
    # a parameter array's shape before the box's order, a particle set's bounds before its rows
    (functools.partial(dataclasses.replace, make_cartpole()),
     {"theta_upper": [0.3, 0.3], "theta_true": [0.5]}, "theta_true"),
    (functools.partial(ParticleSet, upper=[1.0]), {"particles": [[math.nan]], "lower": [1.0]},
     "lower"),
]


@pytest.mark.parametrize("build,bad,first", TWO_BAD_FIELDS,
                         ids=["-".join(bad) for _, bad, _ in TWO_BAD_FIELDS])
def test_a_constructor_reports_the_first_of_two_bad_fields(build, bad, first):
    with pytest.raises(ValueError, match=f"^{first} must "):
        build(**bad)


def _is_integer(v):
    try:
        operator.index(v)
    except TypeError:
        return False
    return True


# The hand-written predicates the settings classes held before their value
# rules joined ``dynamics._check_ranges``: False where a class raised its own
# ValueError, True where it let the value pass. An exception a predicate
# raises itself (OverflowError converting an integer too large for a float,
# TypeError comparing a tuple) the class raised too.
PARENT_RULES = {
    # the scalar rules, already one helper's
    "real": math.isfinite,
    "nonnegative": lambda v: 0 <= v < math.inf,
    "positive": lambda v: 0 < v < math.inf,
    # `if self.samples < 1: raise`, `if self.iterations < 0: raise`, less the
    # non-integers they let through to fail the trial: a count is an integer
    # as operator.index takes one
    "positive count": lambda v: _is_integer(v) and not v < 1,
    "nonnegative count": lambda v: _is_integer(v) and not v < 0,
    # nominal_theta on ControllerSpec
    "finite entries": lambda v: np.all(np.isfinite(np.asarray(v, dtype=float))),
    # noise_fraction and the inverse-displacement weights
    "nonnegative entries": lambda v: np.all(
        (0 <= np.asarray(v, dtype=float)) & (np.asarray(v, dtype=float) < np.inf)),
}
CARTPOLE = make_cartpole()
ENV_ARRAYS = ("control_lower", "control_upper", "theta_true", "theta_lower", "theta_upper")


# The hand-written checks of the constructors whose shape, order, box and name
# rules joined the helper, in their order: each returns the field its first
# failing check concerned, or None where the class built. ``field`` is the
# one argument set to ``value``; the rest are the row's valid defaults.
def _parent_env_model(field, value):
    env = {name: getattr(CARTPOLE, name) for name in ENV_ARRAYS}
    env[field] = np.asarray(value, dtype=float)
    # _check_ranges(self, **dict.fromkeys(arrays, "real"), dt="positive")
    for name in ENV_ARRAYS:
        if not np.all(np.isfinite(env[name])):
            return name
    # "control bounds must match control_dim"
    for name in ENV_ARRAYS[:2]:
        if env[name].shape != (CARTPOLE.control_dim,):
            return name
    # "control lower bounds must be strictly below upper bounds"
    if np.any(env["control_lower"] >= env["control_upper"]):
        return "control_lower"
    # "{name} must match param_dim"
    for name in ENV_ARRAYS[2:]:
        if env[name].shape != (CARTPOLE.param_dim,):
            return name
    # "parameter box must have positive volume"
    if np.any(env["theta_lower"] >= env["theta_upper"]):
        return "theta_lower"
    # "theta_true must lie inside the parameter box"
    if np.any(env["theta_true"] < env["theta_lower"]) or np.any(
            env["theta_true"] > env["theta_upper"]):
        return "theta_true"
    return None


PARTICLE_SET = {"particles": [[0.5, 0.5]], "lower": [0.0, 0.0], "upper": [1.0, 1.0]}


def _parent_particle_set(field, value):
    given = {**PARTICLE_SET, field: value}
    particles = np.array(given["particles"], dtype=float, copy=True)
    if particles.ndim == 1:
        particles = particles[None, :]
    lower = np.asarray(given["lower"], dtype=float)
    upper = np.asarray(given["upper"], dtype=float)
    # `n, dim = self.particles.shape` raised its own ValueError
    if particles.ndim != 2:
        return "particles"
    n, dim = particles.shape
    # "particle stack must be non-empty"
    if n < 1 or dim < 1:
        return "particles"
    # "bounds must have shape ({dim},), got {lower.shape} and {upper.shape}"
    if lower.shape != (dim,):
        return "lower"
    if upper.shape != (dim,):
        return "upper"
    # _check_ranges(self, lower="real", upper="real")
    for name, bound in (("lower", lower), ("upper", upper)):
        if not np.all(np.isfinite(bound)):
            return name
    # "lower bounds must be strictly below upper bounds"
    if not np.all(lower < upper):
        return "lower"
    # _check_ranges(self, particles="real")
    if not np.all(np.isfinite(particles)):
        return "particles"
    # "particles must lie inside the bounding box"
    if np.any(particles < lower) or np.any(particles > upper):
        return "particles"
    return None


def _parent_trial(field, value):
    env, cost = CARTPOLE_TRIAL.env, CARTPOLE_TRIAL.cost
    x0, theta, noise = CARTPOLE_TRIAL.x0, None, CARTPOLE_TRIAL.mppi.noise_fraction
    weights = {"Q": cost.Q, "R": cost.R}
    if field == "x0":
        x0 = np.asarray(value, dtype=float)
    elif field == "nominal_theta":
        theta = np.asarray(value, dtype=float)
        # ControllerSpec: _check_ranges(self, ..., nominal_theta="real")
        if not np.all(np.isfinite(theta)):
            return "nominal_theta"
    elif field == "noise_fraction":
        # MppiConfig: a list is kept as a tuple and a number as a float, then
        # _check_ranges(self, ..., noise_fraction="nonnegative")
        noise = value if isinstance(value, (tuple, np.ndarray)) else (
            tuple(value) if isinstance(value, list) else float(value))
        if not PARENT_RULES["nonnegative entries"](noise):
            return "noise_fraction"
    else:
        # CostSpec reads the matrix's size from its first axis, then asks for a
        # square, finite, symmetric PSD matrix; the rows draw square ones
        # diagonal, whose PSD test is d + 1e-8 >= 0 down the diagonal
        w = weights[field] = np.asarray(value, dtype=float)
        size = w.shape[0]
        if w.shape != (size, size) or not np.all(np.isfinite(w)):
            return field
        if np.any(np.diag(w) + 1e-8 < 0):
            return field
    # "x0 must have shape ({state_dim},)"
    if x0.shape != (env.state_dim,):
        return "x0"
    # "nominal_theta must have shape ({param_dim},)"
    if theta is not None and theta.shape != (env.param_dim,):
        return "nominal_theta"
    # _check_ranges(self, x0="real", ...)
    if not np.all(np.isfinite(x0)):
        return "x0"
    # an added rule: the box env.theta_true keeps
    if theta is not None and (np.any(theta < env.theta_lower) or np.any(theta > env.theta_upper)):
        return "nominal_theta"
    # added rules: one noise fraction per control channel or one for all, and
    # Q and R by the env's state and control dimensions
    if np.ndim(noise) > 0 and np.shape(noise) != (env.control_dim,):
        return "noise_fraction"
    for name, dim in (("Q", env.state_dim), ("R", env.control_dim)):
        if weights[name].shape != (dim, dim):
            return name
    return None


def _parent_cost(field, value):
    n = CARTPOLE.state_dim
    given = np.asarray(value, dtype=float)
    # "x_des must have shape ({n},)"
    if field == "x_des":
        return None if given.shape == (n,) else "x_des"
    # InverseDisplacementReward: _check_ranges(self, weights="nonnegative", ...)
    if not np.all((0 <= given) & (given < np.inf)):
        return "weights"
    # "weights must have shape ({n},)"
    return None if given.shape == (n,) else "weights"


def _parent_name(choices):
    # `if self.variant not in VARIANTS: raise`, and so for sign_mode
    return lambda field, value: None if value in choices else field


NUMBER = (st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf])
          | st.floats() | st.floats(width=32).map(np.float32) | st.booleans()
          | st.integers(-3, 3) | st.integers(-3, 3).map(np.int64)
          | st.integers(-3, 3).map(np.array) | st.integers(1024, 1100).map(lambda k: (-2) ** k))


def _entries(size):
    """A list, tuple or array of ``size`` numbers; ``size`` None also draws
    a number alone, and sizes 0 to 3."""
    sizes = st.integers(0, 3) if size is None else st.just(size)
    rows = sizes.flatmap(lambda n: st.lists(NUMBER, min_size=n, max_size=n))
    forms = rows.flatmap(lambda r: st.sampled_from([r, tuple(r), np.array(r)]))
    return forms | NUMBER if size is None else forms


def _faces(*bounds):
    """Each entry of ``bounds`` and the floats either side of it, -0.0 and NaN."""
    xs = np.concatenate([np.ravel(b) for b in bounds])
    near = {*xs, *np.nextafter(xs, -np.inf), *np.nextafter(xs, np.inf)}
    return [*sorted(float(x) for x in near), 0.0, -0.0, math.nan]


def _arrays(shapes, faces):
    """An array of one of ``shapes``, or its nested list, each entry one of
    ``faces`` or any NUMBER."""
    entry = st.sampled_from(faces) | NUMBER

    def filled(shape):
        size = math.prod(shape)
        return st.lists(entry, min_size=size, max_size=size).map(
            lambda xs: np.array(xs, dtype=object).reshape(shape))
    arrays = st.sampled_from(shapes).flatmap(filled)
    return arrays.flatmap(lambda a: st.sampled_from([a, a.tolist()]))


def _names(choices):
    """A name of ``choices``, a near miss, a tuple of one, or not a string."""
    near = [form for c in choices
            for form in (c.upper(), c.title(), f" {c}", c[:-1], c.replace("_", "-"))]
    others = [(choices[0],), [choices[0]], None, 0, 1.0, choices[0].encode()]
    return st.sampled_from([*choices, *near, *others]) | st.text(max_size=4)


# wrong shapes draw 0-d, empty, an extra axis and one entry more or less
CONTROL_SHAPES = [(1,), (), (0,), (2,), (1, 1)]
WEIGHT_FACES = [0.0, -0.0, -1e-8, float(np.nextafter(-1e-8, -1.0)), 1.0, math.nan]
# a diagonal weight matrix of 0 to 5 rows, or an array that is not square
WEIGHTS = st.lists(st.sampled_from(WEIGHT_FACES) | NUMBER, max_size=5).map(
    lambda d: np.diag(np.array(d, dtype=object))) | _arrays([(), (1,), (4,), (1, 2), (1, 1, 1)],
                                                            WEIGHT_FACES)
THETA_SHAPES = [(2,), (), (0,), (1,), (3,), (2, 1), (1, 2)]
STATE_SHAPES = [(4,), (), (0,), (3,), (4, 1)]
BOUND_SHAPES = [(2,), (), (0,), (1,), (3,), (2, 1)]
ENV_FACES = _faces(*(getattr(CARTPOLE, name) for name in ENV_ARRAYS))
UNIT_FACES = _faces([0.0, 0.5, 1.0])
SCALAR_FIELDS = [row[:2] + (row[3],) for row in INFINITE_FIELDS
                 if row[3] in ("real", "nonnegative", "positive") and row[2] == math.inf]
# (constructor, field, parent rule, values[, id]): every field whose rule
# joined the helper, its rule a key of PARENT_RULES or a function as above. A
# count draws numbers, tuples and arrays, as an array field does; a
# constructor whose rules span fields draws each field's shapes and its box's
# faces.
VALUE_FIELDS = [
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL.mppi), "samples", "positive count",
     _entries(None)),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL.mppi), "noise_fraction",
     "nonnegative entries", _entries(None)),
    (SvgdConfig, "iterations", "nonnegative count", _entries(None)),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL), "n_particles", "positive count",
     _entries(None)),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL), "x0", _parent_trial,
     _arrays(STATE_SHAPES, [0.0, -0.0, math.nan])),
    (lambda nominal_theta: dataclasses.replace(
        CARTPOLE_TRIAL, controller=ControllerSpec("nominal", nominal_theta=nominal_theta)),
     "nominal_theta", _parent_trial, _arrays(THETA_SHAPES, ENV_FACES), "trial_nominal_theta"),
    (lambda noise_fraction: dataclasses.replace(CARTPOLE_TRIAL, mppi=dataclasses.replace(
        CARTPOLE_TRIAL.mppi, noise_fraction=noise_fraction)),
     "noise_fraction", _parent_trial, _entries(None) | _arrays(CONTROL_SHAPES, UNIT_FACES),
     "trial_noise_fraction"),
    (lambda Q: dataclasses.replace(CARTPOLE_TRIAL, cost=CostSpec(
        Q=Q, R=CARTPOLE_TRIAL.cost.R, Q_f=Q, x_des=CenterlineReference(StadiumTrack()))),
     "Q", _parent_trial, WEIGHTS, "trial_Q"),
    (lambda R: dataclasses.replace(CARTPOLE_TRIAL, cost=dataclasses.replace(
        CARTPOLE_TRIAL.cost, R=R)), "R", _parent_trial, WEIGHTS, "trial_R"),
    *[(functools.partial(dataclasses.replace, CARTPOLE), name, _parent_env_model,
       _arrays(CONTROL_SHAPES if name.startswith("control") else THETA_SHAPES, ENV_FACES))
      for name in ENV_ARRAYS],
    (functools.partial(ControllerSpec, variant="nominal"), "nominal_theta", "finite entries",
     _entries(None)),
    (InverseDisplacementReward, "weights", "nonnegative entries", _entries(None)),
    (functools.partial(dataclasses.replace, CARTPOLE_TRIAL.cost), "x_des", _parent_cost,
     _arrays(STATE_SHAPES, [0.0, math.nan])),
    (lambda weights: dataclasses.replace(
        CARTPOLE_TRIAL.cost, extra_terminal=InverseDisplacementReward(weights)),
     "weights", _parent_cost, _arrays(STATE_SHAPES, [0.0, -0.0, -1.0]),
     "cost_weights"),
    *[(functools.partial(ParticleSet, **{k: v for k, v in PARTICLE_SET.items() if k != name}),
       name, _parent_particle_set, _arrays(shapes, UNIT_FACES))
      for name, shapes in (
          ("particles", [(1, 2), (3, 2), (2,), (), (0,), (0, 2), (1, 0), (1, 3), (1, 1, 2)]),
          ("lower", BOUND_SHAPES), ("upper", BOUND_SHAPES))],
    (ControllerSpec, "variant", _parent_name(VARIANTS), _names(VARIANTS)),
    (SvgdConfig, "sign_mode", _parent_name(("adversarial", "favoring")),
     _names(("adversarial", "favoring"))),
] + [(build, field, rule, NUMBER) for build, field, rule in SCALAR_FIELDS]
RAISED = object()


@pytest.mark.parametrize("build,field,rule,values", [row[:4] for row in VALUE_FIELDS],
                         ids=[row[4] if len(row) > 4 else row[1] for row in VALUE_FIELDS])
@given(data=st.data())
def test_every_value_rule_accepts_what_its_hand_written_predicate_accepted(build, field, rule,
                                                                           values, data):
    value = data.draw(values)
    try:
        expected = rule(field, value) if callable(rule) else (
            None if PARENT_RULES[rule](value) else field)
    except Exception:  # noqa: BLE001 - the class raised whatever its predicate raised
        expected = RAISED
    try:
        build(**{field: value})
        error = None
    except Exception as exc:  # noqa: BLE001 - any exception, compared below
        error = exc
    # the field a rule's message names first, as a config file reports it
    head, must, _ = str(error).partition(" must ")
    named = head if isinstance(error, ValueError) and must else None
    if expected is RAISED:
        assert error is not None, value
    else:
        assert named == expected, (value, error)


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
    with pytest.raises(ConfigError, match="found unhashable key"):
        parse_config("? [1, 2]\n: 3\n")


@pytest.mark.parametrize("where", ["top", "nested"])
def test_a_repeated_key_exits_2_at_the_document(where, tmp_path, capsys):
    # PyYAML keeps a repeated key's last value, which dropped a pasted
    # section's first copy without a word
    text = serialize_config(load_config(os.path.join(CONFIG_DIR, "cartpole.yaml")))
    if where == "top":
        text, key = text + "mppi:\n  samples: 3\n", "mppi"
    else:
        text, key = text.replace("\nmppi:\n", "\nmppi:\n  temperature: 1.0\n"), "temperature"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.field == "<document>"
    path = tmp_path / "cartpole.yaml"
    path.write_text(text)
    for flags in (["--out", str(tmp_path / "out")], ["--config-dump"]):
        assert cli.main(["run", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error at <document>: not valid YAML")
        assert f"found duplicate key {key!r}" in captured.err
        assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_a_merge_key_still_loads_beside_an_explicit_key():
    text = """
base: &base {x: 1, y: 2}
merged: {<<: *base, y: 3}
inner: {deep: &deep {<<: *base, x: 4}}
again: {<<: *deep}
"""
    assert parse_config(text) == {
        "base": {"x": 1, "y": 2}, "merged": {"x": 1, "y": 3},
        "inner": {"deep": {"x": 4, "y": 2}}, "again": {"x": 4, "y": 2}}


def _mapping_paths(doc, path=()):
    """The key path of ``doc`` and of every mapping nested in it."""
    yield path
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _mapping_paths(value, (*path, key))


@pytest.mark.parametrize("name", ["cartpole", "kernel_ablation", "racing", "rocket"])
def test_an_unknown_key_exits_2_at_its_dotted_path(name, tmp_path, capsys):
    # one naming rule: a key is its dotted path from the root, bare at the root
    resolved = resolve_config(load_config(os.path.join(CONFIG_DIR, f"{name}.yaml")))[1]
    paths = list(_mapping_paths(resolved))
    assert len(paths) >= 10
    for keys in paths:
        doc = copy.deepcopy(resolved)
        functools.reduce(dict.__getitem__, keys, doc)["bogus"] = 1
        field = ".".join((*keys, "bogus"))
        assert error_field(doc) == field
        path = tmp_path / f"{name}.yaml"
        path.write_text(serialize_config(doc))
        assert cli.main(["run", str(path), "--config-dump"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error at {field}: unknown key\n"
        assert captured.out == ""


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
