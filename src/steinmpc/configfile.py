"""Declarative experiment files: strict parsing, validation, and hashing.

An experiment document is a YAML mapping with sections env, cost, controller,
svgd, mppi, harness, and batch. Validation is strict: unknown keys anywhere
are rejected with the offending dotted path, so typos fail loudly instead of
silently falling back to defaults.

Every invalid document ends in a ``ConfigError`` at the key or section at
fault. The loader checks what a document is made of: the ``_as_*`` converters
check a value's type, that a number is finite and a list's length, and the
builders the rules across sections. A class checks what a value may be: every
object is built through ``_built``, which reports a rule its constructor
enforces at the key its message names first, or else (say, a PSD weight) at
the section it builds. Only the batch's seed and worker rules, which no class
holds, and the ``MAX_*`` caps compare numbers here.

This module is the one place that knows the document schema. As the builders
read a document they record every key with its validated value or default,
in the order of the section's allowed keys; ``resolve_config`` returns that
record, which ``--config-dump`` prints and which resolves to itself.

A section that builds one class takes its schema from that class: its keys
and their order are the class's fields, and ``_read_fields`` leaves every
key the document omits to the class's default and records it as the built
object has it. Env keys default to the ``EnvModel`` that the factory returns.
The harness section builds the trial, a ``TrialConfig``: its keys are the
trial's fields that name no section, less the seed, which is the batch's first.
The batch section builds no object: its ``seeds`` and ``jobs`` live only in the
resolved document's ``batch`` section, which the commands read.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np
import yaml

from .controllers import ControllerSpec, MppiConfig
from .costs import CostSpec, InverseDisplacementReward, UprightEnergyPenalty
from .dynamics import make_cartpole, make_racecar, make_rocket
from .harness import CartpoleSuccess, RaceSuccess, RocketSuccess, TrialConfig
from .inference import SvgdConfig
from .kernels import ConstantKernel, ImqKernel, RbfKernel
from .track import CenterlineReference, StadiumTrack

__all__ = [
    "ConfigError",
    "KERNELS",
    "parse_config",
    "serialize_config",
    "load_config",
    "config_hash",
    "resolve_config",
    "build_trial_config",
]

_ENV_FACTORIES = {
    "cartpole": make_cartpole,
    "rocket2d": make_rocket,
    "racecar": make_racecar,
}
_SUCCESS = {"cartpole": CartpoleSuccess, "rocket2d": RocketSuccess, "racecar": RaceSuccess}

# Caps on a batch: seeds in one batch, and worker processes.
MAX_SEEDS = 10_000
MAX_JOBS = 64
# The most bytes one trial's largest arrays may take (``_check_memory``). A
# constant, not read from the machine, so a document is valid or invalid
# everywhere; a trial of a shipped config takes about 1 MB.
MAX_TRIAL_BYTES = 2**30

# Kernel names in the order the kernel ablation runs them.
KERNELS = {"rbf": RbfKernel, "imq": ImqKernel, "constant": ConstantKernel}

# Allowed keys are listed in the order the resolved document gives them.
_SECTIONS = ("env", "cost", "controller", "svgd", "mppi", "harness", "batch")
_ENV_ARRAYS = ("control_lower", "control_upper", "theta_true", "theta_lower", "theta_upper")
# libyaml's loader builds the same documents as the pure-Python one, faster.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class ConfigError(ValueError):
    """Invalid experiment document; ``field`` is the dotted path at fault."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _require_mapping(value, path):
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _check_keys(section: dict, allowed, path):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown key")


def _get(section: dict, key: str, path: str, required=False, default=None):
    if key not in section or section[key] is None:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required value")
        return default
    return section[key]


def _fields(cls):
    return tuple(f.name for f in dataclasses.fields(cls))


class _Section:
    """One mapping of a document, as the builders read it.

    ``read`` validates one key and records what it resolved to, the given
    value or the default; ``section`` and ``typed`` open nested mappings.
    ``resolved()`` returns the record, keys in the order of ``keys``.
    """

    def __init__(self, raw, path, keys):
        self.raw = _require_mapping(raw, path)
        _check_keys(self.raw, keys, path)
        self.path, self.keys, self.values = path, keys, {}

    def _child(self, key):
        return key if self.path == "<document>" else f"{self.path}.{key}"

    def read(self, key, convert=None, *args, default=None, required=False):
        value = _get(self.raw, key, self.path, required=required)
        if value is None:
            value = default
        elif convert is not None:
            value = convert(value, self._child(key), *args)
        self.values[key] = value
        return value

    def section(self, key, keys, required=False):
        """The mapping at ``key``; an absent optional one reads as empty."""
        raw = _get(self.raw, key, self.path, required=required, default={})
        child = self.values[key] = _Section(raw, self._child(key), keys)
        return child

    def typed(self, key, what, choices, default=None):
        """(type, section) of the mapping at ``key``, whose ``type`` picks its
        keys from ``choices``; (None, None) if absent without a default type."""
        raw = _get(self.raw, key, self.path)
        if raw is None:
            if default is None:
                return None, None
            raw = {"type": default}
        path = self._child(key)
        kind = _get(_require_mapping(raw, path), "type", path, required=True)
        if not isinstance(kind, str) or kind not in choices:
            raise ConfigError(f"{path}.type",
                              f"unknown {what} {kind!r}; expected one of {sorted(choices)}")
        child = self.values[key] = _Section(raw, path, ("type", *choices[kind]))
        child.values["type"] = kind
        return kind, child

    def resolved(self) -> dict:
        ordered = {key: self.values[key] for key in self.keys if key in self.values}
        return {key: v.resolved() if isinstance(v, _Section) else v for key, v in ordered.items()}


def _read_fields(section: _Section, cls, convert, required=(), **fixed):
    """``cls(**fixed, **given)``, where ``given`` holds each key of ``convert``
    that ``section`` gives, read through its ``(converter, *args)``; the class
    defaults the rest and checks every value. A ``ValueError`` of the
    constructor is reported at the key of ``convert`` its message starts
    with, else at the section. Records each key as given or as the built
    object has it."""
    given = {key: section.read(key, *convert[key], required=key in required)
             for key in convert
             if key in required or _get(section.raw, key, section.path) is not None}
    obj = _built(section.path, cls, **fixed, **given, keys=convert)
    section.values.update({key: getattr(obj, key) for key in convert if key not in given})
    return obj


def _built(path, make, *args, keys=(), **kwargs):
    """``make(*args, **kwargs)``, with a ``ValueError`` it raises reported as
    a ``ConfigError``: at ``path.key`` when the message's first word is a
    ``key`` of ``keys``, else at ``path``. The one way a document object is
    built."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        key = str(exc).partition(" ")[0]
        raise ConfigError(f"{path}.{key}" if key in keys else path, str(exc)) from None


def _as_float(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise ConfigError(path, "integer too large for a float") from None
    if not math.isfinite(v):
        raise ConfigError(path, f"must be finite, got {v}")
    return v


def _as_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


def _as_bool(value, path):
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true or false, got {value!r}")
    return value


def _as_float_list(value, path, length=None):
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a nonempty list of numbers")
    out = [_as_float(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if length is not None and len(out) != length:
        raise ConfigError(path, f"expected {length} entries, got {len(out)}")
    return out


def _as_weights(value, path, dim):
    """A flat list is a diagonal; a list of rows is the full matrix."""
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a list (diagonal) or list of rows (matrix)")
    if isinstance(value[0], list):
        if len(value) != dim:
            raise ConfigError(path, f"expected {dim} rows, got {len(value)}")
        return [_as_float_list(row, f"{path}[{i}]", dim) for i, row in enumerate(value)]
    return _as_float_list(value, path, dim)


def _weight_matrix(weights):
    return np.asarray(weights) if isinstance(weights[0], list) else np.diag(weights)


def _as_noise(value, path, length):
    """One fraction for every channel, or a list of exactly one per channel."""
    if not isinstance(value, list):
        return _as_float(value, path)
    return _as_float_list(value, path, length)


def parse_config(text: str) -> dict:
    """Parse YAML text into a plain document without building objects."""
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError("<document>", f"not valid YAML ({exc})") from None
    except ValueError as exc:
        # PyYAML's int() refuses a decimal integer of more than 4300 digits.
        raise ConfigError("<document>", f"cannot be read ({exc})") from None
    if doc is None:
        raise ConfigError("<document>", "empty document")
    return _require_mapping(doc, "<document>")


def serialize_config(doc: dict) -> str:
    """Serialize a document so that parsing the result reproduces it."""
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


def load_config(path) -> dict:
    """Read and parse a document file; one that cannot be read as UTF-8 text,
    a missing file or a directory say, is a ``ConfigError`` at ``<path>``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError):
        raise ConfigError("<path>", f"cannot read {path}") from None
    return parse_config(text)


def config_hash(doc: dict) -> str:
    """Stable content hash of a document, independent of key order."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _build_env(root, env_name):
    section = root.section("env", ("name", "dt", *_ENV_ARRAYS), required=True)
    name = section.read("name", required=True)
    name_path = f"{section.path}.name"
    if not isinstance(name, str) or name not in _ENV_FACTORIES:
        raise ConfigError(name_path, f"unknown environment {name!r}; "
                                     f"expected one of {sorted(_ENV_FACTORIES)}")
    if env_name is not None and name != env_name:
        raise ConfigError(name_path, f"this command runs on the {env_name} environment")
    env = _ENV_FACTORIES[name]()
    fields = {"dt": section.read("dt", _as_float, default=env.dt)}
    for key in _ENV_ARRAYS:
        dim = env.param_dim if key.startswith("theta") else env.control_dim
        fields[key] = section.read(key, _as_float_list, dim, default=getattr(env, key).tolist())
    # the array rules span fields, so only dt's is reported at its key
    return _built(section.path, dataclasses.replace, env, **fields, keys=("dt",))


def _build_extra_terminal(cost, n):
    terms = {
        "upright_energy": (UprightEnergyPenalty, {"weight": (_as_float,)}),
        "inverse_displacement": (InverseDisplacementReward,
                                 {"weights": (_as_float_list, n), "epsilon": (_as_float,)}),
    }
    kind, section = cost.typed("extra", "terminal term",
                               {name: tuple(convert) for name, (_, convert) in terms.items()})
    if kind is None:
        return None
    cls, convert = terms[kind]
    return _read_fields(section, cls, convert, required=("weight", "weights"))


def _build_cost(root, env, track):
    """The cost section; ``track`` is the harness's, None off the racetrack."""
    section = root.section("cost", ("q", "r", "q_f", "x_des", "reference", "extra"),
                           required=True)
    n, m = env.state_dim, env.control_dim
    q, r, q_f = (_weight_matrix(section.read(key, _as_weights, dim, required=True))
                 for key, dim in (("q", n), ("r", m), ("q_f", n)))
    _, reference = section.typed("reference", "reference", {"centerline": ()})
    if reference is not None:
        if track is None:
            raise ConfigError(reference.path, "only meaningful for the racecar environment")
        if _get(section.raw, "x_des", section.path) is not None:
            raise ConfigError(f"{section.path}.x_des", "give either x_des or reference, not both")
        x_des = _built(reference.path, CenterlineReference, track)
    else:
        x_des = np.asarray(section.read("x_des", _as_float_list, n, required=True))
    extra = _build_extra_terminal(section, n)
    return _built(section.path, CostSpec, Q=q, R=r, Q_f=q_f, x_des=x_des, extra_terminal=extra)


def _build_controller(root, env):
    section = root.section("controller", _fields(ControllerSpec), required=True)
    controller = _read_fields(section, ControllerSpec, {
        "variant": (None,), "gamma": (_as_float,), "risk_lambda": (_as_float,),
        "risk_epsilon": (_as_float,), "nominal_theta": (_as_float_list, env.param_dim),
    }, required=("variant",))
    nominal = controller.nominal_theta
    if nominal is not None and np.any((nominal < env.theta_lower) | (nominal > env.theta_upper)):
        raise ConfigError(f"{section.path}.nominal_theta",
                          "must lie inside the parameter box, as env.theta_true must")
    return controller


def _build_svgd(root):
    section = root.section("svgd", _fields(SvgdConfig), required=True)
    default_kernel = type(SvgdConfig().kernel)
    kind, kernel = section.typed(
        "kernel", "kernel", {name: _fields(cls) for name, cls in KERNELS.items()},
        default=next(name for name, cls in KERNELS.items() if cls is default_kernel))
    kernel = _read_fields(kernel, KERNELS[kind],
                          dict.fromkeys(_fields(KERNELS[kind]), (_as_float,)))
    return _read_fields(section, SvgdConfig, {
        "step_size": (_as_float,), "iterations": (_as_int,),
        "fd_epsilon": (_as_float,), "sign_mode": (None,),
    }, required=("step_size",), kernel=kernel)


def _build_mppi(root, env):
    section = root.section("mppi", _fields(MppiConfig), required=True)
    return _read_fields(section, MppiConfig, {
        "samples": (_as_int,), "temperature": (_as_float,),
        "noise_fraction": (_as_noise, env.control_dim),
    }, required=_fields(MppiConfig))


def _build_trial(root, env, seed):
    """The trial; the harness keys are its fields that name no section, less the seed."""
    section = root.section("harness", tuple(key for key in _fields(TrialConfig)
                                            if key not in (*_SECTIONS, "seed")), required=True)
    track = None
    if env.name == "racecar":
        track = section.section("track", _fields(StadiumTrack))
        track = _read_fields(track, StadiumTrack, dict.fromkeys(track.keys, (_as_float,)))
    elif _get(section.raw, "track", section.path) is not None:
        raise ConfigError(f"{section.path}.track", "only meaningful for the racecar environment")
    success = section.section("success", _fields(_SUCCESS[env.name]))
    success = _read_fields(success, _SUCCESS[env.name], dict.fromkeys(success.keys, (_as_float,)))
    return _read_fields(section, TrialConfig, {
        "duration": (_as_float,), "horizon_seconds": (_as_float,),
        "n_particles": (_as_int,), "x0": (_as_float_list, env.state_dim), "log_ksd": (_as_bool,),
    }, required=("duration", "horizon_seconds", "x0"),
        env=env, cost=_build_cost(root, env, track), track=track, success=success,
        controller=_build_controller(root, env), svgd=_build_svgd(root),
        mppi=_build_mppi(root, env), seed=seed)


def _seed_range(first, count, path):
    """``count`` consecutive seeds from ``first``, for a count of 1 to ``MAX_SEEDS``."""
    if not 1 <= count <= MAX_SEEDS:
        raise ConfigError(path, f"seed count must be in 1..{MAX_SEEDS}, got {count}")
    return tuple(range(first, first + count))


def _build_batch(root, seed, seed_count, jobs):
    """Record the batch's ``seeds`` (a list) and ``jobs``; returns its first seed."""
    section = root.section("batch", ("seeds", "base_seed", "jobs"))
    seeds_path = f"{section.path}.seeds"
    if jobs is not None:
        section.raw = {**section.raw, "jobs": jobs}
    seeds = _get(section.raw, "seeds", section.path, default=1)
    base_path = f"{section.path}.base_seed"
    base = _as_int(_get(section.raw, "base_seed", section.path, default=0), base_path, 0)
    if isinstance(seeds, list):
        if _get(section.raw, "base_seed", section.path) is not None:
            raise ConfigError(base_path, "only meaningful with a seed count")
        seeds = tuple(_as_int(s, f"{seeds_path}[{i}]", 0) for i, s in enumerate(seeds))
        if not 1 <= len(seeds) <= MAX_SEEDS:
            raise ConfigError(seeds_path, f"expected 1..{MAX_SEEDS} seeds, got {len(seeds)}")
        if len(set(seeds)) != len(seeds):
            raise ConfigError(seeds_path, f"seeds must be distinct, got {list(seeds)}")
    else:
        seeds = _seed_range(base, _as_int(seeds, seeds_path), seeds_path)
    if seed is not None:
        seeds = (_as_int(int(seed), seeds_path, 0),)
    if seed_count is not None:
        seeds = _seed_range(seeds[0], seed_count, seeds_path)
    section.values["seeds"] = list(seeds)
    jobs = section.read("jobs", _as_int, 1, default=1)
    if jobs > MAX_JOBS:
        raise ConfigError(f"{section.path}.jobs", f"must be <= {MAX_JOBS}, got {jobs}")
    return seeds[0]


def _check_memory(trial):
    """Reject a trial whose largest arrays would take more than ``MAX_TRIAL_BYTES``.

    Three float64 arrays bound a trial's memory: the (n, H, samples + 2, P)
    tracking errors of a rescore whose ``controllers.rollout_blocks`` call
    also rolls out the next cycle's samples candidates (the ``lookahead`` of
    ``mppi_solve``), the rescore's (n, H, 2, P + B) with the probe's B rows
    (a later SVGD step's one-row ``_gap_model`` call takes half), and the histories,
    (duration / dt + 1) rows of the state and the particles.
    P = n_particles + 1 and B = 2 * n_particles * p are the most any variant
    rolls out. Each estimate is a product of factors, added as logarithms
    so that no value overflows, and the error is raised at the key with the
    largest factor in the largest estimate.
    """
    env, k = trial.env, trial.n_particles
    n, p, log_dt = env.state_dim, env.param_dim, math.log(env.dt)
    horizon = [(math.log(trial.horizon_seconds), "harness.horizon_seconds"), (-log_dt, "env.dt")]
    estimates = [
        [(math.log(8 * n), None), *horizon, (math.log(trial.mppi.samples + 2), "mppi.samples"),
         (math.log(k + 1), "harness.n_particles")],
        [(math.log(16 * n), None), *horizon, (math.log(k + 1 + 2 * k * p), "harness.n_particles")],
        [(math.log(8 * (n + k * p)), "harness.n_particles"),
         (math.log(trial.duration + env.dt), "harness.duration"), (-log_dt, "env.dt")],
    ]
    log_bytes, factors = max(((sum(f for f, _ in e), e) for e in estimates), key=lambda t: t[0])
    if log_bytes > math.log(MAX_TRIAL_BYTES):
        key = max((f, key) for f, key in factors if key is not None)[1]
        size = f"10^{log_bytes / math.log(10):.1f}"
        raise ConfigError(key, f"a trial's arrays would take about {size} bytes, "
                               f"more than MAX_TRIAL_BYTES = {MAX_TRIAL_BYTES}")


def resolve_config(doc: dict, seed: int | None = None, seed_count: int | None = None,
                   jobs: int | None = None, env_name: str | None = None):
    """Build a document; returns (TrialConfig, resolved document).

    The keywords are the command line's overrides: ``seed`` makes the batch
    that one seed, ``seed_count`` makes it that many seeds from its first,
    ``jobs`` replaces batch.jobs, and ``env_name`` rejects other environments.
    The resolved document carries them, so it builds the same trial and batch.
    Its ``batch`` section is the one record of the batch: ``seeds``, a list
    whose first is the trial's seed, and ``jobs``.
    A trial whose arrays would exceed ``MAX_TRIAL_BYTES`` is rejected here,
    before anything is allocated.
    """
    root = _Section(doc, "<document>", _SECTIONS)
    env = _build_env(root, env_name)
    first_seed = _build_batch(root, seed, seed_count, jobs)
    trial = _build_trial(root, env, first_seed)
    _check_memory(trial)
    return trial, root.resolved()


# the older name of ``resolve_config``, which ``bench/workloads.py`` calls
build_trial_config = resolve_config

