"""Declarative experiment files: strict parsing, validation, and hashing.

An experiment document is a YAML mapping with sections env, cost, controller,
svgd, mppi, harness, and batch. Validation is strict: unknown keys anywhere
are rejected with the offending dotted path, so typos fail loudly instead of
silently falling back to defaults.

This module is the one place that knows the document schema. As the builders
read a document they record every key with its validated value or default,
in the order of the section's allowed keys; ``resolve_config`` returns that
record, which ``--config-dump`` prints and which resolves to itself. The
default of an optional key lives in the class that takes it (read with
``_default``), or for env keys in the ``EnvModel`` that the factory returns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json

import numpy as np
import yaml

from .controllers import ControllerSpec, MppiConfig
from .costs import CostSpec, InverseDisplacementReward, RobustObjectiveConfig, UprightEnergyPenalty
from .dynamics import horizon_steps, make_cartpole, make_racecar, make_rocket
from .harness import CartpoleSuccess, RaceSuccess, RocketSuccess, TrialConfig
from .inference import SvgdConfig
from .kernels import ConstantKernel, ImqKernel, RbfKernel
from .track import CenterlineReference, StadiumTrack

__all__ = [
    "ConfigError",
    "BatchSettings",
    "KERNELS",
    "parse_config",
    "serialize_config",
    "load_config",
    "config_hash",
    "resolve_config",
    "build_trial_config",
    "resolve_seeds",
]

_ENV_FACTORIES = {
    "cartpole": make_cartpole,
    "rocket2d": make_rocket,
    "racecar": make_racecar,
}
_SUCCESS = {"cartpole": CartpoleSuccess, "rocket2d": RocketSuccess, "racecar": RaceSuccess}

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


@dataclasses.dataclass(frozen=True)
class BatchSettings:
    """Seed schedule and parallelism for a batch run."""

    seeds: tuple
    jobs: int = 1


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


def _default(cls, name):
    """The default that ``cls`` gives its argument ``name``."""
    field = getattr(cls, "__dataclass_fields__", {}).get(name)
    if field is None:
        return inspect.signature(cls).parameters[name].default
    return field.default if field.default_factory is dataclasses.MISSING else field.default_factory()


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
        if kind not in choices:
            raise ConfigError(f"{path}.type",
                              f"unknown {what} {kind!r}; expected one of {sorted(choices)}")
        child = self.values[key] = _Section(raw, path, ("type", *choices[kind]))
        child.values["type"] = kind
        return kind, child

    def resolved(self) -> dict:
        ordered = {key: self.values[key] for key in self.keys if key in self.values}
        return {key: v.resolved() if isinstance(v, _Section) else v for key, v in ordered.items()}


def _read_fields(section: _Section, cls, convert):
    """Dataclass ``cls`` built from the keys ``section`` gives, each through
    ``convert``, the rest at their defaults; records every field."""
    given = {key: section.read(key, convert) for key in _fields(cls)
             if _get(section.raw, key, section.path) is not None}
    obj = cls(**given)
    section.values.update(dataclasses.asdict(obj))
    return obj


def _as_float(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return float(value)


def _as_positive(value, path):
    v = _as_float(value, path)
    if not v > 0:
        raise ConfigError(path, f"must be positive, got {v}")
    return v


def _as_nonnegative(value, path):
    v = _as_float(value, path)
    if not v >= 0:
        raise ConfigError(path, f"must be nonnegative, got {v}")
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


def _as_horizon(value, path, dt):
    """A positive horizon that is a whole number of ``dt`` steps."""
    value = _as_positive(value, path)
    try:
        horizon_steps(value, dt)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None
    return value


def _as_noise(value, path):
    if not isinstance(value, list):
        return _as_nonnegative(value, path)
    if not value:
        raise ConfigError(path, "list must be nonempty")
    return [_as_nonnegative(v, f"{path}[{i}]") for i, v in enumerate(value)]


def parse_config(text: str) -> dict:
    """Parse YAML text into a plain document without building objects."""
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError("<document>", f"not valid YAML ({exc})") from None
    if doc is None:
        raise ConfigError("<document>", "empty document")
    return _require_mapping(doc, "<document>")


def serialize_config(doc: dict) -> str:
    """Serialize a document so that parsing the result reproduces it."""
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_hash(doc: dict) -> str:
    """Stable content hash of a document, independent of key order."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _build_env(root, env_name):
    section = root.section("env", ("name", "dt", *_ENV_ARRAYS), required=True)
    name = section.read("name", required=True)
    name_path = f"{section.path}.name"
    if name not in _ENV_FACTORIES:
        raise ConfigError(name_path, f"unknown environment {name!r}; "
                                     f"expected one of {sorted(_ENV_FACTORIES)}")
    if env_name is not None and name != env_name:
        raise ConfigError(name_path, f"this command runs on the {env_name} environment")
    env = _ENV_FACTORIES[name]()
    fields = {"dt": section.read("dt", _as_positive, default=env.dt)}
    for key in _ENV_ARRAYS:
        dim = env.param_dim if key.startswith("theta") else env.control_dim
        fields[key] = section.read(key, _as_float_list, dim, default=getattr(env, key).tolist())
    return dataclasses.replace(env, **fields)


def _build_extra_terminal(cost):
    kind, section = cost.typed("extra", "terminal term", {
        "upright_energy": ("weight",),
        "inverse_displacement": ("weights", "epsilon"),
    })
    if kind == "upright_energy":
        return UprightEnergyPenalty(section.read("weight", _as_nonnegative, required=True))
    if kind == "inverse_displacement":
        weights = section.read("weights", _as_float_list, required=True)
        epsilon = section.read("epsilon", _as_positive,
                               default=_default(InverseDisplacementReward, "epsilon"))
        return InverseDisplacementReward(weights, epsilon=epsilon)
    return None


def _build_cost(root, env, track):
    section = root.section("cost", ("q", "r", "q_f", "x_des", "reference", "extra"),
                           required=True)
    n, m = env.state_dim, env.control_dim
    q, r, q_f = (_weight_matrix(section.read(key, _as_weights, dim, required=True))
                 for key, dim in (("q", n), ("r", m), ("q_f", n)))
    _, reference = section.typed("reference", "reference", {"centerline": ("speed",)})
    if reference is not None:
        if _get(section.raw, "x_des", section.path) is not None:
            raise ConfigError(f"{section.path}.x_des", "give either x_des or reference, not both")
        speed = reference.read("speed", _as_positive, default=track.reference_speed)
        if speed != track.reference_speed:  # else the reference shares the harness's track
            track = dataclasses.replace(track, reference_speed=speed)
        x_des = CenterlineReference(track)
    else:
        x_des = np.asarray(section.read("x_des", _as_float_list, n, required=True))
    extra = _build_extra_terminal(section)
    try:
        return CostSpec(Q=q, R=r, Q_f=q_f, x_des=x_des, extra_terminal=extra)
    except ValueError as exc:
        raise ConfigError(section.path, str(exc)) from None


def _build_controller(root, env):
    section = root.section("controller", ("variant", "gamma", "risk_lambda", "risk_epsilon",
                                          "nominal_theta"), required=True)
    variant = section.read("variant", required=True)
    robust = RobustObjectiveConfig(
        gamma=section.read("gamma", _as_nonnegative,
                           default=_default(RobustObjectiveConfig, "gamma")),
        risk_lambda=section.read("risk_lambda", _as_positive,
                                 default=_default(RobustObjectiveConfig, "risk_lambda")),
        risk_epsilon=section.read("risk_epsilon", _as_nonnegative,
                                  default=_default(RobustObjectiveConfig, "risk_epsilon")),
    )
    nominal = section.read("nominal_theta", _as_float_list, env.param_dim)
    if nominal is not None:
        nominal = np.asarray(nominal)
    try:
        return ControllerSpec(variant=variant, robust=robust, nominal_theta=nominal)
    except ValueError as exc:
        raise ConfigError(f"{section.path}.variant", str(exc)) from None


def _build_svgd(root):
    section = root.section("svgd", ("step_size", "iterations", "kernel", "fd_epsilon",
                                    "sign_mode"), required=True)
    kwargs = {
        "step_size": section.read("step_size", _as_nonnegative, required=True),
        "iterations": section.read("iterations", _as_int, 0,
                                   default=_default(SvgdConfig, "iterations")),
        "fd_epsilon": section.read("fd_epsilon", _as_positive,
                                   default=_default(SvgdConfig, "fd_epsilon")),
        "sign_mode": section.read("sign_mode", default=_default(SvgdConfig, "sign_mode")),
    }
    default_kernel = type(_default(SvgdConfig, "kernel"))
    kind, kernel = section.typed(
        "kernel", "kernel", {name: _fields(cls) for name, cls in KERNELS.items()},
        default=next(name for name, cls in KERNELS.items() if cls is default_kernel))
    kwargs["kernel"] = _read_fields(kernel, KERNELS[kind], _as_positive)
    try:
        return SvgdConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section.path}.sign_mode", str(exc)) from None


def _build_mppi(root):
    section = root.section("mppi", ("samples", "temperature", "noise_fraction"), required=True)
    noise = section.read("noise_fraction", _as_noise, required=True)
    return MppiConfig(
        samples=section.read("samples", _as_int, 1, required=True),
        temperature=section.read("temperature", _as_positive, required=True),
        noise_fraction=tuple(noise) if isinstance(noise, list) else noise,
    )


def _build_harness(root, env):
    """The TrialConfig fields the harness section sets; its keys are their names."""
    section = root.section("harness", ("duration", "horizon_seconds", "n_particles", "x0",
                                       "success", "track", "log_ksd"), required=True)
    fields = {
        "duration": section.read("duration", _as_positive, required=True),
        "horizon_seconds": section.read("horizon_seconds", _as_horizon, env.dt,
                                        required=True),
        "n_particles": section.read("n_particles", _as_int, 1,
                                    default=_default(TrialConfig, "n_particles")),
        "x0": np.asarray(section.read("x0", _as_float_list, env.state_dim, required=True)),
        "log_ksd": section.read("log_ksd", _as_bool, default=_default(TrialConfig, "log_ksd")),
        "track": None,
    }
    if env.name == "racecar":
        fields["track"] = _read_fields(section.section("track", _fields(StadiumTrack)),
                                       StadiumTrack, _as_positive)
    elif _get(section.raw, "track", section.path) is not None:
        raise ConfigError(f"{section.path}.track", "only meaningful for the racecar environment")
    success = _SUCCESS[env.name]
    fields["success"] = _read_fields(section.section("success", _fields(success)),
                                     success, _as_float)
    return fields


def _build_batch(root, seed, seed_count, jobs):
    section = root.section("batch", ("seeds", "base_seed", "jobs"))
    if jobs is not None:
        section.raw = {**section.raw, "jobs": jobs}
    seeds = _get(section.raw, "seeds", section.path, default=1)
    base = _as_int(_get(section.raw, "base_seed", section.path, default=0),
                   f"{section.path}.base_seed")
    if isinstance(seeds, list):
        seeds = tuple(_as_int(s, f"{section.path}.seeds[{i}]") for i, s in enumerate(seeds))
        if not seeds:
            raise ConfigError(f"{section.path}.seeds", "seed list must be nonempty")
    else:
        count = _as_int(seeds, f"{section.path}.seeds", minimum=1)
        seeds = tuple(range(base, base + count))
    if seed is not None:
        seeds = (int(seed),)
    seeds = resolve_seeds(BatchSettings(seeds=seeds), seed_count)
    section.values["seeds"] = list(seeds)
    jobs = section.read("jobs", _as_int, 1, default=_default(BatchSettings, "jobs"))
    return BatchSettings(seeds=seeds, jobs=jobs)


def resolve_config(doc: dict, seed: int | None = None, seed_count: int | None = None,
                   jobs: int | None = None, env_name: str | None = None):
    """Build a document; returns (TrialConfig, BatchSettings, resolved document).

    The keywords are the command line's overrides: ``seed`` makes the batch
    that one seed, ``seed_count`` rebases the seeds as ``resolve_seeds`` does,
    ``jobs`` replaces batch.jobs, and ``env_name`` rejects other environments.
    The resolved document carries them, so it builds the same trial and batch.
    """
    root = _Section(doc, "<document>", _SECTIONS)
    env = _build_env(root, env_name)
    batch = _build_batch(root, seed, seed_count, jobs)
    harness = _build_harness(root, env)
    cost = _build_cost(root, env, harness["track"] or StadiumTrack())
    controller = _build_controller(root, env)
    svgd = _build_svgd(root)
    mppi = _build_mppi(root)
    try:
        trial = TrialConfig(env=env, cost=cost, controller=controller, svgd=svgd, mppi=mppi,
                            seed=batch.seeds[0], **harness)
    except ValueError as exc:
        raise ConfigError("harness", str(exc)) from None
    return trial, batch, root.resolved()


def build_trial_config(doc: dict, seed: int | None = None):
    """Materialize a document into a TrialConfig plus batch settings.

    Returns (TrialConfig, BatchSettings); ``seed``, when given, is the
    trial's seed and the batch's only seed.
    """
    trial, batch, _ = resolve_config(doc, seed=seed)
    return trial, batch


def resolve_seeds(batch: BatchSettings, count: int | None) -> tuple:
    """Seed list for a batch run; ``count`` rebases to range(base, base+count)."""
    if count is None:
        return batch.seeds
    if count < 1:
        raise ConfigError("batch.seeds", f"seed count must be >= 1, got {count}")
    base = batch.seeds[0]
    return tuple(range(base, base + count))
