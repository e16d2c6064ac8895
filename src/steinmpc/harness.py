"""Closed-loop trials: plan, act, infer, repeat until success or timeout.

A trial couples the sampling-based planner to the true plant (simulated with
the ground-truth parameters) and, for the adaptive variant, advances the
particle set after every applied control using the gap posterior of the most
recent plan. A batch runs one trial per seed and returns their results in
seed order; ``reporting.batch_summary`` reduces them to the statistics the
benchmark tables are built from. A batch on two or more workers forks them
with ``os.fork`` inside the call (POSIX only), re-raises a worker's exception
in the caller, and reaps every worker before it returns or raises.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import struct
import time
from dataclasses import dataclass, replace

import numpy as np

from .controllers import (
    ControllerSpec,
    MppiConfig,
    SolverFailureError,
    build_objective,
    mppi_solve,
    nominal_parameters,
    shift_warm_start,
)
from .costs import CostSpec, rollout_cost_batch
from .dynamics import EnvModel, _check_ranges, horizon_steps, rk4_step
from .inference import (
    ParticleSet,
    ScoreEvaluationError,
    SvgdConfig,
    draw_particles,
    ksd_estimate,
    particle_mean,
    probe_thetas,
    svgd_step,
)
from .track import LapProgress, StadiumTrack

__all__ = [
    "CartpoleSuccess",
    "RocketSuccess",
    "RaceSuccess",
    "TrialConfig",
    "TrialResult",
    "run_trial",
    "run_batch",
]


@dataclass(frozen=True)
class CartpoleSuccess:
    """Upright within angle_tol and slower than rate_tol, held continuously."""

    angle_tol: float = 0.2
    rate_tol: float = 1.0
    hold_duration: float = 0.5

    def __post_init__(self):
        _check_ranges(self, angle_tol="positive", rate_tol="positive",
                      hold_duration="nonnegative")

    def satisfied(self, state) -> bool:
        err = (state[1] - math.pi + math.pi) % (2.0 * math.pi) - math.pi
        return abs(err) < self.angle_tol and abs(state[3]) < self.rate_tol

    def reached(self, times, states, progress=None) -> bool:
        """The trailing run of satisfied states spans at least hold_duration."""
        i = len(states) - 1
        while i >= 0 and self.satisfied(states[i]):
            i -= 1
        if i == len(states) - 1:
            return False
        span = times[-1] - times[i + 1]
        return span >= self.hold_duration - 1e-9


@dataclass(frozen=True)
class RocketSuccess:
    """Inside the pad box, upright, and nearly at rest, all at once."""

    x_target: float = 0.5
    y_target: float = 0.0
    x_tol: float = 0.1
    y_tol: float = 0.05
    angle_tol: float = 0.15
    speed_tol: float = 0.2

    def __post_init__(self):
        _check_ranges(self, x_target="real", y_target="real", x_tol="positive",
                      y_tol="positive", angle_tol="positive", speed_tol="positive")

    def satisfied(self, state) -> bool:
        speed = math.hypot(state[3], state[4])
        return (
            abs(state[0] - self.x_target) < self.x_tol
            and abs(state[1] - self.y_target) < self.y_tol
            and abs(state[2]) < self.angle_tol
            and speed < self.speed_tol
        )

    def reached(self, times, states, progress=None) -> bool:
        return self.satisfied(states[-1])


@dataclass(frozen=True)
class RaceSuccess:
    """Unwrapped lap fraction reaches the target number of laps."""

    laps: float = 1.0

    def __post_init__(self):
        _check_ranges(self, laps="positive")

    def reached(self, times, states, progress=None) -> bool:
        """False without progress: a trial off a track completes no lap."""
        return progress is not None and len(progress) > 0 and progress[-1] >= self.laps


@dataclass(kw_only=True)
class TrialConfig:
    """Everything one closed-loop trial needs, plus its seed; keyword-only.

    Attributes:
        duration, horizon_seconds, n_particles, x0, success, track, log_ksd:
            a config file's ``harness`` keys, in this order.
        horizon_seconds: a whole number of ``env.dt`` steps, a rule this
            class owns, so a partial-step horizon fails at construction.
        success: asked ``reached(times, states, progress)`` before each step.
        track: the racetrack whose lap progress the trial logs, set by a config
            file exactly for the racecar; when None, ``RaceSuccess`` never holds.
    """

    env: EnvModel
    cost: CostSpec
    controller: ControllerSpec
    svgd: SvgdConfig
    mppi: MppiConfig
    duration: float = 40.0
    horizon_seconds: float = 0.4
    n_particles: int = 5
    x0: np.ndarray
    success: object
    track: StadiumTrack | None = None
    log_ksd: bool = False
    seed: int = 0

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.shape != (self.env.state_dim,):
            raise ValueError(
                f"x0 must have shape ({self.env.state_dim},), got {self.x0.shape}"
            )
        if not np.all(np.isfinite(self.x0)):
            raise ValueError("x0 must be finite")
        if self.n_particles < 1:
            raise ValueError(f"n_particles must be at least 1, got {self.n_particles}")
        _check_ranges(self, duration="nonnegative")
        horizon_steps(self.horizon_seconds, self.env.dt)


@dataclass
class TrialResult:
    """Outcome and full per-step log of one trial.

    Log rows are indexed by executed step: ``states[k]`` is the state the
    k-th control was applied in, at ``times[k]`` and, on a track, at lap
    progress ``progress[k]``; ``particles[k]`` is the particle set that
    planned it, and ``particle_means`` is computed from ``particles``.
    ``final_state`` is the state after the last step, which the log rows do
    not contain. When the plant diverges or inference fails, the failing step
    is the last row and ``final_state`` repeats its state. ``success`` holds
    exactly when ``terminal_reason`` is "success".
    """

    completion_time: float
    terminal_reason: str
    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    costs: np.ndarray
    particles: np.ndarray
    final_state: np.ndarray
    final_particles: ParticleSet
    seed: int
    progress: np.ndarray | None = None
    final_progress: float | None = None
    ksd: np.ndarray | None = None
    wall_clock_seconds: float = 0.0

    @property
    def success(self) -> bool:
        return self.terminal_reason == "success"

    @property
    def steps(self) -> int:
        return len(self.times)

    @property
    def particle_means(self) -> np.ndarray:
        return particle_mean(self.particles)


def _gaps(objective, row) -> np.ndarray:
    """The gaps in one plan's cost ``row`` over the objective's thetas and then
    a probe: each probe cost less the cost under the particle mean, which is
    the adaptive objective's first theta."""
    return row[len(objective.thetas):] - row[0]


def _gap_model(objective, plan, probe) -> np.ndarray:
    """The gap of ``plan`` at each row of the (B, p) ``probe``, from one
    ``objective.cost_matrix`` row, as the rescore row gives them."""
    return _gaps(objective, objective.cost_matrix(plan[None], probe)[0])


def _calibrated_controller(config: TrialConfig, warm: np.ndarray) -> ControllerSpec:
    """Fill in the risk temperature from the warm-start cost scale if unset.

    Raises:
        SolverFailureError: if the warm start's cost under the nominal
            parameters, or its tenfold, the temperature, is not finite, so
            there is no scale to calibrate from.
    """
    controller = config.controller
    if controller.variant != "dro" or controller.risk_lambda is not None:
        return controller
    nominal = nominal_parameters(controller, config.env)
    cost = rollout_cost_batch(config.cost, config.env, config.x0, warm[None], nominal[None])
    scale = abs(float(cost[0, 0]))
    lam = 10.0 * max(scale, 1e-6)
    if not math.isfinite(lam):
        raise SolverFailureError(f"warm-start cost {scale} cannot calibrate risk_lambda")
    return replace(controller, risk_lambda=lam)


@np.errstate(all="ignore")
def run_trial(config: TrialConfig) -> TrialResult:
    """Run one seeded closed-loop trial to success, timeout, or failure.

    A failure ends the trial with the rows logged so far and a labelled
    reason: "solver_failure" when no candidate plan scores finitely or the
    plant diverges, "inference_failure" when a gap or a particle's Stein
    drift turns non-finite during the particle update. A dro trial whose
    risk temperature cannot be calibrated, because the warm start's cost
    under the nominal parameters is not finite or its tenfold overflows,
    ends as "solver_failure" before its first step, with no logged rows and
    ``final_state`` equal to ``x0``. The reason is the trial's one outcome:
    ``success`` holds exactly when it is "success", and ``completion_time``
    is then the time of the first state that met the criterion,
    ``steps * env.dt``; otherwise it is ``config.duration``. The trial runs
    under the floating-point policy in ``costs``: an overflow anywhere in it
    shows only as the non-finite value behind one of these reasons, never as
    a numpy warning.

    When the trial moves its particles (the adaptive variant with SVGD
    iterations and a positive step size), each cycle builds the first SVGD
    step's finite-difference probe from the particles before planning, and
    the planner's rescore rolls the chosen plan out against it together with
    the objective's thetas. The first step's gaps are the tail of the chosen
    plan's rescore row less its cost under the particle mean, so such a
    cycle makes two rollouts: the planner grid and the rescore. Each further
    SVGD step, and the logged KSD, rolls out one row of the cycle's objective
    and the probe of the particles it scores (``_gap_model``).

    When the particles stay put, every cycle scores against the same
    thetas, and each cycle that is not the trial's last passes
    ``mppi_solve`` a lookahead, which rolls the next cycle's planner grid
    out in the rescore from the state the plant reaches under the best
    candidate. If the cycle keeps that candidate, the solve returns the next
    cycle's objective and grid, and that cycle starts from the objective's
    state and plans on the grid, so it makes one rollout; otherwise it plans
    from the state the kept plan reaches and makes two. A reached state that
    is not finite rolls nothing ahead, so its references are never resolved.

    Deterministic: the particle draw and every planning cycle use random
    streams derived from the seed alone, so identical configs reproduce
    identical results bit for bit.
    """
    started = time.perf_counter()
    env = config.env
    steps_h = horizon_steps(config.horizon_seconds, env.dt)

    rng_init = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    particles = draw_particles(
        env.theta_lower, env.theta_upper, config.n_particles, rng_init
    )
    warm = env.clamp_control(np.zeros((steps_h, env.control_dim)))
    reason = "timeout"
    try:
        controller = _calibrated_controller(config, warm)
    except SolverFailureError:
        reason = "solver_failure"
    infer = (config.controller.variant == "stein_adaptive" and config.svgd.iterations > 0
             and config.svgd.step_size > 0)
    log = config.log_ksd and getattr(config.svgd.kernel, "stein_compatible", False)
    lap = LapProgress(config.track) if config.track is not None else None

    # Row k of the histories is step k's start, at k * dt; the first
    # len(log_c) rows are the logged ones, on every exit path, and at the top
    # of the loop len(log_c) is the index of the cycle about to run.
    state = config.x0.copy()
    times_hist = [0.0]
    states_hist = [state.copy()]
    progress_hist = [lap.update(state)] if lap is not None else None
    log_u, log_c, log_p, log_ksd = [], [], [], []

    def cycle_rng(k):
        return np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1, k)))

    def out_of_time(t):
        """No cycle may start at time t."""
        return t + env.dt > config.duration + 1e-9

    def reach(plan):
        """The state the plant reaches from ``state`` under ``plan``'s first control."""
        return rk4_step(env, state, plan[0], env.theta_true)

    # The (objective, grid) the last solve rolled out for the cycle after it, or None.
    ahead = None
    # Every exit sets its reason and breaks, so the condition only stops a
    # trial whose calibration already failed from taking a step.
    while reason == "timeout":
        if config.success.reached(times_hist, states_hist, progress_hist):
            reason = "success"
            break
        if out_of_time(times_hist[-1]):
            break

        k = len(log_c)
        if ahead is not None:
            (objective, grid), rng = ahead, None
        else:
            objective, grid, rng = (
                build_objective(controller, config.cost, env, state, particles.particles),
                None, cycle_rng(k))
        if infer:
            probe, lookahead = probe_thetas(particles, config.svgd.fd_epsilon), None
        else:
            probe = ()
            lookahead = None if out_of_time((k + 1) * env.dt) else (reach, cycle_rng(k + 1))
        try:
            new_plan, plan_cost, theta_costs, ahead = mppi_solve(
                env, warm, objective, config.mppi, rng, probe, grid=grid, lookahead=lookahead)
        except SolverFailureError:
            reason = "solver_failure"
            break

        log_u.append(new_plan[0].copy())
        log_c.append(plan_cost)
        log_p.append(particles.particles.copy())

        next_state = ahead[0].x0 if ahead is not None else reach(new_plan)
        if not np.all(np.isfinite(next_state)):
            reason = "solver_failure"
            break

        if infer:
            gaps = _gaps(objective, theta_costs)
            try:
                for i in range(1, config.svgd.iterations + 1):
                    particles = svgd_step(particles, gaps, config.svgd)
                    if i < config.svgd.iterations or log:
                        # The next step or the KSD scores the moved particles.
                        gaps = _gap_model(objective, new_plan,
                                          probe_thetas(particles, config.svgd.fd_epsilon))
                if log:
                    log_ksd.append(ksd_estimate(particles, gaps, config.svgd))
            except ScoreEvaluationError:
                reason = "inference_failure"
                break

        state = next_state
        times_hist.append(len(log_c) * env.dt)
        states_hist.append(state.copy())
        if lap is not None:
            progress_hist.append(lap.update(state))
        warm = shift_warm_start(new_plan)

    steps = len(log_c)
    return TrialResult(
        completion_time=float(times_hist[-1] if reason == "success" else config.duration),
        terminal_reason=reason,
        times=np.asarray(times_hist[:steps], dtype=float),
        states=np.asarray(states_hist[:steps], dtype=float).reshape(steps, env.state_dim),
        controls=np.asarray(log_u, dtype=float).reshape(steps, env.control_dim),
        costs=np.asarray(log_c, dtype=float),
        particles=np.asarray(log_p, dtype=float).reshape(
            steps, config.n_particles, env.param_dim
        ),
        final_state=state.copy(),
        final_particles=particles,
        seed=config.seed,
        progress=np.asarray(progress_hist[:steps], dtype=float) if lap is not None else None,
        final_progress=float(progress_hist[-1]) if lap is not None else None,
        ksd=np.asarray(log_ksd, dtype=float) if log_ksd else None,
        wall_clock_seconds=time.perf_counter() - started,
    )


# One trial index per task record. A record is far below PIPE_BUF, so each
# write lands whole and each read of one record gets a whole index.
_TASK = struct.Struct("=I")


def _pipe():
    """A new pipe as its (read, write) file objects."""
    read_fd, write_fd = os.pipe()
    return open(read_fd, "rb"), open(write_fd, "wb")


def _work(tasks_fd: int, report, base: TrialConfig, seeds: list[int]):
    """A forked worker's whole life: run the trial of ``base`` at ``seeds[i]``
    for every task index ``i`` read from ``tasks_fd``, write one pickled list
    of ``(i, TrialResult)``, or the exception that stopped it, to ``report``
    and leave with ``os._exit``, so the child never returns into its caller.
    """
    try:
        try:
            done = []
            while record := os.read(tasks_fd, _TASK.size):
                (i,) = _TASK.unpack(record)
                done.append((i, run_trial(replace(base, seed=seeds[i]))))
            data = pickle.dumps(done)
        except BaseException as exc:
            data = pickle.dumps(exc)
        report.write(data)
        report.close()
        os._exit(0)
    finally:
        os._exit(1)


def _fork_batch(base: TrialConfig, seeds: list[int], workers: int) -> list[TrialResult]:
    """Run the trial of ``base`` at each of ``seeds`` across ``workers``
    forked children; the results are in the order of ``seeds``."""
    results = [None] * len(seeds)
    files, readers, pids = [], [], []
    try:
        tasks, feed = _pipe()
        files += [tasks, feed]
        for _ in range(workers):
            reader, report = _pipe()
            files += [reader, report]
            pid = os.fork()
            if pid == 0:
                feed.close()
                _work(tasks.fileno(), report, base, seeds)
            pids.append(pid)
            readers.append(reader)
            report.close()
        tasks.close()
        try:
            for i in range(len(seeds)):
                os.write(feed.fileno(), _TASK.pack(i))
        except BrokenPipeError:
            pass  # every worker has ended; their reports say why
        feed.close()
        for pid, reader in zip(list(pids), readers):
            data = reader.read()
            if not data:
                pids.remove(pid)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise RuntimeError(f"batch worker {pid} ended without a result (exit code {code})")
            outcome = pickle.loads(data)
            if isinstance(outcome, BaseException):
                raise outcome
            for i, result in outcome:
                results[i] = result
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for f in files:
            f.close()
        for pid in pids:
            os.waitpid(pid, 0)
    return results


def run_batch(base: TrialConfig, seeds, jobs: int = 1) -> list[TrialResult]:
    """Run one trial per seed, across up to ``min(jobs, len(seeds))`` worker processes.

    Returns the trials' results in the order of ``seeds``, regardless of
    which worker finished first, so a batch does not depend on ``jobs``.
    A one-worker batch runs in this process. Otherwise the workers are forks
    of this process made inside the call (POSIX only): they inherit ``base``
    and ``seeds`` and take trial indices from one shared pipe, and each
    sends its results back pickled once. Every worker is reaped before the
    call returns or raises. A trial's exception in a worker is re-raised
    here with its type and message, after any other worker still running is
    killed; a worker that ends without reporting raises ``RuntimeError``.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("seed list must not be empty")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, len(seeds))
    if workers == 1:
        return [run_trial(replace(base, seed=s)) for s in seeds]
    return _fork_batch(base, seeds, workers)
