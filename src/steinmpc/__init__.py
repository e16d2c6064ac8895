"""Stein variational particle inference coupled with sampling-based robust MPC.

The package pairs a kernelized particle flow over latent dynamics parameters
with a gap-weighted robust planning objective, alongside ensemble, risk-averse,
and fixed-parameter baselines, on three simulated benchmarks: cartpole
swing-up, planar rocket landing, and lap racing on a stadium track.
"""

from .controllers import (
    ControllerSpec,
    MppiConfig,
    SolverFailureError,
    build_objective,
    mppi_solve,
    shift_warm_start,
)
from .costs import (
    CostSpec,
    InverseDisplacementReward,
    UprightEnergyPenalty,
    RobustObjectiveConfig,
    rollout_cost_batch,
    trajectory_cost,
)
from .dynamics import (
    EnvModel,
    make_cartpole,
    make_racecar,
    make_rocket,
    rk4_step,
)
from .harness import (
    BatchResult,
    CartpoleSuccess,
    RaceSuccess,
    RocketSuccess,
    TrialConfig,
    TrialResult,
    check_success,
    run_batch,
    run_trial,
)
from .inference import (
    ParticleSet,
    PosteriorModel,
    ScoreEvaluationError,
    SvgdConfig,
    draw_particles,
    ksd_estimate,
    particle_mean,
    svgd_step,
)
from .kernels import ConstantKernel, ImqKernel, RbfKernel
from .track import CenterlineReference, LapProgress, StadiumTrack, track_progress, track_reference

__version__ = "0.1.0"
