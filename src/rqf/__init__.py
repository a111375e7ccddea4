"""Random quadratic-form gradient flows on spheres: simulation and verification.

Subpackages
-----------
geometry     sphere primitives (unit vectors, tangent projection, distances)
noise        seeded matrix/vector Brownian increments with time-shift views
integrators  Heun sphere steps and the exact quadratic-form flow
flows        trajectory/ensemble simulation and batched Monte Carlo
zprocess     the pair's inner-product law: closed forms, Euler-Maruyama, Fokker-Planck
diagnostics  uniformity tests, cluster detection, Lyapunov estimation
cli          the ``rqf`` command-line entry point
"""

__version__ = "0.1.0"

from .errors import ConfigError, NumericalError, ResourceCapError
from .geometry import (
    TangentVector,
    antipode,
    fibonacci_sphere,
    project_tangent,
    random_unit_vector,
    sphere_distance,
    unit_vector,
)
from .noise import ArrayPath, NoisePath, generate_path, scalar_increments, shift_path, symmetrize
from .integrators import StepResult, dominant_eigenspace, dqf_exact, heun_step_bias, heun_step_rqf
from .flows import (
    Ensemble,
    PhaseTrajectory,
    PullbackResult,
    Trajectory,
    batch_finals,
    circle_angle,
    phase_finals,
    pullback_run,
    simulate_bias,
    simulate_coupled,
    simulate_phase,
    simulate_rqf,
    sphere_grid,
)
from .zprocess import (
    DensityGrid,
    ZTrajectory,
    em_step_z,
    fokker_planck_evolve,
    hit_up_probability,
    l1_density_distance,
    max_stable_dt,
    scale,
    sigma_z,
    simulate_z,
    simulate_z_finals,
    z_diffusion,
    z_drift,
)
from .diagnostics import (
    ClusterSummary,
    LyapunovEstimate,
    UniformityReport,
    attractor_detect,
    ks_critical_value,
    ks_two_sample,
    lyapunov_benettin,
    sync_metric,
    uniformity_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
