"""Pseudo-spectral laboratory for the 2D incompressible alpha-Euler and
Euler equations on the flat torus: solvers, Lagrangian flow maps,
closed-form rate bounds, and convergence-study tooling."""

from .spectral import (
    Grid,
    PhysicalField,
    SpectralField,
    dealias,
    dealias_cutoff,
    dealias_mask,
    restrict,
    sample,
    spectral_derivative,
    to_physical,
    to_spectral,
)
from .vorticity import (
    AlphaParam,
    VelocityField,
    alpha_norm,
    biot_savart,
    calderon_zygmund_ratio,
    curl,
    divergence,
    helmholtz_filter,
    helmholtz_unfilter,
    laplacian_l2,
    lp_norm,
    torus_distance,
    velocity,
    velocity_l2,
)
from .solver import (
    MonitorLog,
    SimState,
    SolverConfig,
    SolverError,
    run,
    step,
)
from .lagrangian import (
    FlowComparison,
    ParticleSet,
    advect_particles,
    flow_distance,
    lagrangian_vorticity,
    measure_preservation_defect,
    seed_particles,
)
from .bounds import (
    BoundParams,
    ModulusEstimate,
    besov_modulus_fit,
    flow_rate_bound,
    gamma0,
    max_admissible_alpha,
    osgood_bound,
    velocity_rate_K,
    vorticity_rate_bound,
)
from .initial_data import (
    approximating_family,
    disc_patch,
    fractal_patch,
    shear,
    smooth_random,
)
from .harness import (
    ConvergenceReport,
    DatumSpec,
    ExperimentConfig,
    compare_bounds,
    fit_rate,
    load_config,
    run_sweep,
)

__version__ = "0.1.0"
