"""Characteristics solver for the massless nonlinear Dirac system in 1+1D.

The system

    i (u_t + u_x) = N1(u, v),    i (v_t - v_x) = N2(u, v)

with W(u, v) = alpha |u|^2 |v|^2 + beta (ub*v + u*vb)^2 and N1 = dW/d(ub),
N2 = dW/d(vb), covers the Thirring model (alpha, beta) = (1, 0) and the
Gross-Neveu model (alpha, beta) = (0, 1/4).  The package integrates the
system on a unit-CFL lattice along exact characteristics, certifies charge
conservation, triangle balance laws and pointwise exponential envelopes, and
extracts the large-time traveling-wave scattering profiles together with
rigorous tail bounds.
"""

from .fields import (
    Grid,
    InitialData,
    ModelParams,
    SpinorField,
    TriangleRegion,
    charge,
    make_initial_data,
)
from .nonlinearity import (
    charge_flux_defect,
    eval_N,
    eval_N1,
    eval_N2,
    eval_W,
    pair_overlap,
)
from .solver import (
    Scheme,
    SolverError,
    Trajectory,
    init_state,
    l2_diff,
    restrict,
    run,
)
from .conservation import (
    BalanceReport,
    check_pointwise_bound,
    light_cone_balance,
    total_charge_drift,
    triangle_balance,
)
from .asymptotics import (
    Profile,
    ResidualReport,
    compute_profile,
    field_residual,
    residual,
    sup_tail_bound,
    tail_bound,
)
from .cli import ConfigError, ExperimentConfig, parse_config, run_experiment

__version__ = "0.1.0"

__all__ = [
    "BalanceReport", "ConfigError", "ExperimentConfig", "Grid", "InitialData",
    "ModelParams", "Profile", "ResidualReport", "Scheme", "SolverError",
    "SpinorField", "Trajectory", "TriangleRegion", "charge",
    "charge_flux_defect", "check_pointwise_bound", "compute_profile",
    "eval_N", "eval_N1", "eval_N2", "eval_W", "field_residual", "init_state",
    "l2_diff", "light_cone_balance", "make_initial_data", "pair_overlap",
    "parse_config", "residual", "restrict", "run", "run_experiment",
    "sup_tail_bound", "tail_bound", "total_charge_drift", "triangle_balance",
]
