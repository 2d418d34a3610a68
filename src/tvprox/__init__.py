"""Approximate total-variation proximal operator toolkit.

Provides the closed-form frame-shrinkage approximation of the TV proximal
operator, an exact TV prox oracle (dual fast projected gradient) with its
duality-gap certificate, APGM/ADMM solvers with pluggable prox, and
measurement models for denoising and sparse-view CT benchmarks. Every
difference is circular.
"""

from .signal import l2_norm, load_csv, save_csv
from .frame import CoeffStack, w_forward, w_adjoint
from .tv import tv, h_hat, h_hat_subgradient, check_mode
from .shrinkage import ProxParams, shrink_aniso, shrink_iso, threshold_stack, approx_prox
from .exact import OracleConfig, fpg_prox, duality_gap
from .operators import (
    LinearOperator,
    CtGeometry,
    identity_operator,
    radon_operator,
    radon_forward,
    radon_adjoint,
    lipschitz_power_iter,
    add_awgn,
    prox_g_denoise,
    prox_g_ct,
)
from .solvers import Problem, SolverConfig, RunReport, SolverDivergence, fista_momentum, objective, apgm, admm
from .experiments import ExperimentConfig, MetricsRow, gen_foam_phantom, psnr, cost_accuracy, run_sweep

__version__ = "0.1.0"
