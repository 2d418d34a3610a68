"""Accelerated proximal gradient (APGM) and ADMM drivers.

Both solvers take a pluggable TV prox: the closed-form approximate operator
or the iterative FPG oracle, applied at scale tau = gamma * lambda. They
stop when the relative iterate change drops below stop_tol.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exact import OracleConfig, fpg_prox
from .shrinkage import ProxParams, approx_prox
from .signal import ZeroNormError, l2_norm, rel_change, validate_signal
from .tv import check_mode, tv


class SolverDivergence(RuntimeError):
    """Objective became non-finite during iteration."""


@dataclass
class Problem:
    """Smooth/data part of the composite objective g(x) + lambda*tv(x)."""

    grad_g: callable
    objective_g: callable
    prox_g: callable = None  # (v, gamma) -> argmin 0.5||x-v||^2 + gamma*g(x); ADMM only
    lipschitz_L: float | None = None


@dataclass
class SolverConfig:
    gamma: float = 1.0
    lam: float = 0.0
    mode: str = "aniso"
    prox_choice: str = "approx"  # "approx" | "exact"
    oracle: OracleConfig = None
    stop_tol: float = 5e-6
    max_iter: int = 20000

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma <= 0:
            raise ValueError("gamma must be finite and > 0")
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError("lambda must be finite and >= 0")
        if self.stop_tol <= 0:
            raise ValueError("stop_tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        check_mode(self.mode)
        if self.prox_choice not in ("approx", "exact"):
            raise ValueError(f"prox_choice must be 'approx' or 'exact', got {self.prox_choice!r}")

    @property
    def tau(self):
        return self.gamma * self.lam


@dataclass
class RunReport:
    final_x: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    stop_reason: str  # "tolerance-met" | "max-iter"
    wall_time: float
    extras: dict = field(default_factory=dict)


def fista_momentum(q_prev):
    """Accelerated momentum recurrence (1 + sqrt(1 + 4 q^2)) / 2."""
    if q_prev < 1.0:
        raise ValueError("momentum parameter must be >= 1")
    return (1.0 + np.sqrt(1.0 + 4.0 * q_prev**2)) / 2.0


def objective(problem, cfg, x):
    """Composite objective g(x) + lambda * tv(x, mode).

    A diverging iterate may overflow here; numpy's warning is silenced
    because the caller's finiteness check raises SolverDivergence instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        val = problem.objective_g(x)
        if cfg.lam > 0:
            val += cfg.lam * tv(x, cfg.mode)
    return float(val)


def _tv_prox(z, cfg):
    """Pluggable prox of lambda*tv at scale tau = gamma*lambda.

    lambda = 0 means no regularization: the prox step is skipped entirely.
    """
    tau = cfg.tau
    if tau == 0.0:
        return np.asarray(z, dtype=np.float64).copy()
    if cfg.prox_choice == "approx":
        return approx_prox(z, ProxParams(tau, cfg.mode))
    oracle = cfg.oracle or OracleConfig(mode=cfg.mode)
    if oracle.mode != cfg.mode:
        raise ValueError("oracle mode does not match solver mode")
    # return_info=True: a budgeted sub-solve that stops short does not warn
    return fpg_prox(z, tau, oracle, return_info=True)[0]


def _stopped(x, x_prev, tol):
    try:
        return rel_change(x, x_prev) <= tol
    except ZeroNormError:
        return False


def _check_finite(f, k, algorithm):
    if not np.isfinite(f):
        raise SolverDivergence(f"{algorithm}: objective became {f} at iteration {k}")


def apgm(problem, cfg, x0):
    """Accelerated proximal gradient with the selected TV prox.

    Per iteration: z = s - gamma*grad_g(s); x = prox(z) at tau = gamma*lam;
    s extrapolates x with the accelerated momentum weights.
    """
    x0 = validate_signal(x0)
    if problem.lipschitz_L is not None and cfg.gamma > 1.0 / problem.lipschitz_L:
        warnings.warn(
            f"apgm: gamma={cfg.gamma} exceeds 1/L={1.0 / problem.lipschitz_L:.3e}",
            RuntimeWarning,
        )
    t0 = time.perf_counter()
    x_prev = x0.copy()
    s = x0.copy()
    q_prev = 1.0
    trace = []
    stop_reason = "max-iter"
    for k in range(1, cfg.max_iter + 1):
        z = s - cfg.gamma * problem.grad_g(s)
        x = _tv_prox(z, cfg)
        q = fista_momentum(q_prev)
        s = x + ((q_prev - 1.0) / q) * (x - x_prev)
        f = objective(problem, cfg, x)
        _check_finite(f, k, "apgm")
        trace.append(f)
        if _stopped(x, x_prev, cfg.stop_tol):
            stop_reason = "tolerance-met"
            break
        x_prev = x
        q_prev = q
    return RunReport(
        final_x=x,
        objective_trace=np.array(trace),
        iterations=len(trace),
        stop_reason=stop_reason,
        wall_time=time.perf_counter() - t0,
    )


def admm(problem, cfg, x0):
    """ADMM on the split g(z) + lambda*tv(x) s.t. z = x.

    Per iteration: z = prox_{gamma g}(x - s); x = prox_tv(z + s) at
    tau = gamma*lam; s += x - z. Uses the freshly computed z in the
    x-update.
    """
    x0 = validate_signal(x0)
    if problem.prox_g is None:
        raise ValueError("admm requires problem.prox_g")
    t0 = time.perf_counter()
    x = x0.copy()
    s = np.zeros_like(x0)
    trace = []
    stop_reason = "max-iter"
    primal_residual = np.inf
    for k in range(1, cfg.max_iter + 1):
        z = problem.prox_g(x - s, cfg.gamma)
        x_new = _tv_prox(z + s, cfg)
        # Dual ascent sign matches the (x - s) / (z + s) prox arguments above:
        # the multiplier estimate grows along z - x, not x - z.
        s = s + z - x_new
        f = objective(problem, cfg, x_new)
        _check_finite(f, k, "admm")
        trace.append(f)
        primal_residual = l2_norm(x_new - z)
        if _stopped(x_new, x, cfg.stop_tol):
            x = x_new
            stop_reason = "tolerance-met"
            break
        x = x_new
    return RunReport(
        final_x=x,
        objective_trace=np.array(trace),
        iterations=len(trace),
        stop_reason=stop_reason,
        wall_time=time.perf_counter() - t0,
        extras={"primal_residual": primal_residual, "dual_norm": l2_norm(s)},
    )
