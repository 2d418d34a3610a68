"""Accelerated proximal gradient (APGM) and ADMM drivers.

Both solvers take a pluggable TV prox: the closed-form approximate operator
or the iterative FPG oracle, applied at scale tau = gamma * lambda. They
stop when the relative iterate change drops below stop_tol.

Each solve validates x0 at entry and binds its working set once (see
_working_set): an approximate iteration makes the ufunc calls that
approx_prox, tv and objective would make on fresh arrays, in the same
order, on buffers bound once. It still makes about a dozen Python-level
calls: the bound prox (with _threshold_synthesise, _project_ball and two
difference passes), the TV pass, the objective, the momentum and the stop
test. The exact prox calls tvprox.exact's fpg_prox once per iteration.
Iterates are not validated again: a non-finite one makes the objective
non-finite, and the finiteness check raises SolverDivergence.
"""

import math
import time
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .exact import OracleConfig, fpg_prox
from .frame import _grad_steps, _run
from .shrinkage import ProxParams, _bind_approx_prox
from .signal import check_choice, check_count, check_nonnegative, check_positive, l2_norm, validate_signal
from .tv import _tv_of_differences, check_mode, tv


class SolverDivergence(RuntimeError):
    """Objective became non-finite during iteration."""


@dataclass
class Problem:
    """Smooth/data part of the composite objective g(x) + lambda*tv(x)."""

    grad_g: callable
    objective_g: callable
    prox_g: callable = None  # (v, gamma) -> argmin 0.5||x-v||^2 + gamma*g(x); ADMM only
    lipschitz_L: float | None = None


PROX_CHOICES = ("approx", "exact")


@dataclass
class SolverConfig:
    """Step size, TV weight and stop rule of one solve. The exact prox runs
    oracle (default OracleConfig(mode=mode)), which must solve the TV the
    objective scores: the same mode, circular boundaries."""

    gamma: float = 1.0
    lam: float = 0.0
    mode: str = "aniso"
    prox_choice: str = "approx"  # one of PROX_CHOICES
    oracle: OracleConfig = None
    stop_tol: float = 5e-6
    max_iter: int = 20000

    def __post_init__(self):
        check_positive("gamma", self.gamma)
        check_nonnegative("lam", self.lam)
        check_positive("stop_tol", self.stop_tol)
        check_count("max_iter", self.max_iter)
        check_mode(self.mode)
        check_choice("prox_choice", self.prox_choice, PROX_CHOICES)
        if self.oracle is not None and (self.oracle.mode, self.oracle.boundary) != (self.mode, "circular"):
            raise ValueError(f"oracle must solve mode {self.mode!r} with circular boundaries, got {self.oracle}")

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
    # admm: primal_residual, dual_norm; exact prox: fpg_calls, fpg_iters,
    # fpg_iters_max and fpg_not_converged of the inner FPG solves
    extras: dict = field(default_factory=dict)


def fista_momentum(q_prev):
    """Accelerated momentum recurrence (1 + sqrt(1 + 4 q^2)) / 2."""
    if q_prev < 1.0:
        raise ValueError("momentum parameter must be >= 1")
    return (1.0 + math.sqrt(1.0 + 4.0 * q_prev**2)) / 2.0


def objective(problem, cfg, x):
    """Composite objective g(x) + lambda * tv(x, mode).

    A diverging iterate may overflow here; numpy's warning is silenced
    because the caller's finiteness check raises SolverDivergence instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _objective(problem, cfg, x, partial(tv, x, cfg.mode))


def _objective(problem, cfg, x, tv_x):
    """objective with tv(x, mode) given as the zero-argument kernel tv_x.

    Runs under the caller's errstate: objective() and each solve's loop
    enter np.errstate(over="ignore", invalid="ignore") once.
    """
    val = problem.objective_g(x)
    if cfg.lam > 0:
        val += cfg.lam * tv_x()
    return float(val)


def _bind_tv_prox(cfg, z, xs, dif, fpg_solves):
    """Prox of lambda*tv at scale tau = gamma*lambda, bound once per solve.

    Returns one kernel per iterate buffer of xs: calling it writes the prox
    of what z holds into that buffer. lambda = 0 means no regularization:
    the prox step copies z. Each FPG solve appends (iterations, converged),
    not its dual, to fpg_solves.
    """
    tau = cfg.tau
    if tau == 0.0:
        return [partial(np.copyto, x, z) for x in xs]
    if cfg.prox_choice == "approx":
        return _bind_approx_prox(z, xs, dif, ProxParams(tau, cfg.mode))
    oracle = cfg.oracle or OracleConfig(mode=cfg.mode)

    def exact(x):
        # return_info=True: a budgeted sub-solve that stops short does not
        # warn; it is counted in the run's fpg_not_converged instead
        x_k, info = fpg_prox(z, tau, oracle, return_info=True)
        fpg_solves.append((info["iterations"], info["converged"]))
        np.copyto(x, x_k)

    return [partial(exact, x) for x in xs]


def _bind_tv(x, dif, mode):
    """Kernel returning tv(x, mode) of what buffer x holds, through dif."""
    steps = _grad_steps(x, dif, "circular")

    def tv_x():
        _run(steps)
        return _tv_of_differences(dif, mode)

    return tv_x


def _working_set(cfg, x0, fpg_solves):
    """Buffers and bound kernels of one solve, as (z, xs, prox, tvs).

    z is the prox input and xs two C-contiguous iterate buffers that swap
    each iteration, xs[0] a copy of x0. prox[i]() writes the TV prox of z
    into xs[i] and tvs[i]() returns tv(xs[i], mode); both use one
    difference stack, which the approximate prox uses up (its first block
    is the synthesis scratch) and the TV pass overwrites after it.
    """
    z = np.empty(x0.shape)
    xs = (x0.copy(), np.empty(x0.shape))
    dif = np.empty((x0.ndim,) + x0.shape)
    prox = _bind_tv_prox(cfg, z, xs, dif, fpg_solves)
    return z, xs, prox, [_bind_tv(x, dif, cfg.mode) for x in xs]


def _fpg_counters(cfg, fpg_solves):
    """RunReport.extras counters of the inner FPG solves of an exact-prox run."""
    if cfg.prox_choice != "exact":
        return {}
    iters = [n for n, _ in fpg_solves]
    return {
        "fpg_calls": len(iters),
        "fpg_iters": sum(iters),
        "fpg_iters_max": max(iters, default=0),
        "fpg_not_converged": sum(not converged for _, converged in fpg_solves),
    }


def _stopped(dx, x_prev, tol):
    """The relative change ||dx|| / ||x_prev|| <= tol, given dx = x - x_prev;
    never when x_prev has zero norm."""
    denom = l2_norm(x_prev)
    return denom != 0.0 and l2_norm(dx) / denom <= tol


def _check_finite(f, k, algorithm):
    if not math.isfinite(f):
        raise SolverDivergence(f"{algorithm}: objective became {f} at iteration {k}")


def apgm(problem, cfg, x0):
    """Accelerated proximal gradient with the selected TV prox.

    Per iteration: z = s - gamma*grad_g(s); x = prox(z) at tau = gamma*lam;
    s extrapolates x with the accelerated momentum weights. z, s and
    x - x_prev are formed in place, and x - x_prev serves both the
    extrapolation and the stop test.
    """
    x0 = validate_signal(x0)
    if problem.lipschitz_L is not None and cfg.gamma > 1.0 / problem.lipschitz_L:
        warnings.warn(
            f"apgm: gamma={cfg.gamma} exceeds 1/L={1.0 / problem.lipschitz_L:.3e}",
            RuntimeWarning,
        )
    t0 = time.perf_counter()
    fpg_solves = []
    z, xs, prox, tvs = _working_set(cfg, x0, fpg_solves)
    s = x0.copy()
    dx = np.empty(x0.shape)
    q_prev = 1.0
    trace = []
    stop_reason = "max-iter"
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.max_iter + 1):
            # iteration k writes x into xs[k % 2]; x_prev is in the other buffer
            x, x_prev = xs[k % 2], xs[1 - k % 2]
            np.multiply(problem.grad_g(s), cfg.gamma, out=z)
            np.subtract(s, z, out=z)
            prox[k % 2]()
            q = fista_momentum(q_prev)
            np.subtract(x, x_prev, out=dx)
            np.multiply(dx, (q_prev - 1.0) / q, out=s)
            s += x
            f = _objective(problem, cfg, x, tvs[k % 2])
            _check_finite(f, k, "apgm")
            trace.append(f)
            if _stopped(dx, x_prev, cfg.stop_tol):
                stop_reason = "tolerance-met"
                break
            q_prev = q
    return RunReport(
        final_x=x,
        objective_trace=np.array(trace),
        iterations=len(trace),
        stop_reason=stop_reason,
        wall_time=time.perf_counter() - t0,
        extras=_fpg_counters(cfg, fpg_solves),
    )


def admm(problem, cfg, x0):
    """ADMM on the split g(z) + lambda*tv(x) s.t. z = x.

    Per iteration: z = prox_{gamma g}(x - s); x = prox_tv(z + s) at
    tau = gamma*lam; s += x - z. Uses the freshly computed z in the
    x-update. x - s, z + s and the dual s are formed in place; the primal
    residual ||x - z|| is taken once, of the last iteration.
    """
    x0 = validate_signal(x0)
    if problem.prox_g is None:
        raise ValueError("admm requires problem.prox_g")
    t0 = time.perf_counter()
    fpg_solves = []
    v, xs, prox, tvs = _working_set(cfg, x0, fpg_solves)  # v: z + s, the TV prox input
    s = np.zeros(x0.shape)
    w = np.empty(x0.shape)  # x - s, the prox_g input
    dx = np.empty(x0.shape)
    trace = []
    stop_reason = "max-iter"
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.max_iter + 1):
            x, x_new = xs[1 - k % 2], xs[k % 2]
            z = problem.prox_g(np.subtract(x, s, out=w), cfg.gamma)
            np.add(z, s, out=v)
            prox[k % 2]()
            # Dual ascent sign matches the (x - s) / (z + s) prox arguments above:
            # the multiplier estimate grows along z - x, not x - z.
            s += z
            s -= x_new
            f = _objective(problem, cfg, x_new, tvs[k % 2])
            _check_finite(f, k, "admm")
            trace.append(f)
            if _stopped(np.subtract(x_new, x, out=dx), x, cfg.stop_tol):
                stop_reason = "tolerance-met"
                break
    return RunReport(
        final_x=x_new,
        objective_trace=np.array(trace),
        iterations=len(trace),
        stop_reason=stop_reason,
        wall_time=time.perf_counter() - t0,
        extras={"primal_residual": l2_norm(x_new - z), "dual_norm": l2_norm(s),
                **_fpg_counters(cfg, fpg_solves)},
    )
