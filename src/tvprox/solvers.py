"""Accelerated proximal gradient (APGM) and ADMM drivers.

Both solvers take a pluggable TV prox: the closed-form approximate operator
or the iterative FPG oracle, applied at scale tau = gamma * lambda. They
stop when the relative iterate change drops below stop_tol.

Each solve validates x0 at entry and binds its working set once (see
_working_set): an approximate iteration makes approx_prox's ufunc calls,
in the same order, on buffers bound once. Its Python-level calls are the
bound prox, APGM's fista_momentum, a kernel that ends the iteration with
the stop test and the callbacks of a Problem not given as data: three per
aniso APGM iteration of the data form (iso: one helper more in the prox).
The loops' scalar operands (gamma, APGM's extrapolation weight, ADMM's
1 + gamma) are 0-d arrays bound once per solve, which numpy does not
convert again on every call, and each in-place update is a positional
ufunc call. The objective's one kernel, _objectives, scores a block of
iterates, kept in a ring, at once, the data terms in the dead difference
stack's contiguous head; objective() runs it on a ring of one signal. The
exact prox calls fpg_prox once per iteration. Iterates are not validated
again: a non-finite one makes the objective non-finite, raising
SolverDivergence.
"""

import math
import sys
import time
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .exact import OracleConfig, fpg_prox
from .frame import _grad_steps, _run
from .shrinkage import ProxParams, _bind_approx_prox
from .signal import _aligned, check_choice, check_count, check_nonnegative, check_positive, l2_norm, validate_signal
from .tv import _tv_terms, check_mode


class SolverDivergence(RuntimeError):
    """Objective became non-finite during iteration."""


@dataclass
class Problem:
    """Smooth/data part of the composite objective g(x) + lambda*tv(x), given
    as callbacks or as data: the y of the denoising term g(x) = 0.5||x - y||^2,
    kept with L (default 1) only. The solvers run the data form's g on their
    own buffers and sum its terms once per block of B iterates: a non-finite
    one is found up to B - 1 iterations late, and SolverDivergence still
    names its iteration."""

    grad_g: callable = None
    objective_g: callable = None
    prox_g: callable = None  # (v, gamma) -> argmin 0.5||x-v||^2 + gamma*g(x); ADMM only
    lipschitz_L: float | None = None
    data: np.ndarray = None

    def __post_init__(self):
        if self.data is not None:
            if any(f is not None for f in (self.grad_g, self.objective_g, self.prox_g)):
                raise ValueError("Problem takes data or callbacks, not both")
            self.data = np.ascontiguousarray(validate_signal(self.data, "data"))
            self.lipschitz_L = 1.0 if self.lipschitz_L is None else self.lipschitz_L
        elif self.grad_g is None or self.objective_g is None:
            raise ValueError("Problem needs data, or grad_g and objective_g")
        if self.lipschitz_L is not None:
            check_positive("lipschitz_L", self.lipschitz_L)


def _check_shape(problem, x, name):
    """ValueError unless x has the shape of the problem's data, if it has data: y would broadcast against x."""
    y = problem.data
    if y is not None and x.shape != y.shape:
        raise ValueError(f"{name} has shape {x.shape} but the data has shape {y.shape}")


PROX_CHOICES = ("approx", "exact")
# a solve's iterate ring (_working_set) takes as many slots as RING_BYTES holds, 2 to RING_SLOTS
RING_BYTES, RING_SLOTS = 3 << 17, 16


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
    """Composite objective g(x) + lambda * tv(x, mode) of a signal x of the data's
    shape: _objectives of the ring x[None] in fresh buffers, with the bits of the
    solvers' trace entries. An overflow gives inf without numpy's warning."""
    x, y = validate_signal(x, "x"), problem.data
    _check_shape(problem, x, "objective: x")
    ring, difs = x[None], np.empty((1, x.ndim) + x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        data_terms = np.empty(1) if y is not None else np.array([problem.objective_g(x)])
        return _objectives(ring, difs, _grad_steps(ring, difs, "circular", batch=1), cfg, y, data_terms)[0]


def _objectives(ring, difs, tv_steps, cfg, y, data_terms):
    """The list of g(x) + lambda * tv(x, mode) of each slot x of a (B, *shape) ring,
    each with the bits of that slot alone: the one kernel of the composite objective.
    tv_steps = _grad_steps(ring, difs, "circular", batch=1) write into the
    C-contiguous (B, d, *shape) stack difs, which the kernel overwrites: the TV
    terms, then y - x of every slot in its first B * n values. data_terms holds
    each slot's g, or receives it when the data y (g = 0.5||x - y||^2) is given."""
    lam = cfg.lam
    if lam > 0:
        # at its smallest ufunc buffer numpy runs these strided rows in place (2.4x faster at 32^2);
        # the sum stays at the caller's buffer size: a strided reduction's bits can follow the buffer's
        bufsize = np.setbufsize(16)
        try:
            _run(tv_steps)
            terms = _tv_terms(difs, cfg.mode, batch=1)
        finally:
            np.setbufsize(bufsize)
        tvs = np.add.reduce(terms, axis=tuple(range(1, terms.ndim)))
    if y is not None:
        # y - x of every slot in the stack's head, dead once the TV is summed: a C-contiguous
        # (B, *shape) view, where each slot's squares are summed over its own n values in a row
        squares = difs.reshape(-1)[:ring.size].reshape(ring.shape)
        np.square(np.subtract(y, ring, squares), squares)
        np.multiply(np.add.reduce(squares, axis=tuple(range(1, ring.ndim)), out=data_terms), 0.5, data_terms)
    return (np.add(np.multiply(tvs, lam, tvs), data_terms, tvs) if lam > 0 else data_terms).tolist()


def _bind_tv_prox(cfg, z, xs, dif, tmp, fpg_solves):
    """Prox of lambda*tv at scale tau = gamma*lambda, bound once per solve.

    Returns one kernel per iterate buffer of xs: calling it writes the prox
    of what z holds into that buffer (the approximate prox works in dif and
    tmp). lambda = 0 means no regularization: the prox step copies z. Each
    FPG solve appends (iterations, converged), not its dual, to fpg_solves.
    """
    tau = cfg.tau
    if tau == 0.0:
        return [partial(np.copyto, x, z) for x in xs]
    if cfg.prox_choice == "approx":
        return _bind_approx_prox(z, xs, dif, tmp, ProxParams(tau, cfg.mode))
    oracle = cfg.oracle or OracleConfig(mode=cfg.mode)

    def exact(x):
        # return_info=True: a budgeted sub-solve that stops short does not
        # warn; it is counted in the run's fpg_not_converged instead
        x_k, info = fpg_prox(z, tau, oracle, return_info=True)
        fpg_solves.append((info["iterations"], info["converged"]))
        np.copyto(x, x_k)

    return [partial(exact, x) for x in xs]


def _working_set(problem, cfg, x0, algorithm):
    """Buffers and bound kernels of one solve, as (z, xs, dx, prox, ends, finish).

    z is the prox input, xs the slot views of a C-contiguous (B, *shape) ring
    of the last B iterates, xs[0] a copy of x0, dx holds x - x_prev; these
    and the difference stack start on 64-byte lines up to 1 MiB. Iteration
    k writes slot i = k % B, x_prev being slot i - 1: prox[i]() writes the TV
    prox of z into it, then ends[i](k) writes dx, holds the callback form's
    objective_g(x) and returns whether ||dx|| / ||x_prev|| <= stop_tol, by
    ndarray.dot of flat views bound once (_stopped decides when a squared
    norm is not a normal number, where l2_norm may rescale). flush(k), run
    when slot B - 1 is written, when a held data term is not finite and by
    finish, scores every slot with one _objectives call on the ring and the
    (B, d, *shape) difference stack, and appends each waiting iteration's
    objective up to k to the trace in order, raising SolverDivergence at
    the first one not finite. The approximate prox uses up the stack's
    slot-0 block (its first block is the synthesis scratch) before the
    kernel overwrites it. finish(k, stop_reason), called after the loop,
    returns the RunReport: a copy of slot k % B, the trace, the wall time
    and, when the prox is exact, the FPG solves' counters.
    """
    t0 = time.perf_counter()
    _check_shape(problem, x0, f"{algorithm}: x0")
    slots = max(2, min(RING_SLOTS, RING_BYTES // ((1 + x0.ndim) * x0.nbytes)))
    z, dx = _aligned(x0.shape), _aligned(x0.shape)
    ring = _aligned((slots,) + x0.shape, zero=True)
    ring[0], xs = x0, list(ring)
    difs = _aligned((slots, x0.ndim) + x0.shape)
    tv_steps = _grad_steps(ring, difs, "circular", batch=1)
    y, objective_g, stop_tol = problem.data, problem.objective_g, cfg.stop_tol
    normal, dxf = sys.float_info.min, dx.reshape(-1)
    data_terms, trace, fpg_solves = np.zeros(slots), [], []

    def flush(k):
        first = len(trace) + 1  # iterations first..k wait for their objectives
        if first > k:
            return
        objectives = _objectives(ring, difs, tv_steps, cfg, y, data_terms)
        for j in range(first, k + 1):
            f = objectives[j % slots]
            if not math.isfinite(f):
                raise SolverDivergence(f"{algorithm}: objective became {f} at iteration {j}")
            trace.append(f)

    def bind(i):
        x, x_prev, xpf, full = xs[i], xs[i - 1], xs[i - 1].reshape(-1), i == slots - 1

        def end(k):
            np.subtract(x, x_prev, dx)
            if objective_g is not None:
                data_terms[i] = objective_g(x)
            if full or objective_g is not None and not math.isfinite(data_terms[i]):
                flush(k)
            num, den = dxf.dot(dxf), xpf.dot(xpf)
            if normal <= num < math.inf and normal <= den < math.inf:
                return math.sqrt(num) / math.sqrt(den) <= stop_tol
            return _stopped(dx, x_prev, stop_tol)

        return end

    def finish(k, stop_reason):
        flush(k)
        return RunReport(final_x=xs[k % slots].copy(), objective_trace=np.array(trace), iterations=len(trace),
                         stop_reason=stop_reason, wall_time=time.perf_counter() - t0,
                         extras=_fpg_counters(fpg_solves) if cfg.prox_choice == "exact" else {})

    prox = _bind_tv_prox(cfg, z, xs, difs[0], dx, fpg_solves)
    return z, xs, dx, prox, [bind(i) for i in range(slots)], finish


def _fpg_counters(fpg_solves):
    """RunReport.extras counters of the inner FPG solves of an exact-prox run."""
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


def apgm(problem, cfg, x0):
    """Accelerated proximal gradient with the selected TV prox.

    Per iteration: z = s - gamma*grad_g(s); x = prox(z) at tau = gamma*lam;
    s extrapolates x with the accelerated momentum weights. z, s and
    x - x_prev are formed in place, with gamma and the weight as 0-d
    operands, and x - x_prev serves both the extrapolation and the stop
    test. The data form takes grad_g(s) = s - y in z, with the bits of the
    callback's temporary.
    """
    x0 = validate_signal(x0, "x0")
    if problem.lipschitz_L is not None and cfg.gamma > 1.0 / problem.lipschitz_L:
        warnings.warn(
            f"apgm: gamma={cfg.gamma} exceeds 1/L={1.0 / problem.lipschitz_L:.3e}",
            RuntimeWarning,
        )
    z, xs, dx, prox, ends, finish = _working_set(problem, cfg, x0, "apgm")
    slots, s = len(xs), _aligned(x0.shape)
    s[...] = x0
    y, grad_g = problem.data, problem.grad_g
    gamma, weight = np.array(cfg.gamma, dtype=np.float64), np.array(0.0)  # weight: set each iteration
    q_prev = 1.0
    stop_reason = "max-iter"
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.max_iter + 1):
            # iteration k writes x into slot k % B of the ring; x_prev is in the one before
            i = k % slots
            np.multiply(grad_g(s) if y is None else np.subtract(s, y, z), gamma, z)
            np.subtract(s, z, z)
            prox[i]()
            q = fista_momentum(q_prev)
            if ends[i](k):
                stop_reason = "tolerance-met"
                break
            weight[()] = (q_prev - 1.0) / q
            np.multiply(dx, weight, s)
            np.add(s, xs[i], s)
            q_prev = q
        return finish(k, stop_reason)


def admm(problem, cfg, x0):
    """ADMM on the split g(z) + lambda*tv(x) s.t. z = x.

    Per iteration: z = prox_{gamma g}(x - s); x = prox_tv(z + s) at
    tau = gamma*lam; s += x - z. Uses the freshly computed z in the
    x-update. x - s, z + s and the dual s are formed in place, with gamma
    and 1 + gamma as 0-d operands (prox_g takes gamma as given); the primal
    residual ||x - z|| is taken once, of the last iteration. The data form
    takes z = (w + gamma*y) / (1 + gamma), prox_g_denoise's arithmetic, in w
    (gamma*y in dx, which the prox and the stop test overwrite).
    """
    x0 = validate_signal(x0, "x0")
    if problem.prox_g is None and problem.data is None:
        raise ValueError("admm requires problem.prox_g or data")
    v, xs, dx, prox, ends, finish = _working_set(problem, cfg, x0, "admm")  # v: z + s, the TV prox input
    slots, s = len(xs), _aligned(x0.shape, zero=True)
    w = _aligned(x0.shape)  # x - s, the prox_g input
    y, prox_g = problem.data, problem.prox_g
    gamma, scale = np.array(cfg.gamma, dtype=np.float64), np.array(1.0 + cfg.gamma, dtype=np.float64)
    stop_reason = "max-iter"
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.max_iter + 1):
            # iteration k writes x_new into slot k % B of the ring; x is in the one before
            i = k % slots
            np.subtract(xs[i - 1], s, w)
            z = prox_g(w, cfg.gamma) if y is None else np.divide(np.add(w, np.multiply(y, gamma, dx), w), scale, w)
            np.add(z, s, v)
            prox[i]()
            # Dual ascent sign matches the (x - s) / (z + s) prox arguments above:
            # the multiplier estimate grows along z - x, not x - z.
            np.add(s, z, s)
            np.subtract(s, xs[i], s)
            if ends[i](k):
                stop_reason = "tolerance-met"
                break
        report = finish(k, stop_reason)
    report.extras.update(primal_residual=l2_norm(np.subtract(report.final_x, z, w)), dual_norm=l2_norm(s))
    return report
