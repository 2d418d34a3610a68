"""Ground-truth TV proximal oracles.

fpg_prox runs an accelerated projected-gradient method on the dual of the
TV-prox problem (per-entry or per-location dual-ball constraints for the
anisotropic / isotropic case), with one difference and one adjoint pass of
the shared slicing kernel per iteration. Its first iteration from p = 0 is
the closed-form approximate prox of tvprox.shrinkage; duality_gap certifies
its output with its final dual. tautstring_prox_1d is an exact
non-iterative solver for the 1D free-boundary problem, used to
cross-validate FPG.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .frame import BOUNDARIES, _adjoint_steps, _grad, _grad_adjoint, _grad_steps, _run
from .shrinkage import _project_ball
from .signal import check_choice, check_count, check_positive, validate_signal
from .tv import _tv_of_differences, check_mode


@dataclass
class OracleConfig:
    """Iteration budget and stopping rule of the dual FPG oracle.

    By default fpg_prox stops on the relative change of its primal iterate
    (tol). Setting gap_tol switches it to a certified mode: momentum
    restarts, and a stop when the duality gap relative to the primal
    objective is at most gap_tol; tol is then unused.
    """

    max_iter: int = 500
    tol: float = 1e-10
    mode: str = "aniso"
    boundary: str = "circular"
    gap_tol: float | None = None

    def __post_init__(self):
        check_count("max_iter", self.max_iter)
        check_positive("tol", self.tol)
        if self.gap_tol is not None:
            check_positive("gap_tol", self.gap_tol)
        check_mode(self.mode)
        check_choice("boundary", self.boundary, BOUNDARIES)


def fpg_prox(z, tau, cfg=None, return_info=False):
    """TV proximal operator via fast projected gradient on the dual.

    Minimizes 0.5*||x - z||^2 + tau*tv(x, mode) with x = z - tau*D^T p and
    p constrained to the dual unit balls. Dual step 1/(4d), zero dual
    initialization, standard momentum. Two stopping rules:

    - cfg.gap_tol None (budgeted): no restarts; stop when the relative
      change of the primal iterate drops below cfg.tol.
    - cfg.gap_tol set (certified): restart the momentum whenever
      <q - p+, p+ - p> > 0 (the gradient scheme of O'Donoghue and Candes,
      2015), and every 50 iterations and at max_iter stop when the duality
      gap is at most gap_tol times the primal objective P(x).

    Hitting max_iter first warns, unless return_info asks for (x, info)
    with "iterations", "converged", "p" and either "rel_change" or, when
    certified, "gap" (the relative gap of the last check). p is the final
    projected dual iterate, feasible and with x = z - tau*D^T p bit for
    bit, for duality_gap to certify x. That identity makes the gap
    tau*(TV(x) - <Dx, p>), one difference pass into the spare dual buffer.

    One adjoint per iteration: D^T is linear, so the primal point
    z - tau*D^T q of the extrapolated dual q = p + beta*(p - p_prev) is
    x + beta*(x - x_prev), and only x = z - tau*D^T p is formed.

    The working set is the dual stacks p, q and g and the signal-sized x,
    x_prev and dx: 3d + 3 arrays of the signal's size, allocated once per
    call and updated in place, so an iteration allocates nothing. Each
    buffer is reused while it is dead. dx holds x - x_prev, is
    extrapolated in place to the primal point of q and, once the
    difference pass has read it, holds tau*D^T p until x is formed and the
    gap checked. The iso projection works in dx and x_prev (the latter is
    dead once dx is extrapolated), and the adjoint's scratch is block 0 of
    the spare dual.

    The views of the difference pair, and the flat views that the restart
    and stop tests take ndarray.dot of, are built once per call, one set
    per buffer of the (p, g) swap. An iteration then makes C-level calls
    only (ufuncs with positional outs, ndarray.dot), but for one
    Python-level call, _project_ball, and, when certified, the gap check
    every 50 iterations.
    """
    z = validate_signal(z)
    check_positive("tau", tau)
    cfg = cfg or OracleConfig()
    max_iter, tol, gap_tol, mode, boundary = cfg.max_iter, cfg.tol, cfg.gap_tol, cfg.mode, cfg.boundary
    d = z.ndim
    step = 1.0 / (4.0 * d * tau)
    certify = gap_tol is not None

    p = np.zeros((d,) + z.shape, dtype=np.float64)
    q = np.zeros_like(p)
    g = np.empty_like(p)
    # C order, whatever z's layout: the stop test reads x_prev and dx
    # through flat views, and reshape(-1) of another layout is a copy.
    x = z.copy()
    x_prev = np.empty(z.shape)
    dx = np.zeros(z.shape)
    # Iteration k writes D dx into the buffer g holds (g on even k, p on
    # odd k), swaps it into p and reads D^T p from the same buffer into dx,
    # through block 0 of the other dual buffer, by then the spare g. After
    # its swaps x and the spare dual g sit in the buffers x_prev and p
    # start in (even k) or x and g start in (odd k): gap_steps[k % 2]
    # writes D x into g. The flat views are those the dots read: p+ - p in
    # the other dual buffer for the restart test, and x_prev, the buffer x
    # starts in on even k, for the stop test.
    steps = [
        (_grad_steps(dx, buf, boundary), _adjoint_steps(buf, dx, spare[0], boundary),
         spare.reshape(-1), xs.reshape(-1))
        for buf, spare, xs in ((g, p, x), (p, g, x_prev))
    ]
    if certify:
        gap_steps = [_grad_steps(x_prev, p, boundary), _grad_steps(x, g, boundary)]
    qf, dxf = q.reshape(-1), dx.reshape(-1)
    t_prev = 1.0
    beta = 0.0
    change = gap = np.inf
    iters = 0
    for k in range(max_iter):
        # Projected dual step at q; its primal point is x + beta*(x - x_prev).
        grad_steps, adjoint_steps, pf, xf = steps[k % 2]
        dx *= beta
        dx += x
        for ufunc, a, b, out in grad_steps:
            ufunc(a, b, out)
        g *= step
        g += q
        _project_ball(g, 1.0, mode, dx, x_prev)
        t = (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev)) / 2.0
        beta = (t_prev - 1.0) / t
        np.subtract(g, p, p)  # p+ - p; the old dual is not read again
        if certify:  # restart when <q - p+, p+ - p> > 0
            np.subtract(q, g, q)
            if qf.dot(pf) > 0.0:
                t, beta = 1.0, 0.0
        np.multiply(p, beta, q)
        q += g
        p, g, t_prev = g, p, t
        x, x_prev = x_prev, x
        for ufunc, a, b, out in adjoint_steps:
            ufunc(a, b, out)
        dx *= tau  # tau*D^T p
        np.subtract(z, dx, x)
        iters = k + 1
        if certify and (iters % 50 == 0 or iters == max_iter):
            gap = _relative_gap(gap_steps[k % 2], g, p, dx, tau, mode)
            if gap <= gap_tol:
                break
        np.subtract(x, x_prev, dx)
        if certify:
            continue
        if k > 0:
            num = math.sqrt(dxf.dot(dxf))
            denom = math.sqrt(xf.dot(xf))
            change = num / denom if denom > 0 else num
        if change <= tol:
            break
    converged = gap <= gap_tol if certify else change <= tol
    if not converged and not return_info:
        achieved = f"relative gap {gap:.3e}" if certify else f"relative change {change:.3e}"
        warnings.warn(f"fpg_prox: max_iter={max_iter} reached, achieved {achieved}", RuntimeWarning)
    if return_info:
        stat = {"gap": gap} if certify else {"rel_change": change}
        return x, {"iterations": iters, **stat, "converged": converged, "p": p}
    return x


def _relative_gap(grad_steps, dif, p, dtp, tau, mode):
    """fpg_prox's duality gap over the primal objective P(x), where
    x = z - dtp and dtp = tau*D^T p bit for bit.

    grad_steps write D x into dif, which the TV pass then overwrites. For
    such an x the gap is tau*(TV(x) - <Dx, p>) and P(x) is
    0.5*||dtp||^2 + tau*TV(x); the gap stays absolute where P(x) = 0.
    """
    _run(grad_steps)
    coupling = float(np.vdot(dif, p))  # before _tv_of_differences overwrites dif
    tv_x = _tv_of_differences(dif, mode)
    gap = tau * (tv_x - coupling)
    primal = 0.5 * float(np.vdot(dtp, dtp)) + tau * tv_x
    return gap / primal if primal > 0 else gap


def duality_gap(z, x, p, tau, mode="aniso", boundary="circular"):
    """Duality gap P(x) - D(p) of a candidate prox output x and a dual p.

    P(x) = 0.5*||x - z||^2 + tau*TV(x), with TV taken under `boundary`, and
    D(p) = 0.5*||z||^2 - 0.5*||z - tau*D^T p||^2. For any x and any feasible
    p (|entries| <= 1 for aniso, per-location norms <= 1 for iso), with
    x* = prox(z): P(x) - P(x*) <= gap and 0.5*||x - x*||^2 <= gap. Evaluated
    in one difference and one adjoint pass as the equal sum of two terms
    nonnegative for feasible p, 0.5*||x - (z - tau*D^T p)||^2 and
    tau*(TV(x) - <Dx, p>), it can read slightly below zero at convergence
    from rounding (down to about -2e-16 * (1 + P(x)) on FPG outputs).
    """
    z, x, p = validate_signal(z), validate_signal(x, "x"), np.asarray(p, dtype=np.float64)
    if x.shape != z.shape or p.shape != (z.ndim,) + z.shape:
        raise ValueError(f"shape mismatch: z {z.shape}, x {x.shape}, p {p.shape}")
    check_positive("tau", tau)
    check_mode(mode)
    check_choice("boundary", boundary, BOUNDARIES)
    r = x - (z - tau * _grad_adjoint(p, boundary))  # z - tau*D^T p as fpg_prox forms x
    g = _grad(x, boundary)
    coupling = float(np.vdot(g, p))  # before _tv_of_differences overwrites g
    return 0.5 * float(np.vdot(r, r)) + tau * (_tv_of_differences(g, mode) - coupling)


def tautstring_prox_1d(z, tau):
    """Exact 1D TV proximal operator (free-boundary differences).

    Taut-string construction: the output is the derivative of the tightest
    path through the tube of half-width tau around the running sums of z,
    tracked with linear lower/upper string segments. O(n) in practice.
    """
    y = validate_signal(z)
    if y.ndim != 1:
        raise ValueError("tautstring_prox_1d expects a 1D signal")
    check_positive("tau", tau)
    n = y.size
    x = np.empty(n, dtype=np.float64)

    # Taut-string walk with candidate lower/upper segment values (vmin, vmax),
    # their accumulated slack against the tube (umin, umax), and the sample
    # ranges k0..km / k0..kp the candidates currently cover.
    k = k0 = km = kp = 0
    vmin = y[0] - tau
    vmax = y[0] + tau
    umin = tau
    umax = -tau
    while True:
        if k == n - 1:
            # Tube collapses at the right endpoint: resolve leftover slack.
            if umin < 0.0:
                # Lower string would leave the tube: fix a segment at vmin.
                x[k0 : km + 1] = vmin
                k = k0 = km = km + 1
                vmin = y[k]
                umin = tau
                umax = y[k] + tau - vmax
                continue
            if umax > 0.0:
                x[k0 : kp + 1] = vmax
                k = k0 = kp = kp + 1
                vmax = y[k]
                umax = -tau
                umin = y[k] - tau - vmin
                continue
            x[k0:] = vmin + umin / (k - k0 + 1)
            return x
        if y[k + 1] + umin < vmin - tau:
            # Negative jump forced: emit the lower candidate segment.
            x[k0 : km + 1] = vmin
            k = k0 = km = kp = km + 1
            vmin = y[k]
            vmax = y[k] + 2.0 * tau
            umin = tau
            umax = -tau
        elif y[k + 1] + umax > vmax + tau:
            # Positive jump forced: emit the upper candidate segment.
            x[k0 : kp + 1] = vmax
            k = k0 = km = kp = kp + 1
            vmin = y[k] - 2.0 * tau
            vmax = y[k]
            umin = tau
            umax = -tau
        else:
            # No jump: extend both candidates, re-averaging when the slack
            # saturates the tube width.
            k += 1
            umin += y[k] - vmin
            umax += y[k] - vmax
            if umin >= tau:
                vmin += (umin - tau) / (k - k0 + 1)
                umin = tau
                km = k
            if umax <= -tau:
                vmax += (umax + tau) / (k - k0 + 1)
                umax = -tau
                kp = k
