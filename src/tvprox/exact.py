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
from .shrinkage import _clip, _project_ball
from .signal import _aligned, check_choice, check_count, check_positive, validate_signal
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

    The working set is the dual stacks p, q and g and two primal buffers,
    3d + 2 arrays of the signal's size (3d + 3 when iso, with the
    projection's scratch), allocated once per call, each starting on a
    64-byte cache line up to 1 MiB (signal._aligned), and updated in place.
    One primal buffer holds x, the other dx = x - x_prev, extrapolated in
    place to the primal point of q and, once the difference pass has read
    it, overwritten with tau*D^T p. x is then formed over it and the new dx
    over the old x, so the primal buffers swap roles every iteration, as p
    and g do; the stop test's ||x_prev||^2 and the gap's ||tau*D^T p||^2
    are taken first. The iso projection works in dx and the scratch.

    The views of the difference pair and the flat views the dots read are
    built once per call, one set per parity of the swaps, and the scalar
    operands are 0-d arrays bound once. An iteration then makes C-level
    calls only (ufuncs with positional outs, ndarray.dot; aniso projects
    with the clip ufunc), but for _project_ball when iso and, when
    certified, the gap check every 50 iterations.
    """
    z = validate_signal(z)
    check_positive("tau", tau)
    cfg = cfg or OracleConfig()
    max_iter, tol, gap_tol, mode, boundary = cfg.max_iter, cfg.tol, cfg.gap_tol, cfg.mode, cfg.boundary
    d = z.ndim
    certify, aniso = gap_tol is not None, mode == "aniso"
    step, tau_, beta_, lo, hi = (np.array(v, dtype=np.float64) for v in (1.0 / (4.0 * d * tau), tau, 0.0, -1.0, 1.0))

    p, q, g = _aligned((d,) + z.shape, zero=True), _aligned((d,) + z.shape, zero=True), _aligned((d,) + z.shape)
    # C order, whatever z's layout: the dots read both primal buffers
    # through flat views, and reshape(-1) of another layout is a copy.
    x, dx = _aligned(z.shape), _aligned(z.shape, zero=True)
    x[...] = z
    tmp = None if aniso else _aligned(z.shape)
    # Iteration k writes D dx into the buffer g holds (g on even k, p on
    # odd k), swaps it into p and reads D^T p from the same buffer into dx,
    # through block 0 of the other dual buffer, by then the spare g. x and
    # dx start in their own buffers on even k and swapped on odd k; the gap
    # steps write D x, by then in dx's buffer, into the spare g. The flat
    # views are those the dots read: p+ - p in the other dual buffer for the
    # restart test, x_prev (x's buffer) for the stop test and tau*D^T p
    # (dx's) for the gap.
    steps = [
        (_grad_steps(dxb, buf, boundary), _adjoint_steps(buf, dxb, spare[0], boundary),
         spare.reshape(-1), xb.reshape(-1), dxb.reshape(-1), _grad_steps(dxb, spare, boundary))
        for buf, spare, xb, dxb in ((g, p, x, dx), (p, g, dx, x))
    ]
    qf = q.reshape(-1)
    t_prev, iters, change, gap = 1.0, 0, np.inf, np.inf
    for k in range(max_iter):
        # Projected dual step at q; its primal point is x + beta*(x - x_prev).
        grad_steps, adjoint_steps, pf, xf, dxf, gap_steps = steps[k % 2]
        np.multiply(dx, beta_, dx)
        np.add(dx, x, dx)
        for ufunc, a, b, out in grad_steps:
            ufunc(a, b, out)
        np.multiply(g, step, g)
        np.add(g, q, g)
        if aniso:
            _clip(g, lo, hi, g)
        else:
            _project_ball(g, 1.0, mode, dx, tmp)
        t = (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev)) / 2.0
        beta = (t_prev - 1.0) / t
        np.subtract(g, p, p)  # p+ - p; the old dual is not read again
        if certify:  # restart when <q - p+, p+ - p> > 0
            np.subtract(q, g, q)
            if qf.dot(pf) > 0.0:
                t, beta = 1.0, 0.0
        beta_[()] = beta
        np.multiply(p, beta_, q)
        np.add(q, g, q)
        p, g, t_prev = g, p, t
        for ufunc, a, b, out in adjoint_steps:
            ufunc(a, b, out)
        np.multiply(dx, tau_, dx)  # tau*D^T p
        iters = k + 1
        check = certify and (iters % 50 == 0 or iters == max_iter)
        if check:
            dtp_sq = dxf.dot(dxf)
        elif not certify:
            prev_sq = xf.dot(xf)
        np.subtract(z, dx, dx)
        x, dx = dx, x
        if check:
            gap = _relative_gap(gap_steps, g, p, dtp_sq, tau, mode)
            if gap <= gap_tol:
                break
        np.subtract(x, dx, dx)
        if certify:
            continue
        if k > 0:
            num, denom = math.sqrt(xf.dot(xf)), math.sqrt(prev_sq)
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


def _relative_gap(grad_steps, dif, p, dtp_sq, tau, mode):
    """fpg_prox's duality gap over the primal objective P(x), where
    x = z - dtp, dtp = tau*D^T p bit for bit and dtp_sq = ||dtp||^2.

    grad_steps write D x into dif, which the TV pass then overwrites. For
    such an x the gap is tau*(TV(x) - <Dx, p>) and P(x) is
    0.5*dtp_sq + tau*TV(x); the gap stays absolute where P(x) = 0.
    """
    _run(grad_steps)
    coupling = float(np.vdot(dif, p))  # before _tv_of_differences overwrites dif
    tv_x = _tv_of_differences(dif, mode)
    gap = tau * (tv_x - coupling)
    primal = 0.5 * float(dtp_sq) + tau * tv_x
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
    z, x, p = validate_signal(z), validate_signal(x, "x"), np.asarray(p)
    if np.iscomplexobj(p):
        raise ValueError("p: complex values are not admitted")
    p = np.asarray(p, dtype=np.float64)
    if x.shape != z.shape or p.shape != (z.ndim,) + z.shape:
        raise ValueError(f"shape mismatch: z {z.shape}, x {x.shape}, p {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("p: non-finite values are not admitted")
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
