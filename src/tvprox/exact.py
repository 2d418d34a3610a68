"""Ground-truth TV proximal oracles.

fpg_prox runs an accelerated projected-gradient method on the dual of the
TV-prox problem (per-entry or per-location dual-ball constraints for the
anisotropic / isotropic case), with one difference and one adjoint pass of
the shared slicing kernel per iteration. Its first iteration from p = 0 is
the closed-form approximate prox of tvprox.shrinkage; every solve stops on
its certified relative duality gap, and duality_gap certifies its output
with its final dual. Every difference is circular, as in the frame.
"""

import math
import sys
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .frame import _adjoint_steps, _both, _grad, _grad_adjoint, _grad_steps, _row_halves, _run
from .shrinkage import _clip, _project_ball
from .signal import _aligned, check_array, check_choice, check_count, check_positive, validate_signal
from .tv import _tv_of_differences, check_mode


@dataclass
class OracleConfig:
    """Iteration budget and stopping rule of the dual FPG oracle.

    fpg_prox stops once the duality gap relative to the primal objective is
    at most tol, or after max_iter iterations. restart turns on momentum
    restarts (O'Donoghue and Candes, 2015).
    """

    max_iter: int = 500
    tol: float = 1e-10
    mode: str = "aniso"
    restart: bool = False

    def __post_init__(self):
        check_count("max_iter", self.max_iter)
        check_positive("tol", self.tol)
        check_mode(self.mode)
        check_choice("restart", self.restart, (False, True))


def fpg_prox(z, tau, cfg=None, return_info=False):
    """TV proximal operator via fast projected gradient on the dual.

    Minimizes 0.5*||x - z||^2 + tau*tv(x, mode), with tv's circular
    differences D, as x = z - tau*D^T p with p constrained to the dual unit
    balls. Dual step 1/(4d), zero dual initialization, standard momentum,
    restarted when cfg.restart whenever <q - p+, p+ - p> > 0 (the gradient
    scheme of O'Donoghue and Candes, 2015). Every 50 iterations and at max_iter it stops when the duality
    gap is at most cfg.tol times the primal objective P(x).

    Hitting max_iter first warns, unless return_info asks for (x, info)
    with "iterations", "gap" (the relative gap of the last check),
    "converged" and "p", the final projected dual iterate: feasible and
    with x = z - tau*D^T p bit for bit, for duality_gap to certify x. That
    identity makes the gap tau*(TV(x) - <Dx, p>), one difference pass into
    the spare dual buffer.

    One adjoint per iteration: D^T is linear, so the primal point
    z - tau*D^T q of the extrapolated dual q = p + beta*(p - p_prev) is
    x + beta*(x - x_prev), and only x = z - tau*D^T p is formed.

    The working set is the dual stacks p, q and g and two primal buffers,
    3d + 2 arrays of the signal's size (3d + 3 when iso, with the
    projection's scratch), allocated once per call, each starting on a
    64-byte cache line up to 1 MiB (signal._aligned), and updated in
    place. One primal buffer holds x, the other dx = x - x_prev,
    extrapolated in place to the primal point of q and, once the
    difference pass has read it, overwritten with tau*D^T p. x is then
    formed over it and the new dx over the old x, so the primal buffers
    swap roles every iteration, as p and g do; the gap's ||tau*D^T p||^2
    is taken first. The iso projection works in dx and the scratch.

    The iteration's calls are bound once per call, one set per parity of
    the swaps, as lists of five phases (_phase_calls) on views of the
    working set, with the scalar operands as 0-d arrays: the extrapolation;
    the rest of the dual step through p+ - p; the momentum, adjoint and
    scale; z - dx; and x - dx. The restart and gap dots stay whole-array
    ndarray.dot calls on the caller's thread, between the phases. Below
    frame.SPLIT_MIN samples an iteration makes C-level calls only (ufuncs
    with positional outs, ndarray.dot, the clip ufunc through a partial
    when aniso), but for _project_ball when iso and the gap check every 50
    iterations. From it on, on two CPUs and when aniso, each phase (and
    the gap's difference pass) runs as two halves of the rows at once, the
    second on frame's worker thread: five handoffs an iteration, the same
    working set, and the same bits, as no phase reads the rows of its
    outputs that the other half writes. An iso solve runs whole: its
    projection keeps its norms in dx, whose rows the difference pass reads
    across the halves.
    """
    z = validate_signal(z, "z")
    check_positive("tau", tau)
    cfg = cfg or OracleConfig()
    max_iter, tol, restart, mode = cfg.max_iter, cfg.tol, cfg.restart, cfg.mode
    d, aniso = z.ndim, mode == "aniso"
    step, tau_, beta_, lo, hi = (np.array(v, dtype=np.float64) for v in (1.0 / (4.0 * d * tau), tau, 0.0, -1.0, 1.0))

    p, q, g = _aligned((d,) + z.shape, zero=True), _aligned((d,) + z.shape, zero=True), _aligned((d,) + z.shape)
    # C order, whatever z's layout: the gap reads tau*D^T p through a flat
    # view, and reshape(-1) of another layout is a copy.
    x, dx = _aligned(z.shape), _aligned(z.shape, zero=True)
    x[...] = z
    halves = _row_halves(z.shape) if aniso else None
    tmp = None if aniso else _aligned(z.shape)
    # Iteration k writes D dx into the buffer g holds (g on even k, p on
    # odd k), swaps it into p and reads D^T p from the same buffer into dx,
    # through block 0 of the other dual buffer, by then the spare g. x and
    # dx start in their own buffers on even k and swapped on odd k; the gap
    # steps write D x, by then in dx's buffer, into the spare g. The dots
    # read p+ - p (restart test) and tau*D^T p (gap) through flat views.
    phases, scalars = [], (step, tau_, beta_, lo, hi)
    for pb, gb, xb, dxb in ((p, g, x, dx), (g, p, dx, x)):
        if halves:
            first, second = (_phase_calls(z, pb, gb, xb, dxb, q, r, scalars, cfg, None) for r in halves)
            calls = [[(_both, a, b, None)] for a, b in zip(first, second)]
            gap_steps = [(_both, *(_grad_steps(dxb, pb, rows=r) for r in halves), None)]
        else:
            calls = _phase_calls(z, pb, gb, xb, dxb, q, None, scalars, cfg, tmp)
            gap_steps = _grad_steps(dxb, pb)
        extrapolation, ascent, descent, primal, difference = calls
        phases.append((extrapolation + ascent, pb.reshape(-1), descent, dxb.reshape(-1), primal,
                       gap_steps, difference))
    qf, t_prev = q.reshape(-1), 1.0
    for k in range(max_iter):
        ascent, pf, descent, dxf, primal, gap_steps, difference = phases[k % 2]
        # Projected dual step at q; its primal point is x + beta*(x - x_prev).
        # Then p+ - p into p, whose old dual is not read again.
        for ufunc, a, b, out in ascent:
            ufunc(a, b, out)
        t = (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev)) / 2.0
        beta = (t_prev - 1.0) / t
        if restart and qf.dot(pf) > 0.0:  # when <q - p+, p+ - p> > 0
            t, beta = 1.0, 0.0
        beta_[()] = beta
        # q = p+ + beta*(p+ - p), then tau*D^T p+ into dx
        for ufunc, a, b, out in descent:
            ufunc(a, b, out)
        p, g, t_prev = g, p, t
        iters = k + 1
        check = iters % 50 == 0 or iters == max_iter
        if check:
            dtp_sq = dxf.dot(dxf)
        for ufunc, a, b, out in primal:
            ufunc(a, b, out)
        x, dx = dx, x
        if check:
            gap = _relative_gap(gap_steps, g, p, dtp_sq, tau, mode)
            if gap <= tol:
                break
        for ufunc, a, b, out in difference:
            ufunc(a, b, out)
    if return_info:
        return x, {"iterations": iters, "gap": gap, "converged": gap <= tol, "p": p}
    if not gap <= tol:  # a NaN gap included
        warnings.warn(f"fpg_prox: max_iter={max_iter} reached, achieved relative gap {gap:.3e}", RuntimeWarning)
    return x


def _phase_calls(z, p, g, x, dx, q, rows, scalars, cfg, tmp):
    """The calls (ufunc, a, b, out) of fpg_prox's five phases for one
    parity of the swaps: the extrapolation, the rest of the dual step
    through p+ - p (iso: projecting with the norms in dx and the squares
    in tmp), the momentum, adjoint and scale, z - dx, and x - dx.

    rows=(r0, r1), aniso only, keeps the calls that write rows r0:r1 along
    axis 0, each sample getting those of the whole phase in the same
    order. A phase does not read the rows of its outputs that the other
    half writes, so the two halves of each phase run at once.
    """
    step, tau_, beta_, lo, hi = scalars
    r = slice(*rows) if rows else slice(None)
    s = (slice(None), r)
    xr, dxr, gs, ps, qs = x[r], dx[r], g[s], p[s], q[s]
    project = (partial(_clip, gs), lo, hi, gs) if cfg.mode == "aniso" else \
        (partial(_project_ball, g, 1.0), cfg.mode, dx, tmp)
    ascent = _grad_steps(dx, g, rows=rows) + [
        (np.multiply, gs, step, gs), (np.add, gs, qs, gs), project, (np.subtract, gs, ps, ps)]
    if cfg.restart:
        ascent.append((np.subtract, qs, gs, qs))
    descent = [(np.multiply, ps, beta_, qs), (np.add, qs, gs, qs),
               *_adjoint_steps(g, dx, p[0], rows=rows), (np.multiply, dxr, tau_, dxr)]
    return ([(np.multiply, dxr, beta_, dxr), (np.add, dxr, xr, dxr)], ascent, descent,
            [(np.subtract, z[r], dxr, dxr)], [(np.subtract, dxr, xr, xr)])


def _relative_gap(grad_steps, dif, p, dtp_sq, tau, mode):
    """fpg_prox's duality gap over the primal objective P(x), where
    x = z - dtp, dtp = tau*D^T p bit for bit and dtp_sq = ||dtp||^2.

    grad_steps write D x into dif, which the TV pass then overwrites. For
    such an x the gap is tau*(TV(x) - <Dx, p>) and P(x) is
    0.5*dtp_sq + tau*TV(x); the gap stays absolute where P(x) = 0 (both
    terms are). It is NaN, which no tolerance admits, where dtp_sq or P(x)
    overflows or falls below the normal range, as the gap's terms then
    round to 0 however far x is from the prox.
    """
    _run(grad_steps)
    coupling = float(np.vdot(dif, p))  # before _tv_of_differences overwrites dif
    tv_x = _tv_of_differences(dif, mode)
    gap = tau * (tv_x - coupling)
    if dtp_sq == tv_x == 0.0:
        return gap
    primal = 0.5 * float(dtp_sq) + tau * tv_x
    normal = sys.float_info.min
    return gap / primal if normal <= dtp_sq < math.inf and normal <= primal < math.inf else math.nan


def duality_gap(z, x, p, tau, mode="aniso"):
    """Duality gap P(x) - D(p) of a candidate prox output x and a dual p.

    P(x) = 0.5*||x - z||^2 + tau*TV(x) and
    D(p) = 0.5*||z||^2 - 0.5*||z - tau*D^T p||^2. For any x and any feasible
    p (|entries| <= 1 for aniso, per-location norms <= 1 for iso), with
    x* = prox(z): P(x) - P(x*) <= gap and 0.5*||x - x*||^2 <= gap. Evaluated
    in one difference and one adjoint pass as the equal sum of two terms
    nonnegative for feasible p, 0.5*||x - (z - tau*D^T p)||^2 and
    tau*(TV(x) - <Dx, p>), it can read slightly below zero at convergence
    from rounding (down to about -2e-16 * (1 + P(x)) on FPG outputs).
    """
    z = validate_signal(z, "z")
    x, p = check_array("x", x, z.shape), check_array("p", p, (z.ndim,) + z.shape)
    check_positive("tau", tau)
    check_mode(mode)
    r = x - (z - tau * _grad_adjoint(p))  # z - tau*D^T p as fpg_prox forms x
    g = _grad(x)
    coupling = float(np.vdot(g, p))  # before _tv_of_differences overwrites g
    return 0.5 * float(np.vdot(r, r)) + tau * (_tv_of_differences(g, mode) - coupling)

