"""Shrinkage functions and the closed-form approximate TV proximal operator.

The operator is S_tau(z) = W^T T(W z): analyse with the redundant Haar-like
frame, soft-threshold only the difference blocks at level 2*tau*sqrt(d),
synthesise back. The averaging blocks pass T unchanged, W^T W = I and soft
thresholding is the identity minus the projection onto the threshold ball,
so S_tau(z) = z - D^T P_tau(D z / (4d)) with D the stacked forward
differences and P_tau the projection onto [-tau, tau] (aniso) or onto the
per-location tau-ball (iso). That is exactly the first projected dual
step, from p = 0, of the FPG oracle in tvprox.exact. approx_prox analyses
with w_forward and fuses threshold and synthesis: it projects the
difference blocks in place and applies one difference adjoint, with no
sub-iterations; the averaging blocks are never synthesised.

The solvers bind S_tau once per solve with _bind_approx_prox, on fixed
buffers: each call runs approx_prox's ufunc calls, in the same order, as
C-level calls only, but for _project_ball when iso, and validates nothing.
Both end with the kernel calls of one builder, _synthesis_steps.
approx_prox validates its input through w_forward.
"""

import math
from dataclasses import dataclass

import numpy as np
# The clip ufunc, which ndarray.clip reaches only through numpy's Python wrapper
# _methods._clip: private API, taken once as operators takes scipy's csr_matvec.
from numpy._core.umath import clip as _clip

from .frame import CoeffStack, _adjoint_steps, _grad_steps, _run, w_forward
from .signal import check_array, check_nonnegative, check_positive
from .tv import check_mode


@dataclass(frozen=True)
class ProxParams:
    """Scaling parameter and TV flavour of the approximate prox.

    tau must be strictly positive and finite; the effective shrinkage
    threshold is 2*tau*sqrt(d), fixed by the frame scaling.
    """

    tau: float
    mode: str = "aniso"

    def __post_init__(self):
        check_positive("tau", self.tau)
        check_mode(self.mode)

    def threshold(self, d):
        return 2.0 * self.tau * math.sqrt(d)


def shrink_aniso(t, lam):
    """Scalar soft threshold max(|t| - lam, 0) * sign(t); 0 maps to 0.

    Vectorizes over numpy arrays elementwise.
    """
    check_nonnegative("threshold", lam)
    t = check_array("t", t)
    out = np.maximum(np.abs(t) - lam, 0.0) * np.sign(t)
    return float(out) if out.ndim == 0 else out

def shrink_iso(v, lam):
    """Group soft threshold max(||v|| - lam, 0) * v/||v||; 0-vector maps to 0.

    v holds one d-vector along its first axis; trailing axes vectorize
    over locations.
    """
    check_nonnegative("threshold", lam)
    v = check_array("v", v)
    norms = np.sqrt((v**2).sum(axis=0))
    safe = np.where(norms > 0.0, norms, 1.0)
    factor = np.maximum(norms - lam, 0.0) / safe
    return v * factor


def threshold_stack(u, lam, mode):
    """Soft-threshold the difference blocks of a stack; averaging blocks pass
    through untouched.

    This is the exact proximal map of the lifted functional tau*h_hat at
    threshold lam = 2*tau*sqrt(d).
    """
    check_nonnegative("threshold", lam)
    check_mode(mode)
    if mode == "aniso":
        dif = shrink_aniso(u.dif, lam)
    else:
        dif = shrink_iso(u.dif, lam)
    return CoeffStack(u.avg.copy(), dif)


def _project_ball(p, radius, mode, norms=None, tmp=None):
    """Project a stack of d difference blocks, in place, onto the dual
    feasible set: each entry onto [-radius, radius] (aniso) or each
    per-location d-vector onto the radius-ball (iso). t - P(t) is the
    matching soft threshold.

    aniso is one call of the clip ufunc _clip. iso works in two arrays of
    the signal shape: the per-location norms and the square of each later
    block. norms and tmp, when given, are caller buffers whose contents
    are dead (neither may alias p); when not, they are allocated. The
    arithmetic is the same either way. np.maximum takes its out as a
    keyword: numpy 2.4 deprecates a positional out for np.maximum and
    np.minimum only.
    """
    if mode == "aniso":
        return _clip(p, -radius, radius, p)
    norms = np.multiply(p[0], p[0], out=norms)
    for pj in p[1:]:
        norms += np.multiply(pj, pj, out=tmp)
    np.sqrt(norms, out=norms)
    # divided before the max, so an overflowed radius (inf) gives 0, not
    # inf / inf; division is monotone, so the result is the same otherwise
    if radius != 1.0:
        norms /= radius
    np.maximum(norms, 1.0, out=norms)
    p /= norms
    return p


def _synthesis_steps(z, dif, out):
    """Kernel calls (ufunc, a, b, out) that end S_tau once dif is projected:
    z - D^T dif / (2 sqrt d) into out, using dif up (dif[0] is the scratch)."""
    scale = np.array(1.0 / (2.0 * math.sqrt(len(dif))))
    return _adjoint_steps(dif, out, dif[0]) + [(np.multiply, out, scale, out), (np.subtract, z, out, out)]


def approx_prox(z, params):
    """Closed-form approximate TV proximal operator S_tau(z) = W^T T(W z).

    Analysis with w_forward, then threshold and synthesis in one step: the
    averaging blocks pass T unchanged and W^T W = I, so W^T T(u) equals
    z - W^T (u - T(u)), where u - T(u) is the projection P_lam of the
    difference blocks at lam = 2*tau*sqrt(d) and W^T on difference blocks
    is D^T / (2 sqrt d). The averaging blocks are never synthesised and no
    thresholded stack is built; O(n d), no iterations; w_forward validates z.
    """
    dif = w_forward(z).dif
    z = np.asarray(z, dtype=np.float64)
    out = np.empty(z.shape)
    _project_ball(dif, params.threshold(z.ndim), params.mode, norms=out)
    _run(_synthesis_steps(z, dif, out))
    return out


def _bind_approx_prox(z, outs, dif, tmp, params):
    """One kernel per buffer of outs that writes S_tau of what z holds into it.

    The analysis steps write w_forward's difference half into the stack
    dif; after the projection (iso: in out and tmp, a dead signal-sized
    buffer) the _synthesis_steps of out run. The scalar operands are 0-d
    arrays bound once. Nothing is validated: the caller checks the iterates.
    """
    d, mode = z.ndim, params.mode
    radius = params.threshold(d)
    lo, hi = np.array(-radius), np.array(radius)
    analysis = _grad_steps(z, dif) + [(np.multiply, dif, np.array(1.0 / (2.0 * math.sqrt(d))), dif)]

    def bind(out):
        synthesis = _synthesis_steps(z, dif, out)

        def prox():
            for ufunc, a, b, o in analysis:
                ufunc(a, b, o)
            if mode == "aniso":
                _clip(dif, lo, hi, dif)
            else:
                _project_ball(dif, radius, mode, out, tmp)
            for ufunc, a, b, o in synthesis:
                ufunc(a, b, o)

        return prox

    return [bind(out) for out in outs]
