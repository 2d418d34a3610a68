"""Redundant Haar-like frame W and the one slicing difference pair.

W stacks, per axis j, an averaging block A_j z = z + z_{+1} and a
difference block D_j z = z - z_{+1}, scaled by 1/(2 sqrt d). The
difference pair _grad / _grad_adjoint stacks the d difference blocks, one
contiguous subtraction per axis, with circular or free boundaries. tv,
the FPG oracle and the approximate prox's synthesis use it directly, and
W is defined on it through A_j = 2I - D_j, so w_forward / w_adjoint carry
no stencil of their own.

Under circular boundaries W^T W = I exactly: w_adjoint(w_forward(z)) == z.
The approximate prox analyses with w_forward.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .signal import validate_signal


@dataclass(frozen=True)
class CoeffStack:
    """Frame coefficients of a d-dimensional signal.

    avg, dif: arrays of shape (d, *signal_shape) holding the scaled
    averaging and difference blocks, one block per axis.
    """

    avg: np.ndarray
    dif: np.ndarray

    def __post_init__(self):
        if self.avg.shape != self.dif.shape:
            raise ValueError("avg/dif block shapes differ")
        if self.avg.shape[0] != self.avg.ndim - 1:
            raise ValueError(f"expected {self.avg.ndim - 1} blocks, got {self.avg.shape[0]}")

    @property
    def d(self):
        return self.avg.shape[0]

    @property
    def signal_shape(self):
        return self.avg.shape[1:]

    def copy(self):
        return CoeffStack(self.avg.copy(), self.dif.copy())


@lru_cache(maxsize=64)
def _axis_slices(shape):
    """Per-axis (stride, first, last, penult) of a C-ordered signal shape:
    the flat distance between neighbours along the axis, and index tuples
    of the first, last and second-to-last slab along it."""
    full = (slice(None),) * len(shape)

    def slab(j, sl):
        return full[:j] + (sl,) + full[j + 1 :]

    return tuple(
        (math.prod(shape[j + 1 :]), slab(j, slice(0, 1)), slab(j, slice(-1, None)), slab(j, slice(-2, -1)))
        for j in range(len(shape))
    )


def _grad(x, boundary="circular", out=None):
    """Forward differences D x stacked over axes, shape (d, *x.shape).

    out[j]_i = x_i - x_{i+1} along axis j. circular: the last sample pairs
    with the first; free: the last difference along each axis is zero.
    Writes into `out` (C-contiguous) when given.

    Each axis is one contiguous subtraction over the flattened signal at
    the axis stride, after which the last slab, where that pairing crosses
    a line end, is overwritten with its boundary value.
    """
    if out is None:
        out = np.empty((x.ndim,) + x.shape, dtype=np.float64)
    xf = x.reshape(-1)
    for j, (s, first, last, _) in enumerate(_axis_slices(x.shape)):
        gj = out[j]
        gf = gj.reshape(-1)
        np.subtract(xf[:-s], xf[s:], out=gf[:-s])
        if boundary == "circular":
            np.subtract(x[last], x[first], out=gj[last])
        else:
            gj[last] = 0.0
    return out


def _grad_adjoint(p, boundary="circular", out=None):
    """Exact adjoint of _grad: sum over axes of p[j]_i - p[j]_{i-1}.

    circular: p[j]_{-1} wraps to the last sample; free: the last sample of
    p[j] is ignored and p[j]_{-1} is zero. Writes into `out` (C-contiguous)
    when given. Like _grad, each axis is one contiguous subtraction plus a
    fix of its first slab (and, for free, its last).
    """
    shape = p.shape[1:]
    if out is None:
        out = np.empty(shape, dtype=np.float64)
    work = out  # axis 0 writes out directly; later axes go through one scratch array
    for j, (s, first, last, penult) in enumerate(_axis_slices(shape)):
        pj = p[j]
        pf = pj.reshape(-1)
        if j == 1:
            work = np.empty(shape, dtype=np.float64)
        np.subtract(pf[s:], pf[:-s], out=work.reshape(-1)[s:])
        if boundary == "circular":
            np.subtract(pj[first], pj[last], out=work[first])
        else:
            work[first] = pj[first]
            np.negative(pj[penult], out=work[last])
        if j > 0:
            out += work
    return out


def w_forward(z):
    """Analysis transform: stack A_j z and D_j z over axes, scaled by 1/(2 sqrt d).

    D_j z is the circular difference block of _grad and A_j = 2I - D_j.
    The difference blocks are scaled after the subtraction, the rounding
    that approx_prox's output depends on.
    """
    z = validate_signal(z)
    scale = 1.0 / (2.0 * np.sqrt(z.ndim))
    dif = _grad(z)
    dif *= scale
    return CoeffStack(2.0 * scale * z - dif, dif)


def w_adjoint(u):
    """Synthesis transform, exact adjoint of w_forward.

    With A_j^T = 2I - D_j^T, W^T u = scale * (D^T (dif - avg) + 2 sum_j avg_j).
    Satisfies w_adjoint(w_forward(z)) == z (tight frame under circular
    boundaries).
    """
    scale = 1.0 / (2.0 * np.sqrt(u.d))
    out = _grad_adjoint(u.dif - u.avg)
    out += 2.0 * u.avg.sum(axis=0)
    out *= scale
    return out


def stack_norm(u):
    """l2 norm of all 2d blocks of a coefficient stack."""
    return float(np.sqrt(np.sum(u.avg**2) + np.sum(u.dif**2)))
