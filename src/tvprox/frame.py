"""Redundant Haar-like frame: per-axis averaging/difference convolutions.

The frame kernels use circular (periodic) boundaries, which makes the
analysis / synthesis pair an exact tight frame: w_adjoint(w_forward(z)) == z.
The forward stencils pair sample i with its +1 neighbour along the axis.

The per-axis kernels and the w_forward / w_adjoint pair are the reference
definition of the frame; the approximate prox analyses with w_forward.
The hot paths (tv, the FPG oracle, the approximate prox's synthesis)
share one slicing difference pair, _grad / _grad_adjoint, which stacks
the d difference blocks and also supports free boundaries.
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


def _check_axis(x, j):
    if not 0 <= j < x.ndim:
        raise ValueError(f"axis {j} invalid for {x.ndim}-d signal")


def avg_axis(x, j):
    """Circular averaging convolution along axis j: out_i = x_i + x_{i+1}."""
    x = np.asarray(x, dtype=np.float64)
    _check_axis(x, j)
    return x + np.roll(x, -1, axis=j)


def diff_axis(x, j):
    """Circular difference convolution along axis j: out_i = x_i - x_{i+1}."""
    x = np.asarray(x, dtype=np.float64)
    _check_axis(x, j)
    return x - np.roll(x, -1, axis=j)


def avg_axis_adjoint(t, j):
    """Exact adjoint of avg_axis: out_i = t_i + t_{i-1} (circular)."""
    t = np.asarray(t, dtype=np.float64)
    _check_axis(t, j)
    return t + np.roll(t, 1, axis=j)


def diff_axis_adjoint(t, j):
    """Exact adjoint of diff_axis: out_i = t_i - t_{i-1} (circular)."""
    t = np.asarray(t, dtype=np.float64)
    _check_axis(t, j)
    return t - np.roll(t, 1, axis=j)


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
    with the first (out[j] == diff_axis(x, j)); free: the last difference
    along each axis is zero. Writes into `out` (C-contiguous) when given.

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
    """Analysis transform: stack A_j z and D_j z over axes, scaled by 1/(2 sqrt d)."""
    z = validate_signal(z)
    d = z.ndim
    scale = 1.0 / (2.0 * np.sqrt(d))
    avg = np.stack([avg_axis(z, j) for j in range(d)]) * scale
    dif = np.stack([diff_axis(z, j) for j in range(d)]) * scale
    return CoeffStack(avg, dif)


def w_adjoint(u):
    """Synthesis transform, exact adjoint of w_forward.

    Satisfies w_adjoint(w_forward(z)) == z (tight frame under circular
    boundaries).
    """
    d = u.d
    scale = 1.0 / (2.0 * np.sqrt(d))
    out = np.zeros(u.signal_shape, dtype=np.float64)
    for j in range(d):
        out += avg_axis_adjoint(u.avg[j], j)
        out += diff_axis_adjoint(u.dif[j], j)
    return out * scale


def stack_norm(u):
    """l2 norm of all 2d blocks of a coefficient stack."""
    return float(np.sqrt(np.sum(u.avg**2) + np.sum(u.dif**2)))
