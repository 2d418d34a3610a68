"""Redundant Haar-like frame W and the one slicing difference pair.

W stacks, per axis j, an averaging block A_j z = z + z_{+1} and a
difference block D_j z = z - z_{+1}, scaled by 1/(2 sqrt d). The
difference pair _grad / _grad_adjoint stacks the d difference blocks, one
contiguous subtraction per axis, with circular or free boundaries. tv,
the FPG oracle and the approximate prox's synthesis use it directly, and
W is defined on it through A_j = 2I - D_j, so w_forward / w_adjoint carry
no stencil of their own.

The stencil lives in two step builders, _grad_steps and _adjoint_steps.
They build the slab views of the pair for given buffers once and return
the kernel calls as (ufunc, a, b, out) tuples. _grad / _grad_adjoint build
and run them once per call; fpg_prox, and the solvers' iterate ring over
all its slots as leading batch axes, build them once and run only the calls.

Under circular boundaries W^T W = I exactly: w_adjoint(w_forward(z)) == z.
The approximate prox analyses with w_forward.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .signal import validate_signal

BOUNDARIES = ("circular", "free")
# the free boundary's operands, as 0-d arrays that numpy does not convert again on every call
_ZERO, _ONE, _MINUS_ONE = np.array(0.0), np.array(1.0), np.array(-1.0)


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


@lru_cache(maxsize=64)
def _axis_slices(shape):
    """Per-axis (stride, first, last, penult) of a C-ordered signal shape:
    the flat distance between neighbours along the axis, and index tuples
    of the first, last and second-to-last slab along it. Each slab index
    is a pair: into the signal, and into block j of a (d, *shape) stack.
    Past 1-D it is an integer, dropping the axis, so a 2-D signal's column
    is a 1-D view, which numpy runs without copying it through its buffer."""
    full = (slice(None),) * len(shape)

    def slab(j, k):
        index = full[:j] + (k if len(shape) > 1 else slice(k, k + 1 or None),) + full[j + 1 :]
        return index, (j,) + index

    return tuple(
        (math.prod(shape[j + 1 :]), slab(j, 0), slab(j, -1), slab(j, -2))
        for j in range(len(shape))
    )


def _grad_steps(x, out, boundary, batch=0):
    """Kernel calls (ufunc, a, b, out) that write D x into `out`.

    out[j]_i = x_i - x_{i+1} along axis j. circular: the last sample pairs
    with the first; free: the last difference along each axis is zero.
    Each axis is one contiguous subtraction over the flattened signal at
    the axis stride, after which the last slab, where that pairing crosses
    a line end, is overwritten with its boundary value (the free zero as
    the product 0 * 0). `out` has shape (*lead, d, *signal_shape), lead
    being the first `batch` axes of `x`, each call covering every signal
    of that stack with the bits of one call per signal. When `x` and `out`
    are C-contiguous, every array a, b and out is a view of one of them,
    so the calls can be run again after those buffers change; the flat
    view of any other layout is a copy, read once.
    """
    lead, shape = x.shape[:batch], x.shape[batch:]
    xf, of = x.reshape(lead + (-1,)), out.reshape(lead + (len(shape), -1))
    steps = []
    for j, (s, (first, _), (last, block_last), _) in enumerate(_axis_slices(shape)):
        steps.append((np.subtract, xf[..., :-s], xf[..., s:], of[..., j, :-s]))
        if boundary == "circular":
            steps.append((np.subtract, x[(...,) + last], x[(...,) + first], out[(...,) + block_last]))
        else:
            steps.append((np.multiply, _ZERO, _ZERO, out[(...,) + block_last]))
    return steps


def _adjoint_steps(p, out, scratch, boundary):
    """Kernel calls (ufunc, a, b, out) that write D^T p into `out`.

    D^T p is the sum over axes of p[j]_i - p[j]_{i-1}. circular: p[j]_{-1}
    wraps to the last sample; free: the last sample of p[j] is ignored and
    p[j]_{-1} is zero. Like _grad_steps, each axis is one contiguous
    subtraction plus a fix of its first slab (and, for free, its last);
    axis 0 writes `out` directly and every later axis goes through
    `scratch` and is added to `out`. `out` and `scratch` are C-contiguous
    arrays of the signal shape; `scratch` is unused when d = 1. `scratch`
    may be p[0], which the axis-0 calls read before any later axis writes
    it (the calls then use up p), or a block of a stack whose contents are
    dead; it must not alias `out` or p[1:]. Copy and negation are
    multiplications by 1 and -1, which are exact.
    """
    pf = p.reshape(len(p), -1)
    steps = []
    work = out
    for j, (s, (first, block_first), (last, block_last), (_, block_penult)) in enumerate(_axis_slices(out.shape)):
        steps.append((np.subtract, pf[j, s:], pf[j, :-s], work.reshape(-1)[s:]))
        if boundary == "circular":
            steps.append((np.subtract, p[block_first], p[block_last], work[first]))
        else:
            steps.append((np.multiply, p[block_first], _ONE, work[first]))
            steps.append((np.multiply, p[block_penult], _MINUS_ONE, work[last]))
        if j > 0:
            steps.append((np.add, out, work, out))
        work = scratch
    return steps


def _run(steps):
    """Make the kernel calls of _grad_steps or _adjoint_steps, in order."""
    for ufunc, a, b, out in steps:
        ufunc(a, b, out)


def _grad(x, boundary="circular"):
    """Forward differences D x stacked over axes, shape (d, *x.shape).

    See _grad_steps for the stencil.
    """
    out = np.empty((x.ndim,) + x.shape)
    _run(_grad_steps(x, out, boundary))
    return out


def _grad_adjoint(p, boundary="circular"):
    """Exact adjoint of _grad: sum over axes of p[j]_i - p[j]_{i-1}.

    See _adjoint_steps for the stencil.
    """
    shape = p.shape[1:]
    out = np.empty(shape)
    scratch = np.empty(shape) if len(shape) > 1 else None
    _run(_adjoint_steps(p, out, scratch, boundary))
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

