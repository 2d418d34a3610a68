"""Redundant Haar-like frame W and the one slicing difference pair.

W stacks, per axis j, an averaging block A_j z = z + z_{+1} and a
difference block D_j z = z - z_{+1}, scaled by 1/(2 sqrt d). The
difference pair _grad / _grad_adjoint stacks the d difference blocks, one
contiguous subtraction per axis, with circular boundaries, the one stencil
of the package. tv, the FPG oracle and the approximate prox's synthesis use
it directly, and W is defined on it through A_j = 2I - D_j, so w_forward /
w_adjoint carry no stencil of their own.

The stencil lives in two step builders, _grad_steps and _adjoint_steps.
They build the slab views of the pair for given buffers once and return
the kernel calls as (ufunc, a, b, out) tuples. _grad / _grad_adjoint build
and run them once per call; fpg_prox, and the solvers' iterate ring over
all its slots as leading batch axes, build them once and run only the calls.

W^T W = I exactly: w_adjoint(w_forward(z)) == z.
The approximate prox analyses with w_forward.

fpg_prox uses the second core on large signals. From SPLIT_MIN samples
on (a 1024^2 image, not 512^2), on two CPUs (_row_halves), it runs each
phase of its iteration as two halves of the signal's rows at once: the
step builders' rows= argument gives the calls that write a range of rows,
and the split step (_both, first calls, second calls, None) runs the
second half on one persistent worker thread, kept off the CPU of the
thread that started it, and the first on the caller's. numpy releases
the GIL inside the kernels, so both cores work, and each sample gets the
same calls on the same inputs, so the same bits. A split step is still
one (ufunc, a, b, out) tuple, so every loop runs split and whole step
lists alike.
"""

import _queue
import contextvars
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .signal import validate_signal

# fpg_prox runs each phase of a signal of at least this many samples as two halves (_row_halves)
SPLIT_MIN = 1 << 20


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
    """Per-axis (stride, first, last) of a C-ordered signal shape: the flat
    distance between neighbours along the axis, and index tuples of the
    first and last slab along it (block j of a (d, *shape) stack prefixes
    j). Past 1-D it is an integer, dropping the axis, so a 2-D signal's
    column is a 1-D view, which numpy runs without copying it through its
    buffer."""
    full = (slice(None),) * len(shape)

    def slab(j, k):
        return full[:j] + (k if len(shape) > 1 else slice(k, k + 1 or None),) + full[j + 1 :]

    return tuple(
        (math.prod(shape[j + 1 :]), slab(j, 0), slab(j, -1))
        for j in range(len(shape))
    )


def _row_halves(shape):
    """The row ranges ((0, m), (m, rows)) along axis 0 of the two halves
    that fpg_prox runs each phase of a signal of `shape` as, from SPLIT_MIN
    samples on when halves run at once (_splits); else None."""
    m = shape[0] // 2
    if math.prod(shape) < SPLIT_MIN or m == 0 or not _splits():
        return None
    return (0, m), (m, shape[0])


def _splits():
    """Whether halves run at once: when the process may run on two or more
    CPUs. CPU affinity is all it sees: neither a cgroup's CPU quota nor the
    thread variables (OMP_NUM_THREADS and its kin) hold the worker back."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus >= 2


_tasks = None  # the worker's queue of (context, calls, done), made with it on the first split step
_starting = threading.Lock()


def _both(first, second, _):
    """Run a split step: the calls of the second half on the worker, under a
    copy of the caller's context, and those of the first here. An exception
    in either half is raised here once both have ended (the first half's,
    if both raise)."""
    done = _queue.SimpleQueue()
    (_tasks or _start()).put((contextvars.copy_context(), second, done))
    try:
        _run(first)
    finally:
        error = done.get()
    if error is not None:
        raise error


def _start():
    """Start the worker: one daemon thread, so it never holds up exit, on
    the CPUs but the starting caller's (_other_cpus)."""
    global _tasks
    with _starting:
        if _tasks is None:
            tasks = _queue.SimpleQueue()
            threading.Thread(target=_work, args=(tasks, _other_cpus()), name="tvprox-half", daemon=True).start()
            _tasks = tasks
    return _tasks


def _other_cpus():
    """The CPUs the process may run on but the one the calling thread runs
    on, or None where that is not known or none is left. A cpuset that does
    not balance load keeps a new thread on its creator's CPU, where the two
    halves would take turns instead of running at once."""
    try:
        with open("/proc/thread-self/stat") as f:
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])  # field 39, after the command name
        return os.sched_getaffinity(0) - {cpu} or None
    except (OSError, ValueError, IndexError):
        return None


def _work(tasks, cpus):
    """The worker's loop, on `cpus` when given: run each half given, and
    report how it ended."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)  # this thread only
        except OSError:
            pass  # the cpuset changed since: the halves run anyway, perhaps in turns
    while True:
        context, calls, done = tasks.get()
        error = None
        try:
            context.run(_run, calls)
        except BaseException as err:  # raised again in the caller
            error = err
        del context, calls  # hold no operand once the half has run
        done.put(error)
        del done, error


def _forget_worker():
    global _tasks, _starting
    _tasks, _starting = None, threading.Lock()  # a forked child has no worker


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _grad_steps(x, out, batch=0, rows=None):
    """Kernel calls (ufunc, a, b, out) that write D x into `out`.

    out[j]_i = x_i - x_{i+1} along axis j, the last sample pairing with
    the first (circular boundaries). Each axis is one contiguous
    subtraction over the flattened signal at the axis stride, after which
    the last slab, where that pairing crosses a line end, is overwritten
    with its wrapped difference. `out` has shape (*lead, d, *signal_shape),
    lead being the first `batch` axes of `x`, each call covering every
    signal of that stack with the bits of one call per signal. When `x` and `out`
    are C-contiguous, every array a, b and out is a view of one of them,
    so the calls can be run again after those buffers change; the flat
    view of any other layout is a copy, read once.

    rows=(r0, r1) keeps the part of each call that writes rows r0:r1 along
    the signal's axis 0, in the same order for each sample: fpg_prox runs
    each phase of a large signal as two such halves at once. They read x
    up to row r1 (and row 0 for the last row).
    """
    lead, shape = x.shape[:batch], x.shape[batch:]
    r0, r1 = rows or (0, shape[0])
    if r0 == r1:
        return []
    size, row = math.prod(shape), math.prod(shape[1:])
    xf, of = x.reshape(lead + (-1,)), out.reshape(lead + (len(shape), -1))
    steps = []
    for j, (s, first, last) in enumerate(_axis_slices(shape)):
        lo, hi = r0 * row, min(r1 * row, size - s)
        if lo < hi:
            steps.append((np.subtract, xf[..., lo:hi], xf[..., lo + s:hi + s], of[..., j, lo:hi]))
        if j == 0 and r1 < shape[0]:
            continue  # axis 0's last slab is the last row
        if j and rows:
            first, last = (slice(r0, r1),) + first[1:], (slice(r0, r1),) + last[1:]
        steps.append((np.subtract, x[(...,) + last], x[(...,) + first], out[(..., j) + last]))
    return steps


def _adjoint_steps(p, out, scratch, rows=None):
    """Kernel calls (ufunc, a, b, out) that write D^T p into `out`.

    D^T p is the sum over axes of p[j]_i - p[j]_{i-1}, p[j]_{-1} wrapping
    to the last sample. Like _grad_steps, each axis is one contiguous
    subtraction plus a fix of its first slab; axis 0 writes `out` directly
    and every later axis goes through `scratch` and is added to `out`.
    `out` and `scratch` are C-contiguous arrays of the signal shape;
    `scratch` is unused when d = 1. `scratch` may be p[0], which the axis-0
    calls read before any later axis writes it (the calls then use up p),
    or a block of a stack whose contents are dead; it must not alias `out`
    or p[1:]. rows=(r0, r1) keeps, as for _grad_steps, the part that writes
    rows r0:r1 of out (and of scratch); it reads p from row r0 - 1 (and
    the last row of axis 0 for its first).
    """
    r0, r1 = rows or (0, out.shape[0])
    if r0 == r1:
        return []
    row = math.prod(out.shape[1:])
    pf = p.reshape(len(p), -1)
    steps = []
    work = out
    for j, (s, first, last) in enumerate(_axis_slices(out.shape)):
        lo, hi = max(r0 * row, s), r1 * row
        if lo < hi:
            steps.append((np.subtract, pf[j, lo:hi], pf[j, lo - s:hi - s], work.reshape(-1)[lo:hi]))
        if j and rows:
            first, last = (slice(r0, r1),) + first[1:], (slice(r0, r1),) + last[1:]
        if j or r0 == 0:  # axis 0's first slab is the first row
            steps.append((np.subtract, p[(j,) + first], p[(j,) + last], work[first]))
        if j > 0:
            o, w = (out, work) if rows is None else (out[r0:r1], work[r0:r1])
            steps.append((np.add, o, w, o))
        work = scratch
    return steps


def _run(steps):
    """Make the kernel calls (ufunc, a, b, out) of a step list, in order."""
    for ufunc, a, b, out in steps:
        ufunc(a, b, out)


def _grad(x):
    """Forward differences D x stacked over axes, shape (d, *x.shape).

    See _grad_steps for the stencil.
    """
    out = np.empty((x.ndim,) + x.shape)
    _run(_grad_steps(x, out))
    return out


def _grad_adjoint(p):
    """Exact adjoint of _grad: sum over axes of p[j]_i - p[j]_{i-1}.

    See _adjoint_steps for the stencil.
    """
    shape = p.shape[1:]
    out = np.empty(shape)
    scratch = np.empty(shape) if len(shape) > 1 else None
    _run(_adjoint_steps(p, out, scratch))
    return out


def w_forward(z):
    """Analysis transform: stack A_j z and D_j z over axes, scaled by 1/(2 sqrt d).

    D_j z is the difference block of _grad and A_j = 2I - D_j.
    The difference blocks are scaled after the subtraction, the rounding
    that approx_prox's output depends on.
    """
    z = validate_signal(z, "z")
    scale = 1.0 / (2.0 * np.sqrt(z.ndim))
    dif = _grad(z)
    dif *= scale
    return CoeffStack(2.0 * scale * z - dif, dif)


def w_adjoint(u):
    """Synthesis transform, exact adjoint of w_forward.

    With A_j^T = 2I - D_j^T, W^T u = scale * (D^T (dif - avg) + 2 sum_j avg_j).
    Satisfies w_adjoint(w_forward(z)) == z (a tight frame).
    """
    scale = 1.0 / (2.0 * np.sqrt(u.d))
    out = _grad_adjoint(u.dif - u.avg)
    out += 2.0 * u.avg.sum(axis=0)
    out *= scale
    return out

