"""Test oracles of the TV prox: the two kinds of FPG solve that the oracle
tests run side by side (an unrestarted one, as every budgeted solve, and a
restarted one, as the tight references); the 1-D taut string, exact for
the free-boundary problem, with the even reflection that poses that
problem in the package's circular TV; and a BVLS oracle, exact for the
circular aniso prox of small signals in any dimension."""

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from tvprox.exact import OracleConfig
from tvprox.frame import _grad_adjoint
from tvprox.signal import check_positive, validate_signal


def oracle(restart_tol=None, **settings):
    """OracleConfig(**settings) for an unrestarted solve when restart_tol is
    None, else for a restarted one that stops at relative gap restart_tol."""
    if restart_tol is not None:
        settings.update(tol=restart_tol, restart=True)
    return OracleConfig(**settings)


def circular_cases(argname, values, names=None):
    """pytest.mark.parametrize(argname, values) with every id tagged
    "-circular" after its value's name (names, else str(value)).

    The tag marks the boundary of the difference pair, circular, in the
    ids of cases that once also ran on a free boundary, so each keeps the
    id it had."""
    names = [str(v) for v in values] if names is None else names
    return pytest.mark.parametrize(argname, values, ids=[f"{n}-circular" for n in names])


def reflected(z):
    """The even reflection [z, z[::-1]] of a 1-D signal z.

    The free-boundary prox of z (tautstring_prox_1d) is the first half of
    the circular prox of reflected(z) at the same tau, and that prox is
    reflected(tautstring_prox_1d(z, tau)): on a symmetric x the circular
    objective is twice the free one, the wrap-around differences being
    zero, and the prox of a symmetric input is symmetric.
    """
    return np.concatenate([z, z[::-1]])


def bvls_prox(z, tau):
    """The circular aniso TV prox of z and its dual, solved exactly.

    The dual min ||z - tau*D^T p|| over |p| <= 1 is a bound-constrained
    least-squares problem, which scipy's BVLS, an active-set method, solves
    to rounding. D^T is built dense, one column per dual entry from
    _grad_adjoint, so only small signals are practical. Returns (x, p) with
    x = z - tau*D^T p.
    """
    d, n = z.ndim, z.size
    dt = np.empty((n, d * n))
    for k in range(d * n):
        e = np.zeros(d * n)
        e[k] = 1.0
        dt[:, k] = _grad_adjoint(e.reshape((d,) + z.shape)).ravel()
    p = lsq_linear(tau * dt, z.ravel(), bounds=(-1.0, 1.0), method="bvls").x
    return z - tau * (dt @ p).reshape(z.shape), p.reshape((d,) + z.shape)


def tautstring_prox_1d(z, tau):
    """Exact 1D TV proximal operator (free-boundary differences).

    Taut-string construction: the output is the derivative of the tightest
    path through the tube of half-width tau around the running sums of z,
    tracked with linear lower/upper string segments. O(n) in practice.
    """
    y = validate_signal(z, "z")
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
