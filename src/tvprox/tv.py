"""Anisotropic / isotropic total variation and its lifted coefficient-domain
counterpart.

The TV functionals use the same circular forward differences as the frame
module (its slicing kernel _grad), so that the lifted functional evaluated
at analysis coefficients reproduces TV exactly:
h_hat(w_forward(z), mode) == tv(z, mode).
"""

import numpy as np

from .frame import CoeffStack, _grad
from .signal import check_choice, validate_signal

MODES = ("aniso", "iso")


def check_mode(mode):
    return check_choice("mode", mode, MODES)


def tv(x, mode):
    """Total variation of a signal.

    aniso: sum over locations and axes of |difference|;
    iso: sum over locations of the l2 norm of the per-location
    difference vector across axes.
    """
    x = validate_signal(x)
    check_mode(mode)
    return _tv_of_differences(_grad(x), mode)


def _tv_terms(g, mode, batch=0):
    """_tv_of_differences' elementwise part, in g: |g| (aniso) or each location's norm, in block 0 (iso)."""
    if mode == "aniso":
        return np.abs(g, out=g)
    lead = (slice(None),) * batch
    terms = np.square(g, out=g)[lead + (0,)]
    for j in range(1, g.shape[batch]):
        terms += g[lead + (j,)]
    return np.sqrt(terms, out=terms)


def _tv_of_differences(g, mode):
    """TV, as a float, from differences g of shape (d, *signal_shape); overwrites g."""
    return float(np.add.reduce(_tv_terms(g, mode), axis=None))


def h_hat(u, mode):
    """Lifted TV surrogate on coefficient stacks: 2 sqrt(d) times the group
    norm of the difference blocks (groups = per-location d-vectors)."""
    check_mode(mode)
    return float(2.0 * np.sqrt(u.d) * _tv_of_differences(np.array(u.dif, dtype=np.float64), mode))


def h_hat_subgradient(u, mode):
    """A canonical member of the subdifferential of h_hat at u.

    Zero on the averaging blocks. aniso: 2 sqrt(d) * sign per difference
    entry; iso: 2 sqrt(d) * group / ||group|| per nonzero per-location
    group, zero on zero groups (a valid selection since 0 is in the
    subdifferential of a norm at 0).
    """
    check_mode(mode)
    d = u.d
    scale = 2.0 * np.sqrt(d)
    if mode == "aniso":
        g = scale * np.sign(u.dif)
    else:
        norms = np.sqrt((u.dif**2).sum(axis=0))
        safe = np.where(norms > 0.0, norms, 1.0)
        g = scale * u.dif / safe
        g = np.where(norms > 0.0, g, 0.0)
    return CoeffStack(np.zeros_like(u.avg), g)
