"""Property tests of the frame and the approximate prox on drawn shapes.

Shapes have d = 1..3 axes with every extent in 2..9, so extent-2 axes,
where the slicing kernel's boundary slab is half the axis, are drawn too.
Runs are derandomized, so every run checks the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tvprox.exact import OracleConfig, fpg_prox
from tvprox.frame import CoeffStack, stack_norm, w_adjoint, w_forward
from tvprox.shrinkage import ProxParams, approx_prox
from tvprox.signal import dot, l2_norm
from tvprox.tv import MODES, tv

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)

SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=2, max_side=9)
TAUS = st.floats(-3.0, 1.0).map(lambda e: 10.0**e)


def _values(shape):
    return hnp.arrays(np.float64, shape, elements=st.floats(-100.0, 100.0, allow_subnormal=False))


SIGNALS = SHAPES.flatmap(_values)


@st.composite
def signal_pairs(draw):
    shape = draw(SHAPES)
    return draw(_values(shape)), draw(_values(shape))


@st.composite
def signal_and_stack(draw):
    shape = draw(SHAPES)
    blocks = (len(shape),) + shape
    return draw(_values(shape)), CoeffStack(draw(_values(blocks)), draw(_values(blocks)))


@PROPERTY
@given(SIGNALS)
def test_wtw_identity(z):
    back = w_adjoint(w_forward(z))
    assert np.max(np.abs(back - z)) <= 1e-13 * max(1.0, np.max(np.abs(z)))


@PROPERTY
@given(signal_and_stack())
def test_frame_dot_test(case):
    z, u = case
    w = w_forward(z)
    lhs = dot(w.avg, u.avg) + dot(w.dif, u.dif)
    rhs = dot(z, w_adjoint(u))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, l2_norm(z) * stack_norm(u))


@PROPERTY
@given(SIGNALS, TAUS, st.sampled_from(MODES))
def test_approx_prox_descends_in_tv(z, tau, mode):
    t = tv(z, mode)
    assert tv(approx_prox(z, ProxParams(tau, mode)), mode) <= t + 1e-12 * max(1.0, t)


@PROPERTY
@given(signal_pairs(), TAUS, st.sampled_from(MODES))
def test_approx_prox_nonexpansive(pair, tau, mode):
    z1, z2 = pair
    p = ProxParams(tau, mode)
    gap = l2_norm(approx_prox(z1, p) - approx_prox(z2, p))
    # absolute slack for round-off when z1 and z2 (nearly) coincide
    assert gap <= (1.0 + 1e-12) * l2_norm(z1 - z2) + 1e-12 * max(1.0, l2_norm(z1), l2_norm(z2))


@settings(PROPERTY, max_examples=40)
@given(SIGNALS, TAUS, st.sampled_from(MODES))
def test_distance_to_exact_prox_bound(z, tau, mode):
    exact, _ = fpg_prox(z, tau, OracleConfig(max_iter=2000, tol=1e-10, mode=mode), return_info=True)
    assert l2_norm(exact - approx_prox(z, ProxParams(tau, mode))) <= 4.0 * tau * z.ndim * np.sqrt(z.size)
