"""Shrinkage functions and the approximate TV prox: Eq.-level examples plus
the descent / nonexpansiveness / bounded-error properties."""

import itertools

import numpy as np
import pytest

from tvprox.exact import OracleConfig, fpg_prox
from tvprox.frame import CoeffStack, _grad, _grad_adjoint, w_adjoint, w_forward
from tvprox.shrinkage import (
    ProxParams,
    _bind_approx_prox,
    approx_prox,
    shrink_aniso,
    shrink_iso,
    threshold_stack,
)
from tvprox.signal import l2_norm
from tvprox.tv import tv

SHAPES = {1: (12,), 2: (6, 6), 3: (4, 4, 4)}


def test_prox_params_validation():
    p = ProxParams(0.5, "iso")
    assert p.threshold(2) == pytest.approx(2.0 * 0.5 * np.sqrt(2.0))
    for tau in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            ProxParams(tau)
    with pytest.raises(ValueError):
        ProxParams(1.0, "bogus")


@pytest.mark.parametrize("mode", ["aniso", "iso"])
def test_huge_tau_projects_nothing(mode):
    # the threshold 2*tau*sqrt(d) overflows to inf here; every point then
    # lies in the dual ball, so S_tau(z) = z - D^T D z / (4d) in both modes
    rng = np.random.default_rng(24)
    for d, shape in SHAPES.items():
        z = rng.standard_normal(shape)
        want = z - _grad_adjoint(_grad(z)) / (4.0 * d)
        for tau in (1e308, float(np.finfo(np.float64).max)):
            np.testing.assert_allclose(approx_prox(z, ProxParams(tau, mode)), want, rtol=0, atol=1e-12)


# a NaN or inf threshold would turn every output entry into NaN
BAD_THRESHOLDS = (-0.1, np.nan, np.inf)


def test_shrink_aniso_scalars():
    assert shrink_aniso(3.0, 1.0) == 2.0
    assert shrink_aniso(0.5, 1.0) == 0.0
    assert shrink_aniso(-3.0, 1.0) == -2.0
    assert shrink_aniso(0.0, 1.0) == 0.0
    for lam in BAD_THRESHOLDS:
        with pytest.raises(ValueError, match="threshold"):
            shrink_aniso(1.0, lam)


def test_shrink_iso_vectors():
    np.testing.assert_allclose(shrink_iso(np.array([3.0, 4.0]), 1.0), [2.4, 3.2], rtol=1e-14)
    np.testing.assert_array_equal(shrink_iso(np.array([0.3, 0.4]), 1.0), [0.0, 0.0])
    np.testing.assert_array_equal(shrink_iso(np.zeros(2), 1.0), [0.0, 0.0])
    for lam in BAD_THRESHOLDS:
        with pytest.raises(ValueError, match="threshold"):
            shrink_iso(np.ones((2, 3)), lam)


def test_shrink_iso_reduces_to_aniso_in_1d():
    rng = np.random.default_rng(30)
    for _ in range(500):
        t = rng.standard_normal()
        lam = rng.uniform(0.0, 2.0)
        got = shrink_iso(np.array([t]), lam)[0]
        assert abs(got - shrink_aniso(t, lam)) <= 1e-14


def grid_prox_l1(t, lam, half_width=6.0, step=1e-4):
    # brute-force prox of lam*|x| on a grid around t
    xs = np.arange(t - half_width, t + half_width, step)
    vals = 0.5 * (xs - t) ** 2 + lam * np.abs(xs)
    return xs[np.argmin(vals)]


def test_threshold_stack_grid_oracle():
    rng = np.random.default_rng(31)
    u = w_forward(rng.standard_normal(8))
    lam = 0.7
    out = threshold_stack(u, lam, "aniso")
    for t, got in zip(u.dif.ravel(), out.dif.ravel()):
        assert abs(got - grid_prox_l1(t, lam)) <= 1e-4


def test_threshold_stack_avg_passthrough():
    rng = np.random.default_rng(32)
    for mode in ("aniso", "iso"):
        u = w_forward(rng.standard_normal((6, 6)))
        out = threshold_stack(u, 0.3, mode)
        np.testing.assert_array_equal(out.avg, u.avg)
    out = threshold_stack(u, 0.0, "aniso")
    np.testing.assert_array_equal(out.dif, u.dif)
    for lam in BAD_THRESHOLDS:
        with pytest.raises(ValueError, match="threshold"):
            threshold_stack(u, lam, "iso")


def test_approx_prox_constant_unchanged():
    z = np.full((5, 5), 1.3)
    for mode in ("aniso", "iso"):
        out = approx_prox(z, ProxParams(0.7, mode))
        np.testing.assert_allclose(out, z, atol=1e-14)


def test_approx_prox_validates_input():
    params = ProxParams(0.1)
    bad = ((np.array([[0.0, np.nan], [1.0, 2.0]]), "non-finite"), (np.zeros((2, 1)), "extent"),
           (np.zeros((2,) * 4), "dimension"))
    for z, msg in bad:
        with pytest.raises(ValueError, match=msg):
            approx_prox(z, params)
    z = [[0, 1], [2, 3]]  # integer nested lists are taken as float64 arrays
    np.testing.assert_array_equal(approx_prox(z, params), approx_prox(np.array(z, dtype=float), params))


def test_approx_prox_hand_trace():
    # 1D [4,0,0,0], tau=0.5: threshold 1, dif [2,0,0,-2] -> [1,0,0,-1],
    # synthesis gives [3, 0.5, 0, 0.5]
    z = np.array([4.0, 0.0, 0.0, 0.0])
    out = approx_prox(z, ProxParams(0.5, "aniso"))
    np.testing.assert_allclose(out, [3.0, 0.5, 0.0, 0.5], atol=1e-14)


def test_fused_prox_equals_frame_path():
    # z - D^T P_tau(D z / (4d)) == W^T T_{2 tau sqrt(d)}(W z)
    rng = np.random.default_rng(39)
    for d, shape in SHAPES.items():
        for mode in ("aniso", "iso"):
            for tau in (1e-3, 1e-2, 0.1, 0.7, 5.0):
                z = rng.standard_normal(shape)
                want = w_adjoint(threshold_stack(w_forward(z), 2.0 * tau * np.sqrt(d), mode))
                got = approx_prox(z, ProxParams(tau, mode))
                assert np.max(np.abs(got - want)) <= 1e-13


def test_approx_prox_is_first_fpg_step():
    rng = np.random.default_rng(40)
    for d, shape in SHAPES.items():
        for mode in ("aniso", "iso"):
            z = rng.standard_normal(shape)
            first = fpg_prox(z, 0.2, OracleConfig(max_iter=1, mode=mode), return_info=True)[0]
            assert np.max(np.abs(first - approx_prox(z, ProxParams(0.2, mode)))) <= 1e-13


@pytest.mark.parametrize("mode", ["aniso", "iso"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_approx_prox_equals_the_bound_kernel_bit_for_bit(d, mode):
    # the solvers' bound kernel analyses with its own difference steps and,
    # aniso, clips on bounds bound once; one call of it on fresh buffers
    # gives approx_prox's bits, from thresholds that clip almost every entry
    # to one that clips none
    rng = np.random.default_rng(41)
    for shape in itertools.product((2, 3, 5, 8), repeat=d):
        z = rng.standard_normal(shape)
        for tau in (1e-4, 0.05, 1.0, 1e300):
            params = ProxParams(tau, mode)
            out, tmp, dif = np.empty(shape), np.empty(shape), np.empty((d,) + shape)
            (prox,) = _bind_approx_prox(z, [out], dif, tmp, params)
            prox()
            assert out.tobytes() == approx_prox(z, params).tobytes(), (shape, tau)


def test_descent_property():
    rng = np.random.default_rng(33)
    for _ in range(2000):
        d = rng.integers(1, 4)
        shape = SHAPES[d]
        z = rng.standard_normal(shape)
        tau = 10.0 ** rng.uniform(-4, 1)
        for mode in ("aniso", "iso"):
            s = approx_prox(z, ProxParams(tau, mode))
            assert tv(s, mode) <= tv(z, mode) + 1e-10


def test_nonexpansiveness():
    rng = np.random.default_rng(34)
    for _ in range(300):
        d = rng.integers(1, 4)
        shape = SHAPES[d]
        z1 = rng.standard_normal(shape)
        z2 = rng.standard_normal(shape)
        tau = 10.0 ** rng.uniform(-3, 0.5)
        mode = ("aniso", "iso")[rng.integers(2)]
        p = ProxParams(tau, mode)
        assert l2_norm(approx_prox(z1, p) - approx_prox(z2, p)) <= \
            (1 + 1e-12) * l2_norm(z1 - z2)


def test_mean_preservation():
    # consequence of the circular boundary: the avg blocks carry the mean
    rng = np.random.default_rng(35)
    for _ in range(100):
        d = rng.integers(1, 4)
        z = rng.standard_normal(SHAPES[d])
        tau = 10.0 ** rng.uniform(-3, 0.5)
        s = approx_prox(z, ProxParams(tau, "iso"))
        assert abs(s.mean() - z.mean()) <= 1e-12


def test_error_bound_corollary():
    rng = np.random.default_rng(36)
    oracle = OracleConfig(max_iter=3000, tol=1e-10)
    for _ in range(10):
        z = rng.standard_normal((8, 8))
        for tau in (1e-3, 1e-2, 1e-1):
            s = approx_prox(z, ProxParams(tau, "aniso"))
            exact = fpg_prox(z, tau, oracle)
            assert l2_norm(exact - s) <= 4.0 * tau * 2 * np.sqrt(z.size)


def test_eps_subgradient_inequality():
    # tv(y) >= tv(S(z)) + (1/tau)(z - S(z))^T (y - S(z)) - 4*tau*n*d^2
    rng = np.random.default_rng(37)
    for _ in range(500):
        d = rng.integers(1, 4)
        shape = SHAPES[d]
        n = int(np.prod(shape))
        z = rng.standard_normal(shape)
        y = rng.standard_normal(shape)
        tau = 10.0 ** rng.uniform(-3, 0.5)
        mode = ("aniso", "iso")[rng.integers(2)]
        s = approx_prox(z, ProxParams(tau, mode))
        inner = float(np.sum((z - s) * (y - s)))
        assert tv(y, mode) >= tv(s, mode) + inner / tau - 4.0 * tau * n * d * d - 1e-8


def test_projection_residual_bound():
    # || W W^T T(Wz) - T(Wz) || <= 2*tau*d*sqrt(n)
    from tvprox.frame import w_adjoint

    rng = np.random.default_rng(38)
    for _ in range(100):
        d = rng.integers(1, 4)
        shape = SHAPES[d]
        n = int(np.prod(shape))
        z = rng.standard_normal(shape)
        tau = 10.0 ** rng.uniform(-3, 0.5)
        mode = ("aniso", "iso")[rng.integers(2)]
        t = threshold_stack(w_forward(z), 2.0 * tau * np.sqrt(d), mode)
        proj = w_forward(w_adjoint(t))
        gap = np.sqrt(np.sum((proj.avg - t.avg) ** 2) + np.sum((proj.dif - t.dif) ** 2))
        assert gap <= 2.0 * tau * d * np.sqrt(n) + 1e-10
