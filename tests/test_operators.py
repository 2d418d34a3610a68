"""Forward models: identity / Radon operators, Lipschitz estimation, noise,
and the data-term proxes."""

import importlib.util
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from call_counts import python_calls

import tvprox
from tvprox.exact import duality_gap, fpg_prox
from tvprox.experiments import gen_foam_phantom
from tvprox.operators import (
    CG_TOL,
    CtGeometry,
    LinearOperator,
    _radon_triplets,
    add_awgn,
    identity_operator,
    lipschitz_power_iter,
    prox_g_ct,
    prox_g_denoise,
    radon_adjoint,
    radon_forward,
    radon_operator,
)
from tvprox.signal import l2_norm
from tvprox.solvers import Problem, SolverConfig, admm


def small_geo(n=16, angles=9):
    return CtGeometry(n_pixels=n, n_angles=angles)


def test_geometry_validation():
    # sizes fail here, not at the first projection
    for n_pixels in (0, 1, 2.5, True):
        with pytest.raises(ValueError, match="n_pixels"):
            CtGeometry(n_pixels=n_pixels, n_angles=3)
    for n_angles in (0, -1, 2.5):
        with pytest.raises(ValueError, match="n_angles"):
            CtGeometry(n_pixels=16, n_angles=n_angles)
    geo = small_geo()
    np.testing.assert_array_equal(geo.angles, np.arange(9) * np.pi / 9)
    assert geo.sinogram_shape == (9, geo.n_detectors) == (9, 24)
    assert CtGeometry(n_pixels=2, n_angles=1).n_detectors == 4  # ceil(2 sqrt 2) = 3, to the parity of 2
    assert CtGeometry(n_pixels=np.int64(15), n_angles=np.int64(4)).n_detectors == 23


def test_zero_image_zero_sinogram():
    geo = small_geo()
    assert np.all(radon_forward(np.zeros((16, 16)), geo) == 0.0)
    assert np.all(radon_adjoint(np.zeros(geo.sinogram_shape), geo) == 0.0)


def test_mass_conservation_per_view():
    # every view integrates a centered impulse to the same total mass
    geo = small_geo()
    img = np.zeros((16, 16))
    img[8, 8] = 1.0
    sino = radon_forward(img, geo)
    masses = sino.sum(axis=1)
    assert np.max(np.abs(masses - masses[0])) <= 1e-6
    assert masses[0] == pytest.approx(1.0, abs=1e-12)


def test_zero_degree_view_is_column_sums():
    rng = np.random.default_rng(50)
    geo = small_geo()
    img = rng.random((16, 16))
    sino = radon_forward(img, geo)
    col = img.sum(axis=0)
    pad = (geo.n_detectors - 16) // 2
    np.testing.assert_allclose(sino[0, pad:pad + 16], col, atol=1e-6)
    assert np.all(sino[0, :pad] == 0.0) and np.all(sino[0, pad + 16:] == 0.0)


def test_radon_linearity():
    rng = np.random.default_rng(51)
    geo = small_geo()
    x = rng.standard_normal((16, 16))
    z = rng.standard_normal((16, 16))
    a, b = 1.7, -0.3
    lhs = radon_forward(a * x + b * z, geo)
    rhs = a * radon_forward(x, geo) + b * radon_forward(z, geo)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_radon_adjoint_dot_test():
    rng = np.random.default_rng(52)
    geo = small_geo()
    for _ in range(50):
        x = rng.standard_normal((16, 16))
        r = rng.standard_normal(geo.sinogram_shape)
        ax = radon_forward(x, geo)
        lhs = np.vdot(ax, r)
        rhs = np.vdot(x, radon_adjoint(r, geo))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, l2_norm(ax) * l2_norm(r))


def test_single_view_adjoint_broadcast():
    geo = CtGeometry(n_pixels=16, n_angles=1)  # the one view at angle 0
    sino = np.zeros(geo.sinogram_shape)
    sino[0, :] = 1.0
    back = radon_adjoint(sino, geo)
    # the adjoint of a column sum broadcasts down each column
    assert np.max(np.abs(back - back[0, :])) <= 1e-6
    assert np.allclose(back, 1.0, atol=1e-6)


def test_lipschitz_identity():
    op = identity_operator((8, 8))
    assert lipschitz_power_iter(op, iters=200, tol=1e-12) == pytest.approx(1.0, abs=1e-9)


def test_lipschitz_diagonal():
    d = np.array([1.0, 2.0, 3.0])
    op = LinearOperator(apply=lambda x: d * x, adjoint=lambda r: d * r,
                        in_shape=(3,), out_shape=(3,))
    assert lipschitz_power_iter(op, iters=500, tol=1e-10) == pytest.approx(9.0, abs=1e-6)


def test_lipschitz_radon_long_run_oracle():
    geo = CtGeometry(n_pixels=16, n_angles=45)
    op = radon_operator(geo)
    quick = lipschitz_power_iter(op, iters=200, tol=1e-9)
    long = lipschitz_power_iter(op, iters=2000, tol=1e-14, seed=7)
    assert quick == pytest.approx(long, rel=1e-4)


def test_awgn():
    x = np.ones((8, 8))
    np.testing.assert_array_equal(add_awgn(x, 0.0, seed=3), x)
    a = add_awgn(x, 0.3, seed=3)
    b = add_awgn(x, 0.3, seed=3)
    np.testing.assert_array_equal(a, b)
    e = add_awgn(np.zeros(10**6), 0.7, seed=4)
    assert e.var() == pytest.approx(0.49, rel=0.01)
    with pytest.raises(ValueError):
        add_awgn(x, -0.1, seed=0)
    # built in place, yet bit-identical to the direct sum
    y = np.random.default_rng(9).random((33, 17))
    for sigma, seed in ((0.1, 500), (0.5, 1501), (3.0, 7)):
        expected = y + sigma * np.random.default_rng(seed).standard_normal(y.shape)
        assert add_awgn(y, sigma, seed=seed).tobytes() == expected.tobytes()


_V = np.arange(16.0).reshape(4, 4) % 3
SCALED_CALLS = {
    "fpg_prox": lambda s: fpg_prox(_V, s),
    "duality_gap": lambda s: duality_gap(_V, _V, np.zeros((2, 4, 4)), s),
    "prox_g_denoise": lambda s: prox_g_denoise(_V, s, _V),
    "prox_g_ct": lambda s: prox_g_ct(_V, s, _V, identity_operator((4, 4))),
    "add_awgn": lambda s: add_awgn(_V, s, seed=0),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("call", SCALED_CALLS, ids=str)
def test_non_finite_scales_are_rejected(call, value):
    # tau, gamma or sigma; NaN and inf used to return all-NaN arrays
    with pytest.raises(ValueError, match="finite"):
        SCALED_CALLS[call](value)


def test_prox_g_denoise():
    rng = np.random.default_rng(53)
    v = rng.standard_normal((6, 6))
    y = rng.standard_normal((6, 6))
    np.testing.assert_allclose(prox_g_denoise(v, 1e-12, y), v, atol=1e-9)
    np.testing.assert_allclose(prox_g_denoise(y, 3.0, y), y, atol=1e-14)
    for gamma in (0.1, 1.0, 7.0):
        x = prox_g_denoise(v, gamma, y)
        grad = (x - v) + gamma * (x - y)  # optimality of the prox objective
        assert l2_norm(grad) <= 1e-10


def test_prox_g_ct_reduces_to_denoise_on_identity():
    rng = np.random.default_rng(54)
    v = rng.standard_normal((8, 8))
    y = rng.standard_normal((8, 8))
    op = identity_operator((8, 8))
    for gamma in (0.2, 2.0):
        got = prox_g_ct(v, gamma, y, op)
        np.testing.assert_allclose(got, prox_g_denoise(v, gamma, y), atol=1e-9)


def test_prox_g_ct_residual():
    rng = np.random.default_rng(55)
    geo = small_geo()
    op = radon_operator(geo)
    v = rng.standard_normal((16, 16))
    y = rng.standard_normal(geo.sinogram_shape)
    gamma = 0.05
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = prox_g_ct(v, gamma, y, op)
    rhs = v + gamma * op.adjoint(y)
    lhs = x + gamma * op.adjoint(op.apply(x))
    assert l2_norm(lhs - rhs) <= 1e-10 * l2_norm(rhs)
    # gamma -> 0 limit
    np.testing.assert_allclose(prox_g_ct(v, 1e-12, y, op), v, atol=1e-8)


def test_grad_g_finite_difference_consistency():
    rng = np.random.default_rng(56)
    geo = small_geo()
    op = radon_operator(geo)
    y = rng.standard_normal(geo.sinogram_shape)
    x = rng.standard_normal((16, 16))

    def g(v):
        return 0.5 * float(((op.apply(v) - y) ** 2).sum())

    grad = op.adjoint(op.apply(x) - y)
    for _ in range(5):
        direction = rng.standard_normal((16, 16))
        direction /= l2_norm(direction)
        eps = 1e-6
        fd = (g(x + eps * direction) - g(x - eps * direction)) / (2 * eps)
        assert fd == pytest.approx(np.vdot(grad, direction), rel=1e-5)


CT_SIZES = ((16, 8), (32, 15), (64, 45))


def scipy_matrix(geo):
    """A built by scipy.sparse itself from the builder's triplets: an oracle
    independent of the CSR arrays that the geometry binds."""
    rows, cols, vals = _radon_triplets(geo)
    return sp.csr_matrix((vals, (rows, cols)), shape=(geo.n_angles * geo.n_detectors, geo.n_pixels**2))


def test_radon_forward_is_matrix_product_bitwise():
    # the bound CSR kernel is the one csr_matrix @ x runs; a transposed
    # (non-contiguous) image is read in C order, as x.ravel() reads it
    rng = np.random.default_rng(57)
    for n, angles in CT_SIZES:
        geo = CtGeometry(n_pixels=n, n_angles=angles)
        mat = scipy_matrix(geo)
        for x in (rng.standard_normal((n, n)), rng.standard_normal((n, n)).T):
            want = (mat @ x.ravel()).reshape(geo.sinogram_shape)
            assert np.array_equal(radon_forward(x, geo), want)


def test_radon_pair_zero_fills_out():
    # out starts as NaN: only a zero-filled buffer gives the bits of a new array
    rng = np.random.default_rng(56)
    for n, angles in CT_SIZES:
        geo = CtGeometry(n_pixels=n, n_angles=angles)
        for fn, arg in ((radon_forward, rng.standard_normal((n, n))),
                        (radon_adjoint, rng.standard_normal(geo.sinogram_shape))):
            want = fn(arg, geo)
            out = np.full(want.shape, np.nan)
            assert fn(arg, geo, out=out) is out
            assert out.tobytes() == want.tobytes()


def test_radon_kernels_hold_scipys_csr_pair_bitwise():
    # the geometry binds the very arrays that scipy.sparse builds from the triplets
    rng = np.random.default_rng(60)
    for n, angles in (*CT_SIZES, (33, 7), (2, 1)):
        geo = CtGeometry(n_pixels=n, n_angles=angles)
        mat = scipy_matrix(geo)
        for kernel, want in zip(geo._kernels, (mat, mat.T.tocsr())):
            assert kernel.args[:2] == want.shape
            for got, arr in zip(kernel.args[2:], (want.indptr, want.indices, want.data)):
                assert got.dtype == arr.dtype and np.array_equal(got, arr)
        x, s = rng.standard_normal((n, n)), rng.standard_normal(geo.sinogram_shape)
        assert np.array_equal(radon_forward(x, geo), (mat @ x.ravel()).reshape(geo.sinogram_shape))
        assert np.array_equal(radon_adjoint(s, geo), (mat.T @ s.ravel()).reshape(n, n))


def test_radon_adjoint_is_matrix_transpose_bitwise():
    # the cached CSR transpose sums each pixel's bins in the order A.T @ s does
    rng = np.random.default_rng(58)
    for n, angles in CT_SIZES:
        geo = CtGeometry(n_pixels=n, n_angles=angles)
        mat_t = scipy_matrix(geo).T
        for _ in range(3):
            s = rng.standard_normal(geo.sinogram_shape)
            want = (mat_t @ s.ravel()).reshape(n, n)
            assert np.array_equal(radon_adjoint(s, geo), want)


def scipy_prox_g_ct(v, gamma, y, op):
    """Oracle: the data prox solved by scipy.sparse.linalg.cg, warm-started at v,
    with prox_g_ct's relative tolerance and default budget."""
    rhs = v + gamma * op.adjoint(y)
    n = rhs.size

    def matvec(u):
        return u + gamma * op.adjoint(op.apply(u.reshape(op.in_shape))).ravel()

    lin = spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    x, _ = spla.cg(lin, rhs.ravel(), x0=v.ravel(), rtol=1e-10, atol=0.0, maxiter=200)
    return x.reshape(op.in_shape)


def test_prox_g_ct_bitwise_equals_scipy_cg():
    # first call (A^T y computed), repeat with a new v (A^T y reused), and a
    # call after y changed in place (recomputed): all match scipy bit for bit
    rng = np.random.default_rng(59)
    cases = [(radon_operator(CtGeometry(n_pixels=n, n_angles=a)), n) for n, a in CT_SIZES]
    cases.append((identity_operator((8, 8)), 8))
    for op, n in cases:
        for gamma in (1e-2, 1e-3, 1e-4):
            y = rng.standard_normal(op.out_shape)
            for change_y in (False, False, True):
                if change_y:
                    y[0, 1] += 0.5
                v = rng.standard_normal((n, n))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    x, info = prox_g_ct(v, gamma, y, op, return_info=True)
                assert np.array_equal(x, scipy_prox_g_ct(v, gamma, y, op))
                assert info["converged"] and info["residual"] <= 1e-10
                assert 1 <= info["iterations"] <= 200


def test_prox_g_ct_keeps_sinograms_apart():
    # two phantoms' sinograms alternating on one shared operator
    rng = np.random.default_rng(61)
    op = radon_operator(small_geo())
    v = rng.standard_normal((16, 16))
    ys = [rng.standard_normal(op.out_shape) for _ in range(2)]
    want = [prox_g_ct(v, 1e-2, y, radon_operator(small_geo())) for y in ys]
    for k in (0, 1, 0, 1, 1, 0):
        assert np.array_equal(prox_g_ct(v, 1e-2, ys[k], op), want[k])
    # a sinogram of -0.0 == 0.0 is still another one: reusing A^T 0 would turn
    # b = -0.0 + -0.0 into 0.0
    ident, neg = identity_operator((4, 4)), np.full((4, 4), -0.0)
    prox_g_ct(neg, 1.0, np.zeros((4, 4)), ident)
    assert prox_g_ct(neg, 1.0, neg, ident).tobytes() == neg.tobytes()


def test_prox_g_ct_checks_a_sinogram_made_nan_after_a_hit():
    rng = np.random.default_rng(62)
    op = radon_operator(small_geo())
    v = rng.standard_normal((16, 16))
    y = rng.standard_normal(op.out_shape)
    prox_g_ct(v, 1e-2, y, op)
    prox_g_ct(v, 1e-2, y, op)
    y[2, 3] = np.nan
    with pytest.raises(ValueError, match="y: non-finite"):
        prox_g_ct(v, 1e-2, y, op)


def test_prox_g_ct_applies_the_adjoint_to_y_once():
    # a repeat with the same y skips A^T y: iterations + 2 adjoints (the
    # initial residual, one per step, the final residual) instead of + 3
    rng = np.random.default_rng(63)
    geo = small_geo()
    calls = []
    op = radon_operator(geo)
    op.adjoint = lambda r, out=None: calls.append(1) or radon_adjoint(r, geo, out=out)
    y = rng.standard_normal(geo.sinogram_shape)
    for extra in (3, 2, 2):
        calls.clear()
        _, info = prox_g_ct(rng.standard_normal((16, 16)), 1e-2, y, op, return_info=True)
        assert len(calls) == info["iterations"] + extra


def test_prox_g_ct_makes_one_pair_per_step_and_one_more_for_info():
    # without return_info: one Radon pair for the initial residual and one per
    # CG step, plus A^T y on a memo miss; return_info=True adds one pair, for
    # the true residual, and returns the same x
    rng = np.random.default_rng(64)
    geo = small_geo()
    calls = Counter()
    op = radon_operator(geo)
    op.apply = lambda x, out=None: calls.update(["apply"]) or radon_forward(x, geo, check_finite=False, out=out)
    op.adjoint = lambda r, out=None: calls.update(["adjoint"]) or radon_adjoint(r, geo, out=out)
    for gamma, new_y in ((1e-2, True), (1e-2, False), (1e-3, False), (1e-4, True)):
        if new_y:
            y = rng.standard_normal(geo.sinogram_shape)
        v = rng.standard_normal((16, 16))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            calls.clear()
            x = prox_g_ct(v, gamma, y, op)
            plain = dict(calls)
            calls.clear()
            x_info, info = prox_g_ct(v, gamma, y, op, return_info=True)
        steps = info["iterations"]
        assert steps >= 1 and plain == {"apply": steps + 1, "adjoint": steps + 1 + new_y}
        assert dict(calls) == {"apply": steps + 2, "adjoint": steps + 2}
        assert x.tobytes() == x_info.tobytes()


@pytest.mark.parametrize("gamma", [1e-4, 1e-3, 1e-2])
def test_prox_g_ct_recursive_residual_vouches_for_the_true_one(gamma):
    # every data prox of seeded CT ADMM solves (16^2, 8 angles) that the CG's
    # recursive residual calls converged has a true relative residual <= CG_TOL
    op = radon_operator(small_geo(16, 8))
    infos = []
    for seed in range(3):
        y = add_awgn(op.apply(gen_foam_phantom(16, seed=seed)), 0.5, seed=1000 * seed + 500)

        def prox_g(v, g, y=y):
            x, info = prox_g_ct(v, g, y, op, return_info=True)
            infos.append(info)
            return x

        problem = Problem(grad_g=lambda x, y=y: op.adjoint(op.apply(x) - y),
                          objective_g=lambda x, y=y: 0.5 * l2_norm(op.apply(x) - y) ** 2, prox_g=prox_g)
        admm(problem, SolverConfig(gamma=gamma, lam=2.5, stop_tol=1e-300, max_iter=200), np.zeros((16, 16)))
    converged = [info["residual"] for info in infos if info["converged"]]
    assert len(infos) == 600 and len(converged) == len(infos)
    assert max(converged) <= CG_TOL


def test_prox_g_ct_zero_rhs_returns_zeros():
    geo = small_geo()
    op = radon_operator(geo)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, info = prox_g_ct(np.zeros((16, 16)), 1e-2, np.zeros(geo.sinogram_shape), op, return_info=True)
    assert x.shape == (16, 16) and np.all(x == 0.0)
    assert info == {"iterations": 0, "residual": 0.0, "converged": True}


def test_prox_g_ct_reports_stall():
    rng = np.random.default_rng(60)
    geo = CtGeometry(n_pixels=16, n_angles=8)
    op = radon_operator(geo)
    v = rng.standard_normal((16, 16))
    y = rng.standard_normal(geo.sinogram_shape)
    with pytest.warns(RuntimeWarning, match="CG stalled"):
        x, info = prox_g_ct(v, 1e-2, y, op, cg_max=1, return_info=True)
    assert info["iterations"] == 1 and not info["converged"]
    assert info["residual"] > 1e-10 and np.all(np.isfinite(x))


def test_prox_g_ct_rejects_non_finite_inputs():
    geo = small_geo()
    cases = [(radon_operator(geo), geo.sinogram_shape), (identity_operator((16, 16)), (16, 16))]
    for op, y_shape in cases:
        for bad in (np.nan, np.inf):
            v, y = np.zeros((16, 16)), np.ones(y_shape)
            v[3, 4] = bad
            with pytest.raises(ValueError, match="v: non-finite"):
                prox_g_ct(v, 1e-2, y, op)
            y[0, 1] = bad
            with pytest.raises(ValueError, match="y: non-finite"):
                prox_g_ct(np.zeros((16, 16)), 1e-2, y, op)


def test_prox_g_ct_rejects_a_v_of_another_shape():
    geo = small_geo()
    for op, y_shape in ((radon_operator(geo), geo.sinogram_shape), (identity_operator((16, 16)), (16, 16))):
        for shape in ((16,), (4, 64), (16, 16, 1)):
            with pytest.raises(ValueError, match=re.escape(f"v: expected shape (16, 16), got {shape}")):
                prox_g_ct(np.zeros(shape), 1e-2, np.ones(y_shape), op)


def test_radon_pair_rejects_a_bad_out():
    geo = small_geo()
    op = radon_operator(geo)
    cases = ((partial(radon_forward, geo=geo), np.ones((16, 16)), geo.sinogram_shape),
             (partial(radon_adjoint, geo=geo), np.ones(geo.sinogram_shape), (16, 16)),
             (op.apply, np.ones((16, 16)), geo.sinogram_shape),
             (op.adjoint, np.ones(geo.sinogram_shape), (16, 16)))
    for fn, arg, shape in cases:
        for out in (np.zeros((shape[0], shape[1] + 1)), np.zeros(shape[0] * shape[1]),
                    np.zeros(shape, dtype=np.float32), np.zeros(shape, order="F"), np.zeros(shape).tolist()):
            with pytest.raises(ValueError, match=re.escape(f"out must be a C-contiguous float64 array of shape {shape}")):
                fn(arg, out=out)


def test_data_proxes_check_an_exact_float_gamma_without_abc_calls():
    # each setting is checked once per call; a CG step's matvec runs the operator's
    # closures over radon_forward and radon_adjoint, which call no property
    rng = np.random.default_rng(59)
    v, y = rng.standard_normal((16, 16)), rng.standard_normal((16, 16))
    op = radon_operator(small_geo())
    y = rng.standard_normal(op.out_shape)

    def calls(cg_max):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # cg_max stops the CG short
            return python_calls(prox_g_ct, v, 1e-2, y, op, cg_max=cg_max)

    few, more = calls(2), calls(5)
    assert few["check_positive", "check_positive"] == few["check_count", "check_count"] == 1
    per_step = {"matvec": 1, "<lambda>": 2, "radon_forward": 1, "radon_adjoint": 1, "_csr_product": 2}
    assert more - few == {("matvec", name): 3 * n for name, n in per_step.items()}


def test_identity_operator_checks_shapes_and_takes_out():
    op = identity_operator((4, 4))
    for fn in (op.apply, op.adjoint):
        for bad in (np.zeros(3), np.zeros((4, 5)), np.zeros((1, 4, 4))):
            with pytest.raises(ValueError, match=re.escape(f"{bad.shape} does not match the operator's shape (4, 4)")):
                fn(bad)
        x, out = np.arange(16.0).reshape(4, 4), np.full((4, 4), np.nan)
        assert fn(x, out=out) is out and np.array_equal(out, x)
        copy = fn(x)
        assert copy is not x and np.array_equal(copy, x)


def test_prox_g_ct_warns_on_nan_residual():
    # finite inputs whose right-hand side overflows: the CG residual is NaN
    with np.errstate(over="ignore", invalid="ignore"), pytest.warns(RuntimeWarning, match="CG stalled"):
        _, info = prox_g_ct(np.full((4, 4), 1e308), 1.0, np.zeros((4, 4)), identity_operator((4, 4)),
                            return_info=True)
    assert np.isnan(info["residual"]) and not info["converged"]


def test_radon_operator_skips_the_finiteness_scan():
    geo = small_geo()
    op = radon_operator(geo)
    img = np.zeros((16, 16))
    img[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        radon_forward(img, geo)
    assert np.isnan(op.apply(img)).any()
    with pytest.raises(ValueError, match="does not match"):
        op.apply(np.zeros((8, 8)))
    with pytest.raises(ValueError, match="does not match"):
        op.adjoint(np.zeros((16, 16)))


def test_import_leaves_scipy_sparse_linalg_out(tmp_path):
    # the Radon kernels load from scipy's extension file alone: denoise, prox-check
    # and CT runs load no scipy module at all
    src = str(Path(tvprox.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = f"""
import sys
import numpy as np
import tvprox
from tvprox import cli
from tvprox.operators import CtGeometry, prox_g_ct, radon_operator
assert cli.main(["denoise", "--size", "16", "--phantoms", "1", "--out", {str(tmp_path / "denoise")!r}]) == 0
assert cli.main(["prox-check"]) == 0
geo = CtGeometry(16, 8)
op = radon_operator(geo)
prox_g_ct(np.zeros((16, 16)), 1e-2, np.ones(geo.sinogram_shape), op)
assert cli.main(["ct", "--size", "16", "--phantoms", "1", "--gamma", "0.01", "--out", {str(tmp_path / "ct")!r}]) == 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_a_missing_kernel_file_raises_import_error(monkeypatch):
    # where no scipy extension file is found, the geometry cannot bind its
    # Radon pair and says why with an ImportError, not an AttributeError
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *args: None if name == "scipy" else find_spec(name, *args))
    with pytest.raises(ImportError, match="no scipy/sparse/_sparsetools extension file to load"):
        CtGeometry(4, 2)
