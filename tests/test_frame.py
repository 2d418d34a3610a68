"""Haar-frame transforms: hand traces, loop oracles, adjointness, WtW = I,
and the slicing difference pair shared by tv, the fused prox and FPG."""

import numpy as np
import pytest

from tvprox.frame import (
    CoeffStack,
    _grad,
    _grad_adjoint,
    stack_norm,
    w_adjoint,
    w_forward,
)
from tvprox.signal import dot, l2_norm

SHAPES = {1: (12,), 2: (6, 7), 3: (4, 5, 3)}


def _loop_axis(x, j, sign):
    out = np.empty_like(x)
    for idx in np.ndindex(x.shape):
        nxt = list(idx)
        nxt[j] = (nxt[j] + 1) % x.shape[j]
        out[idx] = x[idx] + sign * x[tuple(nxt)]
    return out


def loop_avg(x, j):
    return _loop_axis(x, j, 1.0)


def loop_diff_axis(x, j):
    return _loop_axis(x, j, -1.0)


def test_avg_axis_hand_trace():
    # the averaging blocks A_j z = z + z_{+1} of w_forward, scale 1/(2 sqrt d)
    np.testing.assert_array_equal(w_forward(np.array([4.0, 0.0, 0.0, 0.0])).avg,
                                  [[2.0, 0.0, 0.0, 2.0]])
    u = w_forward(np.full((5, 5), 3.0))
    np.testing.assert_allclose(u.avg, np.full((2, 5, 5), 6.0 / (2.0 * np.sqrt(2.0))), rtol=1e-15)


def test_avg_axis_loop_oracle():
    rng = np.random.default_rng(10)
    for d, shape in SHAPES.items():
        x = rng.standard_normal(shape)
        scale = 1.0 / (2.0 * np.sqrt(d))
        avg = w_forward(x).avg
        for j in range(d):
            np.testing.assert_allclose(avg[j], scale * loop_avg(x, j), rtol=1e-14, atol=1e-15)


def test_diff_axis_hand_trace():
    np.testing.assert_array_equal(_grad(np.array([4.0, 0.0, 0.0, 0.0])), [[4.0, 0.0, 0.0, -4.0]])
    np.testing.assert_array_equal(_grad(np.full(7, 2.5)), np.zeros((1, 7)))


def test_diff_axis_loop_oracle():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 4))
    np.testing.assert_array_equal(_grad(x)[1], loop_diff_axis(x, 1))


def test_axis_adjoint_dot_tests():
    # every single block of W, A_j or D_j, against w_adjoint of a stack holding only that block
    rng = np.random.default_rng(12)
    for d, shape in SHAPES.items():
        for j in range(d):
            for _ in range(5):
                x = rng.standard_normal(shape)
                t = rng.standard_normal(shape)
                for block in ("avg", "dif"):
                    blocks = {"avg": np.zeros((d,) + shape), "dif": np.zeros((d,) + shape)}
                    blocks[block][j] = t
                    lhs = dot(getattr(w_forward(x), block)[j], t)
                    rhs = dot(x, w_adjoint(CoeffStack(**blocks)))
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, l2_norm(x) * l2_norm(t))


def test_adjoint_hand_traces():
    # constants telescope to zero under the difference adjoint
    np.testing.assert_array_equal(_grad_adjoint(np.full((1, 9), 4.0)), np.zeros(9))
    # A^T t = t_i + t_{i-1}, scale 1/2 in 1D
    u = CoeffStack(np.array([[2.0, 0.0, 0.0, 2.0]]), np.zeros((1, 4)))
    np.testing.assert_array_equal(w_adjoint(u), [2.0, 1.0, 0.0, 1.0])


def test_w_forward_hand_trace():
    u = w_forward(np.array([4.0, 0.0, 0.0, 0.0]))  # scale 1/2 in 1D
    np.testing.assert_array_equal(u.avg[0], [2.0, 0.0, 0.0, 2.0])
    np.testing.assert_array_equal(u.dif[0], [2.0, 0.0, 0.0, -2.0])


def test_w_forward_constant_kills_differences():
    u = w_forward(np.full((5, 6), 3.0))
    assert np.all(u.dif == 0.0)


def test_w_adjoint_hand_trace():
    u = CoeffStack(np.array([[2.0, 0.0, 0.0, 2.0]]), np.array([[1.0, 0.0, 0.0, -1.0]]))
    np.testing.assert_allclose(w_adjoint(u), [3.0, 0.5, 0.0, 0.5], atol=1e-15)


def test_w_adjoint_zero_stack():
    u = CoeffStack(np.zeros((2, 4, 4)), np.zeros((2, 4, 4)))
    assert np.all(w_adjoint(u) == 0.0)


def test_wtw_identity():
    rng = np.random.default_rng(13)
    for d, shape in SHAPES.items():
        for _ in range(20):
            z = rng.standard_normal(shape)
            back = w_adjoint(w_forward(z))
            assert np.max(np.abs(back - z)) < 1e-12


def test_tight_frame_norm():
    rng = np.random.default_rng(14)
    for d, shape in SHAPES.items():
        for _ in range(10):
            z = rng.standard_normal(shape)
            nz = l2_norm(z)
            nw = stack_norm(w_forward(z))
            assert nw <= (1 + 1e-12) * nz
            assert abs(nw - nz) <= 1e-12 * nz


def test_w_adjointness_dot_test():
    rng = np.random.default_rng(15)
    for d, shape in SHAPES.items():
        z = rng.standard_normal(shape)
        u = CoeffStack(rng.standard_normal((d,) + shape), rng.standard_normal((d,) + shape))
        lhs = dot(w_forward(z).avg, u.avg) + dot(w_forward(z).dif, u.dif)
        rhs = dot(z, w_adjoint(u))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, l2_norm(z) * stack_norm(u))


def test_wwt_is_not_identity():
    # a dif-only impulse lies outside the analysis range
    shape = (8, 8)
    dif = np.zeros((2,) + shape)
    dif[0, 3, 3] = 1.0
    u = CoeffStack(np.zeros((2,) + shape), dif)
    uu = w_forward(w_adjoint(u))
    gap = np.sqrt(np.sum((uu.avg - u.avg) ** 2) + np.sum((uu.dif - u.dif) ** 2))
    assert gap > 0.1 * stack_norm(u)


def test_analysis_range_projection():
    # stacks produced by w_forward satisfy u = W W^T u
    rng = np.random.default_rng(16)
    z = rng.standard_normal((7, 5))
    u = w_forward(z)
    uu = w_forward(w_adjoint(u))
    gap = np.sqrt(np.sum((uu.avg - u.avg) ** 2) + np.sum((uu.dif - u.dif) ** 2))
    assert gap < 1e-10 * stack_norm(u)


def test_coeffstack_validation():
    with pytest.raises(ValueError):
        CoeffStack(np.zeros((1, 4)), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        CoeffStack(np.zeros((3, 4, 4)), np.zeros((3, 4, 4)))  # 3 blocks for d=2


def test_grad_circular_stacks_diff_axis():
    rng = np.random.default_rng(17)
    for d, shape in SHAPES.items():
        x = rng.standard_normal(shape)
        want = np.stack([loop_diff_axis(x, j) for j in range(d)])
        np.testing.assert_array_equal(_grad(x, "circular"), want)


def test_grad_free_hand_trace():
    g = _grad(np.array([4.0, 0.0, 0.0, 1.0]), "free")
    np.testing.assert_array_equal(g, [[4.0, 0.0, -1.0, 0.0]])
    # adjoint of the free differences: p_i - p_{i-1}, ignoring the last p
    np.testing.assert_array_equal(_grad_adjoint(np.array([[1.0, 2.0, 3.0, 9.0]]), "free"),
                                  [1.0, 1.0, 1.0, -3.0])


@pytest.mark.parametrize("boundary", ["circular", "free"])
def test_grad_pair_dot_test(boundary):
    rng = np.random.default_rng(18)
    for d, shape in SHAPES.items():
        for _ in range(5):
            x = rng.standard_normal(shape)
            p = rng.standard_normal((d,) + shape)
            lhs = dot(_grad(x, boundary), p)
            rhs = dot(x, _grad_adjoint(p, boundary))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, l2_norm(x) * l2_norm(p))


def test_grad_pair_writes_into_buffers():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((5, 6))
    g = np.full((2, 5, 6), np.nan)
    assert _grad(x, "free", out=g) is g
    np.testing.assert_array_equal(g, _grad(x, "free"))
    out = np.full((5, 6), np.nan)
    assert _grad_adjoint(g, "free", out=out) is out
    np.testing.assert_array_equal(out, _grad_adjoint(g, "free"))
