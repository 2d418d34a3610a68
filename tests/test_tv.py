"""TV functional, lifted h_hat, and subgradient bounds (Lemma-1 style)."""

import numpy as np
import pytest

from tvprox.frame import CoeffStack, _grad_steps, w_forward
from tvprox.signal import l2_norm
from tvprox.solvers import SolverConfig, _objectives
from tvprox.tv import MODES, check_mode, h_hat, h_hat_subgradient, tv

SHAPES = {1: (10,), 2: (6, 6), 3: (4, 4, 4)}


def test_check_mode():
    assert check_mode("aniso") == "aniso"
    with pytest.raises(ValueError):
        check_mode("isotropic")


def test_tv_constant_is_zero():
    for mode in ("aniso", "iso"):
        assert tv(np.full((5, 5), 2.7), mode) == 0.0


def test_tv_1d_hand_trace():
    z = np.array([4.0, 0.0, 0.0, 0.0])
    # circular differences: |4| + 0 + 0 + |-4|
    assert tv(z, "aniso") == 8.0
    assert tv(z, "iso") == 8.0


def test_tv_2x2_hand_trace():
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    # each axis has two nonzero circular differences of magnitude 1
    assert tv(x, "aniso") == pytest.approx(4.0, abs=1e-15)
    assert tv(x, "iso") == pytest.approx(2.0 + np.sqrt(2.0), abs=1e-14)


def test_tv_mode_ordering_and_homogeneity():
    rng = np.random.default_rng(20)
    for d, shape in SHAPES.items():
        for _ in range(20):
            x = rng.standard_normal(shape)
            iso = tv(x, "iso")
            aniso = tv(x, "aniso")
            assert iso <= aniso * (1 + 1e-12)
            assert aniso <= np.sqrt(d) * iso * (1 + 1e-12)
            alpha = rng.standard_normal()
            assert tv(alpha * x, "aniso") == pytest.approx(abs(alpha) * aniso, rel=1e-12)


def test_h_hat_matches_tv_on_analysis_coefficients():
    rng = np.random.default_rng(21)
    for d, shape in SHAPES.items():
        for mode in ("aniso", "iso"):
            for _ in range(10):
                z = rng.standard_normal(shape)
                assert h_hat(w_forward(z), mode) == pytest.approx(tv(z, mode), rel=1e-12, abs=1e-12)


def test_h_hat_zero_differences():
    u = w_forward(np.full((6, 6), 1.0))
    assert h_hat(u, "aniso") == 0.0
    assert h_hat(u, "iso") == 0.0


def test_h_hat_single_group_arithmetic():
    # d = 2, one location with dif vector (3, 4)
    dif = np.zeros((2, 4, 4))
    dif[0, 1, 2] = 3.0
    dif[1, 1, 2] = 4.0
    u = CoeffStack(np.zeros((2, 4, 4)), dif)
    assert h_hat(u, "iso") == pytest.approx(2.0 * np.sqrt(2.0) * 5.0, rel=1e-14)
    assert h_hat(u, "aniso") == pytest.approx(2.0 * np.sqrt(2.0) * 7.0, rel=1e-14)


def test_subgradient_zero_at_zero():
    u = CoeffStack(np.zeros((2, 5, 5)), np.zeros((2, 5, 5)))
    g = h_hat_subgradient(u, "iso")
    assert np.all(g.avg == 0.0) and np.all(g.dif == 0.0)


def test_subgradient_inequality():
    rng = np.random.default_rng(22)
    for mode in ("aniso", "iso"):
        for _ in range(500):
            d = rng.integers(1, 4)
            shape = SHAPES[d]
            u = CoeffStack(rng.standard_normal((d,) + shape), rng.standard_normal((d,) + shape))
            w = CoeffStack(rng.standard_normal((d,) + shape), rng.standard_normal((d,) + shape))
            g = h_hat_subgradient(u, mode)
            inner = float(np.sum(g.avg * (w.avg - u.avg)) + np.sum(g.dif * (w.dif - u.dif)))
            assert h_hat(w, mode) >= h_hat(u, mode) + inner - 1e-10


def test_subgradient_lemma1_bound():
    rng = np.random.default_rng(23)
    for mode in ("aniso", "iso"):
        for _ in range(500):
            d = rng.integers(1, 4)
            shape = SHAPES[d]
            n = int(np.prod(shape))
            u = CoeffStack(rng.standard_normal((d,) + shape), rng.standard_normal((d,) + shape))
            g = h_hat_subgradient(u, mode)
            norm = np.sqrt(np.sum(g.avg**2) + np.sum(g.dif**2))
            assert norm <= 2.0 * d * np.sqrt(n) + 1e-10


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_tv_of_a_stack_of_differences_is_each_signals_tv(d, mode):
    # the objective kernel scores a (B, *shape) ring through one (B, d, *shape)
    # difference stack: each slot's TV is the float of tv and its data term
    # the sum over that signal alone, bit for bit
    rng = np.random.default_rng(77)
    ring = rng.standard_normal((4,) + SHAPES[d]) * 10.0 ** rng.integers(-3, 4, (4,) + SHAPES[d])
    y = rng.standard_normal(SHAPES[d])
    difs = np.empty((4, d) + SHAPES[d])
    steps = _grad_steps(ring, difs, "circular", batch=1)

    def objectives(lam, data):
        return _objectives(ring, difs, steps, SolverConfig(lam=lam, mode=mode), data, np.zeros(4))

    tvs = [tv(x, mode) for x in ring]
    data_terms = [0.5 * float(np.add.reduce((y - x) ** 2, axis=None)) for x in ring]
    assert objectives(1.0, None) == tvs
    assert objectives(0.0, y) == data_terms
    assert objectives(0.3, y) == [0.3 * t + g for t, g in zip(tvs, data_terms)]
