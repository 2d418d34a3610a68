"""APGM / ADMM drivers: momentum schedule, objective bookkeeping, stopping
protocol, and long-run oracles on tiny problems."""

import warnings

import numpy as np
import pytest

from tvprox.exact import OracleConfig
from tvprox.operators import add_awgn, prox_g_denoise
from tvprox.signal import l2_norm
from tvprox.solvers import (
    Problem,
    RunReport,
    SolverConfig,
    SolverDivergence,
    admm,
    apgm,
    fista_momentum,
    objective,
)
from tvprox.tv import tv


def denoise_problem(y):
    return Problem(
        grad_g=lambda x: x - y,
        objective_g=lambda x: 0.5 * float(((y - x) ** 2).sum()),
        prox_g=lambda v, gamma: prox_g_denoise(v, gamma, y),
        lipschitz_L=1.0,
    )


def test_fista_momentum_schedule():
    assert fista_momentum(1.0) == pytest.approx((1 + np.sqrt(5)) / 2, rel=1e-12)
    q = 1.0
    prev = q
    for _ in range(10**4):
        nxt = fista_momentum(q)
        assert nxt > q
        weight = (q - 1.0) / nxt
        assert 0.0 <= weight < 1.0
        prev, q = q, nxt
    with pytest.raises(ValueError):
        fista_momentum(0.5)


def test_solver_config_validation():
    cfg = SolverConfig(gamma=0.1, lam=0.5)
    assert cfg.tau == pytest.approx(0.05)
    for bad in (dict(gamma=0.0), dict(gamma=np.inf), dict(lam=-1.0),
                dict(stop_tol=0.0), dict(prox_choice="other")):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


def test_objective_components():
    rng = np.random.default_rng(60)
    y = rng.standard_normal((6, 6))
    prob = denoise_problem(y)
    assert objective(prob, SolverConfig(lam=0.0), y) == 0.0
    c = np.full((6, 6), 0.7)
    assert objective(prob, SolverConfig(lam=2.0), c) == pytest.approx(
        0.5 * np.sum((y - c) ** 2), rel=1e-12)
    x = rng.standard_normal((6, 6))
    cfg = SolverConfig(lam=0.8, mode="iso")
    want = 0.5 * np.sum((y - x) ** 2) + 0.8 * tv(x, "iso")
    assert objective(prob, cfg, x) == pytest.approx(want, rel=1e-12)


def test_apgm_lambda_zero_recovers_data():
    rng = np.random.default_rng(61)
    y = rng.standard_normal((8, 8))
    report = apgm(denoise_problem(y), SolverConfig(gamma=1.0, lam=0.0), np.zeros((8, 8)))
    assert l2_norm(report.final_x - y) <= 1e-8
    assert report.stop_reason == "tolerance-met"
    assert len(report.objective_trace) == report.iterations


def test_apgm_long_run_oracle():
    # tiny 1D denoising with the exact prox: the accelerated run must land
    # within 1e-8 of a long plain prox-gradient reference objective
    from tvprox.exact import fpg_prox

    rng = np.random.default_rng(62)
    y = rng.standard_normal(8)
    prob = denoise_problem(y)
    lam = 0.5
    oracle = OracleConfig(max_iter=3000, tol=1e-12)
    cfg = SolverConfig(gamma=0.5, lam=lam, prox_choice="exact", oracle=oracle, stop_tol=1e-10)
    report = apgm(prob, cfg, y.copy())

    # plain (unaccelerated) prox-gradient, gamma = 1: z = y every step, so the
    # reference is reached after the first exact prox and stays fixed
    x_ref = y.copy()
    tight = OracleConfig(max_iter=20000, tol=1e-13)
    for _ in range(50):
        x_ref = fpg_prox(x_ref - (x_ref - y), lam, tight)
    f_ref = objective(prob, cfg, x_ref)
    assert report.objective_trace[-1] <= f_ref + 1e-8


def test_apgm_exact_beats_approx():
    rng = np.random.default_rng(63)
    y = add_awgn(rng.random((12, 12)), 0.1, seed=9)
    prob = denoise_problem(y)
    common = dict(gamma=0.5, lam=0.4, stop_tol=1e-8)
    exact = apgm(prob, SolverConfig(prox_choice="exact",
                                    oracle=OracleConfig(max_iter=2000, tol=1e-11), **common),
                 y.copy())
    approx = apgm(prob, SolverConfig(prox_choice="approx", **common), y.copy())
    assert exact.objective_trace[-1] <= approx.objective_trace[-1] + 1e-12
    # running minimum of the exact trace is non-increasing
    run_min = np.minimum.accumulate(exact.objective_trace)
    assert np.all(np.diff(run_min) <= 1e-12)


def test_apgm_warns_on_large_gamma():
    rng = np.random.default_rng(64)
    y = rng.standard_normal((6, 6))
    with pytest.warns(RuntimeWarning):
        apgm(denoise_problem(y), SolverConfig(gamma=2.0, lam=0.1, max_iter=5), y.copy())


def test_apgm_divergence_raises():
    y = np.zeros((4, 4))
    bad = Problem(grad_g=lambda x: -10.0 * x - 1.0,  # wrong-sign gradient blows up
                  objective_g=lambda x: float((x**2).sum()),
                  lipschitz_L=None)
    with pytest.raises(SolverDivergence):
        apgm(bad, SolverConfig(gamma=1.0, lam=0.0, max_iter=2000), np.ones((4, 4)))


def test_denoise_divergence_raises_without_overflow_warnings():
    # the objective overflows before the finiteness check; only the step-size warning may surface
    rng = np.random.default_rng(68)
    y = rng.standard_normal((8, 8))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error")
        warnings.filterwarnings("always", message=r"apgm: gamma=.* exceeds 1/L")
        with pytest.raises(SolverDivergence):
            apgm(denoise_problem(y), SolverConfig(gamma=50.0, lam=0.5, max_iter=2000), np.zeros_like(y))
    assert [str(w.message) for w in caught] == ["apgm: gamma=50.0 exceeds 1/L=1.000e+00"]


def test_admm_identity_lambda_zero():
    rng = np.random.default_rng(65)
    y = rng.standard_normal((8, 8))
    report = admm(denoise_problem(y), SolverConfig(gamma=1.0, lam=0.0), np.zeros((8, 8)))
    assert l2_norm(report.final_x - y) <= 1e-4
    assert report.stop_reason == "tolerance-met"


def test_admm_requires_prox_g():
    prob = Problem(grad_g=lambda x: x, objective_g=lambda x: 0.0)
    with pytest.raises(ValueError):
        admm(prob, SolverConfig(), np.zeros((4, 4)))


def test_admm_denoising_near_exact_minimum():
    from tvprox.exact import fpg_prox

    rng = np.random.default_rng(66)
    y = add_awgn(rng.random((12, 12)), 0.1, seed=11)
    prob = denoise_problem(y)
    lam = 0.3
    cfg = SolverConfig(gamma=1e-3, lam=lam, stop_tol=1e-9)
    b = admm(prob, cfg, y.copy())
    # small penalty gamma means small tau: the approximate prox perturbs the
    # problem little, so ADMM lands near the true TV-denoising minimum
    x_star = fpg_prox(y, lam, OracleConfig(max_iter=20000, tol=1e-13))
    f_star = objective(prob, cfg, x_star)
    gap = (b.objective_trace[-1] - f_star) / f_star
    assert -1e-12 <= gap <= 1e-2
    assert b.extras["primal_residual"] <= 1e-4
    assert b.extras["dual_norm"] <= 1e3 * l2_norm(y)


def test_stop_rule_uses_relative_change():
    rng = np.random.default_rng(67)
    y = rng.standard_normal((6, 6))
    report = apgm(denoise_problem(y), SolverConfig(gamma=0.9, lam=0.2, stop_tol=5e-6), y.copy())
    assert report.stop_reason == "tolerance-met"
    assert report.iterations < 20000
    assert isinstance(report, RunReport)
    assert np.all(np.isfinite(report.final_x))


def test_solver_config_rejects_zero_iterations():
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(max_iter=0)
    y = np.zeros((4, 4))
    report = apgm(denoise_problem(y), SolverConfig(max_iter=1), y)
    assert report.iterations == 1
