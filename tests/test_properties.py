"""Property tests of the frame, the approximate prox (among them the paper's
theorem that it is a proximal map), the FPG oracle and the solvers' bound
approximate-prox loops on drawn shapes.

Shapes have d = 1..3 axes with every extent in 2..9, so extent-2 axes,
where the slicing kernel's boundary slab is half the axis, are drawn too.
Runs are derandomized, so every run checks the same examples. The FPG
loop's bit-identity reference also runs on a fixed grid of shapes, modes,
boundaries, restart settings and budgets.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import oracle

from tvprox.exact import OracleConfig, duality_gap, fpg_prox, tautstring_prox_1d
from tvprox.frame import CoeffStack, _grad, _grad_adjoint, w_adjoint, w_forward
from tvprox.shrinkage import ProxParams, _project_ball, approx_prox, threshold_stack
from tvprox.operators import prox_g_denoise
from tvprox.signal import l2_norm
from tvprox.solvers import Problem, SolverConfig, admm, apgm, objective
from tvprox.tv import MODES, _tv_of_differences, h_hat, tv

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
    lhs = np.vdot(w.avg, u.avg) + np.vdot(w.dif, u.dif)
    rhs = np.vdot(z, w_adjoint(u))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, l2_norm(z) * l2_norm([u.avg, u.dif]))


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


# The paper's first theorem: S_tau = W^T T W is the prox of a convex
# function. With e(u) = tau*h_hat(T u) + 0.5||u - T u||^2 the Moreau envelope
# of tau*h_hat (T = threshold_stack at 2 tau sqrt(d), the prox of tau*h_hat),
# psi(z) = 0.5||z||^2 - e(W z) has gradient z - W^T (W z - T W z) = S_tau(z),
# since W^T W = I. A 1-Lipschitz gradient of a convex function is a proximal
# map (Moreau, Bull. SMF 1965), so the checks are: S_tau is the gradient of
# psi, psi is convex, and S_tau is firmly nonexpansive.
THEOREM_TAUS = st.floats(-2.0, math.log10(3.0)).map(lambda e: 10.0**e)


@st.composite
def theorem_cases(draw):
    """(z1, z2, tau, mode) with z1 and z2 scaled down by up to 1e-4, so that
    many differences fall below the threshold, where S_tau is linear."""
    z1, z2 = draw(signal_pairs())
    scale = 10.0 ** draw(st.floats(-4.0, 0.0))
    return z1 * scale, z2 * scale, draw(THEOREM_TAUS), draw(st.sampled_from(MODES))


def _psi(z, tau, mode):
    u = w_forward(z)
    t = threshold_stack(u, 2.0 * tau * math.sqrt(z.ndim), mode)
    residual = u.dif - t.dif  # T passes the averaging blocks unchanged
    return 0.5 * np.vdot(z, z) - (tau * h_hat(t, mode) + 0.5 * np.vdot(residual, residual))


@PROPERTY
@given(theorem_cases())
def test_approx_prox_is_the_gradient_of_psi(case):
    z, v, tau, mode = case
    if v.any():  # a unit direction; scaled by max|v| first, so that tiny v does not underflow
        v = v / np.abs(v).max()
        v /= l2_norm(v)
    # psi is piecewise quadratic with a 1-Lipschitz gradient, so the central
    # difference is off by at most h/2 plus round-off
    h = 1e-7 * max(1.0, l2_norm(z))
    fd = (_psi(z + h * v, tau, mode) - _psi(z - h * v, tau, mode)) / (2.0 * h)
    assert abs(fd - np.vdot(approx_prox(z, ProxParams(tau, mode)), v)) <= h / 2 + 1e-8 * max(1.0, l2_norm(z))


@PROPERTY
@given(theorem_cases())
def test_psi_is_convex(case):
    z1, z2, tau, mode = case
    s1 = approx_prox(z1, ProxParams(tau, mode))
    slack = _psi(z2, tau, mode) - _psi(z1, tau, mode) - np.vdot(s1, z2 - z1)
    assert slack >= -1e-12 * max(1.0, l2_norm(z1) ** 2, l2_norm(z2) ** 2)


@PROPERTY
@given(theorem_cases())
def test_approx_prox_firmly_nonexpansive(case):
    z1, z2, tau, mode = case
    p = ProxParams(tau, mode)
    ds = approx_prox(z1, p) - approx_prox(z2, p)
    slack = np.vdot(ds, z1 - z2) - l2_norm(ds) ** 2
    assert slack >= -1e-12 * max(1.0, l2_norm(z1), l2_norm(z2)) * l2_norm(z1 - z2)


@settings(PROPERTY, max_examples=40)
@given(SIGNALS, TAUS, st.sampled_from(MODES))
def test_distance_to_exact_prox_bound(z, tau, mode):
    exact, _ = fpg_prox(z, tau, OracleConfig(max_iter=2000, tol=1e-10, mode=mode), return_info=True)
    assert l2_norm(exact - approx_prox(z, ProxParams(tau, mode))) <= 4.0 * tau * z.ndim * np.sqrt(z.size)


def unbound_fpg_reference(z, tau, cfg):
    # fpg_prox's loop with the difference pair called unbound on every
    # iteration, on its own buffers: fresh views, a fresh adjoint scratch,
    # a separate tau*D^T p array and an allocating projection, with the
    # gap transcribed from _relative_gap. The same arithmetic in the same
    # order, so every output must be bit-identical.
    d = z.ndim
    step = 1.0 / (4.0 * d * tau)
    p = np.zeros((d,) + z.shape)
    q = np.zeros_like(p)
    g = np.empty_like(p)
    x = z.copy()
    x_prev = np.empty_like(z)
    dx = np.zeros_like(z)
    dtp = np.empty_like(z)
    t_prev, beta = 1.0, 0.0
    for k in range(cfg.max_iter):
        dx *= beta
        dx += x
        g[...] = _grad(dx, cfg.boundary)
        g *= step
        g += q
        _project_ball(g, 1.0, cfg.mode)
        t = (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev)) / 2.0
        beta = (t_prev - 1.0) / t
        np.subtract(g, p, out=p)
        if cfg.restart:
            np.subtract(q, g, out=q)
            if np.vdot(q, p) > 0.0:
                t, beta = 1.0, 0.0
        np.multiply(p, beta, out=q)
        q += g
        p, g, t_prev = g, p, t
        x, x_prev = x_prev, x
        dtp[...] = _grad_adjoint(p, cfg.boundary)
        dtp *= tau
        np.subtract(z, dtp, out=x)
        np.subtract(x, x_prev, out=dx)
        if (k + 1) % 50 == 0 or k + 1 == cfg.max_iter:
            dif = _grad(x, cfg.boundary)
            coupling = float(np.vdot(dif, p))
            tv_x = _tv_of_differences(dif, cfg.mode)
            dtp_sq = float(np.vdot(dtp, dtp))
            primal = 0.5 * dtp_sq + tau * tv_x
            gap = tau * (tv_x - coupling)
            if not dtp_sq == tv_x == 0.0:
                normal = sys.float_info.min
                in_range = normal <= dtp_sq < math.inf and normal <= primal < math.inf
                gap = gap / primal if in_range else math.nan
            if gap <= cfg.tol:
                break
    return x, {"iterations": k + 1, "p": p, "gap": gap}


def assert_fpg_matches_unbound_loop(z, tau, cfg):
    want = unbound_fpg_reference(z, tau, cfg)
    got = fpg_prox(z, tau, cfg, return_info=True)
    assert np.array_equal(got[0], want[0])
    assert got[1]["iterations"] == want[1]["iterations"]
    assert np.array_equal(got[1]["p"], want[1]["p"])
    assert got[1]["gap"] == want[1]["gap"] or math.isnan(got[1]["gap"]) and math.isnan(want[1]["gap"])


@settings(PROPERTY, max_examples=60)
@given(SIGNALS, TAUS, st.sampled_from(MODES), st.sampled_from(("circular", "free")), st.sampled_from((None, 1e-6)))
# extent-2 axes, where the first, last and penultimate slabs coincide in pairs
@example(np.array([3.0, -1.0]), 0.5, "aniso", "free", None)
@example(np.arange(18.0).reshape(2, 9) % 5, 0.3, "iso", "free", None)
@example(np.arange(12.0).reshape(3, 2, 2) % 7, 0.2, "iso", "circular", 1e-6)
@example(np.arange(8.0).reshape(2, 2, 2) ** 2, 0.7, "aniso", "circular", 1e-6)
def test_fpg_prox_bit_identical_to_unbound_loop(z, tau, mode, boundary, restart_tol):
    cfg = oracle(restart_tol, max_iter=300, tol=1e-10, mode=mode, boundary=boundary)
    assert_fpg_matches_unbound_loop(z, tau, cfg)


@pytest.mark.parametrize("restart_tol", [None, 1e-7])
@pytest.mark.parametrize("boundary", ["circular", "free"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("shape", [(29,), (6, 7), (3, 4, 5)])
def test_fpg_prox_bit_identical_to_unbound_loop_grid(shape, mode, boundary, restart_tol):
    # budgets off and on the 50-iteration gap check, so the runs also end
    # on the check at max_iter, and odd and even ones, so each of
    # fpg_prox's two primal buffers is the one returned, at the cap and at
    # a gap check
    z = np.random.default_rng(sum(shape)).standard_normal(shape)
    for max_iter, tau in ((37, 0.4), (123, 0.05), (173, 0.9), (1, 0.4), (2, 0.05), (50, 0.9), (124, 0.05)):
        cfg = oracle(restart_tol, max_iter=max_iter, tol=1e-7, mode=mode, boundary=boundary)
        assert_fpg_matches_unbound_loop(z, tau, cfg)


def _per_call_prox(z, cfg):
    return approx_prox(z, ProxParams(cfg.tau, cfg.mode)) if cfg.tau > 0 else z.copy()


def _per_call_stopped(x, x_prev, tol):
    # the relative change ||x - x_prev|| / ||x_prev||, formed on a fresh difference
    denom = l2_norm(x_prev)
    return denom != 0.0 and l2_norm(x - x_prev) / denom <= tol


def per_call_apgm(problem, cfg, x0):
    # apgm's approximate-prox loop with approx_prox, objective (so tv) and
    # the relative change called per iteration on fresh arrays: the same arithmetic
    # in the same order, so the results must be bit-identical
    x_prev, s, q_prev, trace, stop = x0.copy(), x0.copy(), 1.0, [], "max-iter"
    for _ in range(cfg.max_iter):
        z = s - cfg.gamma * problem.grad_g(s)
        x = _per_call_prox(z, cfg)
        q = (1.0 + np.sqrt(1.0 + 4.0 * q_prev**2)) / 2.0
        s = x + ((q_prev - 1.0) / q) * (x - x_prev)
        trace.append(objective(problem, cfg, x))
        if _per_call_stopped(x, x_prev, cfg.stop_tol):
            stop = "tolerance-met"
            break
        x_prev, q_prev = x, q
    return x, np.array(trace), stop, None


def per_call_admm(problem, cfg, x0):
    # admm's approximate-prox loop, per call as above, with the primal
    # residual taken on every iteration
    x, s, trace, stop = x0.copy(), np.zeros_like(x0), [], "max-iter"
    for _ in range(cfg.max_iter):
        z = problem.prox_g(x - s, cfg.gamma)
        x_new = _per_call_prox(z + s, cfg)
        s = s + z - x_new
        trace.append(objective(problem, cfg, x_new))
        residual = l2_norm(x_new - z)
        done = _per_call_stopped(x_new, x, cfg.stop_tol)
        x = x_new
        if done:
            stop = "tolerance-met"
            break
    return x, np.array(trace), stop, residual


@st.composite
def solver_runs(draw):
    """(y, x0, cfg, None) for a denoising run, with a budget and tolerance
    that mostly stop it by tolerance or mostly at max_iter. The TV prox
    keeps the mean, so the data's mean of at least 150 in size keeps the
    iterates off the zero vector, where the relative-change stop never
    fires. The examples below give the stop reason in place of None."""
    shape = draw(SHAPES)
    y = draw(_values(shape)) + draw(st.sampled_from((-250.0, 250.0)))
    x0 = np.zeros(shape) if draw(st.booleans()) else y.copy()
    budget = draw(st.sampled_from((dict(stop_tol=1e-3, max_iter=20000),
                                   dict(stop_tol=1e-300, max_iter=draw(st.integers(1, 40))))))
    lam = draw(st.sampled_from((0.0, 0.5, 3.0)))
    cfg = SolverConfig(gamma=draw(st.floats(0.05, 1.0)), lam=lam, mode=draw(st.sampled_from(MODES)), **budget)
    return y, x0, cfg, None


TINY = 1e-160 * (np.arange(12.0).reshape(3, 4) % 5 + 3.0)


@settings(PROPERTY, max_examples=60)
@given(solver_runs(), st.sampled_from(("apgm", "admm")))
# extent-2 axes and both stops, with and without regularization
@example((np.array([3.0, -1.0]), np.zeros(2), SolverConfig(gamma=0.5, lam=0.5, stop_tol=1e-3), "tolerance-met"), "apgm")
@example((np.arange(12.0).reshape(3, 2, 2) % 7, np.zeros((3, 2, 2)),
          SolverConfig(gamma=0.9, lam=3.0, mode="iso", stop_tol=1e-300, max_iter=25), "max-iter"), "admm")
@example((np.arange(18.0).reshape(2, 9) % 5, np.ones((2, 9)),
          SolverConfig(gamma=0.3, lam=0.0, stop_tol=1e-3), "tolerance-met"), "admm")
@example((np.arange(8.0).reshape(2, 2, 2) ** 2, np.zeros((2, 2, 2)),
          SolverConfig(gamma=0.7, lam=0.5, mode="iso", stop_tol=1e-300, max_iter=30), "max-iter"), "apgm")
# squares below the normal range, where l2_norm rescales in the stop test
@example((TINY, np.zeros((3, 4)), SolverConfig(gamma=0.5, lam=0.5, stop_tol=1e-3), "tolerance-met"), "apgm")
@example((TINY, np.zeros((3, 4)), SolverConfig(gamma=0.5, lam=0.5, stop_tol=1e-3), "tolerance-met"), "admm")
def test_bound_solvers_bit_identical_to_per_call_loops(run, solver):
    y, x0, cfg, stop = run
    problem = Problem(grad_g=lambda x: x - y, objective_g=lambda x: 0.5 * float(((y - x) ** 2).sum()),
                      prox_g=lambda v, gamma: prox_g_denoise(v, gamma, y), lipschitz_L=1.0)
    reference = per_call_apgm if solver == "apgm" else per_call_admm
    want_x, want_trace, want_stop, want_residual = reference(problem, cfg, x0)
    assert stop in (None, want_stop)
    # the data form, whose data term the solver runs itself, gives the same bits
    for form in (problem, Problem(data=y)):
        report = (apgm if solver == "apgm" else admm)(form, cfg, x0)
        assert np.array_equal(report.final_x, want_x)
        assert np.array_equal(report.objective_trace, want_trace)
        assert report.iterations == len(want_trace)
        assert report.stop_reason == want_stop
        if solver == "admm":
            assert report.extras["primal_residual"] == want_residual


@settings(PROPERTY, max_examples=60)
@given(
    st.integers(2, 64).flatmap(lambda n: hnp.arrays(np.float64, n, elements=st.floats(-10.0, 10.0, allow_subnormal=False))),
    st.floats(-2.0, 0.5).map(lambda e: 10.0**e),
)
def test_free_boundary_fpg_matches_taut_string_1d(z, tau):
    x = fpg_prox(z, tau, OracleConfig(max_iter=50000, tol=1e-12, boundary="free"), return_info=True)[0]
    assert np.max(np.abs(x - tautstring_prox_1d(z, tau))) <= 1e-6


@settings(PROPERTY, max_examples=60)
@given(SIGNALS, TAUS, st.sampled_from(MODES), st.sampled_from(("circular", "free")), st.integers(1, 300))
def test_fpg_dual_is_feasible_and_synthesises_x(z, tau, mode, boundary, budget):
    cfg = OracleConfig(max_iter=budget, tol=1e-10, mode=mode, boundary=boundary)
    x, info = fpg_prox(z, tau, cfg, return_info=True)
    p = info["p"]
    sizes = np.abs(p) if mode == "aniso" else np.sqrt((p * p).sum(axis=0))
    assert sizes.max() <= 1.0 + 1e-14
    assert np.array_equal(x, z - tau * _grad_adjoint(p, boundary))


# n = 200 with a few long runs and jumps, where small budgets leave a large gap
STEPS_1D = np.sin(np.arange(200.0) * 0.37) * 3.0 + np.arange(200.0) % 7


@settings(PROPERTY, max_examples=60)
@given(
    st.integers(2, 64).flatmap(lambda n: hnp.arrays(np.float64, n, elements=st.floats(-10.0, 10.0, allow_subnormal=False))),
    st.floats(-2.0, 0.5).map(lambda e: 10.0**e),
    st.integers(5, 5000),
)
@example(STEPS_1D, 0.7, 5)
@example(STEPS_1D, 0.7, 50)
@example(STEPS_1D, 0.7, 500)
def test_duality_gap_bounds_distance_to_taut_string_1d(z, tau, budget):
    # the gap of any FPG iterate bounds half its squared distance to the
    # exact prox, here given by the taut string
    cfg = OracleConfig(max_iter=budget, tol=1e-300, boundary="free")
    x, info = fpg_prox(z, tau, cfg, return_info=True)
    gap = duality_gap(z, x, info["p"], tau, "aniso", "free")
    primal = 0.5 * l2_norm(x - z) ** 2 + tau * _tv_of_differences(_grad(x, "free"), "aniso")
    assert 0.5 * l2_norm(x - tautstring_prox_1d(z, tau)) ** 2 <= gap + 1e-12 * (1.0 + abs(primal))


@PROPERTY
@given(SHAPES.flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=st.floats(allow_nan=False))))
@example(np.array([3.4e-185, 3.4e-185]))
def test_l2_norm_bit_identical_to_numpy_norm(a):
    # bit-identical wherever numpy's sum of squares is a normal number or
    # zero on a zero array, or an entry is inf; where the squares of finite
    # entries overflow, or underflow below the normal range (numpy's norm
    # is then below sqrt of the smallest normal, 2**-511), l2_norm rescales
    # instead. Rescaled results are checked against math.hypot to 1e-15
    # relative, or one step of the subnormal grid where they are subnormal.
    with np.errstate(over="ignore", under="ignore"):
        want = np.linalg.norm(a)
        got = l2_norm(a)
    if 2.0**-511 <= want < math.inf or not np.isfinite(a).all() or not a.any():
        assert got == want
    else:
        assert got == pytest.approx(math.hypot(*a.ravel()), rel=1e-15, abs=math.ulp(0.0))
