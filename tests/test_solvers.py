"""APGM / ADMM drivers: momentum schedule, objective bookkeeping, stopping
protocol, and long-run oracles on tiny problems."""

import dataclasses
import hashlib
import itertools
import warnings
from functools import partial

import numpy as np
import pytest
from call_counts import python_calls
from placement import at_offset, line_offset

from tvprox.exact import OracleConfig
from tvprox.experiments import ExperimentConfig, _make_problem, gen_foam_phantom
from tvprox.frame import w_forward
from tvprox.operators import add_awgn, identity_operator, lipschitz_power_iter, prox_g_ct, prox_g_denoise
from tvprox.shrinkage import ProxParams, approx_prox
from tvprox.signal import l2_norm
from tvprox.solvers import (
    Problem,
    RunReport,
    SolverConfig,
    SolverDivergence,
    _working_set,
    admm,
    apgm,
    fista_momentum,
    objective,
)
from tvprox.tv import tv


def denoise_problem(y):
    """The callback form of Problem(data=y), with its derived callbacks' expressions."""
    return Problem(
        grad_g=lambda x: x - y,
        objective_g=lambda x: 0.5 * float(np.add.reduce((y - x) ** 2, axis=None)),
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


_TOLS = (np.nan, np.inf, 0.0, -1e-9)
_BUDGETS = (2.5, 0, np.float64(100.0), True)
# constructor -> {setting: (a well-formed value, invalid values)}
_SETTINGS = {
    OracleConfig: {"tol": (np.float64(1e-9), _TOLS), "restart": (np.bool_(True), ("a", None, 2, np.nan)),
                   "max_iter": (np.int64(7), _BUDGETS)},
    SolverConfig: {"stop_tol": (np.float64(1e-9), _TOLS), "max_iter": (np.int64(7), _BUDGETS),
                   "gamma": (np.float64(0.5), ("a", np.nan)), "lam": (np.float64(0.0), ("a", -np.inf)),
                   # the exact prox must solve the TV the objective scores
                   "oracle": (OracleConfig(), (OracleConfig(mode="iso"),))},
    ProxParams: {"tau": (np.float64(1e-9), ("a", np.inf))},
    ExperimentConfig: {"n_phantoms": (np.int64(2), (1.5,)), "seed": (np.int64(0), (0.5,)),
                       "image_size": (np.int64(16), (20.5,)), "n_angles": (np.int64(4), (2.5,)),
                       "lambda_grid": ((np.float64(0.0),), (("a",),))},
    partial(gen_foam_phantom, 16, seed=0):
        {"n_disks": (np.int64(3), (2.5,)), "seed": (np.int64(0), (0.5, True, -1))},
    partial(lipschitz_power_iter, identity_operator((4, 4)), iters=3, tol=1e-3):
        {"iters": (np.int64(3), (2.5, 0)), "tol": (np.float64(1e-3), (np.nan, 0.0)),
         "seed": (np.int64(0), (0.5, True, -1))},
    partial(add_awgn, np.zeros(4), 0.1): {"seed": (np.int64(0), (0.5, True, -1))},
    partial(prox_g_ct, np.zeros((4, 4)), 0.5, np.zeros((4, 4)), identity_operator((4, 4))):
        {"cg_max": (np.int64(3), (2.5, 0))},
}


def _setting_id(make, name, value):
    """The owner, the setting and the value's text (a config's fields set away
    from their defaults): an id that no other case's edit renames."""
    owner = make.func.__name__ if isinstance(make, partial) else make.__name__
    if dataclasses.is_dataclass(value):
        value = ",".join(f"{f.name}={getattr(value, f.name)}" for f in dataclasses.fields(value)
                         if getattr(value, f.name) != f.default)
    return f"{owner}-{name}-{value}".replace(" ", "")


@pytest.mark.parametrize("make, name, value", [
    pytest.param(make, name, value, id=_setting_id(make, name, value))
    for make, settings in _SETTINGS.items() for name, (_, bad) in settings.items() for value in bad
])
def test_settings_must_be_finite_and_integral(make, name, value):
    # a NaN tolerance never stops a loop, a fractional count is a typo and a
    # string scale is a mix-up; all fail at construction with a ValueError
    # naming the setting, while well-formed numpy scalars pass
    with pytest.raises(ValueError, match=name):
        make(**{name: value})
    make(**{name: _SETTINGS[make][name][0]})


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


def test_problem_rejects_bad_input():
    # a step-size bound that is not finite and > 0 fails at construction (an
    # L of 0 made apgm divide by zero, and -1 only warned); so do data given
    # with callbacks, a problem with neither, and data that is not a signal
    y = np.zeros((16, 16))
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="lipschitz_L"):
            Problem(grad_g=lambda x: x, objective_g=lambda x: 0.0, lipschitz_L=bad)
        with pytest.raises(ValueError, match="lipschitz_L"):
            Problem(data=y, lipschitz_L=bad)
    with pytest.raises(ValueError, match="not both"):
        Problem(objective_g=lambda x: 0.0, data=y)
    for neither in ({}, {"grad_g": lambda x: x}, {"objective_g": lambda x: 0.0}):
        with pytest.raises(ValueError, match="needs data"):
            Problem(**neither)
    with pytest.raises(ValueError, match="non-finite"):
        Problem(data=np.full((4, 4), np.nan))
    assert Problem(data=y).lipschitz_L == 1.0


def test_data_form_survives_replace():
    # the data form stores y and L only, so dataclasses.replace rebuilds it
    y = np.random.default_rng(79).standard_normal((6, 6))
    problem = dataclasses.replace(Problem(data=y), lipschitz_L=2.0)
    assert problem.lipschitz_L == 2.0 and np.array_equal(problem.data, y)
    assert (problem.grad_g, problem.objective_g, problem.prox_g) == (None, None, None)


def test_objective_checks_its_signal():
    # x is validated whatever lambda, and must have the data's shape (y would broadcast)
    problem = Problem(data=np.ones((4, 4)))
    with pytest.raises(ValueError, match=r"objective: x has shape \(4,\) but the data has shape \(4, 4\)"):
        objective(problem, SolverConfig(lam=0.5), np.zeros(4))
    for lam in (0.0, 0.5):
        with pytest.raises(ValueError, match="non-finite"):
            objective(problem, SolverConfig(lam=lam), np.full((4, 4), np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            objective(denoise_problem(np.ones((4, 4))), SolverConfig(lam=lam), np.full((4, 4), np.inf))
    assert objective(problem, SolverConfig(lam=0.5), np.zeros((4, 4))) == 8.0


def test_data_form_rejects_x0_of_another_shape():
    # y of shape (16,) would broadcast against x0 of shape (16, 16)
    for solve in (apgm, admm):
        with pytest.raises(ValueError, match=r"x0 has shape \(16, 16\) but the data has shape \(16,\)"):
            solve(Problem(data=np.zeros(16)), SolverConfig(), np.zeros((16, 16)))


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


def test_exact_runs_report_inner_fpg_counters():
    rng = np.random.default_rng(68)
    y = add_awgn(rng.random((8, 8)), 0.1, seed=12)
    prob = denoise_problem(y)
    exact = SolverConfig(gamma=0.5, lam=0.4, prox_choice="exact", oracle=OracleConfig(max_iter=3), max_iter=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a budgeted inner solve is counted, not warned about
        a = apgm(prob, exact, y.copy())
        b = admm(prob, exact, y.copy())
    for report in (a, b):
        assert report.iterations == 2
        assert report.extras["fpg_calls"] == 2
        assert report.extras["fpg_iters"] <= 6
        assert report.extras["fpg_iters_max"] <= 3
        assert report.extras["fpg_not_converged"] == 2
    assert "primal_residual" in b.extras
    approx = SolverConfig(gamma=0.5, lam=0.4, max_iter=2)
    assert apgm(prob, approx, y.copy()).extras == {}
    assert "fpg_calls" not in admm(prob, approx, y.copy()).extras


def _nan_at_call(fn, bad_call):
    """fn, except that call number bad_call (from 1) returns NaNs of its shape."""
    calls = [0]

    def wrapped(*args):
        calls[0] += 1
        out = fn(*args)
        return np.full_like(out, np.nan) if calls[0] == bad_call else out

    return wrapped


@pytest.mark.parametrize("mode", ["aniso", "iso"])
def test_non_finite_iterate_raises_solver_divergence(mode):
    # the iterates are validated once, at entry; a non-finite iterate later
    # surfaces through the objective's finiteness check, not as a ValueError
    rng = np.random.default_rng(69)
    y = rng.standard_normal((6, 6))
    cfg = SolverConfig(gamma=0.5, lam=0.3, mode=mode, stop_tol=1e-300, max_iter=10)
    prob = denoise_problem(y)
    bad_grad = Problem(grad_g=_nan_at_call(prob.grad_g, 3), objective_g=prob.objective_g, lipschitz_L=1.0)
    with pytest.raises(SolverDivergence, match="iteration 3"):
        apgm(bad_grad, cfg, y.copy())
    bad_prox = Problem(grad_g=prob.grad_g, objective_g=prob.objective_g, prox_g=_nan_at_call(prob.prox_g, 3))
    with pytest.raises(SolverDivergence, match="iteration 3"):
        admm(bad_prox, cfg, y.copy())
    x0 = y.copy()
    x0[2, 3] = np.nan
    for solve in (apgm, admm):
        with pytest.raises(ValueError, match="non-finite"):
            solve(prob, cfg, x0)
    # the public kernels still validate when called directly
    for call in (lambda: approx_prox(x0, ProxParams(0.1, mode)), lambda: tv(x0, mode), lambda: w_forward(x0)):
        with pytest.raises(ValueError, match="non-finite"):
            call()


def approximate_solves(shape, place=np.asarray, form=denoise_problem):
    """Every approximate solve of one shape, as (cfg, report): APGM and
    ADMM, both modes, lambda = 0 and lambda > 0, each stopped by its
    tolerance and at max_iter. place(a) puts the data y and each x0 in
    memory, and form(y) makes the problem."""
    y = place(np.random.default_rng(71).standard_normal(shape) + 2.0)
    problem = form(y)
    for solve in (apgm, admm):
        for mode in ("aniso", "iso"):
            for lam in (0.0, 1.5):
                for stop_tol, max_iter in ((1e-7, 20000), (1e-300, 40)):
                    cfg = SolverConfig(gamma=0.3, lam=lam, mode=mode, stop_tol=stop_tol, max_iter=max_iter)
                    yield cfg, solve(problem, cfg, place(np.zeros(shape)))


# sha256 digests, recorded before the approximate iteration was last
# reworked, of final_x, the objective trace, the iteration count and the
# stop reason of every solve of approximate_solves. A rework of the loops
# must leave each solve bit-identical.
SOLVER_DIGESTS = {
    (37,): "b42c356badce4491301aeacf2bdc184d6b3218a52cf2a88c568e0991a5cdb69e",
    (16, 16): "90982d24dc0b257a4282357423ddaf27166506515ee0c73c58a308c48ae02a68",
    (12, 20): "49e02a3d03e3fd0d7a029dbfad0a7b54c3f7b183d7af21c766371447b9b86251",
    (6, 7, 8): "ce6f34af8e56d197e94c6e811baba3290b71ee53c484c202c7e9fb662cd72686",
}


def solves_digest(solves):
    """The SOLVER_DIGESTS digest of the (cfg, report) pairs of approximate_solves."""
    h = hashlib.sha256()
    for cfg, report in solves:
        assert report.stop_reason == ("max-iter" if cfg.stop_tol == 1e-300 else "tolerance-met")
        h.update(report.final_x.tobytes())
        h.update(report.objective_trace.tobytes())
        h.update(report.iterations.to_bytes(4, "little"))
        h.update(report.stop_reason.encode())
    return h.hexdigest()


@pytest.mark.parametrize("shape", list(SOLVER_DIGESTS))
def test_approximate_solves_are_pinned_bit_for_bit(shape):
    assert solves_digest(approximate_solves(shape)) == SOLVER_DIGESTS[shape]


@pytest.mark.parametrize("shape", list(SOLVER_DIGESTS))
def test_data_form_solves_are_pinned_bit_for_bit(shape):
    # the solvers' own data term gives the digests of the callback form,
    # with y and x0 on a cache line and 8 bytes off one
    for offset in (0, 8):
        solves = approximate_solves(shape, partial(at_offset, offset=offset), form=lambda y: Problem(data=y))
        assert solves_digest(solves) == SOLVER_DIGESTS[shape]


@pytest.mark.parametrize("offset", [0, 8, 16, 32, 48])
@pytest.mark.parametrize("shape", list(SOLVER_DIGESTS))
def test_approximate_solves_do_not_depend_on_where_x0_starts(shape, offset):
    # the working set starts on a cache line wherever x0 and y start, and
    # its alignment changes the speed of the ufunc and ddot kernels only:
    # the BLAS sums of the stop test keep their order at every offset
    solves = approximate_solves(shape, partial(at_offset, offset=offset))
    assert solves_digest(solves) == SOLVER_DIGESTS[shape]


@pytest.mark.parametrize("mode", ["aniso", "iso"])
@pytest.mark.parametrize("solve", [apgm, admm])
def test_working_sets_start_on_a_cache_line(solve, mode):
    # at 32^2, from x0 and y 8 bytes off a line: z, dx, every ring slot and
    # every slot's difference stack, and the buffers the callbacks are
    # given (each ring slot to objective_g, APGM's s to grad_g, ADMM's
    # x - s to prox_g) start on a 64-byte line
    y = at_offset(np.random.default_rng(77).standard_normal((32, 32)), 8)
    problem = denoise_problem(y)
    cfg = SolverConfig(gamma=0.5, lam=0.3, mode=mode, stop_tol=1e-300, max_iter=40)
    z, xs, dx, _, _, finish = _working_set(problem, cfg, y, solve.__name__)
    flush = finish.__closure__[finish.__code__.co_freevars.index("flush")].cell_contents
    difs = flush.__closure__[flush.__code__.co_freevars.index("difs")].cell_contents
    assert len(xs) == len(difs) == 16 and difs[0].shape == (2, 32, 32)
    seen = []

    def watched(fn):
        return lambda a, *args: seen.append(a) or fn(a, *args)

    solve(Problem(grad_g=watched(problem.grad_g), objective_g=watched(problem.objective_g),
                  prox_g=watched(problem.prox_g)), cfg, y)
    assert len({a.ctypes.data for a in seen}) == len(xs) + 1
    assert {line_offset(a) for a in [z, dx, *xs, *difs, *seen]} == {0}


@pytest.mark.parametrize("mode", ["aniso", "iso"])
@pytest.mark.parametrize("shape", [(16, 12), (8, 7, 6)])
def test_solves_do_not_depend_on_the_signal_layout(shape, mode):
    # a transposed x0 and a Fortran-ordered y must give the bits of their
    # C-ordered copies, over as many iterations
    rng = np.random.default_rng(72)
    y = np.asfortranarray(rng.standard_normal(shape) + 2.0)
    x0 = rng.standard_normal(shape[::-1]).T
    cfg = SolverConfig(gamma=0.6, lam=0.3, mode=mode, stop_tol=1e-4)
    for solve in (apgm, admm):
        a = solve(denoise_problem(y), cfg, x0)
        c = solve(denoise_problem(np.ascontiguousarray(y)), cfg, np.ascontiguousarray(x0))
        assert a.iterations == c.iterations > 10 and a.stop_reason == c.stop_reason == "tolerance-met"
        assert a.final_x.tobytes() == c.final_x.tobytes()
        assert a.objective_trace.tobytes() == c.objective_trace.tobytes()


def check_iteration_calls(problem, y, solver, mode):
    """Checks the Python-level calls that one block of B more iterations
    adds to an approximate solve of problem from y (stop_tol is
    unreachable, so both solves run their whole budget), leaving out what
    the problem's callbacks call themselves. An iteration calls the bound
    prox, APGM's momentum and the kernel that ends the iteration, as the
    prox calls _project_ball when iso; a problem given as callbacks adds
    grad_g (APGM) or prox_g (ADMM) and, from that kernel, objective_g.
    Once per block the kernel that writes slot B - 1 calls flush, which
    calls the objective kernel _objectives once; it sets numpy's buffer
    size and sets it back around the difference calls (_run) and the
    elementwise TV terms (_tv_terms), then sums them itself."""
    solve = apgm if solver == "apgm" else admm

    def config(max_iter):
        return SolverConfig(gamma=0.5, lam=0.3, mode=mode, stop_tol=1e-300, max_iter=max_iter)

    slots = ring_slots(problem, config(1), y)
    extra = python_calls(solve, problem, config(3 * slots), y) - python_calls(solve, problem, config(2 * slots), y)
    per_iteration = {("prox", "prox"): 1, ("end", "end"): 1}
    if problem.data is None:
        per_iteration.update({("<lambda>", "<lambda>"): 1, ("end", "<lambda>"): 1})
    if solver == "apgm":
        per_iteration["fista_momentum", "fista_momentum"] = 1
    if mode == "iso":
        per_iteration["prox", "_project_ball"] = 1
    assert {key: n for key, n in extra.items() if key[0] != "<lambda>" or key[1] == "<lambda>"} == {
        **{key: slots * n for key, n in per_iteration.items()}, ("end", "flush"): 1, ("end", "_objectives"): 1,
        ("end", "setbufsize"): 2, ("end", "_run"): 1, ("end", "_tv_terms"): 1}


@pytest.mark.parametrize("mode", ["aniso", "iso"])
@pytest.mark.parametrize("solver", ["apgm", "admm"])
def test_approximate_iteration_calls(solver, mode):
    # the sweep's denoise problem is given as data: the solver runs its
    # data term on its own buffers and makes no callback
    y = np.random.default_rng(73).standard_normal((16, 16))
    check_iteration_calls(_make_problem(ExperimentConfig(), y), y, solver, mode)


@pytest.mark.parametrize("mode", ["aniso", "iso"])
@pytest.mark.parametrize("solver", ["apgm", "admm"])
def test_approximate_iteration_calls_of_callbacks(solver, mode):
    y = np.random.default_rng(73).standard_normal((16, 16))
    check_iteration_calls(denoise_problem(y), y, solver, mode)


def ring_slots(problem, cfg, x0):
    """B, the slots of the iterate ring of a solve of x0."""
    return len(_working_set(problem, cfg, x0, "apgm")[1])


@pytest.mark.parametrize("mode", ["aniso", "iso"])
@pytest.mark.parametrize("shape", [(37,), (12, 20), (6, 7, 8)])
def test_ring_keeps_every_objective_at_every_length(shape, mode):
    # runs of every length from 1 to 2B + 1 stop inside, at and past each
    # block's end; every trace is a prefix of the longest one and ends with
    # the objective of final_x, bit for bit. numpy's buffer size, which the
    # TV pass changes, is set back.
    bufsize = np.getbufsize()
    y = np.random.default_rng(74).standard_normal(shape) + 1.0
    problem = denoise_problem(y)
    slots = ring_slots(problem, SolverConfig(), y)
    assert slots >= 2
    for solve in (apgm, admm):
        reports = []
        for max_iter in range(1, 2 * slots + 2):
            cfg = SolverConfig(gamma=0.4, lam=0.7, mode=mode, stop_tol=1e-300, max_iter=max_iter)
            report = solve(problem, cfg, np.zeros(shape))
            assert len(report.objective_trace) == report.iterations == max_iter
            assert report.objective_trace[-1] == objective(problem, cfg, report.final_x)
            assert report.final_x.base is None  # a copy: the report holds no view of the ring
            assert np.getbufsize() == bufsize
            reports.append(report)
        longest = reports[-1].objective_trace
        for report in reports:
            assert report.objective_trace.tobytes() == longest[:report.iterations].tobytes()


@pytest.mark.parametrize("shape", [(37,), (12, 20), (6, 7, 8), (128, 128)])
def test_data_and_callback_forms_give_the_same_bits(shape):
    # the data form sums its data terms at the ring's flush: runs of every
    # length from 1 to 2B + 1, of both solvers in both modes, with and
    # without TV, end with the callback form's iterate and trace
    y = np.random.default_rng(78).standard_normal(shape) + 1.0
    forms = (denoise_problem(y), Problem(data=y))
    slots = ring_slots(forms[0], SolverConfig(), y)
    for solve, mode, lam in itertools.product((apgm, admm), ("aniso", "iso"), (0.0, 0.3)):
        for max_iter in range(1, 2 * slots + 2):
            cfg = SolverConfig(gamma=0.4, lam=lam, mode=mode, stop_tol=1e-300, max_iter=max_iter)
            a, b = (solve(problem, cfg, np.zeros(shape)) for problem in forms)
            assert (a.iterations, a.stop_reason) == (b.iterations, b.stop_reason) == (max_iter, "max-iter")
            assert a.final_x.tobytes() == b.final_x.tobytes()
            assert a.objective_trace.tobytes() == b.objective_trace.tobytes()


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("mode", ["aniso", "iso"])
def test_data_form_divergence_keeps_its_iteration(mode, lam):
    # gamma = 20 overflows the objective inside a block of iterates: the data
    # form finds it at the block's flush, and names the callback form's iteration
    y = np.random.default_rng(68).standard_normal((8, 8))
    cfg = SolverConfig(gamma=20.0, lam=lam, mode=mode, max_iter=2000)
    errors = []
    for problem in (denoise_problem(y), Problem(data=y)):
        with pytest.warns(RuntimeWarning, match="exceeds 1/L"), pytest.raises(SolverDivergence) as caught:
            apgm(problem, cfg, np.zeros_like(y))
        errors.append(str(caught.value))
    iteration = int(errors[0].rpartition(" ")[2])
    assert errors[1] == errors[0] == f"apgm: objective became inf at iteration {iteration}"
    slots = ring_slots(problem, cfg, y)
    assert iteration % slots != slots - 1  # not the last of a block


@pytest.mark.parametrize("max_iter", [10, 100])
@pytest.mark.parametrize("mode", ["aniso", "iso"])
def test_divergence_in_the_tv_term_keeps_its_iteration(mode, max_iter):
    # objective_g = 0: only the TV pass, taken once per block of iterates
    # (or after the loop when the run is shorter), sees the NaN iterate
    y = np.random.default_rng(75).standard_normal((6, 6))
    cfg = SolverConfig(gamma=0.5, lam=0.3, mode=mode, stop_tol=1e-300, max_iter=max_iter)
    prob = denoise_problem(y)
    assert 10 < ring_slots(prob, cfg, y) < 100
    bad_grad = Problem(grad_g=_nan_at_call(prob.grad_g, 3), objective_g=lambda x: 0.0, lipschitz_L=1.0)
    with pytest.raises(SolverDivergence, match="apgm: objective became nan at iteration 3$"):
        apgm(bad_grad, cfg, y.copy())
    # prox_g_denoise rejects a NaN v, so the NaN goes on through the unchecked expression
    prox_g = _nan_at_call(lambda v, gamma: (v + gamma * y) / (1.0 + gamma), 3)
    bad_prox = Problem(grad_g=prob.grad_g, objective_g=lambda x: 0.0, prox_g=prox_g)
    with pytest.raises(SolverDivergence, match="admm: objective became nan at iteration 3$"):
        admm(bad_prox, cfg, y.copy())


def test_non_finite_data_term_raises_before_the_next_iteration():
    # a data term that is not finite takes the TV pass at once: the solve
    # makes no callback past the iteration that diverged
    y = np.random.default_rng(76).standard_normal((6, 6))
    cfg = SolverConfig(gamma=0.5, lam=0.3, stop_tol=1e-300, max_iter=100)
    prob = denoise_problem(y)
    seen = []

    def counted(fn):
        return lambda *args: seen.append(1) or fn(*args)

    bad_grad = Problem(grad_g=counted(_nan_at_call(prob.grad_g, 3)), objective_g=prob.objective_g)
    bad_prox = Problem(grad_g=prob.grad_g, objective_g=prob.objective_g, prox_g=counted(_nan_at_call(prob.prox_g, 3)))
    for solve, problem in ((apgm, bad_grad), (admm, bad_prox)):
        seen.clear()
        with pytest.raises(SolverDivergence, match="iteration 3$"):
            solve(problem, cfg, y.copy())
        assert len(seen) == 3
