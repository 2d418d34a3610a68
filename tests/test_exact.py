"""Exact-prox oracles: FPG on the dual and the duality gap that certifies
an FPG output, cross-checked against each other, against the 1D taut
string (through the even reflection), against BVLS on small signals of
every dimension, and against simple grid/bisection oracles."""

import hashlib
import math
from functools import partial

import numpy as np
import pytest
from call_counts import python_calls
from oracles import bvls_prox, circular_cases, oracle, reflected, tautstring_prox_1d
from placement import at_offset, line_offset

from tvprox.exact import OracleConfig, duality_gap, fpg_prox
from tvprox.experiments import gen_foam_phantom
from tvprox.frame import _grad
from tvprox.signal import l2_norm
from tvprox.tv import _tv_of_differences, tv


def objective_1d_free(x, z, tau):
    return 0.5 * np.sum((x - z) ** 2) + tau * np.sum(np.abs(np.diff(x)))


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(max_iter=0)
    with pytest.raises(ValueError):
        OracleConfig(tol=0.0)


# A 1D step with a one-sample notch, free boundaries, tau = 1, solved as
# the circular prox of its even reflection: the iterate stops changing long
# before it reaches the prox (after 2013 iterations its relative change is
# 1e-12, 2.4e-6 from it). The restarted and the unrestarted solve are held
# to the 1e-6 gate of the drawn taut-string property.
NOTCH = np.array([6.0] * 7 + [0.0] + [6.0] * 26)


def test_certified_fpg_solves_the_notch():
    cfg = OracleConfig(max_iter=50000, tol=1e-14, restart=True)
    x, info = fpg_prox(reflected(NOTCH), 1.0, cfg, return_info=True)
    assert info["converged"]
    assert np.max(np.abs(x[: NOTCH.size] - tautstring_prox_1d(NOTCH, 1.0))) <= 1e-6


def test_unrestarted_fpg_solves_the_notch():
    x, info = fpg_prox(reflected(NOTCH), 1.0, OracleConfig(max_iter=50000, tol=1e-12), return_info=True)
    assert info["converged"]
    assert np.max(np.abs(x[: NOTCH.size] - tautstring_prox_1d(NOTCH, 1.0))) <= 1e-6


def test_fpg_constant_is_fixed_point():
    z = np.full((6, 6), 2.0)
    for tau in (1e-3, 1.0, 10.0):
        np.testing.assert_allclose(fpg_prox(z, tau), z, atol=1e-12)


def grid_prox_n2_circular(z, tau, chunk=1 << 20):
    # two-variable problem: 0.5||x-z||^2 + tau*(|x0-x1|+|x1-x0|), solved by
    # a brute-force sweep over a 1e-6 grid of the half-difference
    m = 0.5 * (z[0] + z[1])
    # optimum keeps the mean; parametrize x = [m+t, m-t]
    lo, hi = -abs(z[0] - z[1]), abs(z[0] - z[1]) + 1e-6
    # the points of np.arange(lo, hi, 1e-6), made chunk by chunk so memory
    # stays small; the first minimiser wins, as with one np.argmin
    n = math.ceil((hi - lo) / 1e-6)
    delta = (lo + 1e-6) - lo
    best_t, best_f = None, np.inf
    for start in range(0, n, chunk):
        t = lo + np.arange(start, min(start + chunk, n)) * delta
        x0, x1 = m + t, m - t
        f = 0.5 * ((x0 - z[0]) ** 2 + (x1 - z[1]) ** 2) + tau * 2.0 * np.abs(x0 - x1)
        i = int(np.argmin(f))
        if f[i] < best_f:
            best_t, best_f = t[i], f[i]
    return np.array([m + best_t, m - best_t])


def test_fpg_n2_closed_form():
    z = np.array([4.0, 0.0])
    got = fpg_prox(z, 0.5, OracleConfig(max_iter=2000, tol=1e-12))
    np.testing.assert_allclose(got, [3.0, 1.0], atol=1e-8)
    rng = np.random.default_rng(40)
    for _ in range(5):
        z = rng.standard_normal(2) * 3
        tau = rng.uniform(0.05, 0.5)
        got = fpg_prox(z, tau, OracleConfig(max_iter=3000, tol=1e-12))
        want = grid_prox_n2_circular(z, tau)
        assert np.max(np.abs(got - want)) <= 1e-5


def roll_fpg_reference(z, tau, cfg):
    # the textbook dual FPG loop with np.roll differences and two adjoints
    # per iteration, unrestarted, with the relative duality gap checked
    # every 50 iterations and at the cap; kept as an independent oracle
    def grad(x):
        g = np.empty((x.ndim,) + x.shape)
        for j in range(x.ndim):
            g[j] = x - np.roll(x, -1, axis=j)
        return g

    def grad_adjoint(p):
        out = np.zeros(p.shape[1:])
        for j in range(p.shape[0]):
            out += p[j] - np.roll(p[j], 1, axis=j)
        return out

    def project(p):
        if cfg.mode == "aniso":
            return np.clip(p, -1.0, 1.0)
        return p / np.maximum(np.sqrt((p**2).sum(axis=0)), 1.0)

    def tv_of(g):
        return np.abs(g).sum() if cfg.mode == "aniso" else np.sqrt((g**2).sum(axis=0)).sum()

    step = 1.0 / (4.0 * z.ndim * tau)
    p = q = np.zeros((z.ndim,) + z.shape)
    t_prev = 1.0
    for k in range(cfg.max_iter):
        p_new = project(q + step * grad(z - tau * grad_adjoint(q)))
        t = (1.0 + np.sqrt(1.0 + 4.0 * t_prev**2)) / 2.0
        q = p_new + ((t_prev - 1.0) / t) * (p_new - p)
        p, t_prev = p_new, t
        x = z - tau * grad_adjoint(p)
        if (k + 1) % 50 == 0 or k + 1 == cfg.max_iter:
            gx = grad(x)
            primal = 0.5 * l2_norm(x - z) ** 2 + tau * tv_of(gx)
            if tau * (tv_of(gx) - np.vdot(gx, p)) <= cfg.tol * primal:
                break
    return x, k + 1


@circular_cases("mode", ["aniso", "iso"])
def test_fpg_matches_roll_reference(mode):
    rng = np.random.default_rng(50)
    for shape, tau in (((40,), 0.3), ((12, 13), 0.2), ((5, 6, 7), 0.1)):
        z = rng.standard_normal(shape)
        cfg = OracleConfig(max_iter=3000, tol=1e-10, mode=mode)
        want, iters = roll_fpg_reference(z, tau, cfg)
        got, info = fpg_prox(z, tau, cfg, return_info=True)
        assert info["converged"]
        assert info["iterations"] == iters
        assert np.max(np.abs(got - want)) <= 1e-12


def test_fpg_objective_decreases():
    rng = np.random.default_rng(41)
    for mode in ("aniso", "iso"):
        z = rng.standard_normal((8, 8))
        tau = 0.3
        x = fpg_prox(z, tau, OracleConfig(max_iter=1000, tol=1e-11, mode=mode))
        f0 = tau * tv(z, mode)  # objective at x = z
        f1 = 0.5 * l2_norm(x - z) ** 2 + tau * tv(x, mode)
        assert f1 <= f0 + 1e-12


def test_fpg_firm_nonexpansiveness():
    rng = np.random.default_rng(42)
    cfg = OracleConfig(max_iter=2000, tol=1e-11)
    for _ in range(10):
        z1 = rng.standard_normal((6, 6))
        z2 = rng.standard_normal((6, 6))
        p1 = fpg_prox(z1, 0.2, cfg)
        p2 = fpg_prox(z2, 0.2, cfg)
        assert l2_norm(p1 - p2) ** 2 <= np.vdot(z1 - z2, p1 - p2) + 1e-8


def test_fpg_small_tau_stays_close():
    rng = np.random.default_rng(43)
    z = rng.standard_normal((8, 8))
    for tau in (1e-4, 1e-3):
        x = fpg_prox(z, tau, OracleConfig(max_iter=1000, tol=1e-11))
        assert l2_norm(x - z) <= tau * 4.0 * 2 * np.sqrt(z.size)


def test_fpg_nonconvergence_warns():
    rng = np.random.default_rng(44)
    z = rng.standard_normal((16, 16))
    with pytest.warns(RuntimeWarning):
        fpg_prox(z, 0.5, OracleConfig(max_iter=2, tol=1e-14))
    x, info = fpg_prox(z, 0.5, OracleConfig(max_iter=2, tol=1e-14), return_info=True)
    assert not info["converged"]
    assert info["iterations"] == 2


def test_tautstring_large_tau_gives_mean():
    rng = np.random.default_rng(45)
    z = rng.standard_normal(16)
    x = tautstring_prox_1d(z, 1e3)
    np.testing.assert_allclose(x, np.full(16, z.mean()), atol=1e-12)


def test_tautstring_two_point_step():
    np.testing.assert_allclose(tautstring_prox_1d(np.array([0.0, 4.0]), 0.5),
                               [0.5, 3.5], atol=1e-14)


def test_tautstring_objective_vs_fpg():
    # FPG solves the free-boundary problem as the first half of the circular
    # prox of the even reflection
    rng = np.random.default_rng(46)
    cfg = OracleConfig(max_iter=5000, tol=1e-12)
    for _ in range(20):
        z = rng.standard_normal(32)
        tau = rng.uniform(0.05, 1.0)
        x_ts = tautstring_prox_1d(z, tau)
        x_fpg = fpg_prox(reflected(z), tau, cfg)[: z.size]
        assert objective_1d_free(x_ts, z, tau) <= objective_1d_free(x_fpg, z, tau) + 1e-10


def test_oracle_agreement_fpg_vs_tautstring():
    rng = np.random.default_rng(47)
    cfg = OracleConfig(max_iter=10000, tol=1e-12)
    for _ in range(20):
        z = rng.standard_normal(64)
        tau = rng.uniform(0.05, 0.8)
        assert np.max(np.abs(fpg_prox(reflected(z), tau, cfg)[: z.size] - tautstring_prox_1d(z, tau))) <= 1e-6


def certified(**kwargs):
    return OracleConfig(**{"max_iter": 20000, "tol": 1e-11, "restart": True, **kwargs})


def test_certified_fpg_agrees_with_tautstring():
    # 0.5||x - x*||^2 <= P(x) - P(x*) <= gap: the certified relative gap of
    # the circular solve of the even reflection bounds its distance to the
    # exact prox there, the reflected taut string
    rng = np.random.default_rng(51)
    for _ in range(20):
        z = rng.standard_normal(64)
        tau = rng.uniform(0.05, 0.8)
        x, info = fpg_prox(reflected(z), tau, certified(), return_info=True)
        assert info["converged"] and info["gap"] <= 1e-11
        primal = 0.5 * l2_norm(x - reflected(z)) ** 2 + tau * tv(x, "aniso")
        dist2 = 0.5 * l2_norm(x - reflected(tautstring_prox_1d(z, tau))) ** 2
        assert dist2 <= info["gap"] * primal + 1e-14 * (1.0 + primal)


@pytest.mark.parametrize("shape", [(8,), (17,), (4, 4), (5, 6), (3, 3, 3)])
def test_certified_fpg_matches_bvls(shape):
    # BVLS solves the aniso dual exactly by an active-set method: its x has
    # a duality gap at rounding level, and FPG certified to a relative gap
    # of 1e-14 lands on it (1.4e-13 at worst over these 75 problems)
    rng = np.random.default_rng(59)
    for tau in (0.05, 0.3, 2.0):
        for _ in range(5):
            z = rng.standard_normal(shape)
            x_exact, p_exact = bvls_prox(z, tau)
            assert duality_gap(z, x_exact, p_exact, tau) <= 1e-11
            x, info = fpg_prox(z, tau, certified(tol=1e-14), return_info=True)
            assert info["converged"]
            assert np.max(np.abs(x - x_exact)) <= 1e-11


@circular_cases("mode", ["aniso", "iso"])
def test_certified_gap_matches_duality_gap(mode):
    # the in-loop gap is duality_gap of the returned (x, p), relative to P(x)
    rng = np.random.default_rng(52)
    for shape, tau in (((40,), 0.3), ((12, 13), 0.2), ((5, 6, 7), 0.1)):
        z = rng.standard_normal(shape)
        x, info = fpg_prox(z, tau, certified(mode=mode), return_info=True)
        primal = 0.5 * l2_norm(x - z) ** 2 + tau * _tv_of_differences(_grad(x), mode)
        gap = duality_gap(z, x, info["p"], tau, mode)
        assert info["gap"] * primal == pytest.approx(gap, rel=1e-6, abs=1e-15 * primal)
        assert info["converged"] == (info["gap"] <= 1e-11)
        assert info["iterations"] % 50 == 0 or info["iterations"] == 20000


def test_gap_does_not_certify_out_of_range_arithmetic():
    # z and tau scaled by 2^k, exactly: ||tau*D^T p||^2 and P(x) overflow
    # (k = 515, 520) or fall below the normal range (k = -530, -560), where
    # the gap's terms round to 0. A solve then runs on, or stops on the
    # scaled unit-scale solution
    rng = np.random.default_rng(0)
    z = gen_foam_phantom(32, 0) + 0.1 * rng.standard_normal((32, 32))
    cfg = certified(max_iter=1000)
    x_unit, info = fpg_prox(z, 0.05, cfg, return_info=True)
    assert info["converged"]
    for k in (-560, -530, 515, 520):
        scale = math.ldexp(1.0, k)
        with np.errstate(over="ignore"):
            x, info = fpg_prox(z * scale, 0.05 * scale, cfg, return_info=True)
        assert not info["converged"] or np.max(np.abs(x / scale - x_unit)) <= 1e-6


def test_unreachable_tolerances_use_the_whole_budget():
    # neither solve ends the loop early; each still checks its gap at the
    # cap, which is not a multiple of 50
    rng = np.random.default_rng(53)
    z = rng.standard_normal((9, 11))
    for restart in (False, True):
        cfg = OracleConfig(max_iter=73, tol=1e-300, restart=restart)
        x, info = fpg_prox(z, 0.4, cfg, return_info=True)
        assert info["iterations"] == 73 and not info["converged"]
        assert 0.0 < info["gap"] < np.inf
        with pytest.warns(RuntimeWarning, match="max_iter=73"):
            fpg_prox(z, 0.4, cfg)


def test_tv_with_boundary():
    # the TV that duality_gap charges is tv()'s, with the wrap-around difference
    z = np.array([4.0, 0.0, 0.0, 0.0])
    assert _tv_of_differences(_grad(z), "aniso") == tv(z, "aniso") == 8.0


def test_duality_gap_at_optimum():
    rng = np.random.default_rng(48)
    z = rng.standard_normal((8, 8))
    tau = 0.3
    x, info = fpg_prox(z, tau, OracleConfig(max_iter=20000, tol=1e-13), return_info=True)
    assert duality_gap(z, x, info["p"], tau) <= 1e-10


def test_duality_gap_detects_nonoptimal():
    # x = z is not the prox; the converged dual p* cannot certify it
    rng = np.random.default_rng(49)
    z = rng.standard_normal((6, 6))
    assert tv(z, "aniso") > 0
    _, info = fpg_prox(z, 0.5, OracleConfig(max_iter=20000, tol=1e-13), return_info=True)
    assert duality_gap(z, z, info["p"], 0.5) > 1e-3


def test_duality_gap_constant():
    z = np.full((5, 5), 1.0)
    x, info = fpg_prox(z, 0.5, return_info=True)
    assert duality_gap(z, x, info["p"], 0.5) == 0.0


def test_duality_gap_validates_inputs():
    z = np.zeros((4, 5))
    p = np.zeros((2, 4, 5))
    with pytest.raises(ValueError, match="x: expected shape"):
        duality_gap(z, np.zeros((5, 4)), p, 0.5)
    with pytest.raises(ValueError, match="p: expected shape"):
        duality_gap(z, z, np.zeros((1, 4, 5)), 0.5)
    with pytest.raises(ValueError, match="tau"):
        duality_gap(z, z, p, 0.0)
    with pytest.raises(ValueError, match="mode"):
        duality_gap(z, z, p, 0.5, mode="l1")
    with pytest.raises(ValueError, match="non-finite"):
        duality_gap(z, np.full((4, 5), np.nan), p, 0.5)
    # a complex dual is not cast to its real part, and a NaN or inf one gives no gap
    with pytest.raises(ValueError, match="p: complex"):
        duality_gap(z, z, p + 1j, 0.5)
    for bad in (np.nan, np.inf):
        q = p.copy()
        q[1, 2, 3] = bad
        with pytest.raises(ValueError, match="p: non-finite"):
            duality_gap(z, z, q, 0.5)


def fpg_solves(shape, place=np.asarray):
    """Every solve of one shape, as (z, tau, cfg, x, info): both modes,
    unrestarted and restarted, short and long budgets. place(a) puts z in
    memory."""
    rng = np.random.default_rng(54)
    z = place(rng.standard_normal(shape))
    tau = 0.7 / len(shape)
    for mode in ("aniso", "iso"):
        for restart_tol in (None, 1e-9):
            for max_iter in (7, 300):
                cfg = oracle(restart_tol, max_iter=max_iter, mode=mode)
                yield z, tau, cfg, *fpg_prox(z, tau, cfg, return_info=True)


# sha256 digests, recorded before the FPG loop was last reworked, of x, the
# final dual p and the iteration count of every solve of fpg_solves. A
# rework of the loop must leave each solve bit-identical.
FPG_DIGESTS = {
    (37,): "f85f537886955f1d400f00f825129799c14ce4b9b4ebdf96e8320d2cd348625c",
    (16, 16): "d713b31de4d33be0573f19a8c50ca111eaaa2f269ba64531d725328766406705",
    (12, 20): "40cb0a39ab3e03c37fd81babb980da92edf4868f1521653f4a81593003532ecb",
    (6, 7, 8): "e8a1c11dcfea59c2e2b008ba552f40d05c5d12a3cc2f010595c93da10d60ab1f",
}


def fpg_digest(solves):
    """The FPG_DIGESTS digest of the solves of fpg_solves."""
    h = hashlib.sha256()
    for *_, x, info in solves:
        h.update(x.tobytes())
        h.update(info["p"].tobytes())
        h.update(info["iterations"].to_bytes(4, "little"))
    return h.hexdigest()


@pytest.mark.parametrize("shape", list(FPG_DIGESTS))
def test_fpg_is_pinned_bit_for_bit(shape):
    assert fpg_digest(fpg_solves(shape)) == FPG_DIGESTS[shape]


@pytest.mark.parametrize("shape", list(FPG_DIGESTS))
def test_fpg_does_not_depend_on_where_z_starts(shape):
    # the working set starts on a cache line wherever z starts, and its
    # alignment changes the speed of the ufunc and ddot kernels only: from
    # z 8 to 48 bytes off a line every solve, its stop statistic included
    # (a BLAS sum), has the bits of the solve from an aligned z
    aligned = list(fpg_solves(shape, partial(at_offset, offset=0)))
    assert fpg_digest(aligned) == FPG_DIGESTS[shape]
    for offset in (8, 16, 32, 48):
        for (*_, x, info), (*_, x_a, info_a) in zip(fpg_solves(shape, partial(at_offset, offset=offset)), aligned):
            assert x.tobytes() == x_a.tobytes() and info["p"].tobytes() == info_a["p"].tobytes()
            assert {k: v for k, v in info.items() if k != "p"} == {k: v for k, v in info_a.items() if k != "p"}


@pytest.mark.parametrize("mode", ["aniso", "iso"])
def test_fpg_working_set_starts_on_a_cache_line(mode):
    # at 32^2, from z 8 bytes off a line, x and the final dual start on a
    # 64-byte line, from either primal buffer (odd and even budgets) and
    # either dual one; an array over 1 MiB is allocated at its exact size
    z = at_offset(np.random.default_rng(58).standard_normal((32, 32)), 8)
    for restart in (False, True):
        for max_iter in (1, 2, 51):
            cfg = OracleConfig(max_iter=max_iter, tol=1e-300, mode=mode, restart=restart)
            x, info = fpg_prox(z, 0.3, cfg, return_info=True)
            assert line_offset(x) == line_offset(info["p"]) == 0
    x, info = fpg_prox(np.ones((363, 363)), 0.3, OracleConfig(max_iter=1, mode=mode), return_info=True)
    assert x.nbytes > 1 << 20 and x.base is None and info["p"].base is None


@pytest.mark.parametrize("shape", list(FPG_DIGESTS))
def test_fpg_reports_its_last_stop_statistic(shape):
    # the gap sums through BLAS ddot, whose summation order depends on the
    # CPU, so it is recomputed here rather than pinned
    for z, tau, cfg, x, info in fpg_solves(shape):
        primal = 0.5 * l2_norm(x - z) ** 2 + tau * _tv_of_differences(_grad(x), cfg.mode)
        expected = duality_gap(z, x, info["p"], tau, cfg.mode) / primal
        assert info["gap"] == pytest.approx(expected, rel=1e-9, abs=1e-15)
        assert info["converged"] == (info["gap"] <= cfg.tol)


@pytest.mark.parametrize("restart_tol", [None, 1e-9])
@pytest.mark.parametrize("shape", [(16, 12), (8, 7, 6)])
def test_fpg_does_not_depend_on_the_signal_layout(shape, restart_tol):
    # a transposed z is Fortran-ordered; its solve must be that of its
    # C-ordered copy, bit for bit and over as many iterations
    z = np.random.default_rng(56).standard_normal(shape).T
    cfg = oracle(restart_tol, max_iter=300)
    x, info = fpg_prox(z, 0.3, cfg, return_info=True)
    x_c, info_c = fpg_prox(np.ascontiguousarray(z), 0.3, cfg, return_info=True)
    assert info["iterations"] == info_c["iterations"] > 50
    assert x.tobytes() == x_c.tobytes() and info["p"].tobytes() == info_c["p"].tobytes()
    assert info["gap"] == info_c["gap"] and info["converged"] == info_c["converged"]


@pytest.mark.parametrize("restart_tol", [None, 1e-300])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("mode", ["aniso", "iso"])
def test_fpg_prox_never_writes_z(mode, order, restart_tol):
    # x is formed in each of the two primal buffers by turns, never in z:
    # odd and even budgets return either buffer, and z's bytes stay as they were
    z = np.asarray(np.random.default_rng(57).standard_normal((9, 11)), order=order)
    before = z.tobytes(order="A")
    for max_iter in (1, 2, 51):
        x = fpg_prox(z, 0.3, oracle(restart_tol, max_iter=max_iter, tol=1e-300, mode=mode), return_info=True)[0]
        assert x is not z and not np.shares_memory(x, z)
    assert z.tobytes(order="A") == before and z.flags.f_contiguous == (order == "F")


@pytest.mark.parametrize("restart_tol", [None, 1e-300])
@pytest.mark.parametrize("mode", ["aniso", "iso"])
def test_fpg_iteration_calls_only_the_projection(mode, restart_tol):
    # unreachable tolerances: both solves run their whole budget, so the
    # calls the longer one adds are those of 100 iterations, among them
    # two gap checks (every 50 iterations). An aniso iteration clips
    # through the ufunc and makes no Python-level call; iso makes one.
    z = np.random.default_rng(55).standard_normal((12, 20))

    def calls(max_iter):
        cfg = oracle(restart_tol, max_iter=max_iter, tol=1e-300, mode=mode)
        return python_calls(fpg_prox, z, 0.35, cfg, return_info=True)

    extra = calls(200) - calls(100)
    per_iteration = {key: n for key, n in extra.items() if key[0] != "_relative_gap"}
    assert per_iteration == ({} if mode == "aniso" else {("_project_ball", "_project_ball"): 100})
    assert extra["_relative_gap", "_relative_gap"] == 2
