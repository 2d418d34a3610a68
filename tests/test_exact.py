"""Exact-prox oracles: FPG on the dual, the 1D taut string, and the
duality gap that certifies an FPG output, cross-checked against each other
and against simple grid/bisection oracles."""

import hashlib
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from call_counts import python_calls
from placement import at_offset, line_offset

from tvprox.exact import (
    OracleConfig,
    duality_gap,
    fpg_prox,
    tautstring_prox_1d,
)
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
    with pytest.raises(ValueError):
        OracleConfig(boundary="mirror")


# A 1D step with a one-sample notch, free boundaries, tau = 1: the
# relative-change stop can end far from the prox (ROADMAP, "One FPG stop rule"). Both
# rules are held to the 1e-6 gate of the drawn taut-string property.
NOTCH = np.array([6.0] * 7 + [0.0] + [6.0] * 26)


def test_certified_fpg_solves_the_notch():
    cfg = OracleConfig(max_iter=50000, gap_tol=1e-14, boundary="free")
    x, info = fpg_prox(NOTCH, 1.0, cfg, return_info=True)
    assert info["converged"]
    assert np.max(np.abs(x - tautstring_prox_1d(NOTCH, 1.0))) <= 1e-6


@pytest.mark.xfail(strict=True, reason="the budgeted stop ends 2.4e-6 from the prox after 2013 iterations; "
                                       "one certified stop rule is the ROADMAP item 'One FPG stop rule'")
def test_budgeted_fpg_solves_the_notch():
    x = fpg_prox(NOTCH, 1.0, OracleConfig(max_iter=50000, tol=1e-12, boundary="free"))
    assert np.max(np.abs(x - tautstring_prox_1d(NOTCH, 1.0))) <= 1e-6


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
    # per iteration, kept as an independent oracle for fpg_prox
    def grad(x):
        g = np.empty((x.ndim,) + x.shape)
        for j in range(x.ndim):
            g[j] = x - np.roll(x, -1, axis=j)
            if cfg.boundary == "free":
                g[j].swapaxes(0, j)[-1] = 0.0
        return g

    def grad_adjoint(p):
        out = np.zeros(p.shape[1:])
        for j in range(p.shape[0]):
            pj = p[j].copy()
            if cfg.boundary == "free":
                pj.swapaxes(0, j)[-1] = 0.0
            out += pj - np.roll(pj, 1, axis=j)
        return out

    def project(p):
        if cfg.mode == "aniso":
            return np.clip(p, -1.0, 1.0)
        return p / np.maximum(np.sqrt((p**2).sum(axis=0)), 1.0)

    step = 1.0 / (4.0 * z.ndim * tau)
    p = q = np.zeros((z.ndim,) + z.shape)
    t_prev, x_prev, change = 1.0, None, np.inf
    for k in range(cfg.max_iter):
        p_new = project(q + step * grad(z - tau * grad_adjoint(q)))
        t = (1.0 + np.sqrt(1.0 + 4.0 * t_prev**2)) / 2.0
        q = p_new + ((t_prev - 1.0) / t) * (p_new - p)
        p, t_prev = p_new, t
        x = z - tau * grad_adjoint(p)
        if x_prev is not None:
            change = l2_norm(x - x_prev) / l2_norm(x_prev)
        x_prev = x
        if change <= cfg.tol:
            break
    return x, k + 1


@pytest.mark.parametrize("boundary", ["circular", "free"])
@pytest.mark.parametrize("mode", ["aniso", "iso"])
def test_fpg_matches_roll_reference(mode, boundary):
    rng = np.random.default_rng(50)
    for shape, tau in (((40,), 0.3), ((12, 13), 0.2), ((5, 6, 7), 0.1)):
        z = rng.standard_normal(shape)
        cfg = OracleConfig(max_iter=3000, tol=1e-10, mode=mode, boundary=boundary)
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
    rng = np.random.default_rng(46)
    cfg = OracleConfig(max_iter=5000, tol=1e-12, boundary="free")
    for _ in range(20):
        z = rng.standard_normal(32)
        tau = rng.uniform(0.05, 1.0)
        x_ts = tautstring_prox_1d(z, tau)
        x_fpg = fpg_prox(z, tau, cfg)
        assert objective_1d_free(x_ts, z, tau) <= objective_1d_free(x_fpg, z, tau) + 1e-10


def test_oracle_agreement_fpg_vs_tautstring():
    rng = np.random.default_rng(47)
    cfg = OracleConfig(max_iter=10000, tol=1e-12, boundary="free")
    for _ in range(20):
        z = rng.standard_normal(64)
        tau = rng.uniform(0.05, 0.8)
        assert np.max(np.abs(fpg_prox(z, tau, cfg) - tautstring_prox_1d(z, tau))) <= 1e-6


def certified(**kwargs):
    return OracleConfig(**{"max_iter": 20000, "gap_tol": 1e-11, **kwargs})


def test_certified_fpg_agrees_with_tautstring():
    # 0.5||x - x*||^2 <= P(x) - P(x*) <= gap: the certified relative gap
    # bounds the distance to the exact taut-string prox
    rng = np.random.default_rng(51)
    for _ in range(20):
        z = rng.standard_normal(64)
        tau = rng.uniform(0.05, 0.8)
        x, info = fpg_prox(z, tau, certified(boundary="free"), return_info=True)
        assert info["converged"] and info["gap"] <= 1e-11
        primal = objective_1d_free(x, z, tau)
        dist2 = 0.5 * l2_norm(x - tautstring_prox_1d(z, tau)) ** 2
        assert dist2 <= info["gap"] * primal + 1e-14 * (1.0 + primal)


@pytest.mark.parametrize("boundary", ["circular", "free"])
@pytest.mark.parametrize("mode", ["aniso", "iso"])
def test_certified_gap_matches_duality_gap(mode, boundary):
    # the in-loop gap is duality_gap of the returned (x, p), relative to P(x)
    rng = np.random.default_rng(52)
    for shape, tau in (((40,), 0.3), ((12, 13), 0.2), ((5, 6, 7), 0.1)):
        z = rng.standard_normal(shape)
        x, info = fpg_prox(z, tau, certified(mode=mode, boundary=boundary), return_info=True)
        primal = 0.5 * l2_norm(x - z) ** 2 + tau * _tv_of_differences(_grad(x, boundary), mode)
        gap = duality_gap(z, x, info["p"], tau, mode, boundary)
        assert info["gap"] * primal == pytest.approx(gap, rel=1e-6, abs=1e-15 * primal)
        assert info["converged"] == (info["gap"] <= 1e-11)
        assert info["iterations"] % 50 == 0 or info["iterations"] == 20000


def test_unreachable_tolerances_use_the_whole_budget():
    # neither stop rule ends the loop early; the certified one still checks
    # its gap at the cap, which is not a multiple of 50
    rng = np.random.default_rng(53)
    z = rng.standard_normal((9, 11))
    for cfg, stat in ((OracleConfig(max_iter=73, tol=1e-300), "rel_change"),
                      (OracleConfig(max_iter=73, gap_tol=1e-300), "gap")):
        x, info = fpg_prox(z, 0.4, cfg, return_info=True)
        assert info["iterations"] == 73 and not info["converged"]
        assert 0.0 < info[stat] < np.inf
        with pytest.warns(RuntimeWarning, match="max_iter=73"):
            fpg_prox(z, 0.4, cfg)


def test_tv_with_boundary():
    # the TV that duality_gap charges: circular matches tv(), free drops the wrap
    z = np.array([4.0, 0.0, 0.0, 0.0])
    assert _tv_of_differences(_grad(z, "circular"), "aniso") == tv(z, "aniso") == 8.0
    assert _tv_of_differences(_grad(z, "free"), "aniso") == 4.0


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
    with pytest.raises(ValueError, match="shape mismatch"):
        duality_gap(z, np.zeros((5, 4)), p, 0.5)
    with pytest.raises(ValueError, match="shape mismatch"):
        duality_gap(z, z, np.zeros((1, 4, 5)), 0.5)
    with pytest.raises(ValueError, match="tau"):
        duality_gap(z, z, p, 0.0)
    with pytest.raises(ValueError, match="mode"):
        duality_gap(z, z, p, 0.5, mode="l1")
    with pytest.raises(ValueError, match="boundary"):
        duality_gap(z, z, p, 0.5, boundary="mirror")
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
    """Every solve of one shape, as (z, tau, cfg, x, info): both modes, both
    boundaries, budgeted and certified, short and long budgets. place(a)
    puts z in memory."""
    rng = np.random.default_rng(54)
    z = place(rng.standard_normal(shape))
    tau = 0.7 / len(shape)
    for mode in ("aniso", "iso"):
        for boundary in ("circular", "free"):
            for gap_tol in (None, 1e-9):
                for max_iter in (7, 300):
                    cfg = OracleConfig(max_iter=max_iter, mode=mode, boundary=boundary, gap_tol=gap_tol)
                    yield z, tau, cfg, *fpg_prox(z, tau, cfg, return_info=True)


# sha256 digests, recorded before the FPG loop was last reworked, of x, the
# final dual p and the iteration count of every solve of fpg_solves. A
# rework of the loop must leave each solve bit-identical.
FPG_DIGESTS = {
    (37,): "10c9ea0c838eac57e04937007fc546cbd928038c6c9e356ea7bb9880475ebe58",
    (16, 16): "3d4513be73004433a2cd75878f9c7ab197bc2e38fd62756f3a54c1493a422b68",
    (12, 20): "d8511f9c2fadcdfe6fbf0eb24e055efcaa2822aab44c8be3351afa3fd8fa10db",
    (6, 7, 8): "4dbd70dcf20a438e993bad10391fa4b81b4e272be9ed1a4203d67b75ca4a65d0",
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
    for gap_tol in (None, 1e-300):
        for max_iter in (1, 2, 51):
            cfg = OracleConfig(max_iter=max_iter, tol=1e-300, mode=mode, gap_tol=gap_tol)
            x, info = fpg_prox(z, 0.3, cfg, return_info=True)
            assert line_offset(x) == line_offset(info["p"]) == 0
    x, info = fpg_prox(np.ones((363, 363)), 0.3, OracleConfig(max_iter=1, mode=mode), return_info=True)
    assert x.nbytes > 1 << 20 and x.base is None and info["p"].base is None


@pytest.mark.parametrize("shape", list(FPG_DIGESTS))
def test_fpg_reports_its_last_stop_statistic(shape):
    # rel_change and gap sum through BLAS ddot, whose summation order
    # depends on the CPU, so they are recomputed here rather than pinned
    for z, tau, cfg, x, info in fpg_solves(shape):
        if cfg.gap_tol is None:
            # a budgeted solve is deterministic: one iteration less is x_prev
            x_prev, _ = fpg_prox(z, tau, replace(cfg, max_iter=info["iterations"] - 1), return_info=True)
            stat, expected = info["rel_change"], l2_norm(x - x_prev) / l2_norm(x_prev)
        else:
            primal = 0.5 * l2_norm(x - z) ** 2 + tau * _tv_of_differences(_grad(x, cfg.boundary), cfg.mode)
            stat = info["gap"]
            expected = duality_gap(z, x, info["p"], tau, cfg.mode, cfg.boundary) / primal
        assert stat == pytest.approx(expected, rel=1e-9, abs=1e-15)
        assert info["converged"] == (stat <= (cfg.tol if cfg.gap_tol is None else cfg.gap_tol))


@pytest.mark.parametrize("gap_tol", [None, 1e-9])
@pytest.mark.parametrize("shape", [(16, 12), (8, 7, 6)])
def test_fpg_does_not_depend_on_the_signal_layout(shape, gap_tol):
    # a transposed z is Fortran-ordered; its solve must be that of its
    # C-ordered copy, bit for bit and over as many iterations
    z = np.random.default_rng(56).standard_normal(shape).T
    cfg = OracleConfig(max_iter=300, gap_tol=gap_tol)
    x, info = fpg_prox(z, 0.3, cfg, return_info=True)
    x_c, info_c = fpg_prox(np.ascontiguousarray(z), 0.3, cfg, return_info=True)
    assert info["iterations"] == info_c["iterations"] > 50
    assert x.tobytes() == x_c.tobytes() and info["p"].tobytes() == info_c["p"].tobytes()
    stat = "rel_change" if gap_tol is None else "gap"
    assert info[stat] == info_c[stat] and info["converged"] == info_c["converged"]


@pytest.mark.parametrize("gap_tol", [None, 1e-300])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("mode", ["aniso", "iso"])
def test_fpg_prox_never_writes_z(mode, order, gap_tol):
    # x is formed in each of the two primal buffers by turns, never in z:
    # odd and even budgets return either buffer, and z's bytes stay as they were
    z = np.asarray(np.random.default_rng(57).standard_normal((9, 11)), order=order)
    before = z.tobytes(order="A")
    for max_iter in (1, 2, 51):
        x = fpg_prox(z, 0.3, OracleConfig(max_iter=max_iter, tol=1e-300, mode=mode, gap_tol=gap_tol),
                     return_info=True)[0]
        assert x is not z and not np.shares_memory(x, z)
    assert z.tobytes(order="A") == before and z.flags.f_contiguous == (order == "F")


@pytest.mark.parametrize("gap_tol", [None, 1e-300])
@pytest.mark.parametrize("mode", ["aniso", "iso"])
def test_fpg_iteration_calls_only_the_projection(mode, gap_tol):
    # unreachable tolerances: both solves run their whole budget, so the
    # calls the longer one adds are those of 100 iterations, among them
    # two certified gap checks (every 50 iterations). An aniso iteration
    # clips through the ufunc and makes no Python-level call; iso makes one.
    z = np.random.default_rng(55).standard_normal((12, 20))

    def calls(max_iter):
        cfg = OracleConfig(max_iter=max_iter, tol=1e-300, mode=mode, gap_tol=gap_tol)
        return python_calls(fpg_prox, z, 0.35, cfg, return_info=True)

    extra = calls(200) - calls(100)
    per_iteration = {key: n for key, n in extra.items() if key[0] != "_relative_gap"}
    assert per_iteration == ({} if mode == "aniso" else {("_project_ball", "_project_ball"): 100})
    assert extra["_relative_gap", "_relative_gap"] == (0 if gap_tol is None else 2)
