"""Acceptance suite: one test per criterion, each printing a single
pass/fail line. Run with `pytest -v -s tests/test_acceptance.py` to see the
lines as they complete.
"""

import numpy as np
import pytest
from oracles import reflected, tautstring_prox_1d

from tvprox.exact import OracleConfig, fpg_prox
from tvprox.experiments import TABLE_HEADER, ExperimentConfig, run_sweep, write_table
from tvprox.frame import CoeffStack, w_adjoint, w_forward
from tvprox.operators import identity_operator, lipschitz_power_iter, radon_operator, CtGeometry
from tvprox.shrinkage import ProxParams, approx_prox
from tvprox.signal import l2_norm
from tvprox.tv import h_hat_subgradient, tv

SHAPES = {1: (16,), 2: (12, 12), 3: (8, 8, 8)}


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def random_shape(rng):
    d = int(rng.integers(1, 4))
    return tuple(int(rng.integers(2, 17)) for _ in range(d))


def test_criterion_01_frame_identity():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(200):
        z = rng.standard_normal(random_shape(rng))
        worst = max(worst, float(np.max(np.abs(w_adjoint(w_forward(z)) - z))))
    report(1, worst < 1e-12, f"max |WtWz - z| = {worst:.3e}")


def test_criterion_02_tv_descent():
    rng = np.random.default_rng(101)
    worst = -np.inf
    for _ in range(10**4):
        d = int(rng.integers(1, 4))
        z = rng.standard_normal(SHAPES[d])
        tau = 10.0 ** rng.uniform(-4, 1)
        mode = ("aniso", "iso")[rng.integers(2)]
        s = approx_prox(z, ProxParams(tau, mode))
        worst = max(worst, tv(s, mode) - tv(z, mode))
    report(2, worst <= 1e-10, f"max tv increase = {worst:.3e}")


def test_criterion_03_nonexpansiveness():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10**3):
        d = int(rng.integers(1, 4))
        shape = SHAPES[d]
        z1 = rng.standard_normal(shape)
        z2 = rng.standard_normal(shape)
        p = ProxParams(10.0 ** rng.uniform(-3, 1), ("aniso", "iso")[rng.integers(2)])
        ratio = l2_norm(approx_prox(z1, p) - approx_prox(z2, p)) / l2_norm(z1 - z2)
        worst = max(worst, ratio)
    report(3, worst <= 1 + 1e-12, f"max expansion ratio = {worst:.15f}")


def test_criterion_04_corollary1_bound():
    rng = np.random.default_rng(103)
    n = 256
    bound_margin = 0.0
    oracle = OracleConfig(max_iter=2000, tol=1e-10)
    for _ in range(100):
        z = rng.standard_normal((16, 16))
        for tau in (1e-3, 1e-2, 1e-1):
            s = approx_prox(z, ProxParams(tau, "aniso"))
            exact = fpg_prox(z, tau, oracle)
            gap = l2_norm(exact - s)
            bound_margin = max(bound_margin, gap / (4.0 * tau * 2 * np.sqrt(n)))
    report(4, bound_margin <= 1.0, f"max ||prox - S|| / (4 tau d sqrt(n)) = {bound_margin:.3f}")


def test_criterion_05_eps_subgradient():
    rng = np.random.default_rng(104)
    worst = -np.inf
    for _ in range(10**3):
        d = int(rng.integers(1, 4))
        shape = SHAPES[d]
        n = int(np.prod(shape))
        z = rng.standard_normal(shape)
        y = rng.standard_normal(shape)
        tau = 10.0 ** rng.uniform(-3, 0.5)
        mode = ("aniso", "iso")[rng.integers(2)]
        s = approx_prox(z, ProxParams(tau, mode))
        lhs = tv(y, mode)
        rhs = tv(s, mode) + np.vdot(z - s, y - s) / tau - 4.0 * tau * n * d * d
        worst = max(worst, rhs - lhs)
    report(5, worst <= 1e-8, f"max inequality violation = {worst:.3e}")


def test_criterion_06_lemma1_bound():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(10**3):
        d = int(rng.integers(1, 4))
        shape = SHAPES[d]
        n = int(np.prod(shape))
        u = CoeffStack(rng.standard_normal((d,) + shape), rng.standard_normal((d,) + shape))
        mode = ("aniso", "iso")[rng.integers(2)]
        g = h_hat_subgradient(u, mode)
        norm = float(np.sqrt(np.sum(g.avg**2) + np.sum(g.dif**2)))
        worst = max(worst, norm - 2.0 * d * np.sqrt(n))
    report(6, worst <= 1e-10, f"max ||g|| excess over 2 d sqrt(n) = {worst:.3e}")


def test_criterion_07_oracle_agreement():
    # the free-boundary 1D prox is the first half of the circular prox of
    # the even reflection [z, z[::-1]], which FPG solves
    rng = np.random.default_rng(106)
    cfg = OracleConfig(max_iter=10000, tol=1e-12)
    worst = 0.0
    for _ in range(100):
        z = rng.standard_normal(64)
        tau = rng.uniform(0.05, 1.0)
        gap = np.max(np.abs(fpg_prox(reflected(z), tau, cfg)[: z.size] - tautstring_prox_1d(z, tau)))
        worst = max(worst, float(gap))
    report(7, worst <= 1e-6, f"max sup-norm gap fpg vs taut-string = {worst:.3e}")


# The two sweeps below are shared with criterion 10 (stop-rule protocol).
_sweeps = {}


def _denoise_sweep():
    if "denoise" not in _sweeps:
        cfg = ExperimentConfig(task="denoise", image_size=32, n_phantoms=3, seed=0,
                               lambda_grid=(0.5,), gamma_grid=(1e-1, 1e-2, 1e-3),
                               solver="apgm")
        _sweeps["denoise"] = run_sweep(cfg)
    return _sweeps["denoise"]


def _ct_sweep():
    if "ct" not in _sweeps:
        cfg = ExperimentConfig(task="ct", image_size=32, n_phantoms=3, seed=0,
                               n_angles=15, lambda_grid=(2.5,),
                               gamma_grid=(1e-2, 1e-3, 1e-4), solver="admm")
        _sweeps["ct"] = run_sweep(cfg)
    return _sweeps["ct"]


def test_criterion_08_denoising_trend():
    rows = _denoise_sweep().rows
    accs = [r.cost_acc for r in rows]
    decreasing = all(b < a for a, b in zip(accs, accs[1:]))
    overall = accs[0] / accs[-1]
    ok = decreasing and overall >= 25.0  # >= 5x per decade over two decades
    report(8, ok, "cost_acc " + " -> ".join(f"{a:.3e}" for a in accs) +
           f", overall {overall:.1f}x")


def test_criterion_09_admm_ct_trend():
    rows = _ct_sweep().rows
    accs = [r.cost_acc for r in rows]
    ok = not any(r.failed for r in rows) and accs[-1] <= accs[0] / 10.0
    report(9, ok, "cost_acc " + " -> ".join(f"{a:.3e}" for a in accs))


def test_criterion_10_stop_rule_protocol():
    reasons = [c.get("stop_reason") for c in _denoise_sweep().cells + _ct_sweep().cells]
    ok = len(reasons) == 18 and all(r == "tolerance-met" for r in reasons)
    report(10, ok, f"{len(reasons)} cells, reasons = {sorted(set(map(str, reasons)))}")



def test_cached_sweep_tables_are_pinned(tmp_path):
    # criteria 08 and 09's rows as write_table renders them, recorded before
    # the sweep driver kept one record per cell
    expected = {
        "denoise": ["0.5,0.1,3.938060e-01,18.33,13.64,76.3,0.000",
                    "0.5,0.01,7.260771e-02,27.93,12.81,407.0,0.000",
                    "0.5,0.001,8.155770e-03,43.54,12.74,1325.3,0.000"],
        "ct": ["2.5,0.01,1.429900e-01,23.79,17.03,91.3,0.000",
               "2.5,0.001,1.728537e-02,37.28,18.62,986.3,0.000",
               "2.5,0.0001,2.112200e-03,41.25,18.53,4617.0,0.000"],
    }
    for name, sweep in (("denoise", _denoise_sweep), ("ct", _ct_sweep)):
        path = tmp_path / f"{name}.csv"
        write_table(path, sweep().rows)
        assert path.read_text() == "\n".join([TABLE_HEADER] + expected[name]) + "\n"

def test_criterion_11_adjoint_and_power_iteration():
    rng = np.random.default_rng(107)
    geo = CtGeometry(n_pixels=16, n_angles=15)
    op = radon_operator(geo)
    worst = 0.0
    for _ in range(50):
        x = rng.standard_normal(op.in_shape)
        r = rng.standard_normal(op.out_shape)
        ax = op.apply(x)
        gap = abs(np.vdot(ax, r) - np.vdot(x, op.adjoint(r))) / max(1.0, l2_norm(ax) * l2_norm(r))
        worst = max(worst, gap)
    lip = lipschitz_power_iter(identity_operator((8, 8)), iters=300, tol=1e-12)
    ok = worst <= 1e-8 and abs(lip - 1.0) <= 1e-9
    report(11, ok, f"max adjoint gap = {worst:.3e}, identity L = {lip:.12f}")


def test_criterion_12_determinism(tmp_path):
    kwargs = dict(task="denoise", image_size=32, n_phantoms=3, seed=0,
                  lambda_grid=(0.5,), gamma_grid=(1e-1, 1e-2, 1e-3), solver="apgm")
    run_sweep(ExperimentConfig(output_dir=str(tmp_path / "r1"), **kwargs))
    run_sweep(ExperimentConfig(output_dir=str(tmp_path / "r2"), **kwargs))
    b1 = (tmp_path / "r1" / "table.csv").read_bytes()
    b2 = (tmp_path / "r2" / "table.csv").read_bytes()
    report(12, b1 == b2, f"table.csv bytes equal = {b1 == b2}")
