"""Phantoms, metrics, and the sweep driver (small configurations only; the
full trend runs live in test_acceptance)."""

import hashlib
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvprox import experiments
from tvprox.exact import OracleConfig, duality_gap, fpg_prox
from tvprox.experiments import (
    TABLE_HEADER,
    ExperimentConfig,
    MetricsRow,
    _gap,
    _phantom_data,
    _write_trace,
    cost_accuracy,
    gen_foam_phantom,
    psnr,
    run_sweep,
    write_pgm,
    write_table,
)
from tvprox.signal import SLAB
from tvprox.solvers import RunReport, SolverDivergence
from tvprox.tv import tv


def test_phantom_determinism_and_range():
    a = gen_foam_phantom(32, seed=5)
    b = gen_foam_phantom(32, seed=5)
    np.testing.assert_array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert not np.array_equal(a, gen_foam_phantom(32, seed=6))


def test_phantom_structure():
    img = gen_foam_phantom(32, seed=1, n_disks=30)
    assert tv(img, "aniso") > 0
    assert len(np.unique(img)) <= 32  # n_disks + 2
    with pytest.raises(ValueError):
        gen_foam_phantom(8, seed=0)
    for n_disks in (-1, 2.5):
        with pytest.raises(ValueError, match="n_disks"):
            gen_foam_phantom(16, seed=0, n_disks=n_disks)


def _full_image_phantom(size, seed, n_disks=30):
    """The phantom rasterized the direct way: every pixel tested against
    every void, with a Generator.uniform draw per random number."""
    rng = np.random.default_rng(seed)
    c = (size - 1) / 2.0
    yy, xx = np.mgrid[0:size, 0:size]
    r_main = 0.45 * size
    img = np.where((xx - c) ** 2 + (yy - c) ** 2 <= r_main**2, 1.0, 0.0)
    placed = []
    attempts = 0
    while len(placed) < n_disks and attempts < 20 * n_disks:
        attempts += 1
        r = rng.uniform(0.04, 0.12) * size
        rho = rng.uniform(0.0, r_main - r - 1.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        cx = c + rho * np.cos(phi)
        cy = c + rho * np.sin(phi)
        value = rng.uniform(0.0, 1.0)
        if any((cx - px) ** 2 + (cy - py) ** 2 < (r + pr) ** 2 for px, py, pr in placed):
            continue
        img[(xx - cx) ** 2 + (yy - cy) ** 2 <= r**2] = value
        placed.append((cx, cy, r))
    return img


@settings(derandomize=True, deadline=None, max_examples=200)
@given(size=st.integers(16, 96), seed=st.integers(0, 2**63), n_disks=st.integers(0, 40))
def test_phantom_matches_full_image_rasterizer(size, seed, n_disks):
    expected = _full_image_phantom(size, seed, n_disks).tobytes()
    assert gen_foam_phantom(size, seed, n_disks).tobytes() == expected


def test_phantom_matches_full_image_rasterizer_at_1024():
    assert gen_foam_phantom(1024, seed=3).tobytes() == _full_image_phantom(1024, seed=3).tobytes()


@pytest.mark.parametrize("size, seed, digest", [
    (16, 0, "8641350790394d76a3162daa8e0b27bf2dcacf2dc224d7194e6efc95a161ca49"),
    (32, 3, "0fa6dfe4dbd32c0613ee2e43c8ce2de7b6e180a27d3fcf17575b6c0681a313a3"),
    (64, 7, "629ee71fb1e6b2c5d00bca6751c40132fb457284c8dbc05e2f77cb53ab09940e"),
    (256, 11, "1c7b65d011fc31950a67bd820e107c1f36c446cae9b3f62d61e2374bcf419815"),
])
def test_phantom_digests_are_pinned(size, seed, digest):
    # recorded from the scalar-draw generator: drawing the attempts as arrays changed no bit
    assert hashlib.sha256(gen_foam_phantom(size, seed).tobytes()).hexdigest() == digest


def test_psnr():
    x = np.ones((4, 4))
    assert psnr(x, x) == np.inf
    ref = np.zeros((1, 1))
    val = np.full((1, 1), 0.1)
    assert psnr(ref, val) == pytest.approx(20.0, abs=1e-10)
    rng = np.random.default_rng(70)
    a = rng.random((8, 8))
    b = rng.random((8, 8))
    mse = np.mean((a - b) ** 2)
    assert psnr(a, b) == pytest.approx(10 * np.log10(1.0 / mse), abs=1e-10)


def test_psnr_of_far_apart_finite_inputs_is_finite():
    # the squared error overflows: the inputs are scaled before they are
    # subtracted, and the PSNR is that of the root-mean-square error, with
    # no overflow or divide-by-zero warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for reference, x, want in ((np.zeros(4), np.full(4, 1e300), -6000.0),
                                   (np.full(4, -1.5e308), np.full(4, 1.5e308), -20.0 * (308 + math.log10(3.0))),
                                   (np.zeros(2), np.array([1e200, 0.0]), -4000.0 + 10.0 * math.log10(2.0))):
            assert psnr(reference, x) == pytest.approx(want, rel=1e-15)


def test_cost_accuracy():
    assert cost_accuracy(2.0, 2.0) == 0.0
    assert cost_accuracy(2.2, 2.0) == pytest.approx(0.1, rel=1e-12)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="baseline objective must be finite and > 0"):
            cost_accuracy(1.0, bad)
    # Table-scale magnitudes are representable
    assert cost_accuracy(1.0 + 1.157e-3, 1.0) == pytest.approx(1.157e-3, rel=1e-9)


def test_gap_is_absolute_only_for_a_zero_baseline():
    # lambda = 0 makes f* = 0; every other f* goes through cost_accuracy, so a
    # NaN, infinite or negative baseline objective raises instead of scoring
    assert _gap(1.5, 0.0) == _gap(1.5, -0.0) == 1.5
    assert _gap(2.2, 2.0) == cost_accuracy(2.2, 2.0)
    for bad in (float("nan"), float("-inf"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="baseline objective must be finite and > 0"):
            _gap(1.0, bad)


def test_write_pgm(tmp_path):
    img = np.array([[0.0, 0.5], [1.0, 0.25]])
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    assert lines[3].split() == ["0", "128"]


def pgm_per_value(img):
    """Oracle: the P2 text of the writer that formatted one pixel per call."""
    img = np.asarray(img, dtype=np.float64)
    lo, hi = img.min(), img.max()
    scaled = np.zeros_like(img) if hi == lo else (img - lo) / (hi - lo)
    pixels = np.rint(scaled * 255).astype(int)
    rows = "".join(" ".join(str(v) for v in row) + "\n" for row in pixels)
    return f"P2\n{img.shape[1]} {img.shape[0]}\n255\n" + rows


@pytest.mark.parametrize("shape", [(2, 2), (64, SLAB // 64), (3, SLAB), (2, SLAB + 1), (41, 100), (50, 37)],
                         ids=str)
def test_write_pgm_text_equals_the_per_value_format(tmp_path, shape):
    # whole rows per slab: exactly one slab (64 rows of 64), rows of SLAB and
    # SLAB + 1 values (one row per slab), a slab + 1 row (41 rows of 100, 40 per
    # slab) and part of one; a constant image (hi == lo) and a negative range
    rng = np.random.default_rng(shape[1])
    images = [rng.standard_normal(shape) * 1e3, np.full(shape, -2.5), -rng.random(shape) - 1e-3,
              np.asfortranarray(rng.standard_normal(shape))]
    for img in images:
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        assert path.read_text() == pgm_per_value(img)


def test_write_pgm_takes_2d_images_only(tmp_path):
    for shape in ((4,), (2, 3, 4)):
        with pytest.raises(ValueError, match=re.escape(f"the image must be 2-D, got shape {shape}")):
            write_pgm(tmp_path / "img.pgm", np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_pgm_rejects_a_non_finite_image_before_opening_the_file(tmp_path, bad):
    # a NaN pixel would otherwise be cast to INT_MIN under a 255 maxval
    img = np.zeros((2, 3))
    img[0, 1] = bad
    path = tmp_path / "img.pgm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="write_pgm: non-finite values are not admitted"):
            write_pgm(path, img)
    assert not path.exists()


@pytest.mark.parametrize("n", [1, 2, SLAB, SLAB + 1, 3 * SLAB + 7, 20000])
def test_trace_text_equals_the_per_value_format(tmp_path, n):
    # the objectives include -0.0, a subnormal, huge, negative and integral values
    rng = np.random.default_rng(n)
    trace = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    specials = [-0.0, 5e-324, 1e308, -3.0, 12.0, np.inf, np.nan]
    trace[:min(n, len(specials))] = specials[:n]
    path = tmp_path / "trace.csv"
    _write_trace(path, SimpleNamespace(objective_trace=trace))
    want = "iter,objective\n" + "".join(f"{k},{v:.12e}\n" for k, v in enumerate(trace, start=1))
    assert path.read_text() == want


def test_write_table_format(tmp_path):
    rows = [MetricsRow(lam=0.5, gamma=0.1, cost_acc=1.23e-2, psnr_tv=30.1234,
                       psnr_gt=20.0, iterations=42.0, seconds=0.0),
            # a row whose phantoms all diverged, and a solve that matched its reference exactly
            MetricsRow(lam=0.5, gamma=50.0, cost_acc=np.nan, psnr_tv=np.nan, psnr_gt=np.nan,
                       iterations=np.nan, seconds=0.0, failed=True),
            MetricsRow(lam=0.0, gamma=0.1, cost_acc=0.0, psnr_tv=np.inf, psnr_gt=20.0,
                       iterations=1.0, seconds=0.0)]
    path = tmp_path / "table.csv"
    write_table(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == TABLE_HEADER
    assert lines[1:] == ["0.5,0.1,1.230000e-02,30.12,20.00,42.0,0.000",
                         "0.5,50,nan,nan,nan,nan,0.000",
                         "0,0.1,0.000000e+00,inf,20.00,1.0,0.000"]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(task="deblur")
    with pytest.raises(ValueError):
        ExperimentConfig(solver="pdhg")
    with pytest.raises(ValueError):
        ExperimentConfig(lambda_grid=())
    for bad in (dict(lambda_grid=(-0.5,)), dict(gamma_grid=(0.1, 0.0)), dict(gamma_grid=(np.inf,)),
                dict(image_size=15), dict(n_phantoms=0), dict(n_angles=0), dict(noise_sigma=-1.0),
                dict(seed=-1), dict(n_phantoms=1.5), dict(seed=0.5), dict(image_size=20.5),
                dict(n_angles=2.5), dict(lambda_grid=("a",)), dict(gamma_grid=("a",)), dict(noise_sigma="a"),
                dict(mode="tv")):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)
    assert ExperimentConfig(task="ct").noise_sigma == 0.5


def test_config_takes_array_grids():
    # both grids are checked by their length: an array grid passes as a tuple
    # does, and an empty one gets the config's message, not numpy's
    # ambiguous-truth-value error
    cfg = ExperimentConfig(lambda_grid=np.array([0.1, 0.5]), gamma_grid=np.array([1e-2]))
    assert list(cfg.lambda_grid) == [0.1, 0.5]
    for grid in ("lambda_grid", "gamma_grid"):
        with pytest.raises(ValueError, match="must be non-empty"):
            ExperimentConfig(**{grid: np.array([])})


def test_config_rejects_scalar_grids():
    # a scalar grid gets the config's ValueError, not len()'s TypeError
    for bad in (dict(lambda_grid=0.5), dict(gamma_grid=1e-2), dict(lambda_grid=np.array(0.5))):
        with pytest.raises(ValueError, match="must be non-empty 1-D sequences"):
            ExperimentConfig(**bad)


def test_sweep_lambda_zero_is_exact(tmp_path):
    cfg = ExperimentConfig(task="denoise", image_size=16, n_phantoms=1, seed=0,
                           lambda_grid=(0.0,), gamma_grid=(1e-1, 1e-2),
                           output_dir=str(tmp_path))
    res = run_sweep(cfg)
    for row in res.rows:
        assert not row.failed
        assert row.cost_acc <= 1e-10  # absolute gap: solver reproduces y
    assert (tmp_path / "table.csv").exists()


def test_sweep_artifacts_and_determinism(tmp_path):
    kwargs = dict(task="denoise", image_size=16, n_phantoms=2, seed=3,
                  lambda_grid=(0.5,), gamma_grid=(1e-1, 1e-2))
    res1 = run_sweep(ExperimentConfig(output_dir=str(tmp_path / "a"), **kwargs))
    run_sweep(ExperimentConfig(output_dir=str(tmp_path / "b"), **kwargs))
    t1 = (tmp_path / "a" / "table.csv").read_bytes()
    t2 = (tmp_path / "b" / "table.csv").read_bytes()
    assert t1 == t2

    out = tmp_path / "a"
    tag = "denoise_apgm_lam0.5_gam0.1_ph0"
    assert (out / f"trace_{tag}.csv").exists()
    assert (out / f"recon_{tag}.pgm").exists()
    assert (out / f"diff_{tag}.pgm").exists()
    assert (out / f"recon_{tag}.csv").exists()

    # cost accuracy vs the tight baseline is nonnegative and improves as
    # gamma (hence tau) shrinks
    rows = res1.rows
    assert all(r.cost_acc >= -1e-12 for r in rows)
    assert rows[1].cost_acc < rows[0].cost_acc


def test_sweep_fpg50_baseline_table(tmp_path):
    cfg = ExperimentConfig(task="denoise", image_size=16, n_phantoms=2, seed=0,
                           lambda_grid=(0.5,), gamma_grid=(1e-1, 1e-2),
                           fpg50_baseline=True, output_dir=str(tmp_path))
    res = run_sweep(cfg)
    assert res.rows_fpg50 is not None and len(res.rows_fpg50) == 2
    lines = (tmp_path / "table_fpg50.csv").read_text().splitlines()
    assert lines[0] == TABLE_HEADER

    # every column but cost_acc (psnr_tv included) matches table.csv
    cost_col = TABLE_HEADER.split(",").index("cost_acc")
    drop = lambda line: line.split(",")[:cost_col] + line.split(",")[cost_col + 1:]
    tight = (tmp_path / "table.csv").read_text().splitlines()
    assert [drop(line) for line in lines] == [drop(line) for line in tight]

    # cost_acc is the mean gap against the 50-iteration FPG references
    f50 = []
    for i in range(cfg.n_phantoms):
        _, y = _phantom_data(cfg, i, None)
        x50 = fpg_prox(y, 0.5, OracleConfig(max_iter=50, tol=1e-13, mode=cfg.mode), return_info=True)[0]
        f50.append(0.5 * float(((y - x50) ** 2).sum()) + 0.5 * tv(x50, cfg.mode))
    for j, row in enumerate(res.rows_fpg50):
        cells = res.cells[j * cfg.n_phantoms:(j + 1) * cfg.n_phantoms]
        gaps = [(c["report"].objective_trace[-1] - f) / f for c, f in zip(cells, f50)]
        assert row.cost_acc == pytest.approx(np.mean(gaps), rel=1e-12)
        assert row.cost_acc != res.rows[j].cost_acc


def test_ct_sweep_builds_one_operator(monkeypatch):
    calls = []
    real = experiments.lipschitz_power_iter
    monkeypatch.setattr(experiments, "lipschitz_power_iter", lambda *a, **k: calls.append(1) or real(*a, **k))
    # instant solvers: only the sweep's set-up is under test
    stub = lambda problem, cfg, x0: RunReport(final_x=x0, objective_trace=np.array([1.0]), iterations=1,
                                              stop_reason="tolerance-met", wall_time=0.0)
    monkeypatch.setattr(experiments, "apgm", stub)
    monkeypatch.setattr(experiments, "admm", stub)
    cfg = ExperimentConfig(task="ct", image_size=16, n_phantoms=2, n_angles=4,
                           lambda_grid=(0.5, 1.0), gamma_grid=(1e-2,), solver="admm")
    res = run_sweep(cfg)
    assert len(calls) == 1
    assert len(res.cells) == 4 and not any(r.failed for r in res.rows)


@pytest.mark.parametrize("task, solver", [("ct", "apgm"), ("ct", "admm"), ("denoise", "apgm"), ("denoise", "admm")])
def test_sweep_cells_solve_at_their_grid_step(monkeypatch, task, solver):
    # CT+APGM grid entries are fractions of 1/L; every other cell solves at
    # the grid value itself. A stub solver records each cell's step and L
    # (the CT baseline's exact-prox APGM solves are not cells)
    steps = []

    def stub(problem, cfg, x0):
        if cfg.prox_choice == "approx":
            steps.append((cfg.gamma, problem.lipschitz_L))
        return RunReport(final_x=x0, objective_trace=np.array([1.0]), iterations=1,
                         stop_reason="tolerance-met", wall_time=0.0)

    monkeypatch.setattr(experiments, "apgm", stub)
    monkeypatch.setattr(experiments, "admm", stub)
    grid = (1e-2, 0.5)
    cfg = ExperimentConfig(task=task, image_size=16, n_phantoms=2, n_angles=4,
                           lambda_grid=(0.5,), gamma_grid=grid, solver=solver)
    run_sweep(cfg)
    L = steps[0][1]
    assert all(lipschitz == L for _, lipschitz in steps) and (L > 1 if task == "ct" else L == 1)
    want = [gamma / L if (task, solver) == ("ct", "apgm") else gamma for gamma in grid for _ in range(2)]
    assert [gamma for gamma, _ in steps] == want


def test_sweep_marks_failed_rows():
    # an absurd step size makes APGM diverge on the denoising problem
    cfg = ExperimentConfig(task="denoise", image_size=16, n_phantoms=1, seed=0,
                           lambda_grid=(0.5,), gamma_grid=(50.0,))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = run_sweep(cfg)
    assert res.rows[0].failed


def test_partially_diverged_row_averages_its_survivors(monkeypatch):
    # the second of two phantoms diverges: the row is failed, its means are
    # the first phantom's scores, and both cells keep a record
    real, calls = experiments.apgm, []

    def second_diverges(problem, cfg, x0):
        calls.append(1)
        if len(calls) == 2:
            raise SolverDivergence("apgm: objective became inf at iteration 3")
        return real(problem, cfg, x0)

    monkeypatch.setattr(experiments, "apgm", second_diverges)
    cfg = ExperimentConfig(task="denoise", image_size=16, n_phantoms=2, seed=0,
                           lambda_grid=(0.5,), gamma_grid=(1e-1,), timing=True)
    res = run_sweep(cfg)
    (row,) = res.rows
    scored, diverged = res.cells
    assert row.failed
    assert diverged == {"lam": 0.5, "gamma": 0.1, "phantom": 1,
                        "error": "apgm: objective became inf at iteration 3"}
    assert scored["phantom"] == 0 and "error" not in scored
    gt, y = _phantom_data(cfg, 0, None)
    x_star, f_star = experiments._baseline(cfg, experiments._make_problem(cfg, y), 0.5, y)
    report = scored["report"]
    assert row.cost_acc == scored["cost_acc"] == cost_accuracy(report.objective_trace[-1], f_star)
    assert row.iterations == scored["iterations"] == report.iterations
    assert row.psnr_tv == psnr(x_star, report.final_x)
    assert row.psnr_gt == psnr(gt, report.final_x)
    assert 0.0 < row.seconds < 60.0


def test_tight_denoise_baselines_are_certified(monkeypatch):
    # criterion 08's sweep; every FPG solve the sweep makes is a tight
    # denoise baseline (the cells use the approximate prox). Its duality gap
    # bounds the baseline's objective error; 1e-6 relative sits more than
    # three decades below the smallest cost_acc criterion 08 resolves (7.3e-3)
    solves = []

    def recording_fpg_prox(z, tau, cfg=None, return_info=False):
        out = fpg_prox(z, tau, cfg, return_info)
        solves.append((z, tau, cfg, out))
        return out

    monkeypatch.setattr(experiments, "fpg_prox", recording_fpg_prox)
    cfg = ExperimentConfig(task="denoise", image_size=32, n_phantoms=3, seed=0,
                           lambda_grid=(0.5,), gamma_grid=(1e-1, 1e-2, 1e-3), solver="apgm")
    run_sweep(cfg)
    assert len(solves) == 3
    for z, tau, oracle, (x, info) in solves:
        f_star = 0.5 * float(((x - z) ** 2).sum()) + tau * tv(x, oracle.mode)
        gap = duality_gap(z, x, info["p"], tau, oracle.mode)
        assert gap <= 1e-6 * f_star


def test_tight_denoise_baselines_stop_on_their_gap(monkeypatch):
    # criterion 08's sweep: the certified FPG stops on a relative gap of
    # 1e-11 within 1500 iterations (700-800 in practice), not at the cap
    infos = []

    def recording_fpg_prox(z, tau, cfg=None, return_info=False):
        x, info = fpg_prox(z, tau, cfg, return_info=True)
        infos.append(info)
        return (x, info) if return_info else x

    monkeypatch.setattr(experiments, "fpg_prox", recording_fpg_prox)
    run_sweep(ExperimentConfig(task="denoise", image_size=32, n_phantoms=3, seed=0,
                               lambda_grid=(0.5,), gamma_grid=(1e-1, 1e-2, 1e-3), solver="apgm"))
    assert len(infos) == 3
    for info in infos:
        assert info["converged"] and info["gap"] <= 1e-11
        assert info["iterations"] <= 1500
