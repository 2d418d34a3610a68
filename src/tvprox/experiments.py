"""Benchmark experiments: seeded foam phantoms, metrics, and parameter sweeps.

run_sweep reproduces the accuracy-vs-tau protocol at desk scale: for each
(lambda, gamma, phantom) it runs the chosen solver with the approximate TV
prox, compares against a tight exact-TV baseline computed once per
(lambda, phantom), and emits averaged metric rows plus reconstruction
artifacts.
"""

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .exact import OracleConfig, fpg_prox
from .operators import (
    CtGeometry,
    add_awgn,
    lipschitz_power_iter,
    prox_g_ct,
    radon_operator,
)
from .signal import SLAB, check_choice, check_count, check_nonnegative, check_positive, save_csv
from .solvers import Problem, RunReport, SolverConfig, SolverDivergence, admm, apgm, objective
from .tv import check_mode

TABLE_HEADER = "lambda,gamma,cost_acc,psnr_tv,psnr_gt,iters,seconds"
TASKS = ("denoise", "ct")
SOLVERS = ("apgm", "admm")


@dataclass
class ExperimentConfig:
    """Sweep definition, checked at construction. Desk-scale defaults keep
    a full sweep under CI budgets. Every cell solves with SolverConfig's
    stop rule (stop_tol 5e-6, max_iter 20000)."""

    task: str = "denoise"  # one of TASKS
    image_size: int = 32
    n_phantoms: int = 3
    seed: int = 0
    mode: str = "aniso"
    lambda_grid: tuple = (0.5,)
    gamma_grid: tuple = (1e-1, 1e-2, 1e-3)  # ct+apgm: fractions of 1/L
    solver: str = "apgm"  # one of SOLVERS
    n_angles: int = 15
    noise_sigma: float = None  # default 0.1 (denoise) / 0.5 (ct sinogram)
    fpg50_baseline: bool = False  # also emit table_fpg50.csv (budgeted baseline)
    timing: bool = False  # real wall seconds in table.csv (breaks byte determinism)
    output_dir: str = None

    def __post_init__(self):
        check_choice("task", self.task, TASKS)
        check_choice("solver", self.solver, SOLVERS)
        check_mode(self.mode)
        if any(np.ndim(grid) != 1 or not len(grid) for grid in (self.lambda_grid, self.gamma_grid)):
            raise ValueError("lambda_grid and gamma_grid must be non-empty 1-D sequences")
        for i, lam in enumerate(self.lambda_grid):
            check_nonnegative(f"lambda_grid[{i}]", lam)
        for i, gamma in enumerate(self.gamma_grid):
            check_positive(f"gamma_grid[{i}]", gamma)
        check_count("image_size", self.image_size, least=16)
        check_count("n_phantoms", self.n_phantoms)
        check_count("seed", self.seed, least=0)
        check_count("n_angles", self.n_angles)
        if self.noise_sigma is None:
            self.noise_sigma = 0.1 if self.task == "denoise" else 0.5
        check_nonnegative("noise_sigma", self.noise_sigma)


@dataclass
class MetricsRow:
    lam: float
    gamma: float
    cost_acc: float
    psnr_tv: float
    psnr_gt: float
    iterations: float
    seconds: float
    failed: bool = False


@dataclass
class SweepResult:
    rows: list
    cells: list = field(default_factory=list)  # one _run_cell record per (lam, gamma, phantom)
    rows_fpg50: list = None


def gen_foam_phantom(size, seed, n_disks=30):
    """Piecewise-constant foam-like phantom: a value-1 disk on a 0 background
    with up to n_disks non-overlapping circular voids of random value in [0, 1).

    Deterministic per seed; at most n_disks + 2 distinct pixel values.

    Costs one full-image pass for the outer disk plus, per accepted void, a
    test of the pixels in its bounding box padded by one pixel, so the work
    grows with size**2 plus the box areas, not with n_disks * size**2. The
    box is exact: a pixel outside it lies more than r + 1 from the centre
    along one axis, a margin of 2r + 1 in the squared distance that rounding
    cannot close, so testing every pixel would select the same ones.
    """
    check_count("size", size, least=16)
    check_count("n_disks", n_disks, least=0)
    rng = np.random.default_rng(seed)
    c = (size - 1) / 2.0
    yy, xx = np.ogrid[0:size, 0:size]
    r_main = 0.45 * size
    img = np.where((xx - c) ** 2 + (yy - c) ** 2 <= r_main**2, 1.0, 0.0)

    # Generator.uniform(low, high) is low + (high - low) * random(), so one
    # draw of every attempt's four numbers gives the same values; the
    # attempts' discs are formed as arrays, and only placement loops.
    uniform = lambda u, low, high: low + (high - low) * u
    u_r, u_rho, u_phi, u_value = rng.random((20 * n_disks, 4)).T
    r = uniform(u_r, 0.04, 0.12) * size
    rho = uniform(u_rho, 0.0, r_main - r - 1.0)
    phi = uniform(u_phi, 0.0, 2.0 * np.pi)
    attempts = (a.tolist() for a in (c + rho * np.cos(phi), c + rho * np.sin(phi), r, uniform(u_value, 0.0, 1.0)))
    placed = []  # (cx, cy, r)
    for cx, cy, r, value in zip(*attempts):
        if len(placed) == n_disks:
            break
        if any((cx - px) ** 2 + (cy - py) ** 2 < (r + pr) ** 2 for px, py, pr in placed):
            continue
        rows = slice(max(math.floor(cy - r) - 1, 0), min(math.floor(cy + r) + 2, size))
        cols = slice(max(math.floor(cx - r) - 1, 0), min(math.floor(cx + r) + 2, size))
        box = img[rows, cols]
        box[(xx[:, cols] - cx) ** 2 + (yy[rows] - cy) ** 2 <= r**2] = value
        placed.append((cx, cy, r))
    return img


def psnr(reference, x):
    """Peak signal-to-noise ratio in dB for a unit peak; +inf when the inputs are identical."""
    reference = np.asarray(reference, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if reference.shape != x.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {x.shape}")
    mse = float(((x - reference) ** 2).mean())
    if mse == 0.0:
        return np.inf
    return 10.0 * np.log10(1.0 / mse)


def cost_accuracy(f_hat, f_star):
    """Relative objective gap (f_hat - f_star) / f_star of a finite baseline f_star > 0."""
    check_positive("baseline objective", f_star)
    return (f_hat - f_star) / f_star


def write_pgm(path, img):
    """8-bit ASCII PGM (P2) of a 2-D image, min-max scaled to 0..255 (all 0 if
    the image is constant): the header lines ``P2``, ``width height`` and
    ``255``, then one line per image row of space-separated ``%d`` values.
    The rows go in slabs of whole rows, at most SLAB values (but at least one
    row) each, one ``%`` format and one write per slab; ValueError if not finite."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"write_pgm: the image must be 2-D, got shape {img.shape}")
    lo, hi = img.min(), img.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"write_pgm: non-finite values are not admitted, got values in [{lo}, {hi}]")
    pixels = np.subtract(img, lo) if hi != lo else np.zeros_like(img)  # scaled and rounded in place
    pixels /= hi - lo if hi != lo else 1.0
    np.rint(np.multiply(pixels, 255, out=pixels), out=pixels)
    height, width = pixels.shape
    row = " ".join(["%d"] * width) + "\n"
    rows = max(1, SLAB // width)
    with open(path, "w") as f:
        f.write(f"P2\n{width} {height}\n255\n")
        for start in range(0, height, rows):
            values = pixels[start:start + rows].astype(int).ravel().tolist()  # ints: %d of a float is slower
            f.write((row * (len(values) // width)) % tuple(values))


def _make_problem(cfg, y, ct_op=None):
    if cfg.task == "denoise":
        return Problem(data=y)
    return Problem(
        grad_g=lambda x: ct_op.adjoint(ct_op.apply(x) - y),
        objective_g=lambda x: 0.5 * float(np.add.reduce((ct_op.apply(x) - y) ** 2, axis=None)),
        prox_g=lambda v, gamma: prox_g_ct(v, gamma, y, ct_op),
        lipschitz_L=ct_op.lipschitz_bound,
    )


def _baseline(cfg, problem, lam, y, budget=None):
    """Exact-TV reference solution for one (lambda, phantom) and its objective.

    Tight mode (budget=None) controls tolerances so cost_accuracy against it
    is nonnegative; a finite budget caps FPG sub-iterations instead. The
    tight denoise reference is certified: FPG with momentum restarts stops
    once its duality gap is at most 1e-11 of the objective (cap 20000), so
    f* is within that factor of the optimum.
    """
    if cfg.task == "denoise":
        # The denoising problem *is* a TV prox evaluation; solve it directly.
        if budget is None:
            oracle = OracleConfig(max_iter=20000, gap_tol=1e-11, mode=cfg.mode)
        else:
            oracle = OracleConfig(max_iter=budget, tol=1e-13, mode=cfg.mode)
        x_star = fpg_prox(y, lam, oracle, return_info=True)[0] if lam > 0 else y.copy()
    else:
        oracle = OracleConfig(max_iter=budget or 300, tol=1e-11, mode=cfg.mode)
        ref_cfg = SolverConfig(
            gamma=1.0 / problem.lipschitz_L,
            lam=lam,
            mode=cfg.mode,
            prox_choice="exact",
            oracle=oracle,
            stop_tol=1e-7,
            max_iter=20000,
        )
        x_star = apgm(problem, ref_cfg, np.zeros((cfg.image_size, cfg.image_size))).final_x
    return x_star, objective(problem, SolverConfig(gamma=1.0, lam=lam, mode=cfg.mode), x_star)


def _ct_operator(cfg):
    """The sweep's Radon operator with its Lipschitz bound; None for denoise."""
    if cfg.task != "ct":
        return None
    op = radon_operator(CtGeometry(n_pixels=cfg.image_size, n_angles=cfg.n_angles))
    op.lipschitz_bound = lipschitz_power_iter(op, iters=200, tol=1e-9, seed=cfg.seed)
    return op


def _phantom_data(cfg, index, op):
    """Ground truth and noisy measurements (op(gt) for CT) of one phantom."""
    gt = gen_foam_phantom(cfg.image_size, seed=cfg.seed * 1000 + index)
    clean = gt if op is None else op.apply(gt)
    return gt, add_awgn(clean, cfg.noise_sigma, seed=cfg.seed * 1000 + 500 + index)


def _gamma_value(cfg, gamma, lipschitz_L):
    """Grid entries are absolute except for CT+APGM, where they are fractions
    of 1/L (Table-style '1/(kL)' rows expressed as 1/k)."""
    if cfg.task == "ct" and cfg.solver == "apgm":
        return gamma / lipschitz_L
    return gamma


def _gap(f_hat, f_star):
    """cost_accuracy, or the absolute gap where lambda = 0 makes the
    baseline objective 0, so the row remains well defined."""
    return cost_accuracy(f_hat, f_star) if f_star > 0 else f_hat - f_star


def _run_cell(cfg, lam, gamma, i, data, problem, refs):
    """One timed approximate solve on phantom i, scored against each
    reference (x, f) in refs (the tight one first); writes the cell's
    artifacts. Returns the cell's record: lam, gamma and phantom, plus the
    error of a diverged solve, or else stop_reason, iterations, cost_acc
    (the tight gap), gaps (one per reference), psnr_tv, psnr_gt, seconds
    and the solver's report."""
    gt, y = data
    record = {"lam": lam, "gamma": gamma, "phantom": i}
    run_cfg = SolverConfig(
        gamma=_gamma_value(cfg, gamma, problem.lipschitz_L),
        lam=lam,
        mode=cfg.mode,
        prox_choice="approx",
    )
    x0 = y.copy() if cfg.task == "denoise" else np.zeros_like(gt)
    solve = apgm if cfg.solver == "apgm" else admm
    t0 = time.perf_counter()
    try:
        report = solve(problem, run_cfg, x0)
    except SolverDivergence as err:
        return {**record, "error": str(err)}
    elapsed = time.perf_counter() - t0
    x, x_star = report.final_x, refs[0][0]
    gaps = [_gap(report.objective_trace[-1], f_ref) for _, f_ref in refs]
    if cfg.output_dir:
        path = lambda kind, ext: os.path.join(
            cfg.output_dir, f"{kind}_{cfg.task}_{cfg.solver}_lam{lam:g}_gam{gamma:g}_ph{i}.{ext}")
        _write_trace(path("trace", "csv"), report)
        write_pgm(path("recon", "pgm"), x)
        write_pgm(path("diff", "pgm"), x - x_star)
        save_csv(path("recon", "csv"), x)
    return {**record, "stop_reason": report.stop_reason, "iterations": report.iterations,
            "cost_acc": gaps[0], "gaps": gaps, "psnr_tv": psnr(x_star, x), "psnr_gt": psnr(gt, x),
            "seconds": elapsed, "report": report}


def _row(cfg, records, k):
    """One table row from one (lambda, gamma) pair's records: means over
    those without an error, with cost_acc against reference k (0 tight,
    1 the 50-iteration FPG baseline); failed if any phantom diverged."""
    scored = [r for r in records if "error" not in r]
    mean = lambda vals: float(np.mean(vals)) if vals else np.nan
    col = lambda key: [r[key] for r in scored]
    return MetricsRow(
        lam=records[0]["lam"], gamma=records[0]["gamma"],
        cost_acc=mean([gaps[k] for gaps in col("gaps")]),
        psnr_tv=mean(col("psnr_tv")),
        psnr_gt=mean(col("psnr_gt")),
        iterations=mean(col("iterations")),
        seconds=float(np.sum(col("seconds"))) if cfg.timing else 0.0,
        failed=len(scored) < cfg.n_phantoms,
    )


def run_sweep(cfg):
    """Run the full (lambda, gamma, phantom) sweep and return averaged rows.

    Writes table.csv (and table_fpg50.csv with fpg50_baseline), per-run
    traces, and PGM/CSV reconstructions when cfg.output_dir is set. Solver
    aborts mark the affected row failed and the sweep continues.
    """
    if cfg.output_dir:
        os.makedirs(cfg.output_dir, exist_ok=True)
    op = _ct_operator(cfg)
    data = [_phantom_data(cfg, i, op) for i in range(cfg.n_phantoms)]
    problems = [_make_problem(cfg, y, op) for _, y in data]
    budgets = (None, 50) if cfg.fpg50_baseline else (None,)
    tables = [[] for _ in budgets]  # table.csv rows, then table_fpg50.csv rows
    cells = []
    for lam in cfg.lambda_grid:
        per_budget = [[_baseline(cfg, prob, lam, y, b) for prob, (_, y) in zip(problems, data)] for b in budgets]
        refs = list(zip(*per_budget))  # refs[i]: phantom i's (x, f) per budget
        for gamma in cfg.gamma_grid:
            records = [_run_cell(cfg, lam, gamma, i, d, problem, ref)
                       for i, (d, problem, ref) in enumerate(zip(data, problems, refs))]
            cells.extend(records)
            for k, rows in enumerate(tables):
                rows.append(_row(cfg, records, k))
    if cfg.output_dir:
        for name, rows in zip(("table.csv", "table_fpg50.csv"), tables):
            write_table(os.path.join(cfg.output_dir, name), rows)
    return SweepResult(rows=tables[0], cells=cells, rows_fpg50=tables[1] if cfg.fpg50_baseline else None)


def _write_trace(path, report):
    """The objective trace as text: the header ``iter,objective``, then one
    ``k,%.12e`` line per iteration k = 1, 2, ... The objectives go in slabs
    of at most SLAB, one ``%`` format and one write each, on a list that
    interleaves each slab's k and objective values."""
    trace = report.objective_trace
    with open(path, "w") as f:
        f.write("iter,objective\n")
        for start in range(0, len(trace), SLAB):
            values = trace[start:start + SLAB].tolist()
            items = [None] * (2 * len(values))
            items[::2] = range(start + 1, start + 1 + len(values))
            items[1::2] = values
            f.write(("%d,%.12e\n" * len(values)) % tuple(items))


def write_table(path, rows):
    """Deterministic metrics table; by default the seconds column is a 0.000
    placeholder so identical configs give byte-identical files (real timing
    goes in per-run traces / the timing flag)."""
    with open(path, "w") as f:
        f.write(TABLE_HEADER + "\n")
        for r in rows:
            values = (r.lam, r.gamma, r.cost_acc, r.psnr_tv, r.psnr_gt, r.iterations, r.seconds)
            f.write(",".join(map(format, values, ("g", "g", ".6e", ".2f", ".2f", ".1f", ".3f"))) + "\n")
