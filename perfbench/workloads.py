"""The benchmark's workloads: inputs made from a seed, one timed pass, and
the checks on each pass's outputs.

denoise_desk runs the acceptance suite's criterion-08 sweep through
`tvprox.cli.main` in this process; ct_ops and prox_large call the library.
`smoke` shrinks every workload for the benchmark's own tests.
"""

import contextlib
import importlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calib import WallClock

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
TABLE_HEADER = "lambda,gamma,cost_acc,psnr_tv,psnr_gt,iters,seconds"

# reference.json holds outputs for input seeds 0..REFERENCE_SEEDS-1 of every
# workload and scale, and every input seed a run uses is taken modulo
# REFERENCE_SEEDS, so every run's outputs are checked against a reference.
REFERENCE_SEEDS = 64
# A denoise_desk pass is this many CLI sweeps, on consecutive CLI seeds: the
# exact baseline's work varies by up to 1.5x between single sweeps (3
# phantoms each), and a pass over 18 phantoms averages most of that out.
SWEEP_CALLS = 6

SWEEPS = {
    "denoise_desk": {
        "full": ["denoise", "--size", "32", "--phantoms", "3", "--lambda", "0.5",
                 "--gamma", "1e-1,1e-2,1e-3", "--solver", "apgm", "--mode", "aniso"],
        "smoke": ["denoise", "--size", "16", "--phantoms", "1", "--lambda", "0.5",
                  "--gamma", "1e-1,1e-2,1e-3", "--solver", "apgm", "--mode", "aniso"],
    },
}

# prox_large: image side, prox scale, calls per mode per pass, FPG budget.
PROX = {
    "full": {"size": 1024, "tau": 0.05, "calls": 8, "fpg_iters": 12},
    "smoke": {"size": 64, "tau": 0.05, "calls": 2, "fpg_iters": 3},
}
PROX_SIGMA = 0.1
MODES = ("aniso", "iso")

# The workloads BENCHMARK.json lists, in its order.
WORKLOADS = ("denoise_desk", "ct_ops", "prox_large")
# The calibration probe (calib.KERNELS) whose load each workload's timings follow.
PROBE_KIND = {"denoise_desk": "small", "ct_ops": "small", "prox_large": "large"}


def tvmod(name):
    """A tvprox submodule (the package re-exports functions that shadow some)."""
    return importlib.import_module(f"tvprox.{name}")


def load_reference():
    if REFERENCE_PATH.exists():
        return json.loads(REFERENCE_PATH.read_text())
    return {}


def input_seeds(workload, seed):
    """Input seeds of every pass of a run with benchmark seed `seed`: the CLI
    seeds of a sweep pass, or the one seed a library workload uses."""
    if workload in SWEEPS:
        return [(SWEEP_CALLS * seed + i) % REFERENCE_SEEDS for i in range(SWEEP_CALLS)]
    return [seed % REFERENCE_SEEDS]


def reference_entry(reference, workload, scale, seed):
    """The recorded outputs for this input seed, and a check that they exist."""
    entry = reference.get(f"{workload}/{scale}", {}).get(str(seed))
    return entry, ("reference_recorded", entry is not None, f"{workload}/{scale} seed {seed}")


def sweep_argv(workload, scale, seed_for_cli, out_dir):
    return SWEEPS[workload][scale] + ["--seed", str(seed_for_cli), "--timing", "--out", str(out_dir)]


@dataclass
class PassResult:
    """What one pass measured and produced."""

    wall_s: float          # the whole in-process pass, set-up and probes included (wall seconds)
    run_s: float           # from the first solve to the end of the pass; this and
                           # every time below in the clock's seconds
    baseline_s: float
    approx_s: float
    approx_mpix: float     # megapixels through approx_prox
    fpg_mpix_iters: float  # FPG dual iterations x megapixels
    operations: int        # sweep cells or library calls attempted
    failed_ops: int
    samples: dict = field(default_factory=dict)  # name -> per-call seconds
    raw_samples: dict = field(default_factory=dict)  # name -> the same in wall seconds
    outputs: dict = field(default_factory=dict)


class SetupDone(Exception):
    """Raised at the first solve when only set-up is being timed."""


class SweepProbe:
    """Coarse wrappers at the experiments -> solvers / exact boundary.

    One call per solve: the exact-TV baselines (`fpg_prox` called from
    experiments, `apgm` with prox_choice="exact") and the approximate sweep
    cells.  ct_ops's baseline calls FPG from inside `apgm`, so the number
    of FPG dual iterations is counted at `tvprox.solvers.fpg_prox`, one call
    per inner solve; the counter asks for return_info=True, which changes
    nothing but a warning that the solvers already silence.  Each solve is
    bracketed by probes of `clock`.
    """

    def __init__(self, clock=None, stop_at_first_solve=False):
        self.clock = clock or WallClock()
        self.stop_at_first_solve = stop_at_first_solve
        self.first_solve = None
        self.baseline_s = []
        self.fpg_iters = 0
        # (iterations, stop_reason, clock seconds, wall seconds of the whole
        # wrapped call, probes included); stop_reason "diverged" on abort
        self.cells = []
        self._saved = []

    def _start(self):
        if self.first_solve is None and self.stop_at_first_solve:
            raise SetupDone
        self.clock.probe()
        t0 = time.perf_counter()
        if self.first_solve is None:
            self.first_solve = t0
        return t0

    def _stop(self, t0):
        """Clock seconds since t0."""
        t1 = time.perf_counter()
        self.clock.probe()
        return self.clock.seconds(t0, t1)

    def _experiments_fpg(self, fn):
        def wrapper(z, tau, cfg=None, return_info=False):
            t0 = self._start()
            x, info = fn(z, tau, cfg, return_info=True)
            self.baseline_s.append(self._stop(t0))
            self.fpg_iters += info["iterations"]
            return (x, info) if return_info else x
        return wrapper

    def _solvers_fpg(self, fn):
        def wrapper(z, tau, cfg=None, return_info=False):
            x, info = fn(z, tau, cfg, return_info=True)
            self.fpg_iters += info["iterations"]
            return (x, info) if return_info else x
        return wrapper

    def _solver(self, fn, divergence):
        def wrapper(problem, cfg, x0):
            w0 = time.perf_counter()
            t0 = self._start()
            try:
                report = fn(problem, cfg, x0)
            except divergence:
                self.cells.append((0, "diverged", self._stop(t0), time.perf_counter() - w0))
                raise
            dt = self._stop(t0)
            if cfg.prox_choice == "exact":
                self.baseline_s.append(dt)
            else:
                self.cells.append((report.iterations, report.stop_reason, dt, time.perf_counter() - w0))
            return report
        return wrapper

    def __enter__(self):
        exp, sol = tvmod("experiments"), tvmod("solvers")
        self._saved = [(exp, "fpg_prox", exp.fpg_prox), (exp, "apgm", exp.apgm),
                       (exp, "admm", exp.admm), (sol, "fpg_prox", sol.fpg_prox)]
        exp.fpg_prox = self._experiments_fpg(exp.fpg_prox)
        exp.apgm = self._solver(exp.apgm, sol.SolverDivergence)
        exp.admm = self._solver(exp.admm, sol.SolverDivergence)
        sol.fpg_prox = self._solvers_fpg(sol.fpg_prox)
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        return False


def read_table(path):
    """table.csv as its header line and rows of column strings."""
    lines = Path(path).read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def run_sweep_call(workload, scale, seed_for_cli, out_dir, clock=None):
    """One sweep through tvprox.cli.main; returns its PassResult."""
    cli = tvmod("cli")
    clock = clock or WallClock()
    out_dir = Path(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = sweep_argv(workload, scale, seed_for_cli, out_dir)
    size = int(argv[argv.index("--size") + 1])
    mpix = size * size / 1e6
    stdout = io.StringIO()
    with SweepProbe(clock) as probe, contextlib.redirect_stdout(stdout):
        t0 = time.perf_counter()
        exit_code = cli.main(argv)
        t1 = time.perf_counter()
        clock.probe()
    header, rows = read_table(out_dir / "table.csv")
    cell_s = [c[2] for c in probe.cells]
    return PassResult(
        wall_s=t1 - t0,
        run_s=clock.seconds(probe.first_solve, t1),
        baseline_s=sum(probe.baseline_s),
        approx_s=sum(c[2] for c in probe.cells if c[1] != "diverged"),
        approx_mpix=sum(c[0] for c in probe.cells) * mpix,
        fpg_mpix_iters=probe.fpg_iters * mpix,
        operations=len(probe.cells),
        failed_ops=sum(1 for c in probe.cells if c[1] != "tolerance-met"),
        samples={"baseline_solve_s": probe.baseline_s, "approx_solve_s": cell_s},
        outputs={"cli_seed": seed_for_cli, "exit_code": exit_code, "header": header, "rows": rows,
                 "stop_reasons": [c[1] for c in probe.cells], "cell_wall_s": [c[3] for c in probe.cells]},
    )


def run_sweep_pass(workload, scale, cli_seeds, out_dir, clock=None):
    """One sweep per CLI seed, in order; returns the pass's PassResult.

    run_s adds up each sweep's time from its first solve, so it leaves out
    every sweep's set-up, as setup_s times the first one's.
    """
    calls = [run_sweep_call(workload, scale, s, Path(out_dir) / f"cli-seed{s}", clock) for s in cli_seeds]
    total = lambda key: sum(getattr(c, key) for c in calls)
    return PassResult(
        wall_s=total("wall_s"),
        run_s=total("run_s"),
        baseline_s=total("baseline_s"),
        approx_s=total("approx_s"),
        approx_mpix=total("approx_mpix"),
        fpg_mpix_iters=total("fpg_mpix_iters"),
        operations=total("operations"),
        failed_ops=total("failed_ops"),
        samples={key: [v for c in calls for v in c.samples[key]] for key in calls[0].samples},
        outputs={"calls": [c.outputs for c in calls]},
    )


def sweep_setup_only(workload, scale, seed_for_cli, out_dir):
    """Run the CLI up to its first solve (the set-up the user waits for)."""
    cli = tvmod("cli")
    with SweepProbe(stop_at_first_solve=True), contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(sweep_argv(workload, scale, seed_for_cli, out_dir))
        except SetupDone:
            return
    raise RuntimeError("the sweep finished without calling a solver")


def _exact_text_match(rows, ref_rows, col):
    return [r[col] for r in rows] == [r[col] for r in ref_rows]


def check_sweep(workload, scale, outputs, reference):
    """Output checks of a sweep pass: those of each sweep, named by its CLI seed."""
    return [(f"cli-seed{o['cli_seed']}.{name}", ok, detail) for o in outputs["calls"]
            for name, ok, detail in check_sweep_call(workload, scale, o, reference)]


def check_sweep_call(workload, scale, outputs, reference):
    """Output checks of one sweep: list of (name, ok, detail)."""
    checks = []
    rows = outputs["rows"]
    argv = SWEEPS[workload][scale]
    gammas = argv[argv.index("--gamma") + 1].split(",")
    checks.append(("exit_code", outputs["exit_code"] == 0, f"cli exit code {outputs['exit_code']}"))
    shape_ok = outputs["header"] == TABLE_HEADER and [float(r[1]) for r in rows] == [float(g) for g in gammas]
    checks.append(("table_shape", shape_ok, f"{len(rows)} rows"))
    if not shape_ok:
        return checks
    # The seconds column --timing writes (3 decimals per row) times the same
    # cells as calls of the coarse wrappers; their wall times must agree.
    per_row = len(outputs["stop_reasons"]) // max(len(rows), 1)
    cell_s = outputs["cell_wall_s"]
    gaps = [abs(sum(cell_s[i * per_row:(i + 1) * per_row]) - float(r[6])) for i, r in enumerate(rows)]
    checks.append(("cell_times_match_seconds_column", len(cell_s) == per_row * len(rows) and max(gaps) <= 2e-3,
                   f"max gap {max(gaps):.1e} s"))
    checks.append(("stop_reasons", all(r == "tolerance-met" for r in outputs["stop_reasons"]),
                   ",".join(sorted(set(outputs["stop_reasons"])))))
    accs = [float(r[2]) for r in rows]
    psnr_tv = [float(r[3]) for r in rows]
    psnr_gt = [float(r[4]) for r in rows]
    checks.append(("cost_acc_nonnegative", all(a >= 0 for a in accs), " ".join(r[2] for r in rows)))
    checks.append(("psnr_finite", all(np.isfinite(v) and v >= 0 for v in psnr_tv)
                   and all(np.isfinite(v) for v in psnr_gt), " ".join(r[3] for r in rows)))
    if scale == "full":
        # The acceptance trend is stated at desk scale.
        ok = all(b < a for a, b in zip(accs, accs[1:])) and accs[0] / accs[-1] >= 25.0
        checks.append(("criterion_08_trend", ok, f"overall {accs[0] / accs[-1]:.1f}x"))
    ref, recorded = reference_entry(reference, workload, scale, outputs["cli_seed"])
    checks.append(recorded)
    if ref is None:
        return checks
    ref_rows = [line.split(",") for line in ref]
    # iters and psnr_gt depend only on the approximate solve: exact text.
    checks.append(("iters_match_reference", _exact_text_match(rows, ref_rows, 5),
                   " ".join(r[5] for r in rows)))
    checks.append(("psnr_gt_match_reference", _exact_text_match(rows, ref_rows, 4),
                   " ".join(r[4] for r in rows)))
    # A tighter baseline (lower f*) raises cost_acc: f_hat / f* = 1 + cost_acc
    # with f_hat fixed, so the baseline may move down by at most 1e-4
    # relative and never up beyond the table's 7 printed digits.
    ratios = [(1.0 + a) / (1.0 + float(r[2])) for a, r in zip(accs, ref_rows)]
    ok = all(a >= float(r[2]) * (1 - 1e-6) - 1e-12 for a, r in zip(accs, ref_rows)) and \
        all(q <= 1.0 + 1e-4 for q in ratios)
    checks.append(("cost_acc_vs_reference", ok, "f*_ref/f* - 1 = " + " ".join(f"{q - 1:.2e}" for q in ratios)))
    return checks


# ----------------------------------------------------------------- prox_large

def prox_inputs(seed, scale):
    """Seeded foam phantom plus two independent AWGN draws."""
    exp, ops = tvmod("experiments"), tvmod("operators")
    size = PROX[scale]["size"]
    gt = exp.gen_foam_phantom(size, seed=seed)
    z1 = ops.add_awgn(gt, PROX_SIGMA, seed=1000 * seed + 500)
    z2 = ops.add_awgn(gt, PROX_SIGMA, seed=1000 * seed + 501)
    return {"z1": z1, "z2": z2}


def run_prox_pass(inputs, scale, clock=None):
    """Repeated approx_prox and tv in both modes, then one budgeted fpg_prox;
    every call is bracketed by probes of `clock`."""
    shrink, tvm, exact = tvmod("shrinkage"), tvmod("tv"), tvmod("exact")
    clock = clock or WallClock()
    p = PROX[scale]
    z = inputs["z1"]
    mpix = z.size / 1e6
    samples = {f"{f}_{m}_s": [] for f in ("approx_prox", "tv") for m in MODES}
    raw = {key: [] for key in samples}
    outputs = {}
    now = time.perf_counter

    def timed(key, fn, *args):
        t0 = now()
        value = fn(*args)
        t1 = now()
        clock.probe()
        samples[key].append(clock.seconds(t0, t1))
        raw[key].append(t1 - t0)
        return value

    clock.probe()
    t_pass = now()
    for mode in MODES:
        params = shrink.ProxParams(p["tau"], mode)
        for _ in range(p["calls"]):
            outputs[mode] = timed(f"approx_prox_{mode}_s", shrink.approx_prox, z, params)
        for _ in range(p["calls"]):
            outputs[f"tv_{mode}"] = timed(f"tv_{mode}_s", tvm.tv, z, mode)
    # tol far below reach: the oracle runs its whole budget every time.
    oracle = exact.OracleConfig(max_iter=p["fpg_iters"], tol=1e-300, mode="aniso")
    samples["fpg_prox_s"], raw["fpg_prox_s"] = [], []
    _, info = timed("fpg_prox_s", exact.fpg_prox, z, p["tau"], oracle, True)
    t_end = now()
    clock.probe()
    fpg_s = samples["fpg_prox_s"][0]
    approx_s = sum(sum(samples[f"approx_prox_{m}_s"]) for m in MODES)
    outputs["fpg_iterations"] = info["iterations"]
    return PassResult(
        wall_s=t_end - t_pass,
        run_s=clock.seconds(t_pass, t_end),
        baseline_s=fpg_s,
        approx_s=approx_s,
        approx_mpix=len(MODES) * p["calls"] * mpix,
        fpg_mpix_iters=info["iterations"] * mpix,
        operations=2 * len(MODES) * p["calls"] + 1,
        failed_ops=0,
        samples=samples,
        raw_samples=raw,
        outputs=outputs,
    )


def digest(x):
    """Sum, l2 norm and 32 evenly spaced samples of an array."""
    flat = np.asarray(x, dtype=np.float64).ravel()
    idx = np.linspace(0, flat.size - 1, 32).astype(np.int64)
    return {"sum": float(flat.sum()), "l2": float(np.sqrt(flat @ flat)), "samples": flat[idx].tolist()}


def digest_matches(got, ref, tol=1e-9):
    pairs = [(got["sum"], ref["sum"]), (got["l2"], ref["l2"])] + list(zip(got["samples"], ref["samples"]))
    return all(abs(a - b) <= tol * max(1.0, abs(b)) for a, b in pairs)


def check_prox(seed, scale, inputs, outputs, reference):
    """TV descent, nonexpansiveness on the (z1, z2) pair, reference output."""
    shrink, tvm = tvmod("shrinkage"), tvmod("tv")
    l2 = lambda a: float(np.sqrt(np.sum(a * a)))
    p = PROX[scale]
    z1, z2 = inputs["z1"], inputs["z2"]
    checks = [("fpg_budget_used", outputs["fpg_iterations"] == p["fpg_iters"],
               f"{outputs['fpg_iterations']} of {p['fpg_iters']} iterations")]
    ref, recorded = reference_entry(reference, "prox_large", scale, seed)
    checks.append(recorded)
    for mode in MODES:
        s1 = outputs[mode]
        tv_z, tv_s = tvm.tv(z1, mode), tvm.tv(s1, mode)
        checks.append((f"tv_descent_{mode}", tv_s <= tv_z * (1 + 1e-12) + 1e-10, f"{tv_s:.6e} <= {tv_z:.6e}"))
        s2 = shrink.approx_prox(z2, shrink.ProxParams(p["tau"], mode))
        num, den = l2(s1 - s2), l2(z1 - z2)
        checks.append((f"nonexpansive_{mode}", num <= (1 + 1e-12) * den, f"ratio {num / den:.12f}"))
        checks.append((f"tv_value_{mode}", outputs[f"tv_{mode}"] == tv_z, f"{tv_z:.6e}"))
        if ref is not None:
            checks.append((f"approx_prox_{mode}_matches_reference", digest_matches(digest(s1), ref[mode]),
                           f"sum {float(s1.sum()):.12e}"))
    return checks


# ----------------------------------------------------------------- ct_ops

# ct_ops: CT geometry, regularization, and the fixed iteration counts of one
# approximate ADMM solve and one exact-prox APGM solve per pass.
CT_OPS = {
    "full": {"size": 32, "angles": 15, "lam": 2.5, "gamma": 1e-3, "admm_iters": 400, "apgm_iters": 25},
    "smoke": {"size": 16, "angles": 8, "lam": 2.5, "gamma": 1e-3, "admm_iters": 20, "apgm_iters": 2},
}
CT_SIGMA = 0.5


def ct_inputs(seed, scale):
    """Seeded phantom, its noisy sinogram, and the CT problem (as `tvprox ct` sets it up)."""
    exp, ops, sol = tvmod("experiments"), tvmod("operators"), tvmod("solvers")
    p = CT_OPS[scale]
    gt = exp.gen_foam_phantom(p["size"], seed=seed)
    op = ops.radon_operator(ops.CtGeometry(n_pixels=p["size"], n_angles=p["angles"]))
    op.lipschitz_bound = ops.lipschitz_power_iter(op, iters=200, tol=1e-9, seed=seed)
    y = ops.add_awgn(op.apply(gt), CT_SIGMA, seed=1000 * seed + 500)
    problem = sol.Problem(
        grad_g=lambda x: op.adjoint(op.apply(x) - y),
        objective_g=lambda x: 0.5 * float(((op.apply(x) - y) ** 2).sum()),
        prox_g=lambda v, gamma: ops.prox_g_ct(v, gamma, y, op),
        lipschitz_L=op.lipschitz_bound,
    )
    return {"problem": problem, "x0": np.zeros_like(gt)}


def run_ct_pass(inputs, scale, clock=None):
    """One approximate ADMM solve and one exact-prox APGM solve, each for a
    fixed number of iterations (a stop tolerance no iterate reaches), each
    bracketed by probes of `clock`."""
    sol, exact = tvmod("solvers"), tvmod("exact")
    clock = clock or WallClock()
    p = CT_OPS[scale]
    problem, x0 = inputs["problem"], inputs["x0"]
    mpix = x0.size / 1e6
    approx_cfg = sol.SolverConfig(gamma=p["gamma"], lam=p["lam"], mode="aniso", stop_tol=1e-300,
                                  max_iter=p["admm_iters"])
    exact_cfg = sol.SolverConfig(gamma=1.0 / problem.lipschitz_L, lam=p["lam"], mode="aniso",
                                 prox_choice="exact", oracle=exact.OracleConfig(max_iter=300, tol=1e-11),
                                 stop_tol=1e-300, max_iter=p["apgm_iters"])
    now = time.perf_counter
    with SweepProbe() as probe:
        clock.probe()
        t_pass = now()
        approx = sol.admm(problem, approx_cfg, x0)
        t_mid = now()
        clock.probe()
        t_mid2 = now()
        baseline = sol.apgm(problem, exact_cfg, x0)
        t_end = now()
        clock.probe()
    approx_s, baseline_s = clock.seconds(t_pass, t_mid), clock.seconds(t_mid2, t_end)
    return PassResult(
        wall_s=t_end - t_pass,
        run_s=clock.seconds(t_pass, t_end),
        baseline_s=baseline_s,
        approx_s=approx_s,
        approx_mpix=approx.iterations * mpix,
        fpg_mpix_iters=probe.fpg_iters * mpix,
        operations=2,
        failed_ops=0,
        samples={"admm_solve_s": [approx_s], "apgm_exact_solve_s": [baseline_s]},
        raw_samples={"admm_solve_s": [t_mid - t_pass], "apgm_exact_solve_s": [t_end - t_mid2]},
        outputs={"admm": approx, "apgm": baseline},
    )


def check_ct(seed, scale, inputs, outputs, reference):
    """Both solves ran their full budget, lowered the objective, and match
    the outputs recorded for this seed."""
    sol = tvmod("solvers")
    p = CT_OPS[scale]
    problem, x0 = inputs["problem"], inputs["x0"]
    ref, recorded = reference_entry(reference, "ct_ops", scale, seed)
    checks = [recorded]
    for name, budget in (("admm", p["admm_iters"]), ("apgm", p["apgm_iters"])):
        report = outputs[name]
        checks.append((f"{name}_budget_used", report.iterations == budget, f"{report.iterations} of {budget}"))
        f0 = sol.objective(problem, sol.SolverConfig(lam=p["lam"]), x0)
        f = float(report.objective_trace[-1])
        checks.append((f"{name}_objective_decreased", np.isfinite(f) and f < f0, f"{f:.6e} < {f0:.6e}"))
        if ref is not None:
            checks.append((f"{name}_matches_reference", digest_matches(digest(report.final_x), ref[name]),
                           f"sum {float(report.final_x.sum()):.12e}"))
    return checks


# Library workloads: (inputs, one pass, output checks).
LIBRARY = {
    "prox_large": (prox_inputs, run_prox_pass, check_prox),
    "ct_ops": (ct_inputs, run_ct_pass, check_ct),
}


def out_root(root):
    path = Path(root) / ".bench_out"
    os.makedirs(path, exist_ok=True)
    return path
