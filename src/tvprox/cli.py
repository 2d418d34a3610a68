"""Benchmark command line: denoise / ct sweeps and quick prox property checks.

Exit codes: 0 success, 2 configuration error, 3 solver abort.
"""

import argparse
import os
import sys

import numpy as np

from .exact import OracleConfig, duality_gap, fpg_prox
from .experiments import SOLVERS, TASKS, ExperimentConfig, run_sweep, sweep_data
from .shrinkage import ProxParams, approx_prox
from .signal import check_choice, check_count, l2_norm
from .solvers import PROX_CHOICES
from .tv import MODES, tv


def _parse_floats(text):
    return tuple(float(v) for v in text.split(","))


def _read_config_file(path):
    """Flat key=value file mirroring the CLI flags; '#' starts a comment."""
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


# Flag name -> (destination: the ExperimentConfig field where there is one,
# argparse keywords). Both the flags and the --config file keys come from it.
_SWEEP_OPTIONS = {
    "lambda": ("lambda_grid", {"type": _parse_floats, "help": "comma-separated regularization grid"}),
    "gamma": ("gamma_grid", {"type": _parse_floats, "help": "comma-separated step-size/penalty grid"}),
    "mode": ("mode", {"choices": MODES}),
    "solver": ("solver", {"choices": SOLVERS}),
    "prox": ("prox", {"choices": PROX_CHOICES, "help": "exact also emits the budgeted-FPG baseline table"}),
    "size": ("image_size", {"type": int}),
    "seed": ("seed", {"type": int}),
    "angles": ("n_angles", {"type": int}),
    "phantoms": ("n_phantoms", {"type": int}),
    "sigma": ("noise_sigma", {"type": float}),
    "out": ("output_dir", {"help": "output directory"}),
    "paper_scale": ("paper_scale", {"action": "store_true", "help": "10 phantoms, 45 angles unless set"}),
    "timing": ("timing", {"action": "store_true",
                          "help": "record real wall seconds in table.csv (not byte-reproducible)"}),
}
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
# Presets under the explicit options: the CT sweep's, and --paper-scale's
_CT_DEFAULTS = {"gamma_grid": (1e-2, 1e-3, 1e-4), "solver": "admm"}
_PAPER_SCALE = {"n_phantoms": 10, "n_angles": 45}


def _add_sweep_flags(p):
    p.add_argument("--config", help="key=value config file; flags override it")
    for name, (dest, kwargs) in _SWEEP_OPTIONS.items():
        if "action" not in kwargs and "choices" not in kwargs:
            kwargs = {"metavar": name.upper(), **kwargs}
        p.add_argument("--" + name.replace("_", "-"), dest=dest, default=None, **kwargs)


def _config_value(name, kwargs, raw):
    """A config-file value, converted and checked as its flag would be."""
    try:
        if kwargs.get("action") == "store_true":
            return _BOOLEANS[check_choice("value", raw.lower(), tuple(_BOOLEANS))]
        value = kwargs.get("type", str)(raw)
        return check_choice("value", value, kwargs["choices"]) if "choices" in kwargs else value
    except ValueError as err:
        raise ValueError(f"{name}: {err}") from None


def _merged_options(args):
    opts = {}
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            dest, kwargs = _SWEEP_OPTIONS[check_choice("config key", key, tuple(_SWEEP_OPTIONS))]
            opts[dest] = _config_value(key, kwargs, raw)
    for dest, _ in _SWEEP_OPTIONS.values():
        if getattr(args, dest) is not None:
            opts[dest] = getattr(args, dest)
    return opts


def _build_config(task, opts):
    fields = {k: v for k, v in opts.items() if k not in ("prox", "paper_scale")}
    if opts.get("paper_scale"):
        fields = {**_PAPER_SCALE, **fields}
    if task == "ct":
        fields = {**_CT_DEFAULTS, **fields}
    return ExperimentConfig(task=task, fpg50_baseline=opts.get("prox") == "exact", **fields)


def _config_error(err):
    print(f"config error: {err}", file=sys.stderr)
    return 2


def _run_task(task, args):
    """A sweep; bad settings, output directory or data (sweep_data) exit 2."""
    try:
        cfg = _build_config(task, _merged_options(args))
        inputs = sweep_data(cfg)
        if cfg.output_dir:
            os.makedirs(cfg.output_dir, exist_ok=True)
    except (ValueError, OSError) as err:
        return _config_error(err)
    result = run_sweep(cfg, inputs)
    for row in result.rows:
        status = "FAILED" if row.failed else "ok"
        print(f"lambda={row.lam:g} gamma={row.gamma:g} cost_acc={row.cost_acc:.6e} "
              f"psnr_tv={row.psnr_tv:.2f} psnr_gt={row.psnr_gt:.2f} "
              f"iters={row.iterations:.1f} [{status}]")
    if cfg.output_dir:
        print(f"table written to {cfg.output_dir}/table.csv")
    return 3 if any(r.failed for r in result.rows) else 0


def _run_prox_check(args):
    """Spot-check the operator's contracts on random signals."""
    size, mode, tau = args.size, args.mode, args.tau
    try:
        params = ProxParams(tau, mode)
        check_count("size", size, least=2)
        check_count("seed", args.seed, least=0)
    except ValueError as err:
        return _config_error(err)
    rng = np.random.default_rng(args.seed)
    ok = True

    z = rng.standard_normal((size, size))
    s = approx_prox(z, params)

    descent = tv(s, mode) <= tv(z, mode) + 1e-10
    print(f"descent: tv(S(z))={tv(s, mode):.6e} <= tv(z)={tv(z, mode):.6e}  [{'pass' if descent else 'FAIL'}]")
    ok &= descent

    z2 = rng.standard_normal((size, size))
    s2 = approx_prox(z2, params)
    nonexp = l2_norm(s - s2) <= (1 + 1e-12) * l2_norm(z - z2)
    print(f"nonexpansive: ||S(z1)-S(z2)||={l2_norm(s - s2):.6e} <= ||z1-z2||={l2_norm(z - z2):.6e}  "
          f"[{'pass' if nonexp else 'FAIL'}]")
    ok &= nonexp

    # ||prox - S|| <= ||fpg - S|| + ||fpg - prox|| <= ||fpg - S|| + sqrt(2 * gap)
    fpg, info = fpg_prox(z, tau, OracleConfig(max_iter=5000, tol=1e-11, mode=mode, restart=True), return_info=True)
    gap = duality_gap(z, fpg, info["p"], tau, mode)
    bound = 4.0 * tau * z.ndim * np.sqrt(z.size)
    dist = l2_norm(fpg - s) + np.sqrt(2.0 * max(gap, 0.0))
    # an overflowing bound (huge tau) holds for any distance: it certifies nothing
    verdict = "vacuous" if not np.isfinite(bound) else "pass" if dist <= bound else "FAIL"
    print(f"error bound: ||prox - S|| <= ||fpg - S|| + sqrt(2*gap)={dist:.6e} (gap {gap:.1e}) "
          f"<= 4*tau*d*sqrt(n)={bound:.6e}  [{verdict}]")
    ok &= verdict != "FAIL"

    # With no exact solve: S is FPG's first step from p = 0, whose dual p1 is feasible, so
    # 0.5*||S - prox||^2 <= duality_gap(z, S, p1, tau). The FPG solve above cross-checks it:
    # ||fpg - S|| <= ||fpg - prox|| + ||prox - S|| <= sqrt(2*gap) + certificate.
    _, first = fpg_prox(z, tau, OracleConfig(max_iter=1, mode=mode), return_info=True)
    certificate = np.sqrt(2.0 * max(duality_gap(z, s, first["p"], tau, mode), 0.0))
    floor = l2_norm(fpg - s) - np.sqrt(2.0 * max(gap, 0.0))
    verdict = "vacuous" if not np.isfinite(certificate) else \
        "pass" if floor <= certificate * (1 + 1e-9) + 1e-12 else "FAIL"
    print(f"certified: ||S - prox|| <= sqrt(2*duality_gap(z, S, p1, tau))={certificate:.6e} "
          f">= ||fpg - S|| - sqrt(2*gap)={floor:.6e}  [{verdict}]")
    ok &= verdict != "FAIL"
    return 0 if ok else 3


def build_parser():
    parser = argparse.ArgumentParser(prog="tvprox", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for task in TASKS:
        p = sub.add_parser(task, help=f"{task} accuracy-vs-tau sweep")
        _add_sweep_flags(p)

    p = sub.add_parser("prox-check", help="quick property checks of the approximate prox")
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", type=float, default=1e-2)
    p.add_argument("--mode", choices=MODES, default="aniso")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "prox-check":
        return _run_prox_check(args)
    return _run_task(args.command, args)


if __name__ == "__main__":
    sys.exit(main())
