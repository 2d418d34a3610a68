"""tvprox benchmark: one command that runs a workload, checks its outputs and
prints every metric by name and unit.

    python3 perfbench/run.py --workload ct_ops --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 0          # each workload in its own process

--trace 0 prints the end-to-end metrics, timed in reference seconds (wall
seconds corrected for the host's speed, see calib.py); --trace 1 runs one
untraced and one traced pass in wall seconds and prints the per-layer
metrics.  The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for what each workload and metric is for.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 11
DEFAULT_SECONDS = 30
# BENCHMARK.json's workloads (workloads.WORKLOADS; that module imports numpy,
# which must wait until the thread variables are set).
WORKLOAD_NAMES = ("denoise_desk", "ct_ops", "prox_large")

# name -> (unit, better); the same lists as BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "baseline_s": ("s", "lower"),
    "approx_s": ("s", "lower"),
    "approx_mpix_per_s": ("Mpix/s", "higher"),
    "fpg_mpix_iter_per_s": ("Mpix-iter/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "exact.fpg_prox.calls": ("count", "lower"),
    "exact.fpg_prox.self_s": ("s", "lower"),
    "exact.fpg_prox.inner_iters": ("count", "lower"),
    "exact.fpg_prox.inner_iters_max": ("count", "lower"),
    "exact.fpg_prox.not_converged": ("count", "lower"),
    "exact.fpg_prox.converged_ratio": ("ratio", "higher"),
    "shrinkage.approx_prox.calls": ("count", "lower"),
    "shrinkage.approx_prox.self_s": ("s", "lower"),
    "shrinkage.approx_prox.ms_p50": ("ms", "lower"),
    "shrinkage.approx_prox.ms_p90": ("ms", "lower"),
    "shrinkage.approx_prox.bytes_computed": ("B/call", "lower"),
    "shrinkage.threshold_stack.self_s": ("s", "lower"),
    "frame.w_forward.self_s": ("s", "lower"),
    "frame.w_adjoint.self_s": ("s", "lower"),
    "frame.diff_axis.self_s": ("s", "lower"),
    "tv.tv.calls": ("count", "lower"),
    "tv.tv.self_s": ("s", "lower"),
    "operators.radon_forward.calls": ("count", "lower"),
    "operators.radon_adjoint.calls": ("count", "lower"),
    "operators.prox_g_ct.calls": ("count", "lower"),
    "operators.prox_g_ct.matvecs": ("count", "lower"),
    "solvers.apgm.exact.calls": ("count", "lower"),
    "solvers.apgm.exact.outer_iters": ("count", "lower"),
    "solvers.apgm.approx.calls": ("count", "lower"),
    "solvers.apgm.approx.outer_iters": ("count", "lower"),
    "solvers.admm.approx.calls": ("count", "lower"),
    "solvers.admm.approx.outer_iters": ("count", "lower"),
    "experiments.gen_foam_phantom.self_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Self times of layers that only some workloads run.  They read 0 on the
# others, so they are printed and written to the results file but kept out
# of the machine-read metrics, where a time must never be a constant.
PRINTED_ONLY = (
    "operators.radon_forward.self_s", "operators.radon_adjoint.self_s", "operators.prox_g_ct.self_s",
    "operators.system_matrix.self_s", "operators.lipschitz_power_iter.self_s",
    "solvers.apgm.exact.self_s", "solvers.apgm.approx.self_s", "solvers.admm.approx.self_s",
    "experiments.run_sweep.self_s", "experiments.write_pgm.self_s", "cli.main.self_s",
    "bench.pass.self_s",
)

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def summarize(samples, unit="s"):
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    import numpy as np

    n = len(samples)
    out = {"median": statistics.median(samples), "n": n, "unit": unit}
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = float(np.percentile(samples, p))
            break
    return out


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_facts():
    import numpy as np
    import scipy

    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f).strip() for f in ("level", "type", "size"))
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def import_program():
    """Import tvprox from this checkout's src/ and nowhere else."""
    import tvprox

    src = (ROOT / "src").resolve()
    if src not in Path(tvprox.__file__).resolve().parents:
        raise ImportError(f"tvprox imported from {tvprox.__file__}, not from {src}")
    return tvprox


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setups(args, repeats, clock):
    """Fresh processes from start to the first solve; seconds of `clock` each."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(repeats):
        clock.probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            clock.probe()
            times.append(clock.seconds(t0, t1))
            proc.stdout.read()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return times


class Workload:
    """Runs one workload's passes and checks, at full or smoke scale."""

    def __init__(self, name, seed, scale, calibrated):
        import workloads as wl
        from calib import CalibratedClock, WallClock

        self.wl = wl
        # Timed runs report reference seconds (calib.py); a traced run keeps
        # wall seconds, so that no probe lands inside a span.
        self.clock = CalibratedClock(wl.PROBE_KIND[name]) if calibrated else WallClock()
        self.name, self.scale = name, scale
        # Every pass of a run uses the same inputs, so a faster program
        # makes more passes over the same work, never over other inputs.
        self.seeds = wl.input_seeds(name, seed)
        self.reference = wl.load_reference()
        self.out = wl.out_root(ROOT) / name / f"seed{seed}"
        self._inputs = None

    @property
    def is_sweep(self):
        return self.name in self.wl.SWEEPS

    def setup_probe(self):
        if self.is_sweep:
            self.wl.sweep_setup_only(self.name, self.scale, self.seeds[0], self.out / "setup-probe")
        else:
            self.wl.LIBRARY[self.name][0](self.seeds[0], self.scale)

    def run_pass(self, fresh_inputs=False):
        """One pass of the sweep, or one over the seed's inputs (library workloads)."""
        wl = self.wl
        if self.is_sweep:
            return wl.run_sweep_pass(self.name, self.scale, self.seeds, self.out, self.clock)
        make_inputs, run, _ = wl.LIBRARY[self.name]
        if fresh_inputs or self._inputs is None:
            self._inputs = make_inputs(self.seeds[0], self.scale)
        return run(self._inputs, self.scale, self.clock)

    def check(self, result):
        """Output checks of a pass (library workloads: on the inputs of its latest pass)."""
        if self.is_sweep:
            return self.wl.check_sweep(self.name, self.scale, result.outputs, self.reference)
        check = self.wl.LIBRARY[self.name][2]
        return check(self.seeds[0], self.scale, self._inputs, result.outputs, self.reference)


def _tally(results, checks):
    attempted = sum(r.operations for r in results) + len(checks)
    failed = sum(r.failed_ops for r in results) + sum(1 for _, ok, _ in checks if not ok)
    return attempted, failed


def timed_run(args):
    """Untraced: set-up probes, then whole passes until --seconds is spent."""
    work = Workload(args.workload, args.seed, args.scale, calibrated=True)
    setups = time_setups(args, SETUP_REPEATS, work.clock)
    results, checks = [], []
    begin = time.perf_counter()
    while not results or time.perf_counter() - begin + statistics.median(r.wall_s for r in results) <= args.seconds:
        if results and not work.is_sweep:
            # Library workloads check only the last pass's outputs; holding
            # every pass's arrays would inflate peak_rss_mb.
            results[-1].outputs = {}
        results.append(work.run_pass())
        if work.is_sweep:
            checks += [(f"pass{len(results) - 1}.{n}", ok, d) for n, ok, d in work.check(results[-1])]
    if not work.is_sweep:
        checks += work.check(results[-1])
    med = statistics.median
    metrics = {
        "setup_s": med(setups),
        "run_s": med([r.run_s for r in results]),
        "baseline_s": med([r.baseline_s for r in results]),
        "approx_s": med([r.approx_s for r in results]),
        "approx_mpix_per_s": med([r.approx_mpix / r.approx_s for r in results]),
        "fpg_mpix_iter_per_s": med([r.fpg_mpix_iters / r.baseline_s for r in results]),
        "peak_rss_mb": peak_rss_mb(),
    }
    timings = {"setup_s": summarize(setups)}
    for key in ("run_s", "baseline_s", "approx_s", "wall_s"):
        timings[f"pass.{key}"] = summarize([getattr(r, key) for r in results])
    for key in results[0].samples:
        timings[key] = summarize([v for r in results for v in r.samples[key]])
    for key in results[0].raw_samples:
        timings[f"{key} (wall)"] = summarize([v for r in results for v in r.raw_samples[key]])
    timings["probe_factor"] = summarize(work.clock.factors(), unit="ratio")
    attempted, failed = _tally(results, checks)
    return {"metrics": metrics, "timings": timings, "checks": checks, "passes": len(results),
            "input_seeds": work.seeds, "attempted": attempted, "failed": failed}


def layer_metrics(tracer, untraced_s):
    """Per-layer metrics from a finished traced pass."""
    import numpy as np
    from spans import layer_stats, self_times

    spans = tracer.spans
    own = self_times([s[1] for s in spans], [s[2] for s in spans], [s[3] for s in spans])
    stats = layer_stats(spans, own)
    get = lambda name, key: stats.get(name, {}).get(key, 0)
    out = {}
    for name in ("exact.fpg_prox", "shrinkage.approx_prox", "shrinkage.threshold_stack", "frame.w_forward",
                 "frame.w_adjoint", "frame.diff_axis", "tv.tv", "operators.radon_forward",
                 "operators.radon_adjoint", "operators.prox_g_ct", "operators.system_matrix",
                 "operators.lipschitz_power_iter", "experiments.gen_foam_phantom", "cli.main",
                 "solvers.apgm.exact", "solvers.apgm.approx", "solvers.admm.approx",
                 "experiments.run_sweep", "experiments.write_pgm", "bench.pass"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = float(get(name, "self_s"))
    infos = get("exact.fpg_prox", "infos") or []
    iters = [i["iterations"] for i in infos]
    out["exact.fpg_prox.inner_iters"] = sum(iters)
    out["exact.fpg_prox.inner_iters_max"] = max(iters, default=0)
    out["exact.fpg_prox.not_converged"] = sum(1 for i in infos if not i["converged"])
    out["exact.fpg_prox.converged_ratio"] = (sum(1 for i in infos if i["converged"]) / len(infos)) if infos else 0.0
    durations_ms = np.array(get("shrinkage.approx_prox", "durations") or [0.0]) * 1e3
    out["shrinkage.approx_prox.ms_p50"] = float(np.percentile(durations_ms, 50))
    out["shrinkage.approx_prox.ms_p90"] = float(np.percentile(durations_ms, 90))
    calls = out["shrinkage.approx_prox.calls"]
    out["shrinkage.approx_prox.bytes_computed"] = get("shrinkage.approx_prox", "bytes") / calls if calls else 0.0
    out["operators.prox_g_ct.matvecs"] = get("operators.prox_g_ct", "matvecs")
    for name in ("solvers.apgm.exact", "solvers.apgm.approx", "solvers.admm.approx"):
        out[f"{name}.outer_iters"] = sum(i["iterations"] for i in get(name, "infos") or [])
    root = spans[0]
    out["trace.run_s"] = root[2] - root[1]
    out["trace.self_sum_s"] = float(sum(own))
    out["trace.overhead_s"] = out["trace.run_s"] - untraced_s
    out["trace.spans"] = len(spans)
    return out, own


def traced_run(args):
    """One untraced pass, then the same pass with every public function traced."""
    from spans import Tracer

    work = Workload(args.workload, args.seed, args.scale, calibrated=False)

    def timed_unit():
        t0 = time.perf_counter()
        result = work.run_pass(fresh_inputs=True)
        return result, time.perf_counter() - t0

    untraced, untraced_s = timed_unit()
    if 4 * untraced_s < args.seconds:
        # A cheap pass runs again, so that first-call costs (imports, pages
        # touched for the first time) stay out of the untraced reference.
        untraced, untraced_s = timed_unit()
    checks = [(f"untraced.{n}", ok, d) for n, ok, d in work.check(untraced)]
    tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}")
    with tracer, tracer.root("bench.pass"):
        traced = work.run_pass(fresh_inputs=True)
    checks += [(f"traced.{n}", ok, d) for n, ok, d in work.check(traced)]
    metrics, own = layer_metrics(tracer, untraced_s)
    drift = abs(metrics["trace.self_sum_s"] - metrics["trace.run_s"])
    checks.append(("trace.self_times_sum_to_run_s", drift <= 1e-6 * metrics["trace.run_s"] + 1e-9,
                   f"|sum - run_s| = {drift:.3e} s"))
    trace_dir = work.wl.out_root(ROOT) / "trace"
    trace_dir.mkdir(exist_ok=True)
    tracer.write_csv(trace_dir / f"{args.workload}-seed{args.seed}.csv", own)
    attempted, failed = _tally([untraced, traced], checks)
    return {"metrics": metrics, "timings": {}, "checks": checks, "passes": 2,
            "input_seeds": work.seeds, "attempted": attempted, "failed": failed}


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, result, facts):
    """Print the human-readable report; return the final JSON line's object."""
    print(f"# workload {args.workload}  seed {args.seed} (input seeds {result['input_seeds']})  "
          f"scale {args.scale}  trace {args.trace}  passes {result['passes']}")
    print("# machine " + json.dumps(facts, sort_keys=True))
    for name, t in result["timings"].items():
        tail = next(((k, v) for k, v in t.items() if k.startswith("p")), None)
        unit = t["unit"]
        tail_text = f"{tail[0]} {tail[1]:.6g} {unit}" if tail else "no tail percentile (under 20 samples)"
        print(f"timing {name:28s} median {t['median']:.6g} {unit}  {tail_text}  n={t['n']}")
    bad = [c for c in result["checks"] if not c[1]]
    print(f"checks {len(result['checks']) - len(bad)}/{len(result['checks'])} passed")
    for name, ok, detail in result["checks"]:
        if not ok:
            print(f"check FAILED {name}: {detail}")
    metrics = result["metrics"]
    listed = END_TO_END if args.trace == 0 else PER_LAYER
    if args.trace:
        for name in PRINTED_ONLY + ("trace.self_sum_s", "trace.spans"):
            unit = "count" if name.endswith("spans") else "s"
            print(f"layer  {name:42s} {_fmt(metrics[name]):>14s} {unit}")
    for name, (unit, better) in listed.items():
        print(f"metric {name:42s} {_fmt(metrics[name]):>14s} {unit} ({better} is better)")
    frac = result["failed"] / result["attempted"]
    print(f"metric {'failed_frac':42s} {_fmt(frac):>14s} ratio (lower is better; "
          f"{result['failed']} of {result['attempted']} operations)")
    return {
        "correct": not bad and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in listed.items()},
    }


def run_all(args):
    """Every workload, each in a fresh process; a summary table at the end."""
    summary, ok = {}, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= summary[name]["correct"]
    print("# summary")
    for name, res in summary.items():
        for metric, m in res["metrics"].items():
            print(f"{name:13s} {metric:42s} {_fmt(m['value']):>14s} {m['unit']}")
        print(f"{name:13s} {'failed_frac':42s} {_fmt(res['failed'] / res['attempted']):>14s} ratio")
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{w}.{k}": v for w, r in summary.items() for k, v in r["metrics"].items()},
    }))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the benchmark's tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    args.scale = "smoke" if args.smoke else "full"
    return args


def main(argv=None):
    args = parse_args(argv)
    # One worker thread, set before numpy is first imported and inherited by
    # the processes this script starts.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        import_program()
    except ImportError as err:
        print(f"cannot import tvprox from this checkout: {err}", file=sys.stderr)
        return 2
    if args.setup_probe:
        Workload(args.workload, args.seed, args.scale, calibrated=False).setup_probe()
        print("ready", flush=True)
        return 0
    if args.all:
        return run_all(args)
    result = traced_run(args) if args.trace else timed_run(args)
    facts = machine_facts()
    line = report(args, result, facts)
    results_dir = ROOT / ".bench_out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  scale=args.scale, machine=facts, timings=result["timings"], all_metrics=result["metrics"],
                  checks=[list(c) for c in result["checks"]])
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
