"""Tests of the benchmark itself: span self-time arithmetic, the tracer, the
output checks (they must catch a corrupted output) and a reduced-size smoke
run of every workload through the command line."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _span(name, t0, t1, parent, nbytes=0):
    return [name, t0, t1, parent, "r", nbytes, None]


def test_self_times_nested_spans():
    # root 0..10 > a 1..4, b 5..9 > c 6..7
    starts, ends, parents = [0.0, 1.0, 5.0, 6.0], [10.0, 4.0, 9.0, 7.0], [-1, 0, 0, 2]
    own = spans.self_times(starts, ends, parents)
    assert own == pytest.approx([3.0, 3.0, 3.0, 1.0])
    assert sum(own) == pytest.approx(10.0)


def test_self_times_count_overlapping_children_once():
    # Children 1..4 and 3..6 cover 1..6 of the root; one runs past the root's end.
    own = spans.self_times([0.0, 1.0, 3.0, 8.0], [10.0, 4.0, 6.0, 12.0], [-1, 0, 0, 0])
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_layer_stats_counts_matvecs_and_bytes():
    rows = [
        _span("bench.pass", 0, 10, -1),
        _span("operators.prox_g_ct", 1, 5, 0),
        _span("operators.radon_forward", 1.5, 2, 1),
        _span("operators.radon_adjoint", 2, 2.5, 1),
        _span("operators.radon_forward", 3, 3.5, 1),
        _span("operators.radon_forward", 6, 6.5, 0),   # outside the CG solve
        _span("shrinkage.approx_prox", 7, 9, 0, nbytes=100),
        _span("frame.w_forward", 7, 8, 6, nbytes=400),
    ]
    own = spans.self_times([r[1] for r in rows], [r[2] for r in rows], [r[3] for r in rows])
    stats = spans.layer_stats(rows, own)
    assert stats["operators.prox_g_ct"]["matvecs"] == 2
    assert stats["operators.radon_forward"]["calls"] == 3
    assert stats["shrinkage.approx_prox"]["bytes"] == 500
    assert stats["operators.prox_g_ct"]["self_s"] == pytest.approx(4.0 - 1.5)


def test_calibrated_clock_scales_wall_time_by_the_probes(monkeypatch):
    now = [100.0]
    monkeypatch.setattr(calib.time, "perf_counter", lambda: now[0])
    clock = calib.CalibratedClock("small")
    nominal = clock.nominal_s

    def probe(duration):
        monkeypatch.setattr(clock, "_kernel", lambda: now.__setitem__(0, now[0] + duration))
        clock.probe()

    probe(nominal)          # host at nominal speed: factor 1
    start = now[0]
    now[0] += 1.0           # the timed interval
    end = now[0]
    probe(2 * nominal)      # host at half speed: factor 0.5
    now[0] += 2.0
    probe(2 * nominal)
    assert clock.factors() == pytest.approx([1.0, 0.5, 0.5])
    assert clock.seconds(start, end) == pytest.approx(0.75)
    # Time inside probes counts for nothing.
    assert clock.seconds(100.0, now[0]) == pytest.approx(0.75 + 1.0)
    with pytest.raises(ValueError):
        clock.seconds(start, now[0] + 1.0)
    assert calib.WallClock().seconds(1.0, 3.5) == 2.5


def test_tracer_records_nested_calls_and_restores():
    shrink = wl.tvmod("shrinkage")
    original = shrink.approx_prox
    tracer = spans.Tracer("t")
    z = np.random.default_rng(0).standard_normal((8, 8))
    params = shrink.ProxParams(0.1, "aniso")
    with tracer, tracer.root("bench.pass"):
        shrink.approx_prox(z, params)
    assert shrink.approx_prox is original
    names = [s[0] for s in tracer.spans]
    assert names[:3] == ["bench.pass", "shrinkage.approx_prox", "frame.w_forward"]
    assert tracer.spans[2][3] == 1  # w_forward's parent is approx_prox
    own = spans.self_times(*([s[i] for s in tracer.spans] for i in (1, 2, 3)))
    root = tracer.spans[0]
    assert sum(own) == pytest.approx(root[2] - root[1], rel=1e-9)


def _failed(checks):
    return {name for name, ok, _ in checks if not ok}


def test_sweep_checks_catch_corrupted_table(tmp_path):
    workload = "denoise_desk"
    ref = wl.load_reference()
    result = wl.run_sweep_call(workload, "smoke", 0, tmp_path / workload)
    assert _failed(wl.check_sweep_call(workload, "smoke", result.outputs, ref)) == set()

    out = result.outputs
    rows = [list(r) for r in out["rows"]]
    out["rows"] = [r[:5] + [f"{float(r[5]) + 1:.1f}"] + r[6:] for r in rows]
    assert "iters_match_reference" in _failed(wl.check_sweep_call(workload, "smoke", out, ref))

    out["rows"] = [r[:2] + [f"{-float(r[2]):.6e}"] + r[3:] for r in rows]
    assert {"cost_acc_nonnegative", "cost_acc_vs_reference"} <= _failed(wl.check_sweep_call(workload, "smoke", out, ref))

    out["rows"] = [r[:4] + [f"{float(r[4]) + 0.01:.2f}"] + r[5:] for r in rows]
    assert "psnr_gt_match_reference" in _failed(wl.check_sweep_call(workload, "smoke", out, ref))

    out["rows"] = rows
    out["stop_reasons"] = ["max-iter"] + out["stop_reasons"][1:]
    assert "stop_reasons" in _failed(wl.check_sweep_call(workload, "smoke", out, ref))


def test_every_input_seed_has_a_reference():
    ref = wl.load_reference()
    for workload in wl.WORKLOADS:
        for scale in ("full", "smoke"):
            assert set(ref[f"{workload}/{scale}"]) == {str(s) for s in range(wl.REFERENCE_SEEDS)}
    assert wl.input_seeds("prox_large", wl.REFERENCE_SEEDS + 5) == [5]
    assert wl.input_seeds("denoise_desk", 1) == list(range(wl.SWEEP_CALLS, 2 * wl.SWEEP_CALLS))


def test_a_missing_reference_fails_the_checks(tmp_path):
    # A seed with no recorded outputs must not pass with its reference
    # comparisons silently left out.
    result = wl.run_sweep_pass("denoise_desk", "smoke", [0, 1], tmp_path)
    assert _failed(wl.check_sweep("denoise_desk", "smoke", result.outputs, {})) == \
        {"cli-seed0.reference_recorded", "cli-seed1.reference_recorded"}
    inputs = wl.ct_inputs(0, "smoke")
    result = wl.run_ct_pass(inputs, "smoke")
    assert _failed(wl.check_ct(0, "smoke", inputs, result.outputs, {})) == {"reference_recorded"}
    inputs = wl.prox_inputs(0, "smoke")
    result = wl.run_prox_pass(inputs, "smoke")
    assert _failed(wl.check_prox(0, "smoke", inputs, result.outputs, {})) == {"reference_recorded"}


def test_prox_checks_catch_corrupted_output():
    ref = wl.load_reference()
    inputs = wl.prox_inputs(0, "smoke")
    result = wl.run_prox_pass(inputs, "smoke")
    assert _failed(wl.check_prox(0, "smoke", inputs, result.outputs, ref)) == set()
    result.outputs["aniso"] = result.outputs["aniso"] + 1e-6
    assert "approx_prox_aniso_matches_reference" in _failed(wl.check_prox(0, "smoke", inputs, result.outputs, ref))
    result.outputs["iso"] = inputs["z1"] * 1.5  # more TV than the input
    assert {"tv_descent_iso", "nonexpansive_iso"} <= _failed(wl.check_prox(0, "smoke", inputs, result.outputs, ref))


def test_ct_ops_checks_catch_corrupted_solution():
    ref = wl.load_reference()
    inputs = wl.ct_inputs(0, "smoke")
    result = wl.run_ct_pass(inputs, "smoke")
    assert _failed(wl.check_ct(0, "smoke", inputs, result.outputs, ref)) == set()
    result.outputs["admm"].final_x[3, 4] += 1e-6
    assert _failed(wl.check_ct(0, "smoke", inputs, result.outputs, ref)) == {"admm_matches_reference"}


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_smoke_traced_run_reports_layers_and_self_times_add_up():
    proc = _run("--workload", "ct_ops", "--seed", "0", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"], proc.stdout
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert m["operators.prox_g_ct.matvecs"] > 0 and m["solvers.admm.approx.outer_iters"] > 0
    assert m["exact.fpg_prox.inner_iters"] >= m["exact.fpg_prox.calls"] > 0
    assert m["solvers.apgm.exact.outer_iters"] == wl.CT_OPS["smoke"]["apgm_iters"]
    assert "trace.self_times_sum_to_run_s" not in proc.stdout  # no failed check lines


def test_benchmark_json_matches_the_metric_lists():
    import run

    spec = _benchmark_json()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "ct_ops", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
