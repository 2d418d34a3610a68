"""Split steps: from frame.SPLIT_MIN samples on, an aniso fpg_prox runs each
phase of its iteration as two halves of the rows, the second on the worker
thread. Every output keeps its bits, which SPLIT_MIN lowered to a few
samples shows on small signals, the worker keeps the caller's errstate, and
nothing it leaves running holds up exit."""

import os
import subprocess
import sys
import textwrap
import threading
import warnings

import numpy as np
import pytest
from oracles import circular_cases, oracle

from tvprox import exact, frame
from tvprox.exact import OracleConfig, duality_gap, fpg_prox
from tvprox.frame import _adjoint_steps, _grad_steps, _run
from tvprox.shrinkage import ProxParams, approx_prox
from tvprox.solvers import Problem, SolverConfig, apgm
from tvprox.tv import tv

# odd extents, so that no cut falls on a boundary of the difference stencil's slabs
SHAPES = [(37,), (15, 21), (5, 7, 9)]


@pytest.fixture
def split_calls(monkeypatch):
    """Run a function with nothing split, then with every signal of two or
    more samples split on any host; return both results and the number of
    split steps the second run made."""
    calls = []
    both = frame._both

    def counted(first, second, _):
        calls.append(first[0])
        both(first, second, _)

    monkeypatch.setattr(frame, "_splits", lambda: True)
    for module in (frame, exact):
        monkeypatch.setattr(module, "_both", counted)

    def split(run):
        monkeypatch.setattr(frame, "SPLIT_MIN", 1 << 20)
        whole = run()
        monkeypatch.setattr(frame, "SPLIT_MIN", 2)
        del calls[:]
        halves = run()
        return whole, halves, len(calls)

    return split


def fpg_bits(z, tau, cfg):
    x, info = fpg_prox(z, tau, cfg, return_info=True)
    return x.tobytes(), info["p"].tobytes(), info["gap"], info["iterations"], info["converged"]


@pytest.mark.parametrize("restart_tol", [None, 1e-9])
@circular_cases("mode", ["aniso", "iso"])
@pytest.mark.parametrize("shape", SHAPES)
def test_split_fpg_keeps_every_bit(split_calls, shape, mode, restart_tol):
    # an iso solve runs whole at every size; an aniso one splits its five
    # phases each iteration (but the last x - dx of a converged solve), and
    # its gap's difference pass
    z = np.random.default_rng(60).standard_normal(shape)
    for max_iter in (1, 2, 60):
        cfg = oracle(restart_tol, max_iter=max_iter, mode=mode)
        whole, halves, splits = split_calls(lambda: fpg_bits(z, 0.4 / len(shape), cfg))
        assert whole == halves
        iters, converged = halves[3:]
        assert splits == (5 * iters + (iters + 49) // 50 - converged if mode == "aniso" else 0)


@pytest.mark.parametrize("mode", ["aniso", "iso"])
def test_only_fpg_splits(split_calls, mode):
    # the approximate prox, tv, the gap and the solvers make whole calls at every size
    rng = np.random.default_rng(61)
    z = rng.standard_normal((15, 21))
    x, info = fpg_prox(z, 0.3, OracleConfig(max_iter=40, mode=mode), return_info=True)
    cfg = SolverConfig(gamma=0.5, lam=0.2, mode=mode, max_iter=10)

    def run():
        return (approx_prox(z, ProxParams(0.3, mode)).tobytes(), tv(z, mode),
                duality_gap(z, x, info["p"], 0.3, mode),
                apgm(Problem(data=z), cfg, z).final_x.tobytes())

    whole, halves, splits = split_calls(run)
    assert whole == halves and splits == 0


@circular_cases("shape", SHAPES + [(2, 3), (3, 2, 2)], [f"shape{i}" for i in range(5)])
def test_row_halves_of_the_difference_pair_give_the_whole_pair(shape):
    # the steps of rows (0, m) and (m, n) together write every sample once,
    # with the whole call's bits (an empty range makes no call)
    rng = np.random.default_rng(66)
    x, p = rng.standard_normal(shape), rng.standard_normal((len(shape),) + shape)
    n = shape[0]
    for m in sorted({0, n // 2, n}):
        halves = ((0, m), (m, n))
        grad, split = np.empty(p.shape), np.full(p.shape, np.nan)
        _run(_grad_steps(x, grad))
        for rows in halves:
            _run(_grad_steps(x, split, rows=rows))
        assert grad.tobytes() == split.tobytes()
        adjoint, split = np.empty(shape), np.full(shape, np.nan)
        _run(_adjoint_steps(p, adjoint, np.empty(shape)))
        scratch = np.empty(shape)
        for rows in halves:
            _run(_adjoint_steps(p, split, scratch, rows=rows))
        assert adjoint.tobytes() == split.tobytes()


def fpg_splits(monkeypatch, shape, mode):
    """The row ranges fpg_prox binds its phases over for a signal of shape
    (None: the whole signal), and the split steps one iteration makes."""
    monkeypatch.setattr(frame, "_splits", lambda: True)
    phase_calls, both, rows, splits = exact._phase_calls, frame._both, [], []

    def spy_phases(*args):
        rows.append(args[6])
        return phase_calls(*args)

    def spy_both(first, second, _):
        splits.append(len(first))
        both(first, second, _)

    monkeypatch.setattr(exact, "_phase_calls", spy_phases)
    monkeypatch.setattr(exact, "_both", spy_both)
    fpg_prox(np.zeros(shape), 0.1, OracleConfig(max_iter=1, mode=mode), return_info=True)
    return rows, len(splits)


@pytest.mark.parametrize("mode", ["aniso", "iso"])
def test_fpg_splits_its_phases_at_1024_and_nothing_at_512(monkeypatch, mode):
    # at 512^2 each parity's phases are bound whole, and nothing splits
    assert fpg_splits(monkeypatch, (512, 512), mode) == ([None, None], 0)
    # at 1024^2 an aniso solve runs each phase as two halves of the rows, one
    # pair per parity of the swaps: the iteration splits its four phases up
    # to the gap check and the check's difference pass (the zero signal's
    # gap is 0, so it stops before x - dx); an iso solve runs whole
    rows, splits = fpg_splits(monkeypatch, (1024, 1024), mode)
    if mode == "aniso":
        assert (rows, splits) == ([(0, 512), (512, 1024)] * 2, 5)
    else:
        assert (rows, splits) == ([None, None], 0)


def test_fpg_at_1024_keeps_every_bit():
    # the real threshold: the phase halves against whole calls, on a host with two CPUs
    if not frame._splits():
        pytest.skip("halves run at once only on two CPUs or more")
    z = np.random.default_rng(64).standard_normal((1024, 1024))
    cfg = OracleConfig(max_iter=3, tol=1e-300, restart=True)
    halves = fpg_bits(z, 0.2, cfg)
    try:
        frame.SPLIT_MIN = 1 << 40
        whole = fpg_bits(z, 0.2, cfg)
    finally:
        frame.SPLIT_MIN = 1 << 20
    assert halves == whole


def overflow_step(half):
    """A split multiplication that overflows in the given half only (0: the
    caller's, 1: the worker's), and its output."""
    a, big, out = np.ones(64), np.array(1e300), np.empty(64)
    a[32 * half:32 * half + 32] = 1e300
    step = (frame._both, [(np.multiply, a[:32], big, out[:32])], [(np.multiply, a[32:], big, out[32:])], None)
    return step, out


@pytest.mark.parametrize("half", [0, 1])
def test_an_error_in_either_half_is_raised_in_the_caller(half):
    step, out = overflow_step(half)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _run([step])
    # the worker is still there, and the next split step runs both halves
    with np.errstate(over="ignore"):
        _run([step])
    assert np.isinf(out[32 * half:32 * half + 32]).all() and (out[32 * (1 - half):32 * (2 - half)] == 1e300).all()
    ok, _ = overflow_step(1 - half)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _run([ok])


@pytest.mark.parametrize("half", [0, 1])
def test_an_ignored_overflow_in_either_half_warns_nowhere(half):
    step, out = overflow_step(half)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            _run([step])
    assert np.isinf(out).sum() == 32


def test_callers_on_several_threads_share_the_worker(monkeypatch):
    # six callers hand halves to the one worker at once, with a switch
    # interval that interleaves them; each must get its own halves back
    monkeypatch.setattr(frame, "_splits", lambda: True)
    rng = np.random.default_rng(65)
    zs = [rng.standard_normal((15, 21)) for _ in range(6)]
    cfg = OracleConfig(max_iter=30, restart=True)
    expected = [fpg_bits(z, 0.3, cfg) for z in zs]
    monkeypatch.setattr(frame, "SPLIT_MIN", 2)
    results = [None] * len(zs)

    def solve(i):
        results[i] = [fpg_bits(zs[i], 0.3, cfg) for _ in range(3)]

    threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(zs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[e] * 3 for e in expected]


def run_script(script):
    """Run a Python script in a new process that imports this tvprox."""
    src = os.path.dirname(os.path.dirname(frame.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)


def test_the_worker_does_not_hold_up_exit():
    # one split solve starts the worker; the process still exits at once
    script = textwrap.dedent("""
        import threading
        import numpy as np
        from tvprox import frame
        from tvprox.exact import OracleConfig, fpg_prox
        frame._splits = lambda: True
        frame.SPLIT_MIN = 64
        fpg_prox(np.ones((20, 20)), 0.1, OracleConfig(max_iter=3), return_info=True)
        print(sorted(t.name for t in threading.enumerate()))
    """)
    done = run_script(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['MainThread', 'tvprox-half']"


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="the worker is placed only where the process may run on two CPUs or more")
def test_the_worker_runs_off_the_cpu_of_the_thread_that_started_it():
    # where the cpuset does not balance load, a thread left on its creator's
    # CPU would take turns with it; the worker may run on every other CPU
    script = textwrap.dedent("""
        import os, threading
        import numpy as np
        from tvprox import frame
        from tvprox.exact import OracleConfig, fpg_prox
        frame._splits = lambda: True
        frame.SPLIT_MIN = 64
        fpg_prox(np.ones((20, 20)), 0.1, OracleConfig(max_iter=3), return_info=True)
        (worker,) = [t for t in threading.enumerate() if t.name == "tvprox-half"]
        print(len(os.sched_getaffinity(0)), len(os.sched_getaffinity(worker.native_id)))
    """)
    done = run_script(script)
    assert done.returncode == 0, done.stderr
    cpus, worker_cpus = map(int, done.stdout.split())
    assert worker_cpus == cpus - 1
