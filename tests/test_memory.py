"""Working-set guards of the prox kernels: tracemalloc peaks, which include
numpy's array allocations, in units of one signal-sized float64 array."""

import tracemalloc
import warnings

import numpy as np
import pytest

from tvprox.exact import OracleConfig, fpg_prox
from tvprox.experiments import ExperimentConfig, _make_problem, write_pgm
from tvprox.operators import CtGeometry, prox_g_ct, radon_operator
from tvprox.shrinkage import ProxParams, _bind_approx_prox, approx_prox
from tvprox.signal import save_csv
from tvprox.solvers import SolverConfig, admm, apgm
from tvprox.tv import MODES

Z = np.random.default_rng(70).standard_normal((256, 256))


def peak_in_signals(call, unit=Z.nbytes):
    """Peak of the memory call allocates, over unit (Z.nbytes by default)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / unit


@pytest.mark.parametrize("gap_tol", [None, 1e-12])
@pytest.mark.parametrize("mode", MODES)
def test_fpg_prox_runs_on_3d_plus_2_signals_and_an_iso_scratch(mode, gap_tol):
    # p, q and the spare dual g (2 signals each at d = 2) and the two primal
    # buffers that take turns holding x and dx, plus the iso projection's
    # scratch; 60 iterations include a certified gap check
    cfg = OracleConfig(max_iter=60, mode=mode, gap_tol=gap_tol)
    bound = 8.1 if mode == "aniso" else 9.1
    assert peak_in_signals(lambda: fpg_prox(Z, 0.1, cfg, return_info=True)) <= bound


@pytest.mark.parametrize("mode", MODES)
def test_approx_prox_peaks_in_the_analysis(mode):
    # w_forward's difference stack, its averaging stack and one temporary;
    # the synthesis needs only the difference stack and the output
    assert peak_in_signals(lambda: approx_prox(Z, ProxParams(0.1, mode))) <= 5.1


@pytest.mark.parametrize("mode", MODES)
def test_bound_approx_prox_allocates_no_signal(mode):
    # the bound kernel projects in its own buffers (iso: the norms in its
    # output, the squares in tmp); five calls after a first one stay below
    # a tenth of a signal
    out, tmp, dif = np.empty(Z.shape), np.empty(Z.shape), np.empty((Z.ndim,) + Z.shape)
    (prox,) = _bind_approx_prox(Z, [out], dif, tmp, ProxParams(0.1, mode))
    prox()

    def five_calls():
        for _ in range(5):
            prox()

    assert peak_in_signals(five_calls) < 0.1


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("solve, recorded_peak", [(apgm, 8.03), (admm, 10.03)])
def test_approximate_solve_grows_by_at_most_one_difference_stack(solve, recorded_peak, mode):
    # before the iterate ring, a 256^2 solve peaked at 8.03 (APGM) and 10.03
    # (ADMM) signals in both modes; a ring of two slots adds their
    # difference stacks' second half, d = 2 signals, and nothing more
    problem = _make_problem(ExperimentConfig(), Z)
    cfg = SolverConfig(gamma=0.5, lam=0.3, mode=mode, stop_tol=1e-300, max_iter=3)
    assert peak_in_signals(lambda: solve(problem, cfg, Z)) <= recorded_peak + Z.ndim


def test_prox_g_ct_steps_run_on_bound_buffers():
    # b, x, r, p, the image buffer (q) and the sinogram buffer, whatever the
    # number of steps: 58 more steps add less than one image
    op = radon_operator(CtGeometry(n_pixels=64, n_angles=45))
    rng = np.random.default_rng(71)
    v, y = rng.standard_normal(op.in_shape), rng.standard_normal(op.out_shape)
    sino_in_images = np.prod(op.out_shape) / v.size
    peaks = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # gamma = 1 stalls within 60 steps
        prox_g_ct(v, 1.0, y, op, cg_max=1)  # memoises A^T y outside the measured calls
        for cg_max in (2, 60):
            peaks[cg_max] = peak_in_signals(lambda: prox_g_ct(v, 1.0, y, op, cg_max=cg_max), unit=v.nbytes)
    assert abs(peaks[60] - peaks[2]) < 1.0
    assert max(peaks.values()) <= 5.1 + sino_in_images


@pytest.mark.parametrize("writer, recorded_peak_mb", [(save_csv, 0.263), (write_pgm, 2.203)])
def test_text_writers_hold_one_slab_of_python_objects(tmp_path, writer, recorded_peak_mb):
    # on a 512^2 image save_csv peaked at 0.263 MB when it formatted one value per
    # call, and write_pgm, scaling in one 2.1 MB image-sized buffer, at 2.203 MB; a
    # second image-sized array fails the bound, and a whole-image tuple of Python
    # floats alone would take 8.4 MB more
    img = np.random.default_rng(72).standard_normal((512, 512))
    assert peak_in_signals(lambda: writer(tmp_path / "img.txt", img), unit=1e6) < recorded_peak_mb + 1.0
