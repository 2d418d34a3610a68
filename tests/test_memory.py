"""Working-set guards of the prox kernels: tracemalloc peaks, which include
numpy's array allocations, in units of one signal-sized float64 array."""

import tracemalloc

import numpy as np
import pytest

from tvprox.exact import OracleConfig, fpg_prox
from tvprox.shrinkage import ProxParams, approx_prox
from tvprox.tv import MODES

Z = np.random.default_rng(70).standard_normal((256, 256))


def peak_in_signals(call):
    """Peak of the memory call allocates, over Z.nbytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / Z.nbytes


@pytest.mark.parametrize("gap_tol", [None, 1e-12])
@pytest.mark.parametrize("mode", MODES)
def test_fpg_prox_runs_on_3d_plus_3_signals(mode, gap_tol):
    # p, q and the spare dual g (2 signals each at d = 2), x, x_prev and dx;
    # 60 iterations include a certified gap check
    cfg = OracleConfig(max_iter=60, mode=mode, gap_tol=gap_tol)
    assert peak_in_signals(lambda: fpg_prox(Z, 0.1, cfg, return_info=True)) <= 9.1


@pytest.mark.parametrize("mode", MODES)
def test_approx_prox_peaks_in_the_analysis(mode):
    # w_forward's difference stack, its averaging stack and one temporary;
    # the synthesis needs only the difference stack and the output
    assert peak_in_signals(lambda: approx_prox(Z, ProxParams(0.1, mode))) <= 5.1
