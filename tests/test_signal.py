"""Signal contract, norm, the solvers' relative-change stop and CSV I/O."""

import numpy as np
import pytest

from tvprox.shrinkage import ProxParams, approx_prox
from tvprox.signal import l2_norm, load_csv, save_csv, validate_signal
from tvprox.solvers import _stopped


def test_l2_norm_examples():
    assert l2_norm([3.0, 4.0]) == 5.0
    assert l2_norm(np.zeros((4, 4))) == 0.0
    rng = np.random.default_rng(2)
    a = rng.standard_normal(17)
    assert l2_norm(a) == pytest.approx(np.sqrt(np.vdot(a, a)), rel=1e-14)


def test_l2_norm_separates_points():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(9)
    b = a.copy()
    assert l2_norm(a - b) == 0.0
    b[4] += 1e-13
    assert l2_norm(a - b) > 0.0


def test_rel_change():
    # the solvers stop once ||x - x_prev|| / ||x_prev|| <= tol
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.standard_normal(7)
        b = rng.standard_normal(7)
        want = np.linalg.norm(a - b) / np.linalg.norm(b)
        assert _stopped(a - b, b, want * (1 + 1e-14))
        assert not _stopped(a - b, b, want * (1 - 1e-14))
    x = np.array([1.0, 2.0, 3.0])
    assert _stopped(x - x, x, 1e-300)


def test_norms_of_huge_finite_signals_do_not_overflow():
    # the squares overflow, the norms and the relative change do not
    with np.errstate(over="ignore"):
        assert l2_norm([1e200, 0.0]) == 1e200
        assert l2_norm([3e200, -4e200]) == pytest.approx(5e200, rel=1e-15)
        assert l2_norm([np.inf, 1.0]) == np.inf
        x_prev = np.array([1e200, 0.0])
        assert _stopped(np.array([1.1e200, 0.0]) - x_prev, x_prev, 0.1 * (1 + 1e-14))
        assert not _stopped(np.array([1e200, 1e140]) - x_prev, x_prev, 1e-60 * (1 - 1e-14))


def test_rel_change_zero_denominator():
    # never stops against a zero previous iterate
    assert not _stopped(np.ones(3), np.zeros(3), 1e300)
    assert not _stopped(np.zeros(3), np.zeros(3), 1e300)


def test_validate_signal_contract():
    with pytest.raises(ValueError):
        validate_signal(np.zeros((2, 2, 2, 2)))  # d > 3
    with pytest.raises(ValueError):
        validate_signal(np.zeros((1, 5)))  # extent < 2
    with pytest.raises(ValueError):
        validate_signal(np.array([1.0, np.nan]))
    out = validate_signal(np.arange(4, dtype=np.int64))
    assert out.dtype == np.float64
    assert validate_signal(np.array([True, False])).dtype == np.float64


def test_complex_signals_are_rejected():
    # casting to float64 would drop the imaginary part with only a warning
    z = np.arange(6.0).reshape(2, 3)
    with pytest.raises(ValueError, match="complex"):
        validate_signal(z + 0j)
    with pytest.raises(ValueError, match="complex"):
        approx_prox(z + 1j, ProxParams(0.1))


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    for shape in ((8,), (4, 5), (3, 2, 4)):
        x = rng.standard_normal(shape)
        path = tmp_path / "sig.csv"
        save_csv(path, x)
        back = load_csv(path)
        assert back.shape == x.shape
        assert np.max(np.abs(back - x)) <= 1e-15 * max(1.0, np.abs(x).max())


def test_csv_header(tmp_path):
    path = tmp_path / "sig.csv"
    save_csv(path, np.zeros((4, 5)))
    assert path.read_text().splitlines()[0] == "shape=4x5"
