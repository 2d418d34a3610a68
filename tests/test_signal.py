"""nd-signal reductions against naive loop oracles."""

import numpy as np
import pytest

from tvprox.shrinkage import ProxParams, approx_prox
from tvprox.signal import (
    ZeroNormError,
    dot,
    l2_norm,
    load_csv,
    mean,
    rel_change,
    save_csv,
    validate_signal,
)


def naive_dot(a, b):
    # independent oracle: explicit pairwise accumulation
    total = 0.0
    for x, y in zip(np.ravel(a), np.ravel(b)):
        total += x * y
    return total


def test_dot_examples():
    assert dot([1.0, 2.0], [3.0, 4.0]) == 11.0
    x = np.arange(5.0)
    assert dot(x, np.zeros(5)) == 0.0


def test_dot_matches_naive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        assert abs(dot(a, b) - naive_dot(a, b)) <= 1e-12


def test_dot_symmetric_bilinear():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a, b, c = (rng.standard_normal(6) for _ in range(3))
        al, be = rng.standard_normal(2)
        assert dot(a, b) == pytest.approx(dot(b, a), rel=1e-12)
        assert dot(al * a + be * b, c) == pytest.approx(
            al * dot(a, c) + be * dot(b, c), rel=1e-12, abs=1e-12)


def test_dot_shape_mismatch():
    with pytest.raises(ValueError):
        dot(np.zeros(3), np.zeros(4))


def test_l2_norm_examples():
    assert l2_norm([3.0, 4.0]) == 5.0
    assert l2_norm(np.zeros((4, 4))) == 0.0
    rng = np.random.default_rng(2)
    a = rng.standard_normal(17)
    assert l2_norm(a) == pytest.approx(np.sqrt(dot(a, a)), rel=1e-14)


def test_l2_norm_separates_points():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(9)
    b = a.copy()
    assert l2_norm(a - b) == 0.0
    b[4] += 1e-13
    assert l2_norm(a - b) > 0.0


def test_rel_change():
    x = np.array([1.0, 2.0, 3.0])
    assert rel_change(x, x) == 0.0
    assert rel_change([2.0, 0.0], [1.0, 0.0]) == 1.0
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.standard_normal(7)
        b = rng.standard_normal(7)
        want = np.linalg.norm(a - b) / np.linalg.norm(b)
        assert rel_change(a, b) == pytest.approx(want, rel=1e-14)


def test_norms_of_huge_finite_signals_do_not_overflow():
    # the squares overflow, the norms and the change do not
    with np.errstate(over="ignore"):
        assert l2_norm([1e200, 0.0]) == 1e200
        assert l2_norm([3e200, -4e200]) == pytest.approx(5e200, rel=1e-15)
        assert rel_change([1.1e200, 0.0], [1e200, 0.0]) == pytest.approx(0.1, rel=1e-14)
        assert rel_change([1e200, 1e140], [1e200, 0.0]) == pytest.approx(1e-60, rel=1e-14)
        assert l2_norm([np.inf, 1.0]) == np.inf


def test_rel_change_zero_denominator():
    with pytest.raises(ZeroNormError):
        rel_change(np.ones(3), np.zeros(3))


def test_mean():
    assert mean([1.0, 1.0, 1.0, 1.0]) == 1.0
    assert mean([0.0, 2.0]) == 1.0
    rng = np.random.default_rng(5)
    a = rng.standard_normal(11)
    assert mean(a) == pytest.approx(sum(a) / a.size, rel=1e-14, abs=1e-14)


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
