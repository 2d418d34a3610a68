"""Array and signal contracts, settings checks, norm, the solvers'
relative-change stop and CSV I/O."""

import math
import numbers
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from placement import line_offset

from tvprox.exact import duality_gap
from tvprox.experiments import psnr, write_pgm
from tvprox.operators import CtGeometry, add_awgn, prox_g_ct, radon_operator
from tvprox.shrinkage import ProxParams, approx_prox
from tvprox.signal import (
    SLAB,
    _aligned,
    check_count,
    check_nonnegative,
    check_positive,
    l2_norm,
    load_csv,
    save_csv,
    validate_signal,
)
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


def test_l2_norm_rejects_complex_input():
    # not cast to its real part (3.0 for [3 + 4j]) with only a warning; real
    # non-finite input still gives inf or NaN, which the stop tests read
    with pytest.raises(ValueError, match="^l2_norm: complex values are not admitted$"):
        l2_norm(np.array([3 + 4j]))
    assert l2_norm([np.inf, 1.0]) == np.inf and math.isnan(l2_norm([np.nan, 1.0]))


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


Z, P, IMG = np.zeros((4, 5)), np.zeros((2, 4, 5)), np.arange(6.0).reshape(2, 3)
GEO = CtGeometry(n_pixels=8, n_angles=4)
V, Y = np.ones((8, 8)), np.ones(GEO.sinogram_shape)
# Every public entry point that takes an array through check_array: (the call on
# one array argument and a directory, a valid array, an array of a wrong shape
# where the call fixes one, the name its errors give).
ARRAY_ENTRY_POINTS = {
    "duality_gap.x": (lambda a, _: duality_gap(Z, a, P, 0.5), Z, np.zeros((5, 4)), "x"),
    "duality_gap.p": (lambda a, _: duality_gap(Z, Z, a, 0.5), P, np.zeros((1, 4, 5)), "p"),
    "prox_g_ct.v": (lambda a, _: prox_g_ct(a, 1e-2, Y, radon_operator(GEO)), V, np.ones((8, 9)), "v"),
    "prox_g_ct.y": (lambda a, _: prox_g_ct(V, 1e-2, a, radon_operator(GEO)), Y, V, "y"),
    "add_awgn.x": (lambda a, _: add_awgn(a, 0.1, 0), IMG, None, "x"),
    "psnr.reference": (lambda a, _: psnr(a, IMG), IMG, None, "reference"),
    "psnr.x": (lambda a, _: psnr(IMG, a), IMG, IMG.T, "x"),
    "write_pgm": (lambda a, path: write_pgm(path / "img.pgm", a), IMG, None, "write_pgm"),
}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry, (_, _, wrong_shape, _) in ARRAY_ENTRY_POINTS.items()
    for bad in ("complex", "nan", "inf", "-inf") + ("shape",) * (wrong_shape is not None)])
def test_array_entry_points_reject_bad_arrays(tmp_path, entry, bad):
    # a complex array is rejected, not cast to its real part with a warning;
    # a NaN or infinite entry, or a wrong shape where the call fixes one, raises
    # a ValueError that names the argument
    call, good, wrong_shape, name = ARRAY_ENTRY_POINTS[entry]
    call(good, tmp_path)
    if bad == "shape":
        arg, message = wrong_shape, f"{name}: expected shape {good.shape}, got {wrong_shape.shape}"
    elif bad == "complex":
        arg, message = good + 1j, f"{name}: complex values are not admitted"
    else:
        arg = good.copy()
        arg.flat[1] = float(bad)
        message = f"{name}: non-finite values are not admitted"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call(arg, tmp_path)


def test_csv_round_trip(tmp_path):
    # %.17g is lossless: every bit comes back, the sign of -0.0 and subnormals too
    rng = np.random.default_rng(6)
    for shape in ((8,), (4, 5), (3, 2, 4)):
        x = rng.standard_normal(shape)
        x.flat[:2] = -0.0, 5e-324
        path = tmp_path / "sig.csv"
        save_csv(path, x)
        back = load_csv(path)
        assert back.shape == x.shape
        assert back.tobytes() == x.tobytes()


def test_csv_parse_errors_name_the_file(tmp_path):
    # a bad shape, a bad value and a bad signal each fail naming the path
    path = tmp_path / "bad.csv"
    for text in ("shape=4x\n", "shape=2x2\n1.0\n2.0\nabc\n4.0\n", "shape=2x2\n1\n2\nnan\n4\n",
                 "shape=1x2\n1\n2\n", "shape=2x2\n1\n2\n3\n", "2x2\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_csv(path)


def csv_per_value(x):
    """Oracle: the text of the writer that formatted one value per call."""
    a = np.asarray(x, dtype=np.float64)
    return "shape=" + "x".join(str(e) for e in a.shape) + "\n" + "".join(f"{v:.17g}\n" for v in a.ravel())


def awkward_values(rng, n):
    """n values that mix -0.0, the least subnormal, tiny and huge magnitudes,
    negatives and integral floats, the specials also next to slab ends."""
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    specials = [-0.0, 5e-324, 1e-300, 1e308, -1e308, -2.5, 3.0, -7.0, 0.0, 1.0]
    at = rng.choice(n, size=min(n, 40), replace=False)
    x[at] = rng.choice(specials, size=at.size)
    for i in (0, SLAB - 1, SLAB, n - 1):
        if i < n:
            x[i] = specials[i % len(specials)]
    return x


@pytest.mark.parametrize("shape", [
    (2,), (SLAB,), (SLAB + 1,), (64, SLAB // 64), (17, 241), (3, 37, 111), (2, 3, 7),
], ids=str)
def test_save_csv_text_equals_the_per_value_format(tmp_path, shape):
    # one slab, one slab + 1 value (17 * 241 = SLAB + 1) and several slabs
    x = awkward_values(np.random.default_rng(sum(shape)), math.prod(shape)).reshape(shape)
    for a in (x, np.asfortranarray(x)):
        path = tmp_path / "sig.csv"
        save_csv(path, a)
        assert path.read_text() == csv_per_value(a)


def checks_as_they_were():
    """Oracle: the settings checks as each value went through numbers.Real
    or numbers.Integral."""
    def positive(name, value):
        if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    def nonnegative(name, value):
        if not (isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")

    def count(name, value, least=1):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")

    return {check_positive: positive, check_nonnegative: nonnegative, check_count: count}


SETTINGS = [
    1, 0, -3, 2.5, 0.0, -0.0, -1e-300, 5e-324, 1e308, math.nan, math.inf, -math.inf,
    True, False, np.float64(0.5), np.float64(np.nan), np.float32(-2.0), np.int64(3), np.int32(0),
    np.bool_(True), Fraction(1, 3), Fraction(-1, 3), 10**400, -(10**400), 2**1024 - 2**970 - 1,
    "1", None, 1 + 0j, [1],
]


@pytest.mark.parametrize("value", SETTINGS, ids=repr)
def test_settings_checks_decide_as_before(value):
    # every value is accepted, or raises the same exception type and message,
    # as under the numbers.Real / numbers.Integral checks
    def outcome(check, *args):
        try:
            check("s", value, *args)
        except Exception as err:
            return type(err), str(err)
        return None

    for check, oracle in checks_as_they_were().items():
        for args in ((0,), (1,), (2,)) if check is check_count else ((),):
            assert outcome(check, *args) == outcome(oracle, *args)


def test_csv_header(tmp_path):
    path = tmp_path / "sig.csv"
    save_csv(path, np.zeros((4, 5)))
    assert path.read_text().splitlines()[0] == "shape=4x5"


def test_aligned_arrays_start_on_a_cache_line_up_to_one_mib():
    # up to 1 MiB a view into 7 doubles more, starting on a 64-byte line;
    # above it an array of the exact size, as np.empty / np.zeros give
    for shape in ((2,), (3, 5), (16, 16), (2, 3, 4), (256, 512)):
        for zero in (False, True):
            a = _aligned(shape, zero=zero)
            assert a.shape == shape and a.dtype == np.float64 and a.flags.c_contiguous
            assert line_offset(a) == 0 and a.base.size == a.size + 7
            assert not zero or not a.any()
    for zero in (False, True):
        a = _aligned((256, 513), zero=zero)
        assert a.shape == (256, 513) and a.base is None and a.nbytes > 1 << 20
        assert not zero or not a.any()
