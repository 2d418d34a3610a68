"""Dense d-dimensional signal conventions, argument checks, norm and text I/O.

Signals are plain float64 numpy arrays in row-major order, 1 <= ndim <= 3,
every extent >= 2, all values real and finite. ``validate_signal`` enforces
the contract at public entry points.

Settings follow one contract too: every scale, tolerance, count and choice
is checked by a check_* function here, so each rule is written once.
"""

import math
import numbers
import sys

import numpy as np

MAX_NDIM = 3
SLAB = 4096  # the most signal values a text writer formats (one % each) and writes at once


def validate_signal(x, name="signal"):
    """Check the signal contract and return the array as float64.

    Raises ValueError on complex input, wrong dimensionality, extents < 2,
    or non-finite values. Integer and bool input is cast.
    """
    a = np.asarray(x)
    if np.iscomplexobj(a):
        raise ValueError(f"{name}: complex values are not admitted")
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 1 or a.ndim > MAX_NDIM:
        raise ValueError(f"{name}: dimension must be in 1..{MAX_NDIM}, got {a.ndim}")
    if any(e < 2 for e in a.shape):
        raise ValueError(f"{name}: every extent must be >= 2, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name}: non-finite values are not admitted")
    return a


# An exact float or int skips the numbers.Real check (two Python-level ABC
# calls); every other type, bool and numpy scalars too, still takes it.
_EXACT_REALS = (float, int)


def check_positive(name, value):
    """A stopping tolerance or a scale: a finite number > 0 (a NaN
    tolerance would never stop; a NaN or inf scale makes the output NaN)."""
    if not ((type(value) in _EXACT_REALS or isinstance(value, numbers.Real)) and math.isfinite(value)
            and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def check_nonnegative(name, value):
    """A weight, noise level or threshold: a finite number >= 0."""
    if not ((type(value) in _EXACT_REALS or isinstance(value, numbers.Real)) and math.isfinite(value)
            and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def check_count(name, value, least=1):
    """An iteration budget, size or seed: an integer >= least, not a bool."""
    if (type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral))
            or value < least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_choice(name, value, choices):
    """One of a fixed tuple of settings; returns it."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    return value


def _aligned(shape, zero=False):
    """A C-contiguous float64 array of shape (zeroed when zero) for a buffer
    a bound loop runs on: a view into 7 doubles more that starts on a 64-byte
    cache line, as malloc aligns to 16 bytes and a 64-byte vector load off a
    line is split across two. Over 1 MiB it is allocated at its exact size,
    so that it still reuses the blocks that arrays of its size free."""
    n, new = math.prod(shape), np.zeros if zero else np.empty
    if n > 1 << 17:
        return new(shape)
    raw = new(n + 7)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip:skip + n].reshape(shape)


def l2_norm(a):
    """Euclidean norm sqrt(<a, a>), bit-identical to np.linalg.norm's path
    unless the squares of finite entries overflow, or their sum of a nonzero
    array falls below the normal range: then it rescales by max|a|."""
    a = np.asarray(a, dtype=np.float64).ravel()
    squares = a.dot(a)
    norm = math.sqrt(squares)
    if norm == math.inf or squares < sys.float_info.min:
        big = np.abs(a).max(initial=0.0)
        if 0.0 < big < math.inf:
            return big * l2_norm(a / big)
    return norm


def save_csv(path, x):
    """Write a signal as plain text: the header ``shape=e1xe2[x...]``, then one
    value per line in row-major order, each as ``%.17g`` (lossless for
    float64). The values go in slabs of at most SLAB, one ``%`` format and
    one write each, so no whole-signal list of Python floats is built."""
    a = validate_signal(x)
    flat = a.ravel()
    with open(path, "w") as f:
        f.write("shape=" + "x".join(str(e) for e in a.shape) + "\n")
        for start in range(0, flat.size, SLAB):
            values = flat[start:start + SLAB].tolist()
            f.write(("%.17g\n" * len(values)) % tuple(values))


def load_csv(path):
    """Read a signal written by ``save_csv``; every ValueError names the file."""
    with open(path) as f:
        header = f.readline().strip()
        if not header.startswith("shape="):
            raise ValueError(f"{path}: missing 'shape=' header")
        try:
            shape = tuple(int(e) for e in header[len("shape="):].split("x"))
            values = np.array([float(line) for line in f if line.strip()], dtype=np.float64)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
    n = int(np.prod(shape))
    if values.size != n:
        raise ValueError(f"{path}: expected {n} values for shape {shape}, got {values.size}")
    return validate_signal(values.reshape(shape), str(path))
