"""Measurement operators: identity (denoising) and parallel-beam CT.

The CT projector splats each pixel center onto the two nearest detector
bins with linear weights (detector spacing = pixel size). The weights are
assembled once into CSR arrays of A and of its transpose, so the adjoint is
exact and every view conserves the total projected mass exactly. They are built
and applied by scipy's private compiled ``_sparsetools`` kernels, loaded from their
extension file without ``import scipy.sparse``: ``coo_tocsr``, ``csr_sort_indices``
and ``csr_tocsc`` are what ``csr_matrix((vals, (rows, cols)))`` and ``.T.tocsr()`` run,
and ``csr_matvec`` is the kernel of ``csr_matrix @ x``, so the bits match; it writes
into ``out`` buffers, which ``@`` cannot. Only ``system_matrix`` imports scipy.sparse.
The CT data prox is an in-place conjugate gradient on buffers bound once per call,
stopped, and warning if it stalls, on its recursive ||r|| < CG_TOL ||b|| (one r.r per
step): only return_info=True spends a Radon pair on the true residual. Its right-hand
side needs A^T y, which the operator memoises for the last sinogram ``y``: a later call
reuses it only while ``y`` holds the same bits (a sinogram changed in place, or
another phantom's, recomputes it).

The public ``radon_forward`` and ``radon_adjoint`` validate their image and
sinogram with ``check_array``, and both check a given ``out``; the ``radon_operator``
closures check shapes only, and ``prox_g_ct`` checks ``v`` and ``y`` with
``check_array`` once at entry instead of on every matvec (``y`` once per new sinogram).
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from functools import partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .signal import check_array, check_count, check_nonnegative, check_positive, l2_norm, validate_signal

CG_TOL = 1e-10  # relative residual at which prox_g_ct stops its CG


@dataclass
class LinearOperator:
    """Matrix-free forward/adjoint pair with an optional cached ||A||^2.

    ``apply(x, out=None)`` / ``adjoint(r, out=None)`` return a new array, or fill and return ``out``
    (of the output shape, not overlapping x). They check shapes but not finiteness: callers that take
    untrusted arrays (``prox_g_ct``, the solvers) validate them once at entry.
    """

    apply: callable
    adjoint: callable
    in_shape: tuple
    out_shape: tuple
    lipschitz_bound: float | None = None
    # ((y.shape, y's bytes), adjoint(y) copy) of prox_g_ct's last sinogram: see _adjoint_of_data.
    _data_adjoint: tuple | None = field(default=None, init=False, repr=False, compare=False)


def identity_operator(shape):
    shape = tuple(shape)

    def copy(x, out=None):  # a copy that takes out
        x = np.asarray(x, dtype=np.float64)
        if x.shape != shape:
            raise ValueError(f"array shape {x.shape} does not match the operator's shape {shape}")
        return np.positive(x, out=out)

    return LinearOperator(
        apply=copy,
        adjoint=copy,
        in_shape=shape,
        out_shape=shape,
        lipschitz_bound=1.0,
    )


@dataclass(eq=False)
class CtGeometry:
    """Parallel-beam geometry: square image, equispaced angles over [0, pi), unit pixels
    and ceil(n_pixels sqrt 2) unit bins, rounded up to n_pixels' parity: 0-degree rays hit bin centers.
    Only n_pixels (>= 2) and n_angles are set; the rest is derived, the Radon kernels and system_matrix on first use."""

    n_pixels: int
    n_angles: int
    angles: np.ndarray = field(init=False)
    n_detectors: int = field(init=False)
    sinogram_shape: tuple = field(init=False)  # (n_angles, n_detectors)
    _matrix: object = field(default=None, init=False, repr=False)  # system_matrix's csr_matrix over _kernels' A
    _kernels: tuple = field(default=None, init=False, repr=False)  # kernel(x, out) adds A x, A^T x to out

    def __post_init__(self):
        n = self.n_pixels
        check_count("n_pixels", n, least=2)
        check_count("n_angles", self.n_angles)
        self.angles = np.arange(self.n_angles) * np.pi / self.n_angles
        m = int(np.ceil(n * np.sqrt(2.0)))
        self.n_detectors = m + (m - n) % 2
        self.sinogram_shape = (self.n_angles, self.n_detectors)


def _sparsetools():
    """scipy's compiled sparse kernels, loaded from scipy/sparse/_sparsetools.* alone:
    ``import scipy.sparse`` runs scipy's array-API layer, which imports numpy.f2py,
    numpy.testing and numpy.ma (0.14-0.22 s and ~14 MB RSS on a 2-core Xeon VM)
    for kernels that need none of it. ImportError if the file is missing."""
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and FileFinder(os.path.join(scipy.submodule_search_locations[0], "sparse"),
                                (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec("scipy.sparse._sparsetools")
    if spec is None:
        raise ImportError("no scipy/sparse/_sparsetools extension file to load")
    loaded = spec.name in sys.modules  # by scipy.sparse; the load then returns that module
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not loaded:  # the extension put itself in sys.modules: out again, so scipy.sparse loads it as its own
        del sys.modules[spec.name]
    return module


def _radon_triplets(geo):
    """(rows, cols, vals) of A's nonzeros: each pixel's two nearest bins per angle, weights > 0.
    They run angle by angle and pixel by pixel, so coo_tocsr leaves each row's columns
    sorted and csr_sort_indices has no entry to move."""
    n, m = geo.n_pixels, geo.n_detectors
    c = np.arange(n) - (n - 1) / 2.0
    ys, xs = np.meshgrid(c, c, indexing="ij")
    xs = xs.ravel()
    ys = ys.ravel()
    pix = np.repeat(np.arange(n * n), 2)  # a pixel's two bins side by side

    rows, cols, vals = [], [], []
    for k, theta in enumerate(geo.angles):
        u = xs * np.cos(theta) + ys * np.sin(theta) + (m - 1) / 2.0
        m0 = np.floor(u).astype(np.int64)
        w1 = u - m0
        bins = np.stack((m0, m0 + 1), axis=1).ravel()
        w = np.stack((1.0 - w1, w1), axis=1).ravel()
        ok = (bins >= 0) & (bins < m) & (w > 0)
        rows.append(k * m + bins[ok])
        cols.append(pix[ok])
        vals.append(w[ok])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _bind_radon(geo):
    """Build A and A^T in CSR with the kernels that csr_matrix((vals, (rows, cols))) and
    .T.tocsr() run, so the arrays keep scipy's bits (its sum of repeated (row, col) entries
    is left out: the triplets repeat none), and bind csr_matvec to each as geo._kernels."""
    st = _sparsetools()
    rows, cols, vals = _radon_triplets(geo)
    shape = geo.n_angles * geo.n_detectors, geo.n_pixels**2
    nnz = vals.size
    idx = np.int32 if max(nnz, *shape) <= np.iinfo(np.int32).max else np.int64  # scipy's index dtype rule
    csr = np.empty(shape[0] + 1, idx), np.empty(nnz, idx), np.empty(nnz)
    st.coo_tocsr(*shape, nnz, rows.astype(idx), cols.astype(idx), vals, *csr)
    st.csr_sort_indices(shape[0], *csr)
    csr_t = np.empty(shape[1] + 1, idx), np.empty(nnz, idx), np.empty(nnz)
    st.csr_tocsc(*shape, *csr, *csr_t)  # A's CSC is A^T's CSR, with sorted indices
    geo._kernels = partial(st.csr_matvec, *shape, *csr), partial(st.csr_matvec, *shape[::-1], *csr_t)


def system_matrix(geo):
    """A, the (n_angles*n_detectors) x n_pixels^2 projection matrix, as a cached
    scipy.sparse.csr_matrix over the arrays that A's CSR kernel binds. The Radon pair
    never calls it: this is the one place that imports scipy.sparse."""
    if geo._matrix is None:
        import scipy.sparse as sp

        if geo._kernels is None:
            _bind_radon(geo)
        n_rows, n_cols, indptr, indices, data = geo._kernels[0].args
        geo._matrix = sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols))
    return geo._matrix


def _csr_product(kernel, x, shape, out):
    """A x into out (a new array if None), zero-filled first as csr_matrix @ x fills its result."""
    if out is None:
        out = np.zeros(shape)
    elif not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.float64
              and out.flags.c_contiguous):
        got = getattr(out, "dtype", type(out).__name__)
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}, got {got} {np.shape(out)}")
    else:
        out.fill(0.0)
    kernel(x, out)
    return out


def radon_forward(img, geo, *, check_finite=True, out=None):
    """Project a square image to its sinogram (one row per angle), into out if given.
    check_finite=False (the operator closure) checks the shape only."""
    img = validate_signal(img, "img") if check_finite else np.asarray(img, dtype=np.float64)
    if img.shape != (geo.n_pixels, geo.n_pixels):
        raise ValueError(f"image shape {img.shape} does not match geometry {geo.n_pixels}")
    if geo._kernels is None:
        _bind_radon(geo)
    return _csr_product(geo._kernels[0], img, geo.sinogram_shape, out)


def radon_adjoint(sino, geo, *, check_finite=True, out=None):
    """Exact adjoint of radon_forward (transposed accumulation), into out if given.
    check_finite=False (the operator closure) checks the shape only."""
    sino = check_array("sino", sino) if check_finite else np.asarray(sino, dtype=np.float64)
    if sino.shape != geo.sinogram_shape:
        raise ValueError(f"sinogram shape {sino.shape} does not match geometry {geo.sinogram_shape}")
    if geo._kernels is None:
        _bind_radon(geo)
    return _csr_product(geo._kernels[1], sino, (geo.n_pixels, geo.n_pixels), out)


def radon_operator(geo):
    """The Radon pair of geo as closures over radon_forward and radon_adjoint,
    without their finiteness scans. geo's CSR kernels are bound here (scipy.sparse
    is not imported), so no matvec builds them."""
    if geo._kernels is None:
        _bind_radon(geo)
    return LinearOperator(
        apply=lambda x, out=None: radon_forward(x, geo, check_finite=False, out=out),
        adjoint=lambda r, out=None: radon_adjoint(r, geo, check_finite=False, out=out),
        in_shape=(geo.n_pixels, geo.n_pixels),
        out_shape=geo.sinogram_shape,
    )


def lipschitz_power_iter(op, iters, tol, seed=0):
    """Estimate ||A||^2 by seeded power iteration on A^T A.

    Returns the Rayleigh quotient v^T A^T A v of the last unit iterate v,
    which approaches ||A||^2, the largest eigenvalue of A^T A, from below:
    a lower bound, not the upper bound that a step 1/L needs.
    """
    check_count("iters", iters)
    check_positive("tol", tol)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.in_shape)
    v /= l2_norm(v)
    est = 0.0
    for _ in range(iters):
        w = op.adjoint(op.apply(v))
        new_est = float(np.vdot(v, w).real)
        nw = l2_norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if est > 0 and abs(new_est - est) <= tol * abs(new_est):
            est = new_est
            break
        est = new_est
    return est


def add_awgn(x, sigma, seed):
    """Add i.i.d. Gaussian noise of standard deviation sigma, seeded;
    ValueError if x is not a finite real array or the sum overflows."""
    x = check_array("x", x)
    check_nonnegative("sigma", sigma)
    if sigma == 0.0:
        return x.copy()
    # Built in the noise buffer: n * sigma + x is x + sigma * n bit for bit.
    noisy = np.random.default_rng(seed).standard_normal(x.shape)
    with np.errstate(over="ignore"):  # an overflow is raised below, naming sigma
        noisy *= sigma
        noisy += x
    return check_array(f"x + noise of sigma {sigma!r}", noisy)


def prox_g_denoise(v, gamma, y):
    """Closed-form prox of gamma * (1/2)||y - x||^2: (v + gamma*y)/(1 + gamma)."""
    v = check_array("v", v)
    y = check_array("y", y, v.shape)
    check_positive("gamma", gamma)
    return (v + gamma * y) / (1.0 + gamma)


def _adjoint_of_data(op, y):
    """op.adjoint(y), memoised on op for the last y: reused only while y has the
    same dtype, shape and bytes (so -0.0 is not 0.0). A miss checks y with
    check_array before any cast; a hit skips it, as y equals an array that passed."""
    y = np.asarray(y)
    key = (y.dtype, y.shape, y.tobytes())
    if op._data_adjoint is None or op._data_adjoint[0] != key:
        op._data_adjoint = key, op.adjoint(check_array("y", y, op.out_shape)).copy()
    return op._data_adjoint[1]


def prox_g_ct(v, gamma, y, op, cg_max=200, return_info=False):
    """Prox of gamma * (1/2)||Ax - y||^2: solve (I + gamma A^T A) x = v + gamma A^T y
    by conjugate gradient warm-started at v, with scipy cg's operations in order
    (bit-identical; r = b - matvec(v) has b's bits at v = +-0, where scipy copies b):
    stop before a step once ||r|| < CG_TOL ||b|| or after cg_max
    steps; x = b = 0 if ||b|| = 0. Each step takes one rho = r.r, which serves both
    the stop test (sqrt(rho) is numpy's 1-D norm, bit for bit) and the step. A^T y
    is memoised on op while y keeps its bits (_adjoint_of_data), so an ADMM solve
    makes it once. No CG step allocates: the image buffer holds q, alpha q, alpha p in turn.
    Raises ValueError on a non-finite or nonpositive gamma, a cg_max that is not an
    integer >= 1, and a v (of op.in_shape) or y (of op.out_shape) that check_array rejects;
    warns unless the CG's recursive ||r|| < CG_TOL ||b|| (a NaN warns too). return_info=True returns (x, {"iterations",
    "converged": that test, "residual": the true ||(I + gamma A^T A)x - b|| / ||b||, one more Radon pair})."""
    check_positive("gamma", gamma)
    check_count("cg_max", cg_max)
    v = check_array("v", v, op.in_shape)
    b = (v + gamma * _adjoint_of_data(op, y)).ravel()
    sino, img = np.empty(op.out_shape), np.empty(op.in_shape)
    q = img.reshape(-1)

    def matvec(u):
        """q = u + gamma A^T A u for a vector u; q is overwritten by the next call."""
        op.adjoint(op.apply(u.reshape(op.in_shape), out=sino), out=img)
        return np.add(np.multiply(q, gamma, out=q), u, out=q)

    x, steps, converged = b, 0, True  # the solution when ||b|| = 0
    b_norm = math.sqrt(b.dot(b))
    if b_norm:
        x = v.flatten()
        r = b - matvec(x)
        rho = r.dot(r)
        p = r.copy()
        while not (converged := math.sqrt(rho) < CG_TOL * b_norm) and steps < cg_max:
            if steps:
                p *= rho / rho_prev
                p += r
            matvec(p)
            alpha = rho / p.dot(q)
            r -= np.multiply(alpha, q, out=q)
            x += np.multiply(alpha, p, out=q)
            rho_prev, rho = rho, r.dot(r)
            steps += 1
    if not converged:
        warnings.warn(f"prox_g_ct: CG stalled at relative residual {math.sqrt(rho) / b_norm:.3e}", RuntimeWarning)
    if return_info:
        achieved = l2_norm(np.subtract(matvec(x), b, out=q)) / (b_norm or 1.0)  # 0 where x = b = 0
        return x.reshape(op.in_shape), {"iterations": steps, "residual": achieved, "converged": converged}
    return x.reshape(op.in_shape)
