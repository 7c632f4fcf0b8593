"""Dense covariance, symmetric eigendecomposition, rank correlation, and
the BLAS thread policy.

Everything here operates on plain float64 numpy arrays. The eigensolver is
LAPACK's symmetric solver through numpy, with eigenvalues sorted descending
and eigenvector signs fixed so that output files are reproducible.

A multi-threaded BLAS may split a product or a factorization differently at
each thread count, and LAPACK's ``eigh`` then returns different low-order
bits. :func:`blas_threads` sets the thread count of numpy's bundled
OpenBLAS for a block of work; every CLI subcommand runs under one thread.
"""

import contextlib
import ctypes
import functools
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, ValidationError


@functools.cache
def openblas_handle():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    import glob  # only the first lookup needs it

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)  # already loaded by numpy: the same handle
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


@contextlib.contextmanager
def blas_threads(count):
    """Numpy's BLAS on ``count`` threads for the body, the previous count
    restored after. Yields the count in force: ``count``, or None when
    there is no handle on the count, and the environment's count stays.
    Also a decorator, for a function's whole body."""
    handle = openblas_handle()
    if handle is None:
        yield None
        return
    get_threads, set_threads = handle
    previous = get_threads()
    set_threads(count)
    try:
        yield count
    finally:
        set_threads(previous)


class DegenerateInputWarning(UserWarning):
    """A correlation was requested on an input with zero rank variance."""


def covariance(x):
    """Sample covariance of the rows of ``x``.

    Returns ``(cov, mean)`` where ``cov = (X-mean)^T (X-mean) / (n-1)`` and
    ``mean`` is the column mean, kept so callers can center test data the
    same way. The result is symmetrized exactly so the eigensolver never
    sees rounding skew.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError("covariance expects a 2-d array, got ndim=%d" % x.ndim)
    if x.shape[0] < 2:
        raise DimensionError("covariance needs at least 2 rows, got %d" % x.shape[0])
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (x.shape[0] - 1)
    cov = (cov + cov.T) / 2.0
    return cov, mean


@dataclass
class EigenDecomposition:
    """Full symmetric eigendecomposition, eigenvalues sorted descending.

    ``eigenvectors[i]`` is the unit eigenvector paired with
    ``eigenvalues[i]`` (one eigenvector per row).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _canonical_signs(vectors):
    # Flip each row so its largest-magnitude component is positive; makes
    # eigenvector files reproducible despite the inherent sign ambiguity.
    idx = np.argmax(np.abs(vectors), axis=1)
    signs = np.sign(vectors[np.arange(vectors.shape[0]), idx])
    signs[signs == 0] = 1.0
    return vectors * signs[:, None]


def eigh(a):
    """Eigendecompose a symmetric matrix with LAPACK (``numpy.linalg.eigh``).

    Input must be square and symmetric within ``1e-9`` relative to its
    largest entry; it is symmetrized exactly before the solve. Raises
    :class:`NumericError` for non-finite input or if LAPACK does not
    converge.
    """
    a = np.array(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("eigh expects a square matrix, got shape %s" % (a.shape,))
    if a.shape[0] == 0:
        return EigenDecomposition(np.zeros(0), np.zeros((0, 0)))
    if not np.all(np.isfinite(a)):
        raise NumericError("eigh input has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(a))))
    skew = float(np.max(np.abs(a - a.T)))
    if skew > 1e-9 * scale:
        raise ValidationError(
            "matrix is not symmetric: max |A - A^T| = %.3e exceeds tolerance" % skew
        )
    try:
        eigenvalues, v = np.linalg.eigh((a + a.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericError("eigendecomposition failed: %s" % exc) from exc
    order = np.argsort(-eigenvalues, kind="stable")
    return EigenDecomposition(eigenvalues[order], _canonical_signs(v[:, order].T.copy()))


def average_ranks(values):
    """Ranks 1..n with ties assigned the mean of their covered positions."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], len(values)]
    mean_rank = (starts + ends + 1) / 2.0
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(mean_rank, ends - starts)
    return ranks


def spearman(v, labels):
    """Spearman rank correlation with average ranks for ties.

    Constant input on either side has no rank variance; by convention that
    returns 0.0 and emits :class:`DegenerateInputWarning` instead of NaN,
    so threshold comparisons downstream stay well defined.
    """
    v = np.asarray(v, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if v.ndim != 1 or labels.ndim != 1:
        raise DimensionError("spearman expects 1-d arrays")
    if len(v) != len(labels):
        raise DimensionError(
            "length mismatch: %d vs %d" % (len(v), len(labels))
        )
    if len(v) < 3:
        raise ValidationError("spearman needs at least 3 observations")
    rv = average_ranks(v)
    rl = average_ranks(labels)
    rv -= rv.mean()
    rl -= rl.mean()
    ss_v = float(rv @ rv)
    ss_l = float(rl @ rl)
    if ss_v == 0.0 or ss_l == 0.0:
        warnings.warn(
            "constant input to spearman; returning 0.0", DegenerateInputWarning
        )
        return 0.0
    rho = float(rv @ rl) / np.sqrt(ss_v * ss_l)
    return float(np.clip(rho, -1.0, 1.0))
