"""Eigenspace-removal baseline: drop attribute-correlated principal directions.

Fit centers the descriptors, eigendecomposes their covariance, projects the
centered data onto every eigenvector, and measures the rank correlation of
each projection against the attribute labels. Eigenvectors whose |corr|
reaches the threshold are removed; the rest span the retained subspace that
test descriptors are projected onto. The per-eigenvector correlation table
doubles as the eigenspectrum analysis. The fit runs BLAS on one thread
(``linalg.blas_threads``), so its bytes do not depend on the caller's
thread count.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .dataio import read_binary, refuse_zero_sizes, write_binary
from .errors import DataFormatError, ValidationError
from .linalg import blas_threads, covariance, eigh, spearman

DEFAULT_DELTA = 0.1

SUBSPACE_MAGIC = b"CPCA"
_SUBSPACE_HEADER = struct.Struct("<4sII")


@dataclass
class CorrSubspace:
    """Fitted removal: centering mean plus the retained orthonormal rows.

    ``eigenvalues`` and ``correlations`` are the per-eigenvector fit
    diagnostics, in the order of ``retained_flags``. The binary subspace
    file does not store them, so instances loaded from disk have None.
    """

    mean: np.ndarray  # (dim,)
    retained_vectors: np.ndarray  # (r, dim), orthonormal rows
    retained_flags: np.ndarray  # (dim,) bool, eigenvalue-descending order
    eigenvalues: np.ndarray = None  # (dim,), descending
    correlations: np.ndarray = None  # (dim,) Spearman correlation with the attribute

    @property
    def input_dim(self):
        return self.mean.shape[0]

    @property
    def retained_count(self):
        return self.retained_vectors.shape[0]


@blas_threads(1)
def fit(dataset, delta=DEFAULT_DELTA):
    """Fit the removal on ``dataset`` keeping eigenvectors with |corr| < delta."""
    if not 0.0 < delta <= 1.0:
        raise ValidationError("delta must be in (0, 1]")
    if len(np.unique(dataset.attributes)) < 2:
        raise ValidationError("fit needs both attribute values present")
    cov, mean = covariance(dataset.vectors)
    decomp = eigh(cov)
    centered = dataset.vectors - mean
    labels = dataset.attributes.astype(np.float64)
    projections = centered @ decomp.eigenvectors.T  # column j = component on eigenvector j
    corrs = np.empty(dataset.dim)
    for j in range(dataset.dim):  # a zero-variance direction correlates 0.0
        corrs[j] = spearman(projections[:, j], labels)
    retained = np.abs(corrs) < delta
    if not retained.any():
        raise ValidationError("delta=%g removes every eigenvector" % delta)
    return CorrSubspace(
        mean=mean,
        retained_vectors=decomp.eigenvectors[retained].copy(),
        retained_flags=retained,
        eigenvalues=decomp.eigenvalues,
        correlations=corrs,
    )


def project(subspace, dataset):
    """Center and project descriptors onto the retained subspace."""
    return dataset.remap("subspace", (subspace.input_dim, subspace.retained_count),
                         lambda x: (x - subspace.mean) @ subspace.retained_vectors.T)


def correlation_spectrum(subspace):
    """Per-eigenvector (index, eigenvalue, |corr|) rows, eigenvalue-descending,
    from the fit diagnostics of a ``subspace`` returned by :func:`fit`."""
    return [(j, float(ev), abs(float(corr)))
            for j, (ev, corr) in enumerate(zip(subspace.eigenvalues, subspace.correlations))]


def save_subspace(subspace, path):
    """Binary layout: magic, dim u32, retained-count u32, then mean
    (dim f64), flags (dim u8), retained rows (r x dim f64), little-endian."""
    write_binary(
        path, _SUBSPACE_HEADER, SUBSPACE_MAGIC, (subspace.input_dim, subspace.retained_count),
        [subspace.mean, subspace.retained_flags.astype("u1"), subspace.retained_vectors],
    )


def load_subspace(path):
    sizes, (mean, flags, rows) = read_binary(
        path, _SUBSPACE_HEADER, SUBSPACE_MAGIC,
        lambda dim, r: [("<f8", (dim,)), ("u1", (dim,)), ("<f8", (r, dim))],
    )
    refuse_zero_sizes("subspace", *sizes)
    if np.any(flags > 1):
        raise DataFormatError("bad_flag", "retained flag byte outside {0, 1}")
    if int(flags.sum()) != rows.shape[0]:
        raise DataFormatError("truncated", "retained flag count disagrees with row count")
    return CorrSubspace(
        mean=mean.copy(), retained_vectors=rows.copy(), retained_flags=flags.astype(bool)
    )
