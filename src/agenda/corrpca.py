"""Eigenspace-removal baseline: drop attribute-correlated principal directions.

Fit centers the descriptors, eigendecomposes their covariance, projects the
centered data onto every eigenvector, and measures the rank correlation of
each projection against the attribute labels. Eigenvectors whose |corr|
reaches the threshold are removed; the rest span the retained subspace that
test descriptors are projected onto. The per-eigenvector correlation table
doubles as the eigenspectrum analysis.
"""

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .dataio import DescriptorDataset, read_binary
from .errors import DataFormatError, DimensionError, ValidationError
from .linalg import DegenerateInputWarning, covariance, eigh, spearman

DEFAULT_DELTA = 0.1

SUBSPACE_MAGIC = b"CPCA"
_SUBSPACE_HEADER = struct.Struct("<4sII")


@dataclass
class EigenRecord:
    index: int  # position in eigenvalue-descending order
    eigenvalue: float
    correlation: float
    retained: bool


@dataclass
class CorrSubspace:
    """Fitted removal: centering mean plus the retained orthonormal rows.

    ``records`` carries the full per-eigenvector fit diagnostics; it is not
    stored in the binary subspace file, so instances loaded from disk have
    ``records=None``.
    """

    mean: np.ndarray  # (dim,)
    retained_vectors: np.ndarray  # (r, dim), orthonormal rows
    retained_flags: np.ndarray  # (dim,) bool, eigenvalue-descending order
    delta: float = DEFAULT_DELTA
    records: list = None

    @property
    def input_dim(self):
        return self.mean.shape[0]

    @property
    def retained_count(self):
        return self.retained_vectors.shape[0]


def _eigen_correlations(dataset):
    if len(np.unique(dataset.attributes)) < 2:
        raise ValidationError("fit needs both attribute values present")
    cov, mean = covariance(dataset.vectors)
    decomp = eigh(cov)
    centered = dataset.vectors - mean
    labels = dataset.attributes.astype(np.float64)
    projections = centered @ decomp.eigenvectors.T  # column j = component on eigenvector j
    corrs = np.empty(dataset.dim)
    with warnings.catch_warnings():
        # Zero-variance directions rank as constant; the 0.0 convention is
        # exactly what we want here (they carry no attribute signal).
        warnings.simplefilter("ignore", DegenerateInputWarning)
        for j in range(dataset.dim):
            corrs[j] = spearman(projections[:, j], labels)
    return decomp, corrs, mean


def fit(dataset, delta=DEFAULT_DELTA):
    """Fit the removal on ``dataset`` keeping eigenvectors with |corr| < delta."""
    if not 0.0 < delta <= 1.0:
        raise ValidationError("delta must be in (0, 1]")
    decomp, corrs, mean = _eigen_correlations(dataset)
    retained = np.abs(corrs) < delta
    if not retained.any():
        raise ValidationError("delta=%g removes every eigenvector" % delta)
    records = [
        EigenRecord(j, float(decomp.eigenvalues[j]), float(corrs[j]), bool(retained[j]))
        for j in range(dataset.dim)
    ]
    return CorrSubspace(
        mean=mean,
        retained_vectors=decomp.eigenvectors[retained].copy(),
        retained_flags=retained,
        delta=float(delta),
        records=records,
    )


def project(subspace, dataset):
    """Center and project descriptors onto the retained subspace."""
    if dataset.dim != subspace.input_dim:
        raise DimensionError(
            "dataset dim %d does not match subspace dim %d"
            % (dataset.dim, subspace.input_dim)
        )
    projected = (dataset.vectors - subspace.mean) @ subspace.retained_vectors.T
    return DescriptorDataset(
        dataset.identities.copy(), dataset.attributes.copy(), projected
    )


def correlation_spectrum(dataset, subspace=None):
    """Per-eigenvector (index, eigenvalue, |corr|) rows, eigenvalue-descending.

    Given a ``subspace`` fitted on ``dataset``, the rows come from its fit
    records instead of a second decomposition of the same covariance.
    """
    if subspace is not None and subspace.records is not None:
        return [(r.index, r.eigenvalue, abs(r.correlation)) for r in subspace.records]
    decomp, corrs, _ = _eigen_correlations(dataset)
    return [
        (j, float(decomp.eigenvalues[j]), float(abs(corrs[j])))
        for j in range(dataset.dim)
    ]


def save_subspace(subspace, path):
    """Binary layout: magic, dim u32, retained-count u32, then mean
    (dim f64), flags (dim u8), retained rows (r x dim f64), little-endian."""
    with open(path, "wb") as fh:
        fh.write(
            _SUBSPACE_HEADER.pack(SUBSPACE_MAGIC, subspace.input_dim, subspace.retained_count)
        )
        fh.write(np.ascontiguousarray(subspace.mean, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(subspace.retained_flags, dtype="u1").tobytes())
        fh.write(np.ascontiguousarray(subspace.retained_vectors, dtype="<f8").tobytes())


def load_subspace(path):
    _, (mean, flags, rows) = read_binary(
        path, _SUBSPACE_HEADER, SUBSPACE_MAGIC,
        lambda dim, r: [("<f8", (dim,)), ("u1", (dim,)), ("<f8", (r, dim))],
    )
    if np.any(flags > 1):
        raise DataFormatError("bad_flag", "retained flag byte outside {0, 1}")
    if int(flags.sum()) != rows.shape[0]:
        raise DataFormatError("truncated", "retained flag count disagrees with row count")
    return CorrSubspace(
        mean=mean.copy(), retained_vectors=rows.copy(), retained_flags=flags.astype(bool)
    )
