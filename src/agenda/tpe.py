"""Triplet-probability embedding: a linear map into 128 dimensions.

Training samples (anchor, positive, negative) triplets — anchor/positive
from one identity, negative from another — and descends the negative log
of p = exp(s_ap) / (exp(s_ap) + exp(s_an)), where s is the dot product in
the embedded space. That is the canonical probabilistic triplet objective;
the exact loss internals of the originating method are out of scope here
and this substitution is noted in report headers.

The matrix is initialized to the top principal directions of the training
descriptors (an orthonormal, cosine-preserving warm start when the input
dimension is at most 128) with small seeded noise filling any leftover
columns. A full run trains ``repeats`` independent matrices from seeds
spawned off the run seed (spawn key ``(r,)``) and averages them
element-wise, with BLAS on one thread (``linalg.blas_threads``) so the
matrix bytes do not depend on the caller's thread count.
"""

import struct

import numpy as np

from .dataio import read_binary, write_binary
from .errors import NumericError, ValidationError
from .linalg import blas_threads, covariance, eigh

EMBED_DIM = 128
DEFAULT_REPEATS = 10
DEFAULT_ITERATIONS = 10000
DEFAULT_RATE = 2.5e-3
DEFAULT_BATCH = 32

TPE_MAGIC = b"TPE1"
_TPE_HEADER = struct.Struct("<4sII")


class _TripletSampler:
    """Uniform anchor identity (among those with >= 2 records), distinct
    anchor/positive records, negative from a uniformly chosen other identity."""

    def __init__(self, dataset):
        order = np.argsort(dataset.identities, kind="stable")
        self.records = order.astype(np.int64)
        ids = dataset.identities[order]
        unique, starts, counts = np.unique(ids, return_index=True, return_counts=True)
        if len(unique) < 2:
            raise ValidationError("triplet training needs at least 2 identities")
        self.starts = starts
        self.counts = counts
        self.eligible = np.flatnonzero(counts >= 2)
        if len(self.eligible) == 0:
            raise ValidationError("no identity has at least 2 records")
        self.n_ids = len(unique)

    def sample(self, n, rng):
        aid = self.eligible[rng.integers(0, len(self.eligible), size=n)]
        c = self.counts[aid]
        j1 = rng.integers(0, c)
        j2 = rng.integers(0, c - 1)
        j2 = j2 + (j2 >= j1)
        nid = rng.integers(0, self.n_ids - 1, size=n)
        nid = nid + (nid >= aid)
        jn = rng.integers(0, self.counts[nid])
        anchor = self.records[self.starts[aid] + j1]
        positive = self.records[self.starts[aid] + j2]
        negative = self.records[self.starts[nid] + jn]
        return anchor, positive, negative


def principal_axes(dataset):
    """Eigendecomposition of the descriptor covariance (the warm start's source)."""
    cov, _ = covariance(dataset.vectors)
    return eigh(cov)


def init_matrix(dataset, seed, decomp):
    """Top principal directions as columns; seeded small noise pads the rest.

    ``decomp`` is ``principal_axes(dataset)``.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    keep = min(dataset.dim, EMBED_DIM)
    w = np.zeros((dataset.dim, EMBED_DIM))
    w[:, :keep] = decomp.eigenvectors[:keep].T
    if keep < EMBED_DIM:
        w[:, keep:] = rng.normal(
            scale=0.01 / np.sqrt(dataset.dim), size=(dataset.dim, EMBED_DIM - keep)
        )
    return w


def tpe_train_single(dataset, decomp, iterations=DEFAULT_ITERATIONS, rate=DEFAULT_RATE,
                     batch=DEFAULT_BATCH, seed=0):
    """One SGD run from the PCA warm start ``decomp`` (``principal_axes(dataset)``);
    fully determined by ``seed``. Raises :class:`NumericError` if it diverges.
    """
    if iterations < 0 or batch < 1 or not rate > 0:
        raise ValidationError("iterations >= 0, batch >= 1 and rate > 0 required")
    sampler = _TripletSampler(dataset)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    ss_init, ss_triplets = ss.spawn(2)
    w = init_matrix(dataset, ss_init, decomp)
    rng = np.random.Generator(np.random.Philox(ss_triplets))
    x = dataset.vectors
    # exp(-d) overflows to inf for large margins, the sigmoid's correct
    # limit; a diverged run is reported once, below, not as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iterations):
            ia, ip, in_ = sampler.sample(batch, rng)
            a, p, n = x[ia], x[ip], x[in_]
            ea, ep, en = a @ w, p @ w, n @ w
            d = np.einsum("ij,ij->i", ea, en) - np.einsum("ij,ij->i", ea, ep)
            coef = (1.0 / (1.0 + np.exp(-d)) / batch)[:, None]
            d_ea = coef * (en - ep)
            d_ep = -coef * ea
            d_en = coef * ea
            w -= rate * (a.T @ d_ea + p.T @ d_ep + n.T @ d_en)
    if not np.all(np.isfinite(w)):
        raise NumericError("triplet SGD diverged to a non-finite matrix at rate %r" % rate)
    return w


@blas_threads(1)
def tpe_train(dataset, repeats=DEFAULT_REPEATS, iterations=DEFAULT_ITERATIONS,
              rate=DEFAULT_RATE, batch=DEFAULT_BATCH, seed=0):
    """Average of ``repeats`` independent runs seeded by spawn keys (0,)..(r-1,);
    they share one covariance decomposition."""
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    decomp = principal_axes(dataset)
    total = np.zeros((dataset.dim, EMBED_DIM))
    for r in range(repeats):
        child = np.random.SeedSequence(seed, spawn_key=(r,))
        total += tpe_train_single(dataset, decomp, iterations, rate, batch, child)
    return total / repeats


def tpe_apply(w, dataset):
    """Project every descriptor through the matrix; labels pass through."""
    return dataset.remap("matrix", w.shape[0], lambda x: x @ w)


def save_tpe(w, path):
    write_binary(path, _TPE_HEADER, TPE_MAGIC, w.shape, [w])


def load_tpe(path):
    _, (w,) = read_binary(path, _TPE_HEADER, TPE_MAGIC,
                          lambda in_dim, out_dim: [("<f8", (in_dim, out_dim))])
    return w.copy()
