"""Readers and recomputations written apart from the program.

The binary readers follow the layout table in the repository README and do
not import ``agenda``. The numeric helpers recompute what the program
claims (eigenvalues, Spearman correlations, cosine scores, operating
thresholds) with plain numpy and LAPACK, so the output checks compare the
program against a second implementation rather than against itself.
"""

import csv
import hashlib
import struct
from dataclasses import dataclass

import numpy as np


class OracleError(ValueError):
    """A file does not follow its documented layout."""


@dataclass
class Records:
    identities: np.ndarray  # (n,) uint64
    attributes: np.ndarray  # (n,) uint8
    vectors: np.ndarray  # (n, dim) float32, as stored

    @property
    def n(self):
        return self.vectors.shape[0]

    @property
    def dim(self):
        return self.vectors.shape[1]


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def digest(path):
    """SHA-256 of a file's bytes, for byte-identity checks."""
    return hashlib.sha256(_read(path)).hexdigest()


def _header(data, fmt, magic, what):
    head = struct.Struct(fmt)
    if len(data) < head.size:
        raise OracleError("%s: shorter than its header" % what)
    fields = head.unpack_from(data)
    if fields[0] != magic:
        raise OracleError("%s: magic %r, expected %r" % (what, fields[0], magic))
    return head.size, fields[1:]


def _expect_size(data, size, what):
    if len(data) != size:
        raise OracleError("%s: %d bytes, layout gives %d" % (what, len(data), size))


def read_fds(path):
    """Dataset: magic FDS1, u32 version, u64 count, u32 dim, then per record
    u64 identity, u8 attribute, dim x f32."""
    data = _read(path)
    offset, (version, count, dim) = _header(data, "<4sIQI", b"FDS1", path)
    if version != 1:
        raise OracleError("%s: version %d" % (path, version))
    record = np.dtype([("identity", "<u8"), ("attribute", "u1"), ("vector", "<f4", (dim,))])
    _expect_size(data, offset + count * record.itemsize, path)
    rows = np.frombuffer(data, dtype=record, count=count, offset=offset)
    return Records(rows["identity"].copy(), rows["attribute"].copy(), rows["vector"].copy())


AGND_HEADER = "<4sIIIIII"


def agnd_layout(in_dim, units, identities, k, hidden):
    """(block name, shape) in declaration order: generator, classifier,
    then each ensemble member."""
    blocks = [
        ("generator.weight", (in_dim, units)), ("generator.bias", (units,)),
        ("generator.prelu_slope", (units,)),
        ("classifier.weight", (units, identities)), ("classifier.bias", (identities,)),
    ]
    for m in range(k):
        blocks += [
            ("member%d.w1" % m, (units, hidden)), ("member%d.b1" % m, (hidden,)),
            ("member%d.w2" % m, (hidden, 2)), ("member%d.b2" % m, (2,)),
        ]
    return blocks


def read_agnd(path):
    """Checkpoint: header fields plus a dict of f64 parameter blocks."""
    data = _read(path)
    offset, (version, in_dim, units, identities, k, hidden) = _header(
        data, AGND_HEADER, b"AGND", path)
    if version != 1:
        raise OracleError("%s: version %d" % (path, version))
    layout = agnd_layout(in_dim, units, identities, k, hidden)
    _expect_size(data, offset + 8 * sum(int(np.prod(s)) for _, s in layout), path)
    blocks = {}
    for name, shape in layout:
        size = int(np.prod(shape))
        blocks[name] = np.frombuffer(data, "<f8", size, offset).reshape(shape)
        offset += 8 * size
    header = dict(in_dim=in_dim, units=units, identities=identities, k=k, hidden=hidden)
    return header, blocks


def read_cpca(path):
    """Subspace: magic CPCA, u32 dim, u32 retained, mean (dim f64),
    flags (dim u8), rows (retained x dim f64). Returns (mean, flags, rows)."""
    data = _read(path)
    offset, (dim, r) = _header(data, "<4sII", b"CPCA", path)
    _expect_size(data, offset + 8 * dim + dim + 8 * r * dim, path)
    mean = np.frombuffer(data, "<f8", dim, offset)
    flags = np.frombuffer(data, "u1", dim, offset + 8 * dim)
    rows = np.frombuffer(data, "<f8", r * dim, offset + 9 * dim).reshape(r, dim)
    return mean, flags, rows


def read_tpe(path):
    """Matrix: magic TPE1, u32 in_dim, u32 out_dim, f64 row-major."""
    data = _read(path)
    offset, (in_dim, out_dim) = _header(data, "<4sII", b"TPE1", path)
    _expect_size(data, offset + 8 * in_dim * out_dim, path)
    return np.frombuffer(data, "<f8", in_dim * out_dim, offset).reshape(in_dim, out_dim)


def read_report(path):
    """CSV report: '#' comment lines, a header row, then data rows.
    Returns (comments, header, rows) with cells as strings."""
    comments, lines = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif line.strip():
                lines.append(line)
    table = list(csv.reader(lines))
    if not table:
        raise OracleError("%s: no header row" % path)
    return comments, table[0], table[1:]


def read_kv_report(path):
    """Two-column metric,value report as a dict of strings."""
    _, _, rows = read_report(path)
    return {row[0]: row[1] for row in rows}


# ---------------------------------------------------------------- numerics


def covariance(x):
    """Sample covariance (divisor n - 1) and column mean, in float64."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=0)
    centered = x - mean
    return centered.T @ centered / (x.shape[0] - 1), mean


def average_ranks(values):
    """Ranks 1..n; tied values share the mean of the ranks they cover."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    return ((upper - counts + 1 + upper) / 2.0)[inverse]


def spearman_columns(columns, labels):
    """Spearman correlation of every column of ``columns`` with ``labels``."""
    rl = average_ranks(labels)
    rl = rl - rl.mean()
    out = np.empty(columns.shape[1])
    for j in range(columns.shape[1]):
        rv = average_ranks(columns[:, j])
        rv = rv - rv.mean()
        out[j] = rv @ rl / np.sqrt((rv @ rv) * (rl @ rl))
    return out


def cosine_scores(vectors, index_a, index_b, chunk=65536):
    """Cosine similarity per pair, computed in chunks to bound memory."""
    x = np.asarray(vectors, dtype=np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    scores = np.empty(len(index_a))
    for start in range(0, len(index_a), chunk):
        a = index_a[start:start + chunk]
        b = index_b[start:start + chunk]
        scores[start:start + chunk] = np.einsum("ij,ij->i", x[a], x[b]) / (norms[a] * norms[b])
    return scores


def operating_threshold(impostor, candidates, target):
    """Smallest candidate score whose strictly-above impostor fraction is at
    most ``target`` (no interpolation), by enumerating every candidate."""
    imp = np.sort(impostor)
    cand = np.unique(candidates)
    above = len(imp) - np.searchsorted(imp, cand, side="right")
    ok = above / len(imp) <= target
    if not ok.any():
        raise OracleError("no candidate meets FPR target %g" % target)
    return float(cand[np.argmax(ok)])


def f32_close(stored, reference, slack=1e-12):
    """True when float32 ``stored`` equals float64 ``reference`` up to one
    float32 rounding step (plus ``slack`` times the largest magnitude)."""
    reference = np.asarray(reference, dtype=np.float64)
    if stored.shape != reference.shape:
        return False
    scale = float(np.max(np.abs(reference))) if reference.size else 0.0
    tol = np.spacing(np.abs(reference).astype(np.float32)).astype(np.float64) + slack * scale
    return bool(np.all(np.abs(stored.astype(np.float64) - reference) <= tol))
