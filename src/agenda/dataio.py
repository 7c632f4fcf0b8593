"""Binary descriptor datasets and the small file formats shared by every stage.

Dataset file layout (all little-endian):

    magic   4 bytes  b"FDS1"
    version u32      currently 1
    count   u64      number of records
    dim     u32      vector length
    records count x (identity u64, attribute u8, vector dim x f32)

Vectors are stored as float32 and widened to float64 in memory; training
math runs in 64-bit while files stay half-size. Every producer in the
package writes this one format, so stages compose on the CLI regardless of
where a dataset came from. The fitted maps (generator, corrpca subspace,
TPE matrix) all re-embed a dataset through :meth:`DescriptorDataset.remap`.

The package's four binary formats (datasets here, checkpoints in ``nets``,
subspaces in ``corrpca``, TPE matrices in ``tpe``) share one writer,
:func:`write_binary`, and one reader, :func:`read_binary`: a packed header
then little-endian blocks back to back. Manifests and synthesis metadata
are written by :func:`write_json`, reports by :func:`write_csv_report`.
"""

import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, DimensionError, ValidationError

MAGIC = b"FDS1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQI")

# Readers refuse to allocate more than this for a single payload; malformed
# headers fail fast instead of exhausting memory.
DEFAULT_MAX_BYTES = 8 << 30


@dataclass
class DescriptorDataset:
    """Embedding vectors with an identity id and a binary attribute per row.

    Attribute coding is 0 = female, 1 = male throughout the package.
    """

    identities: np.ndarray  # (n,) uint64
    attributes: np.ndarray  # (n,) uint8, values in {0, 1}
    vectors: np.ndarray  # (n, dim) float64

    def __post_init__(self):
        self.identities = np.ascontiguousarray(self.identities, dtype=np.uint64)
        self.attributes = np.ascontiguousarray(self.attributes, dtype=np.uint8)
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise DimensionError("vectors must be 2-d (records x dim)")
        n = self.vectors.shape[0]
        if self.identities.shape != (n,) or self.attributes.shape != (n,):
            raise DimensionError("identities/attributes length must match vectors")
        if np.any(self.attributes > 1):
            raise ValidationError("attribute labels must be 0 or 1")
        if not np.all(np.isfinite(self.vectors)):
            raise ValidationError("descriptor vectors must be finite")

    @property
    def n(self):
        return self.vectors.shape[0]

    @property
    def dim(self):
        return self.vectors.shape[1]

    def subset(self, indices):
        indices = np.asarray(indices)
        if indices.size == 0:
            indices = np.empty(0, dtype=np.int64)
        # Integer-array indexing already returns copies.
        return DescriptorDataset(
            self.identities[indices], self.attributes[indices], self.vectors[indices]
        )

    def remap(self, what, in_dim, fn):
        """Records mapped by ``fn`` (map ``what``, ``in_dim`` wide); labels shared, never mutated."""
        if self.dim != in_dim:
            raise DimensionError("dataset dim %d does not match %s input dim %d"
                                 % (self.dim, what, in_dim))
        return DescriptorDataset(self.identities, self.attributes, fn(self.vectors))


def _record_dtype(dim):
    return np.dtype(
        [("identity", "<u8"), ("attribute", "u1"), ("vector", "<f4", (dim,))]
    )


def write_dataset(dataset, path):
    """Write ``dataset`` to ``path``; vectors are narrowed to float32."""
    vec32 = dataset.vectors.astype(np.float32)
    if not np.all(np.isfinite(vec32)):
        raise ValidationError("vectors overflow float32 storage")
    records = np.empty(dataset.n, dtype=_record_dtype(dataset.dim))
    records["identity"] = dataset.identities
    records["attribute"] = dataset.attributes
    records["vector"] = vec32
    write_binary(path, _HEADER, MAGIC, (dataset.n, dataset.dim), [records], FORMAT_VERSION)


def write_binary(path, header, magic, fields, blocks, version=None):
    """Write a file that :func:`read_binary` reads back: ``header`` packed
    from ``magic``, ``version`` (for a versioned format) and ``fields``,
    then each array of ``blocks`` as little-endian bytes, back to back."""
    lead = (magic,) if version is None else (magic, version)
    with open(path, "wb") as fh:
        fh.write(header.pack(*lead, *fields))
        for block in blocks:
            fh.write(block.astype(block.dtype.newbyteorder("<"), copy=False).tobytes())


def read_binary(path, header, magic, layout, version=None):
    """Read one of the package's little-endian header + payload files.

    ``header`` is a :class:`struct.Struct` whose first field is the 4-byte
    ``magic`` and, for a versioned format, whose second is the format
    ``version``. ``layout(*fields)`` maps the remaining header fields to the
    payload as a list of ``(dtype, shape)`` blocks stored back to back, and
    may raise :class:`DataFormatError` for a header it rejects. The declared
    payload size is computed in Python integers and checked against the file
    size (``truncated``) and ``DEFAULT_MAX_BYTES`` (``too_large``) before the
    payload is read, so a lying header allocates nothing. Floating-point
    blocks must be finite (``nonfinite``).

    Returns ``(fields, blocks)``: the remaining header fields and one
    read-only array per layout block.
    """
    with open(path, "rb") as fh:
        head = fh.read(header.size)
        if len(head) < header.size:
            raise DataFormatError(
                "truncated",
                "file too short for header: expected %d bytes, got %d" % (header.size, len(head)),
            )
        fields = header.unpack(head)
        if fields[0] != magic:
            raise DataFormatError("bad_magic", "bad magic %r (expected %r)" % (fields[0], magic))
        fields = fields[1:]
        if version is not None:
            if fields[0] != version:
                raise DataFormatError(
                    "version", "unsupported format version %d (expected %d)" % (fields[0], version)
                )
            fields = fields[1:]
        layout = [(np.dtype(dtype), shape) for dtype, shape in layout(*fields)]
        expected = sum(dtype.itemsize * math.prod(shape) for dtype, shape in layout)
        got = os.fstat(fh.fileno()).st_size - header.size
        if got == expected:
            if expected > DEFAULT_MAX_BYTES:
                raise DataFormatError(
                    "too_large",
                    "payload of %d bytes exceeds the %d byte cap" % (expected, DEFAULT_MAX_BYTES),
                )
            payload = fh.read(expected)
            got = len(payload)
    if got != expected:
        raise DataFormatError(
            "truncated", "payload length mismatch: expected %d bytes, got %d" % (expected, got)
        )
    blocks, offset = [], 0
    for dtype, shape in layout:
        count = math.prod(shape)
        block = np.frombuffer(payload, dtype=dtype, count=count, offset=offset).reshape(shape)
        if dtype.kind == "f" and not np.all(np.isfinite(block)):
            raise DataFormatError("nonfinite", "payload block %d is not finite" % len(blocks))
        blocks.append(block)
        offset += dtype.itemsize * count
    return fields, blocks


def _dataset_layout(count, dim):
    if dim < 1:
        raise DataFormatError("truncated", "header declares dim=0")
    record = 8 + 1 + 4 * dim  # identity u64, attribute u8, vector dim x f32
    # Datasets meet the cap before the file size, so a huge record count is
    # too_large even in a short file; a dim whose one record exceeds the cap
    # could not be described by a numpy record dtype either.
    if record * max(count, 1) > DEFAULT_MAX_BYTES:
        raise DataFormatError(
            "too_large",
            "%d records of %d bytes exceed the %d byte cap" % (count, record, DEFAULT_MAX_BYTES),
        )
    return [("u1", (count * record,))]


def read_dataset(path):
    """Read a dataset file, validating the header before touching the payload."""
    (count, dim), (raw,) = read_binary(path, _HEADER, MAGIC, _dataset_layout, FORMAT_VERSION)
    records = raw.view(_record_dtype(dim))
    if np.any(records["attribute"] > 1):
        raise DataFormatError("bad_attribute", "attribute byte outside {0, 1}")
    vectors = records["vector"].astype(np.float64)
    if not np.all(np.isfinite(vectors)):
        raise DataFormatError("nonfinite", "dataset contains non-finite vector entries")
    return DescriptorDataset(
        records["identity"].astype(np.uint64),
        records["attribute"].astype(np.uint8),
        vectors,
    )


def split_by_identity(dataset, heldout_fraction, seed):
    """Split record indices into (main, heldout) with disjoint identities.

    Identities are shuffled by ``seed`` and moved to the heldout side until
    it holds at least ``heldout_fraction`` of the records. Record order is
    preserved within each side.
    """
    if not 0.0 < heldout_fraction < 1.0:
        raise ValidationError("heldout_fraction must be in (0, 1)")
    rng = np.random.Generator(np.random.Philox(seed))
    ids = np.unique(dataset.identities)
    if len(ids) < 2:
        raise ValidationError("need at least 2 identities to split")
    order = rng.permutation(len(ids))
    target = heldout_fraction * dataset.n
    counts = {i: c for i, c in zip(*np.unique(dataset.identities, return_counts=True))}
    heldout_ids = []
    total = 0
    for pos in order:
        if total >= target:
            break
        heldout_ids.append(ids[pos])
        total += counts[ids[pos]]
    if len(heldout_ids) == len(ids):
        raise ValidationError("heldout fraction leaves no identities for the main split")
    mask = np.isin(dataset.identities, np.asarray(heldout_ids, dtype=np.uint64))
    return np.flatnonzero(~mask), np.flatnonzero(mask)


def read_kv_config(path):
    """Parse a ``key=value`` text file; '#' starts a comment, blanks ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError("bad_value", "config %s is not UTF-8 text: %s" % (path, exc))
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(
                "bad_key", "%s:%d: expected key=value, got %r" % (path, lineno, raw.strip())
            )
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def coerce_kv(values, cls):
    """Coerce string config values to the field types of dataclass ``cls``.

    Unknown keys raise so typos in config files fail loudly, and so do
    float values that are not finite.
    """
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    out = {}
    for key, raw in values.items():
        if key not in fields:
            raise ValidationError(
                "unknown config key %r (known: %s)" % (key, ", ".join(sorted(fields)))
            )
        typ = fields[key]
        try:
            out[key] = typ(raw)
        except ValueError as exc:
            raise ValidationError("config key %r: %s" % (key, exc)) from exc
        if typ is float and not math.isfinite(out[key]):
            raise ValidationError("config key %r: %r is not finite" % (key, raw))
    return out


def format_float(x):
    """Shortest round-trip decimal form; keeps report files byte-stable."""
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return repr(float(x))


def write_json(path, payload):
    """Indented, key-sorted JSON with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv_report(path, comments, header, rows):
    """Write a CSV report with '#' comment lines carrying run provenance."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in comments:
            fh.write("# %s\n" % line)
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")
