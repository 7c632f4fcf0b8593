"""Deterministic synthetic descriptor corpora with a controllable attribute signal.

The generator plants a single shared unit direction ``u`` that carries the
binary attribute and lets two knobs shape how hard it is to remove:

* ``attribute_strength`` (g): total mean shift along ``u`` between the two
  attribute groups (each group sits at +/- g).
* ``entanglement`` (e): how much of the identity-defining structure is
  folded onto ``u``. Each identity centroid is built from
  ``sigma_id * ((1 - e) * w_i + e * r_i * u) + e * g * s_i * u`` where
  ``w_i`` is a random unit vector, ``r_i`` a per-identity scalar coordinate
  (a few unit-vector-coordinate scales wide) and ``s_i`` the signed
  attribute. At e = 0 the attribute direction is a pure additive offset;
  as e grows, identity-discriminative variance migrates onto ``u`` itself,
  so removing the attribute costs identity information. The remaining
  ``(1 - e) * g`` of the shift is added per sample, keeping the total
  group separation at g for every e.

All randomness flows through counter-based Philox streams (one child
stream per identity), so corpora are bit-stable across platforms and can
be generated identity-parallel.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .dataio import DescriptorDataset, coerce_kv, read_kv_config
from .errors import ValidationError

NOISE_GENERATOR = "philox4x64-numpy"
METADATA_VERSION = 1

# Variance of the entangled per-identity coordinate, relative to 1/dim (the
# variance of a random unit vector's coordinate).
ENTANGLED_COORD_VAR = 8.0


@dataclass
class SynthSpec:
    """Corpus shape and signal strengths; defaults give the standard
    entangled benchmark corpus (dim 64, g = 2 * sigma_noise, e = 0.3)."""

    n_identities: int = 200
    samples_per_identity: int = 50
    dim: int = 64
    sigma_id: float = 0.35
    sigma_noise: float = 0.1
    attribute_strength: float = 0.2
    entanglement: float = 0.3
    # Multiplies sigma_noise for female identities only; >1 makes the
    # female group noisier, inducing a verification-performance gap.
    female_noise_scale: float = 1.0
    seed: int = 0

    def validate(self):
        if self.dim < 4:
            raise ValidationError("dim must be >= 4")
        if self.n_identities < 2 or self.samples_per_identity < 2:
            raise ValidationError("need at least 2 identities and 2 samples each")
        if self.sigma_id <= 0 or self.sigma_noise <= 0:
            raise ValidationError("sigma_id and sigma_noise must be positive")
        for name in ("attribute_strength", "seed"):
            if getattr(self, name) < 0:
                raise ValidationError("%s must be >= 0" % name)
        if not 0.0 <= self.entanglement <= 1.0:
            raise ValidationError("entanglement must be in [0, 1]")
        if self.female_noise_scale <= 0:
            raise ValidationError("female_noise_scale must be positive")

    @classmethod
    def from_file(cls, path):
        return cls(**coerce_kv(read_kv_config(path), cls))


def _unit(vec):
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ValidationError("degenerate zero draw for a unit vector")
    return vec / norm


def generate(spec):
    """Build the corpus described by ``spec``.

    Returns ``(dataset, metadata)`` where metadata records the spec, the
    planted attribute direction, and the generator name, for test oracles
    and provenance sidecars. Identity ``i`` gets attribute ``1 - i % 2``
    (so males take the ceil half) and identities are numbered 0..n-1.
    """
    spec.validate()
    root = np.random.SeedSequence(spec.seed)
    ss_dir, ss_ids = root.spawn(2)
    rng_dir = np.random.Generator(np.random.Philox(ss_dir))
    direction = _unit(rng_dir.standard_normal(spec.dim))

    n = spec.n_identities
    per = spec.samples_per_identity
    e = spec.entanglement
    g = spec.attribute_strength
    vectors = np.empty((n * per, spec.dim), dtype=np.float64)
    identities = np.repeat(np.arange(n, dtype=np.uint64), per)
    attrs = np.where(np.arange(n) % 2 == 0, 1, 0).astype(np.uint8)
    attributes = np.repeat(attrs, per)

    for i, child in enumerate(ss_ids.spawn(n)):
        rng = np.random.Generator(np.random.Philox(child))
        w_i = _unit(rng.standard_normal(spec.dim))
        # Per-identity coordinate along the attribute direction, a few times
        # the scale of a typical unit-vector coordinate: entanglement then
        # concentrates identity information onto the attribute axis as e
        # grows without handing the classifier a dominant feature at small e.
        r_i = rng.standard_normal() * np.sqrt(ENTANGLED_COORD_VAR / spec.dim)
        noise = rng.standard_normal((per, spec.dim))
        sign = 1.0 if attrs[i] == 1 else -1.0
        sigma = spec.sigma_noise * (spec.female_noise_scale if attrs[i] == 0 else 1.0)
        centroid = spec.sigma_id * ((1.0 - e) * w_i + e * r_i * direction)
        centroid = centroid + e * g * sign * direction
        rows = centroid + (1.0 - e) * g * sign * direction + sigma * noise
        vectors[i * per : (i + 1) * per] = rows

    dataset = DescriptorDataset(identities, attributes, vectors)
    metadata = {
        "metadata_version": METADATA_VERSION,
        "noise_generator": NOISE_GENERATOR,
        "spec": dataclasses.asdict(spec),
        "attribute_direction": direction.tolist(),
    }
    return dataset, metadata
