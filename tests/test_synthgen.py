import json

import numpy as np
import pytest

from agenda import dataio, synthgen
from agenda.errors import ValidationError


class TestGenerate:
    def test_bit_identical_under_same_seed(self):
        spec = synthgen.SynthSpec(n_identities=10, samples_per_identity=5, dim=8, seed=77)
        a, meta_a = synthgen.generate(spec)
        b, meta_b = synthgen.generate(spec)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.identities, b.identities)
        assert meta_a["attribute_direction"] == meta_b["attribute_direction"]

    def test_different_seed_differs(self):
        base = dict(n_identities=10, samples_per_identity=5, dim=8)
        a, _ = synthgen.generate(synthgen.SynthSpec(seed=1, **base))
        b, _ = synthgen.generate(synthgen.SynthSpec(seed=2, **base))
        assert not np.array_equal(a.vectors, b.vectors)

    def test_group_balance_ceil_floor(self):
        for n in (6, 7):
            spec = synthgen.SynthSpec(n_identities=n, samples_per_identity=3, dim=6, seed=0)
            ds, _ = synthgen.generate(spec)
            males = len(np.unique(ds.identities[ds.attributes == 1]))
            females = len(np.unique(ds.identities[ds.attributes == 0]))
            assert males == -(-n // 2)  # ceil
            assert females == n // 2

    def test_attribute_constant_within_identity(self):
        ds, _ = synthgen.generate(synthgen.SynthSpec(n_identities=9, samples_per_identity=4, dim=6, seed=3))
        for ident in np.unique(ds.identities):
            attrs = ds.attributes[ds.identities == ident]
            assert len(set(attrs.tolist())) == 1

    def test_group_mean_shift_along_direction(self):
        spec = synthgen.SynthSpec(
            n_identities=40, samples_per_identity=25, dim=16,
            sigma_id=0.2, sigma_noise=0.05, attribute_strength=0.4,
            entanglement=0.0, seed=5,
        )
        ds, meta = synthgen.generate(spec)
        u = np.asarray(meta["attribute_direction"])
        proj = ds.vectors @ u
        gap = proj[ds.attributes == 1].mean() - proj[ds.attributes == 0].mean()
        assert gap == pytest.approx(2 * spec.attribute_strength, abs=0.05)

    def test_entanglement_preserves_total_shift(self):
        # the group separation along the planted direction stays ~2g for any e
        gaps = []
        for e in (0.0, 0.5, 0.9):
            spec = synthgen.SynthSpec(
                n_identities=60, samples_per_identity=20, dim=16,
                sigma_id=0.2, sigma_noise=0.05, attribute_strength=0.4,
                entanglement=e, seed=6,
            )
            ds, meta = synthgen.generate(spec)
            u = np.asarray(meta["attribute_direction"])
            proj = ds.vectors @ u
            gaps.append(proj[ds.attributes == 1].mean() - proj[ds.attributes == 0].mean())
        assert max(gaps) - min(gaps) < 0.12

    def test_female_noise_scale(self):
        spec = synthgen.SynthSpec(
            n_identities=40, samples_per_identity=30, dim=12,
            attribute_strength=0.0, female_noise_scale=2.0, seed=8,
        )
        ds, _ = synthgen.generate(spec)
        def within_spread(group):
            spreads = []
            for ident in np.unique(ds.identities[ds.attributes == group]):
                block = ds.vectors[ds.identities == ident]
                spreads.append(block.std(axis=0).mean())
            return np.mean(spreads)
        assert within_spread(0) / within_spread(1) == pytest.approx(2.0, abs=0.15)

    def test_validation(self):
        with pytest.raises(ValidationError):
            synthgen.SynthSpec(dim=2).validate()
        with pytest.raises(ValidationError):
            synthgen.SynthSpec(entanglement=1.5).validate()
        with pytest.raises(ValidationError):
            synthgen.SynthSpec(sigma_noise=0.0).validate()
        with pytest.raises(ValidationError):
            synthgen.SynthSpec(n_identities=1).validate()


class TestSpecFile:
    def test_from_file(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text(
            "n_identities=12\nsamples_per_identity=4\ndim=8\n"
            "sigma_id=0.5\nsigma_noise=0.2\nattribute_strength=0.3\n"
            "entanglement=0.1\nseed=42\n"
        )
        spec = synthgen.SynthSpec.from_file(path)
        assert spec.n_identities == 12 and spec.seed == 42
        assert spec.entanglement == pytest.approx(0.1)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("wibble=3\n")
        with pytest.raises(ValidationError):
            synthgen.SynthSpec.from_file(path)


class TestMetadata:
    def test_sidecar_contents(self, tmp_path):
        spec = synthgen.SynthSpec(n_identities=6, samples_per_identity=3, dim=8, seed=2)
        ds, meta = synthgen.generate(spec)
        path = tmp_path / "meta.json"
        dataio.write_json(path, meta)
        loaded = json.loads(path.read_text())
        assert loaded["noise_generator"] == synthgen.NOISE_GENERATOR
        assert loaded["spec"]["n_identities"] == 6
        direction = np.asarray(loaded["attribute_direction"])
        assert direction.shape == (8,)
        assert np.linalg.norm(direction) == pytest.approx(1.0)
