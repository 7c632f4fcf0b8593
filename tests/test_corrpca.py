import struct

import numpy as np
import pytest

from agenda import corrpca, dataio, linalg, synthgen
from agenda.errors import DataFormatError, DimensionError, ValidationError
from conftest import tiny_corpus


def planted_axis_corpus(seed=21, n_identities=100, samples=50, dim=64):
    # attribute strength 5x the noise, no entanglement: the planted
    # direction is the only attribute-correlated axis by construction
    spec = synthgen.SynthSpec(
        n_identities=n_identities, samples_per_identity=samples, dim=dim,
        sigma_id=0.35, sigma_noise=0.1, attribute_strength=0.5,
        entanglement=0.0, seed=seed,
    )
    return synthgen.generate(spec)


class TestFit:
    def test_planted_axis_removed(self):
        ds, meta = planted_axis_corpus()
        sub = corrpca.fit(ds, delta=0.1)
        removed = ~sub.retained_flags
        assert removed.sum() == 1
        # the removed eigenvector is the planted direction
        decomp = linalg.eigh(linalg.covariance(ds.vectors)[0])
        removed_vec = decomp.eigenvectors[np.flatnonzero(removed)[0]]
        u = np.asarray(meta["attribute_direction"])
        assert abs(removed_vec @ u) > 0.98

    def test_shuffled_labels_retain_all(self):
        ds, _ = planted_axis_corpus(n_identities=40, samples=20, dim=16)
        rng = np.random.default_rng(3)
        shuffled = dataio.DescriptorDataset(
            ds.identities, rng.permutation(ds.attributes), ds.vectors
        )
        sub = corrpca.fit(shuffled, delta=0.99)
        assert sub.retained_count == shuffled.dim

    def test_counts_partition_dimension(self):
        ds, _ = planted_axis_corpus(n_identities=30, samples=10, dim=12)
        sub = corrpca.fit(ds, delta=0.1)
        assert sub.retained_count + (~sub.retained_flags).sum() == ds.dim
        assert len(sub.records) == ds.dim

    def test_delta_validation(self):
        ds, _ = planted_axis_corpus(n_identities=10, samples=5, dim=8)
        with pytest.raises(ValidationError):
            corrpca.fit(ds, delta=0.0)
        with pytest.raises(ValidationError):
            corrpca.fit(ds, delta=1.5)

    def test_single_attribute_rejected(self):
        rng = np.random.default_rng(0)
        ds = dataio.DescriptorDataset(
            np.arange(10, dtype=np.uint64),
            np.zeros(10, dtype=np.uint8),
            rng.normal(size=(10, 4)),
        )
        with pytest.raises(ValidationError):
            corrpca.fit(ds, 0.1)

    def test_scale_invariance(self):
        ds, _ = planted_axis_corpus(n_identities=30, samples=10, dim=10)
        scaled = dataio.DescriptorDataset(ds.identities, ds.attributes, ds.vectors * 37.5)
        a = corrpca.fit(ds, 0.1)
        b = corrpca.fit(scaled, 0.1)
        assert np.array_equal(a.retained_flags, b.retained_flags)
        assert np.allclose(np.abs(a.retained_vectors), np.abs(b.retained_vectors), atol=1e-8)


class TestProject:
    def test_full_basis_is_rotation(self):
        ds, _ = planted_axis_corpus(n_identities=20, samples=10, dim=12)
        rng = np.random.default_rng(5)
        shuffled = dataio.DescriptorDataset(
            ds.identities, rng.permutation(ds.attributes), ds.vectors
        )
        sub = corrpca.fit(shuffled, delta=1.0)
        assert sub.retained_count == ds.dim
        proj = corrpca.project(sub, shuffled)
        centered = shuffled.vectors - sub.mean
        gram_before = centered @ centered.T
        gram_after = proj.vectors @ proj.vectors.T
        assert np.max(np.abs(gram_before - gram_after)) < 1e-9

    def test_reconstruction_energy_matches_removed_eigenvalues(self):
        ds, _ = planted_axis_corpus(n_identities=40, samples=25, dim=16)
        sub = corrpca.fit(ds, delta=0.1)
        proj = corrpca.project(sub, ds)
        back = proj.vectors @ sub.retained_vectors + sub.mean
        err = float(((ds.vectors - back) ** 2).sum())
        removed_energy = sum(
            rec.eigenvalue for rec in sub.records if not rec.retained
        ) * (ds.n - 1)
        assert err == pytest.approx(removed_energy, rel=1e-6)

    def test_single_record_explicit_dots(self):
        ds, _ = planted_axis_corpus(n_identities=10, samples=5, dim=8)
        sub = corrpca.fit(ds, delta=0.5)
        one = ds.subset([7])
        proj = corrpca.project(sub, one)
        centered = ds.vectors[7] - sub.mean
        expected = [centered @ row for row in sub.retained_vectors]
        assert np.allclose(proj.vectors[0], expected, atol=1e-12)

    def test_norm_never_grows(self):
        ds, _ = planted_axis_corpus(n_identities=20, samples=10, dim=10)
        sub = corrpca.fit(ds, delta=0.1)
        proj = corrpca.project(sub, ds)
        centered_norms = np.linalg.norm(ds.vectors - sub.mean, axis=1)
        assert np.all(np.linalg.norm(proj.vectors, axis=1) <= centered_norms + 1e-12)

    def test_dim_mismatch(self):
        ds, _ = planted_axis_corpus(n_identities=10, samples=5, dim=8)
        sub = corrpca.fit(ds, delta=0.5)
        other, _ = tiny_corpus()
        with pytest.raises(DimensionError):
            corrpca.project(sub, other)


def spectrum(ds):
    # delta 1 keeps every eigenvector, so any corpus fits
    return corrpca.correlation_spectrum(corrpca.fit(ds, delta=1.0))


class TestSpectrum:
    def test_planted_axis_has_single_high_entry(self):
        ds, _ = planted_axis_corpus(n_identities=50, samples=40, dim=32)
        rows = spectrum(ds)
        high = [r for r in rows if r[2] > 0.5]
        assert len(high) == 1

    def test_isotropic_noise_below_permutation_null(self):
        # n=5000, 64 dims of attribute-free noise; the 0.2 bound comes from
        # a small label-permutation Monte Carlo on the same shape
        rng = np.random.default_rng(17)
        ds = dataio.DescriptorDataset(
            np.arange(5000, dtype=np.uint64),
            (np.arange(5000) % 2).astype(np.uint8),
            rng.normal(size=(5000, 64)),
        )
        rows = spectrum(ds)
        assert max(r[2] for r in rows) < 0.2
        # permutation null: max |spearman| over dims for shuffled labels
        labels = ds.attributes.astype(float)
        for _ in range(3):
            perm = rng.permutation(labels)
            null_max = max(
                abs(linalg.spearman(ds.vectors[:, j], perm)) for j in range(0, 64, 8)
            )
            assert null_max < 0.2

    def test_row_count_and_order(self):
        ds, _ = planted_axis_corpus(n_identities=10, samples=10, dim=14)
        rows = spectrum(ds)
        assert len(rows) == 14
        eigenvalues = [r[1] for r in rows]
        assert eigenvalues == sorted(eigenvalues, reverse=True)


class TestSubspaceFile:
    def test_round_trip(self, tmp_path):
        ds, _ = planted_axis_corpus(n_identities=20, samples=10, dim=10)
        sub = corrpca.fit(ds, delta=0.1)
        path = tmp_path / "sub.cpca"
        corrpca.save_subspace(sub, path)
        again = corrpca.load_subspace(path)
        assert np.array_equal(sub.mean, again.mean)
        assert np.array_equal(sub.retained_vectors, again.retained_vectors)
        assert np.array_equal(sub.retained_flags, again.retained_flags)
        proj_a = corrpca.project(sub, ds)
        proj_b = corrpca.project(again, ds)
        assert np.array_equal(proj_a.vectors, proj_b.vectors)


    @staticmethod
    def saved_blob(tmp_path):
        ds, _ = planted_axis_corpus(n_identities=20, samples=10, dim=10)
        path = tmp_path / "sub.cpca"
        corrpca.save_subspace(corrpca.fit(ds, delta=0.1), path)
        return path, bytearray(path.read_bytes())

    def test_nonfinite_payload_rejected(self, tmp_path):
        path, blob = self.saved_blob(tmp_path)
        blob[12:20] = struct.pack("<d", float("inf"))  # mean[0]
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError) as err:
            corrpca.load_subspace(path)
        assert err.value.code == "nonfinite"

    def test_flag_byte_other_than_0_and_1_rejected(self, tmp_path):
        path, blob = self.saved_blob(tmp_path)
        flags = 12 + 8 * 10
        first_retained = flags + blob[flags:flags + 10].index(1)
        blob[first_retained] = 2  # same count of non-zero flags
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError) as err:
            corrpca.load_subspace(path)
        assert err.value.code == "bad_flag"


class TestSingleDecomposition:
    def test_spectrum_from_fit_records_equals_recomputed(self, monkeypatch):
        ds, _ = planted_axis_corpus(n_identities=12, samples=8, dim=10)
        sub = corrpca.fit(ds, delta=0.3)
        cov, mean = linalg.covariance(ds.vectors)
        decomp = linalg.eigh(cov)
        projections = (ds.vectors - mean) @ decomp.eigenvectors.T
        labels = ds.attributes.astype(float)
        recomputed = [
            (j, float(decomp.eigenvalues[j]), abs(linalg.spearman(projections[:, j], labels)))
            for j in range(ds.dim)
        ]
        calls = []
        monkeypatch.setattr(corrpca, "eigh", lambda *a: calls.append(a))
        assert corrpca.correlation_spectrum(sub) == recomputed
        assert calls == []
