import struct

import numpy as np
import pytest

from agenda import dataio, tpe
from agenda.errors import DataFormatError, DimensionError, NumericError, ValidationError
from conftest import tiny_corpus


def triplet_loss(w, a, p, n):
    """Mean -log p over given triplet descriptor blocks."""
    ea, ep, en = a @ w, p @ w, n @ w
    d = np.einsum("ij,ij->i", ea, en) - np.einsum("ij,ij->i", ea, ep)
    return float(np.logaddexp(0.0, d).mean())


class TestTraining:
    def test_zero_iterations_returns_init(self):
        ds, _ = tiny_corpus()
        w = tpe.tpe_train(ds, repeats=1, iterations=0, seed=4)
        init = tpe.init_matrix(ds, np.random.SeedSequence(4, spawn_key=(0,)).spawn(2)[0],
                              tpe.principal_axes(ds))
        assert np.array_equal(w, init)

    def test_average_of_logged_repeat_seeds(self):
        ds, _ = tiny_corpus()
        avg = tpe.tpe_train(ds, repeats=3, iterations=5, seed=11)
        axes = tpe.principal_axes(ds)
        singles = [
            tpe.tpe_train_single(ds, axes, iterations=5,
                                 seed=np.random.SeedSequence(11, spawn_key=(r,)))
            for r in range(3)
        ]
        assert np.array_equal(avg, sum(singles) / 3)

    def test_repeats_share_one_decomposition(self, monkeypatch):
        ds, _ = tiny_corpus()
        axes = tpe.principal_axes(ds)
        singles = [
            tpe.tpe_train_single(ds, axes, iterations=3,
                                 seed=np.random.SeedSequence(5, spawn_key=(r,)))
            for r in range(3)
        ]
        real, calls = tpe.eigh, []

        def counted(cov):
            calls.append(1)
            return real(cov)

        monkeypatch.setattr(tpe, "eigh", counted)
        avg = tpe.tpe_train(ds, repeats=3, iterations=3, seed=5)
        assert len(calls) == 1
        assert np.array_equal(avg, sum(singles) / 3)

    def test_deterministic(self):
        ds, _ = tiny_corpus()
        a = tpe.tpe_train(ds, repeats=2, iterations=10, seed=3)
        b = tpe.tpe_train(ds, repeats=2, iterations=10, seed=3)
        assert np.array_equal(a, b)

    def test_loss_decreases_on_fixed_probe_triplets(self):
        ds, _ = tiny_corpus(n_identities=20, samples=10, dim=12)
        sampler = tpe._TripletSampler(ds)
        rng = np.random.Generator(np.random.Philox(99))
        ia, ip, in_ = sampler.sample(400, rng)
        a, p, n = ds.vectors[ia], ds.vectors[ip], ds.vectors[in_]
        w0 = tpe.init_matrix(ds, 0, tpe.principal_axes(ds))
        w1 = tpe.tpe_train_single(ds, tpe.principal_axes(ds), iterations=800, seed=0)
        assert triplet_loss(w1, a, p, n) < triplet_loss(w0, a, p, n)

    def test_no_multi_sample_identity_rejected(self):
        rng = np.random.default_rng(0)
        ds = dataio.DescriptorDataset(
            np.arange(6, dtype=np.uint64),
            (np.arange(6) % 2).astype(np.uint8),
            rng.normal(size=(6, 5)),
        )
        with pytest.raises(ValidationError):
            tpe.tpe_train_single(ds, tpe.principal_axes(ds), iterations=1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_numeric_error(self):
        ds, _ = tiny_corpus()
        with pytest.raises(NumericError, match="diverged"):
            tpe.tpe_train(ds, repeats=1, iterations=50, rate=1e12)

    def test_bad_params_rejected(self):
        ds, _ = tiny_corpus()
        with pytest.raises(ValidationError):
            tpe.tpe_train(ds, repeats=0)
        with pytest.raises(ValidationError):
            tpe.tpe_train_single(ds, tpe.principal_axes(ds), iterations=-1)


class TestApply:
    def test_truncated_identity_selects_coordinates(self):
        ds, _ = tiny_corpus()
        w = np.zeros((ds.dim, 128))
        w[:, : ds.dim] = np.eye(ds.dim)
        out = tpe.tpe_apply(w, ds)
        assert out.dim == 128
        assert np.array_equal(out.vectors[:, : ds.dim], ds.vectors)
        assert np.all(out.vectors[:, ds.dim :] == 0.0)

    def test_output_always_128(self):
        ds, _ = tiny_corpus()
        w = tpe.tpe_train(ds, repeats=1, iterations=0)
        assert tpe.tpe_apply(w, ds).dim == 128

    def test_single_row_dot_products(self):
        ds, _ = tiny_corpus()
        rng = np.random.default_rng(1)
        w = rng.normal(size=(ds.dim, 128))
        one = ds.subset([5])
        out = tpe.tpe_apply(w, one)
        assert np.allclose(out.vectors[0], ds.vectors[5] @ w, atol=1e-12)

    def test_labels_preserved(self):
        ds, _ = tiny_corpus()
        out = tpe.tpe_apply(np.eye(ds.dim, 128), ds)
        assert np.array_equal(out.identities, ds.identities)
        assert np.array_equal(out.attributes, ds.attributes)

    def test_dim_mismatch(self):
        ds, _ = tiny_corpus()
        with pytest.raises(DimensionError):
            tpe.tpe_apply(np.eye(ds.dim + 2, 128), ds)


class TestPcaWarmStart:
    def test_init_preserves_cosines_when_dim_small(self):
        ds, _ = tiny_corpus(dim=12)
        w = tpe.init_matrix(ds, 0, tpe.principal_axes(ds))
        a, b = ds.vectors[0], ds.vectors[1]
        ea, eb = a @ w, b @ w
        cos_before = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        cos_after = ea @ eb / (np.linalg.norm(ea) * np.linalg.norm(eb))
        assert cos_after == pytest.approx(cos_before, abs=1e-3)


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        ds, _ = tiny_corpus()
        w = tpe.tpe_train(ds, repeats=1, iterations=3, seed=8)
        path = tmp_path / "embed.tpe"
        tpe.save_tpe(w, path)
        assert np.array_equal(tpe.load_tpe(path), w)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tpe"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(DataFormatError):
            tpe.load_tpe(path)

    def test_truncated(self, tmp_path):
        ds, _ = tiny_corpus()
        w = tpe.tpe_train(ds, repeats=1, iterations=0)
        path = tmp_path / "t.tpe"
        tpe.save_tpe(w, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataFormatError) as err:
            tpe.load_tpe(path)
        assert err.value.code == "truncated"

    def test_nonfinite_payload_rejected(self, tmp_path):
        ds, _ = tiny_corpus()
        path = tmp_path / "n.tpe"
        tpe.save_tpe(tpe.tpe_train(ds, repeats=1, iterations=0), path)
        blob = bytearray(path.read_bytes())
        blob[12:20] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError) as err:
            tpe.load_tpe(path)
        assert err.value.code == "nonfinite"
