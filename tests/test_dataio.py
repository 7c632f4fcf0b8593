import struct
from dataclasses import dataclass

import numpy as np
import pytest

from agenda import corrpca, dataio, nets, tpe, trainer
from agenda.errors import DataFormatError, DimensionError, ValidationError
from conftest import tiny_corpus


def small_dataset():
    rng = np.random.default_rng(1)
    return dataio.DescriptorDataset(
        identities=np.array([1, 1, 2, 2, 3], dtype=np.uint64),
        attributes=np.array([0, 0, 1, 1, 0], dtype=np.uint8),
        vectors=rng.normal(size=(5, 4)).astype(np.float32).astype(np.float64),
    )


def _generator(dim):
    gen = nets.init_generator(dim, seed=0)
    return lambda ds: trainer.transform(gen, ds)


def _subspace(dim):
    sub = corrpca.fit(tiny_corpus(dim=dim)[0], delta=1.0)
    return lambda ds: corrpca.project(sub, ds)


def _matrix(dim):
    w = np.eye(dim, tpe.EMBED_DIM)
    return lambda ds: tpe.tpe_apply(w, ds)


@pytest.mark.parametrize("fitted, what", [
    pytest.param(_generator, "generator", id="trainer.transform"),
    pytest.param(_subspace, "subspace", id="corrpca.project"),
    pytest.param(_matrix, "matrix", id="tpe.tpe_apply"),
])
def test_fitted_maps_remap_record_for_record(fitted, what):
    ds, _ = tiny_corpus()
    out = fitted(ds.dim)(ds)
    assert out.n == ds.n
    assert np.array_equal(out.identities, ds.identities)
    assert np.array_equal(out.attributes, ds.attributes)
    with pytest.raises(DimensionError, match="%s input dim %d" % (what, ds.dim + 1)):
        fitted(ds.dim + 1)(ds)


class TestRoundTrip:
    def test_write_read_bit_identical(self, tmp_path):
        ds = small_dataset()
        p1, p2 = tmp_path / "a.fds", tmp_path / "b.fds"
        dataio.write_dataset(ds, p1)
        again = dataio.read_dataset(p1)
        dataio.write_dataset(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(ds.identities, again.identities)
        assert np.array_equal(ds.attributes, again.attributes)
        assert np.array_equal(ds.vectors, again.vectors)

    def test_hand_built_fixture(self, tmp_path):
        # 3 records, dim 2, assembled byte by byte
        path = tmp_path / "hand.fds"
        payload = struct.pack("<4sIQI", b"FDS1", 1, 3, 2)
        for ident, attr, vec in [(7, 1, (1.5, -2.0)), (8, 0, (0.0, 3.25)), (9, 1, (-1.0, 0.5))]:
            payload += struct.pack("<QB2f", ident, attr, *vec)
        path.write_bytes(payload)
        ds = dataio.read_dataset(path)
        assert ds.identities.tolist() == [7, 8, 9]
        assert ds.attributes.tolist() == [1, 0, 1]
        assert ds.vectors.tolist() == [[1.5, -2.0], [0.0, 3.25], [-1.0, 0.5]]


class TestErrors:
    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.fds"
        dataio.write_dataset(small_dataset(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(DataFormatError) as err:
            dataio.read_dataset(path)
        assert err.value.code == "truncated"
        assert "expected" in str(err.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.fds"
        dataio.write_dataset(small_dataset(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError) as err:
            dataio.read_dataset(path)
        assert err.value.code == "bad_magic"

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.fds"
        dataio.write_dataset(small_dataset(), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError) as err:
            dataio.read_dataset(path)
        assert err.value.code == "version"

    def test_allocation_cap(self, tmp_path):
        path = tmp_path / "big.fds"
        path.write_bytes(struct.pack("<4sIQI", b"FDS1", 1, 1 << 40, 512))
        with pytest.raises(DataFormatError) as err:
            dataio.read_dataset(path)
        assert err.value.code == "too_large"

    def test_nonfinite_payload(self, tmp_path):
        path = tmp_path / "nan.fds"
        payload = struct.pack("<4sIQI", b"FDS1", 1, 1, 2)
        payload += struct.pack("<QB2f", 1, 0, float("nan"), 1.0)
        path.write_bytes(payload)
        with pytest.raises(DataFormatError) as err:
            dataio.read_dataset(path)
        assert err.value.code == "nonfinite"

    def test_bad_attribute_byte(self, tmp_path):
        path = tmp_path / "attr.fds"
        payload = struct.pack("<4sIQI", b"FDS1", 1, 1, 1)
        payload += struct.pack("<QBf", 1, 5, 1.0)
        path.write_bytes(payload)
        with pytest.raises(DataFormatError) as err:
            dataio.read_dataset(path)
        assert err.value.code == "bad_attribute"

    def test_constructor_validation(self):
        with pytest.raises(ValidationError):
            dataio.DescriptorDataset(
                np.array([1], dtype=np.uint64),
                np.array([2], dtype=np.uint8),
                np.ones((1, 3)),
            )


class TestSplit:
    def test_identity_disjoint_and_deterministic(self):
        rng = np.random.default_rng(0)
        ds = dataio.DescriptorDataset(
            identities=np.repeat(np.arange(10, dtype=np.uint64), 6),
            attributes=np.tile([0, 1], 30).astype(np.uint8),
            vectors=rng.normal(size=(60, 3)),
        )
        main, held = dataio.split_by_identity(ds, 0.2, 42)
        main2, held2 = dataio.split_by_identity(ds, 0.2, 42)
        assert np.array_equal(main, main2) and np.array_equal(held, held2)
        assert len(held) >= 0.2 * ds.n
        assert not set(ds.identities[main]) & set(ds.identities[held])
        assert sorted(np.concatenate([main, held]).tolist()) == list(range(60))

    def test_different_seed_differs(self):
        rng = np.random.default_rng(0)
        ds = dataio.DescriptorDataset(
            identities=np.repeat(np.arange(20, dtype=np.uint64), 3),
            attributes=np.tile([0, 1, 0], 20).astype(np.uint8),
            vectors=rng.normal(size=(60, 2)),
        )
        _, held_a = dataio.split_by_identity(ds, 0.3, 1)
        _, held_b = dataio.split_by_identity(ds, 0.3, 2)
        assert not np.array_equal(held_a, held_b)

    def test_bad_fraction(self):
        with pytest.raises(ValidationError):
            dataio.split_by_identity(small_dataset(), 1.5, 0)

    def test_matches_the_loop_definition_on_uneven_identities(self):
        # The sorted identities, shuffled by the seed, move to the heldout
        # side one at a time until it holds the fraction of the records.
        rng = np.random.default_rng(17)
        refused = 0
        for _ in range(200):
            sizes = rng.integers(1, 30, size=rng.integers(2, 12))
            ids = np.repeat(rng.choice(10**12, size=len(sizes), replace=False), sizes)
            rng.shuffle(ids)
            n = len(ids)
            ds = dataio.DescriptorDataset(ids, np.zeros(n, np.uint8), np.zeros((n, 1)))
            # a whole record count half the time, so a prefix can meet it exactly
            fraction = rng.integers(1, n) / n if rng.random() < 0.5 else rng.uniform(0.01, 0.95)
            seed = int(rng.integers(1000))
            unique = np.unique(ids)
            heldout, total = [], 0
            for pos in np.random.Generator(np.random.Philox(seed)).permutation(len(unique)):
                if total >= fraction * n:
                    break
                heldout.append(unique[pos])
                total += np.count_nonzero(ids == unique[pos])
            if len(heldout) == len(unique):
                refused += 1
                with pytest.raises(ValidationError, match="no identities"):
                    dataio.split_by_identity(ds, fraction, seed)
                continue
            main, held = dataio.split_by_identity(ds, fraction, seed)
            in_heldout = np.isin(ids, heldout)
            assert np.array_equal(held, np.flatnonzero(in_heldout))
            assert np.array_equal(main, np.flatnonzero(~in_heldout))
        assert 0 < refused < 100


@dataclass
class KvFields:
    alpha: float = 0.0
    n: int = 0
    name_ok: int = 0


class TestKvConfig:
    def test_parse_and_coerce(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nalpha=0.5\nn=3   # trailing\n\nname_ok=1\n")
        raw = dataio.read_kv_config(path)
        assert raw == {"alpha": "0.5", "n": "3", "name_ok": "1"}
        typed = dataio.coerce_kv(raw, KvFields)
        assert typed == {"alpha": 0.5, "n": 3, "name_ok": 1}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            dataio.coerce_kv({"bogus": "1"}, KvFields)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_float_rejected(self, raw):
        with pytest.raises(ValidationError, match="not finite"):
            dataio.coerce_kv({"alpha": raw}, KvFields)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just a line\n")
        with pytest.raises(DataFormatError):
            dataio.read_kv_config(path)
