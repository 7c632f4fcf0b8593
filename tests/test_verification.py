
import numpy as np
import pytest

from agenda import dataio, verification
from agenda.errors import DataFormatError, DimensionError, ValidationError
from conftest import peak_rss_mib, run_cli, tiny_corpus


def write_pairs_csv(protocol, path):
    rows = zip(protocol.index_a, protocol.index_b, protocol.genuine.astype(int))
    dataio.write_csv_report(path, (), ("index_a", "index_b", "genuine"), rows)


def two_group_dataset(rng, n_ids=8, samples=4, dim=6):
    n = n_ids * samples
    return dataio.DescriptorDataset(
        identities=np.repeat(np.arange(n_ids, dtype=np.uint64), samples),
        attributes=np.repeat((np.arange(n_ids) % 2).astype(np.uint8), samples),
        vectors=rng.normal(size=(n, dim)) + 0.1,
    )


def brute_force_operating_point(genuine, impostor, target):
    """Exhaustive rule evaluation over every distinct score as threshold."""
    m = len(impostor)
    candidates = np.unique(np.concatenate([genuine, impostor]))  # ascending
    imp_sorted = np.sort(impostor)
    for threshold in candidates:
        above = m - np.searchsorted(imp_sorted, threshold, side="right")
        if above / m <= target:
            tpr = float(np.mean(genuine > threshold))
            return float(threshold), tpr
    raise AssertionError("no admissible threshold; impossible for target < 1")


class TestScorePairs:
    def test_identical_and_orthogonal(self):
        ds = dataio.DescriptorDataset(
            np.array([1, 1, 2, 2], dtype=np.uint64),
            np.array([1, 1, 1, 1], dtype=np.uint8),
            np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]),
        )
        protocol = verification.PairProtocol(
            np.array([0, 0]), np.array([1, 2]),
            np.array([True, False]), np.array([1, 1], dtype=np.uint8),
        )
        scores, zero_count = verification.score_pairs(ds, protocol)
        assert scores[0] == pytest.approx(1.0)
        assert scores[1] == pytest.approx(0.0, abs=1e-12)
        assert zero_count == 0

    def test_matches_per_pair_loop(self):
        rng = np.random.default_rng(0)
        ds = two_group_dataset(rng, n_ids=10, samples=5, dim=7)
        protocol = verification.make_pairs(ds, impostor_ratio=1.5, seed=1)
        scores, _ = verification.score_pairs(ds, protocol)
        for i in rng.choice(protocol.n, size=50, replace=False):
            a = ds.vectors[protocol.index_a[i]]
            b = ds.vectors[protocol.index_b[i]]
            want = (a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
            assert scores[i] == pytest.approx(want, abs=1e-9)

    def test_zero_norm_flagged(self):
        ds = dataio.DescriptorDataset(
            np.array([1, 1, 2], dtype=np.uint64),
            np.array([0, 0, 0], dtype=np.uint8),
            np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]),
        )
        protocol = verification.PairProtocol(
            np.array([0, 1]), np.array([1, 2]),
            np.array([True, False]), np.array([0, 0], dtype=np.uint8),
        )
        scores, zero_count = verification.score_pairs(ds, protocol)
        assert scores[0] == -1.0 and zero_count == 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        ds = two_group_dataset(rng)
        protocol = verification.make_pairs(ds, seed=2)
        scaled = dataio.DescriptorDataset(ds.identities, ds.attributes, ds.vectors * 123.0)
        s1, _ = verification.score_pairs(ds, protocol)
        s2, _ = verification.score_pairs(scaled, protocol)
        assert np.allclose(s1, s2, atol=1e-12)


class TestTprAtFpr:
    def test_perfect_separation(self):
        protocol = verification.PairProtocol(
            np.zeros(6, dtype=np.int64), np.zeros(6, dtype=np.int64),
            np.array([1, 1, 1, 0, 0, 0], dtype=bool),
            np.array([1, 1, 1, 1, 1, 1], dtype=np.uint8),
        )
        scores = np.array([0.9, 0.8, 0.7, 0.3, 0.2, 0.1])
        # duplicate for the female group so both groups exist
        protocol2 = verification.PairProtocol(
            np.zeros(12, dtype=np.int64), np.zeros(12, dtype=np.int64),
            np.tile([1, 1, 1, 0, 0, 0], 2).astype(bool),
            np.repeat([1, 0], 6).astype(np.uint8),
        )
        scores2 = np.tile(scores, 2)
        per_group, warns = verification.tpr_at_fpr(scores2, protocol2, (0.5, 0.34, 0.01))
        for group in (0, 1):
            for point in per_group[group]:
                assert point.tpr == 1.0

    def test_worked_example(self):
        protocol = verification.PairProtocol(
            np.zeros(12, dtype=np.int64), np.zeros(12, dtype=np.int64),
            np.tile([1, 1, 1, 0, 0, 0], 2).astype(bool),
            np.repeat([1, 0], 6).astype(np.uint8),
        )
        scores = np.tile([0.9, 0.8, 0.2, 0.7, 0.3, 0.1], 2)
        per_group, _ = verification.tpr_at_fpr(scores, protocol, (1 / 3,))
        point = per_group[1][0]
        assert point.threshold == pytest.approx(0.3)
        assert point.tpr == pytest.approx(2 / 3)
        assert point.achieved_fpr == pytest.approx(1 / 3)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            n_gen = int(rng.integers(2, 60))
            n_imp = int(rng.integers(2, 60))
            # ties on purpose: quantized scores
            gen = np.round(rng.normal(size=n_gen), 1)
            imp = np.round(rng.normal(size=n_imp) - 0.5, 1)
            genuine = np.r_[np.ones(n_gen, bool), np.zeros(n_imp, bool)]
            protocol = verification.PairProtocol(
                np.zeros(2 * (n_gen + n_imp), dtype=np.int64),
                np.zeros(2 * (n_gen + n_imp), dtype=np.int64),
                np.tile(genuine, 2),
                np.repeat([1, 0], n_gen + n_imp).astype(np.uint8),
            )
            scores = np.tile(np.r_[gen, imp], 2)
            # and one target exactly on a k / m step, where the rule's <= decides
            targets = np.r_[rng.uniform(0.01, 0.9, size=3), (trial % (n_imp - 1) + 1) / n_imp]
            per_group, _ = verification.tpr_at_fpr(scores, protocol, targets)
            for t_idx, target in enumerate(targets):
                want_thr, want_tpr = brute_force_operating_point(gen, imp, target)
                point = per_group[1][t_idx]
                assert point.threshold == want_thr, (trial, target)
                assert point.tpr == want_tpr

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        ds = two_group_dataset(rng)
        protocol = verification.make_pairs(ds, seed=5)
        scores, _ = verification.score_pairs(ds, protocol)
        perm = rng.permutation(protocol.n)
        shuffled = verification.PairProtocol(
            protocol.index_a[perm], protocol.index_b[perm],
            protocol.genuine[perm], protocol.group[perm],
        )
        a, _ = verification.tpr_at_fpr(scores, protocol, (0.1, 0.5))
        b, _ = verification.tpr_at_fpr(scores[perm], shuffled, (0.1, 0.5))
        for group in (0, 1):
            assert a[group] == b[group]

    def test_achieved_never_exceeds_target(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            scores = rng.normal(size=40)
            genuine = rng.random(40) < 0.5
            if genuine.all() or not genuine.any():
                continue
            protocol = verification.PairProtocol(
                np.zeros(80, dtype=np.int64), np.zeros(80, dtype=np.int64),
                np.tile(genuine, 2), np.repeat([1, 0], 40).astype(np.uint8),
            )
            targets = (0.02, 0.2, 0.77)
            per_group, _ = verification.tpr_at_fpr(np.tile(scores, 2), protocol, targets)
            for group in (0, 1):
                for point in per_group[group]:
                    assert point.achieved_fpr <= point.fpr_target
                tprs = [p.tpr for p in per_group[group]]
                assert tprs == sorted(tprs)  # TPR non-decreasing in target

    def test_coverage_warning(self):
        protocol = verification.PairProtocol(
            np.zeros(8, dtype=np.int64), np.zeros(8, dtype=np.int64),
            np.tile([1, 1, 0, 0], 2).astype(bool),
            np.repeat([1, 0], 4).astype(np.uint8),
        )
        scores = np.tile([0.9, 0.8, 0.3, 0.1], 2)
        _, warns = verification.tpr_at_fpr(scores, protocol, (1e-4,))
        assert any("below" in w for w in warns)

    def test_missing_impostors_rejected(self):
        protocol = verification.PairProtocol(
            np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64),
            np.array([1, 1, 1, 0], dtype=bool),
            np.array([1, 1, 0, 0], dtype=np.uint8),
        )
        with pytest.raises(ValidationError):
            verification.tpr_at_fpr(np.ones(4), protocol, (0.5,))


class TestBias:
    def test_reference_values(self):
        assert verification.bias(0.92, 0.90) == pytest.approx(0.02)
        assert verification.bias(0.67, 0.63) == pytest.approx(0.04)

    def test_equal_is_zero(self):
        assert verification.bias(0.5, 0.5) == 0.0

    def test_range_checked(self):
        with pytest.raises(ValidationError):
            verification.bias(1.2, 0.5)


class TestProtocol:
    def test_make_pairs_structure(self):
        rng = np.random.default_rng(9)
        ds = two_group_dataset(rng, n_ids=6, samples=3)
        protocol = verification.make_pairs(ds, impostor_ratio=2.0, seed=0)
        same_id = ds.identities[protocol.index_a] == ds.identities[protocol.index_b]
        assert np.array_equal(same_id, protocol.genuine)
        assert np.all(
            ds.attributes[protocol.index_a] == ds.attributes[protocol.index_b]
        )
        # per group: 3 ids x C(3,2)=3 genuine = 9, impostors = 18
        for group in (0, 1):
            mask = protocol.group == group
            assert (protocol.genuine & mask).sum() == 9
            assert (~protocol.genuine & mask).sum() == 18

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        ds = two_group_dataset(rng)
        protocol = verification.make_pairs(ds, seed=3)
        path = tmp_path / "pairs.csv"
        write_pairs_csv(protocol, path)
        again = verification.read_pairs_csv(path, ds)
        assert np.array_equal(protocol.index_a, again.index_a)
        assert np.array_equal(protocol.genuine, again.genuine)
        assert np.array_equal(protocol.group, again.group)

    @pytest.mark.parametrize("cell", ["7", "-1", "2"])
    def test_genuine_cell_other_than_0_or_1_rejected(self, tmp_path, cell):
        ds = two_group_dataset(np.random.default_rng(10))
        same = next(i for i in range(1, ds.n) if ds.identities[i] == ds.identities[0])
        path = tmp_path / "pairs.csv"
        path.write_text("index_a,index_b,genuine\n0,%d,%s\n" % (same, cell))
        with pytest.raises(DataFormatError) as err:
            verification.read_pairs_csv(path, ds)
        assert err.value.code == "bad_value"

    def test_cross_group_pair_rejected(self):
        rng = np.random.default_rng(12)
        ds = two_group_dataset(rng)
        bad = verification.PairProtocol(
            np.array([0]), np.array([ds.n - 1]),
            np.array([False]), np.array([1], dtype=np.uint8),
        )
        if ds.attributes[0] != ds.attributes[-1]:
            with pytest.raises(ValidationError):
                bad.validate_against(ds)

    def test_full_report_scale_invariant(self):
        rng = np.random.default_rng(14)
        ds = two_group_dataset(rng, n_ids=10, samples=4)
        protocol = verification.make_pairs(ds, seed=8)
        scaled = dataio.DescriptorDataset(ds.identities, ds.attributes, ds.vectors * 55.0)
        rep_a = verification.evaluate(ds, protocol, (0.1, 0.4))
        rep_b = verification.evaluate(scaled, protocol, (0.1, 0.4))
        assert rep_a.bias == rep_b.bias
        for group in (0, 1):
            for pa, pb in zip(rep_a.per_group[group], rep_b.per_group[group]):
                assert pa.tpr == pb.tpr


class TestBoundedScoring:
    def test_chunked_scores_equal_one_gather(self, monkeypatch):
        rng = np.random.default_rng(7)
        for dim in (9, 256):
            ds = two_group_dataset(rng, n_ids=12, samples=6, dim=dim)
            protocol = verification.make_pairs(ds, seed=3)
            unit = ds.vectors / np.linalg.norm(ds.vectors, axis=1)[:, None]
            whole = np.einsum("ij,ij->i", unit[protocol.index_a], unit[protocol.index_b])
            assert protocol.n > 256
            for chunk in (1, 7, 256, protocol.n):
                monkeypatch.setattr(verification, "SCORE_CHUNK", chunk)
                scores, _ = verification.score_pairs(ds, protocol)
                assert scores.tobytes() == whole.tobytes(), (dim, chunk)

    @pytest.fixture(scope="class")
    def corpus_256d(self, tmp_path_factory):
        # The default corpus at 256-d: 10,000 records and 735,000 pairs.
        root = tmp_path_factory.mktemp("c256")
        spec = root / "spec.txt"
        spec.write_text("dim=256\n")
        corpus = root / "c256.fds"
        code, _, err = run_cli("synth", "--spec", spec, "--out", corpus, "--seed", 3)
        assert code == 0, err
        return corpus

    def test_256d_eval_peak_rss_is_bounded(self, corpus_256d, tmp_path):
        # The two gathered 256-d pair blocks alone would take 3 GB in one
        # piece; blocks of 16,384 pairs kept the peak at 168 MiB.
        peak_mib = peak_rss_mib("eval", "--data", corpus_256d, "--fprs", "1e-3",
                                     "--report", tmp_path / "r.csv", "--seed", 3)
        assert peak_mib < 140, peak_mib

    def test_256d_probe_peak_rss_is_bounded(self, corpus_256d, tmp_path):
        # With eval at about 105 MiB, probe on the 256-d corpus shares the
        # highest peak of the quick-start steps.
        peak_mib = peak_rss_mib("probe", "--data", corpus_256d,
                                     "--report", tmp_path / "p.csv", "--seed", 3)
        assert peak_mib < 140, peak_mib
