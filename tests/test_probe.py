import numpy as np
import pytest

from agenda import dataio, probe, synthgen
from agenda.errors import ValidationError
from conftest import peak_rss_mib


def separable_2d(n=60):
    rng = np.random.default_rng(2)
    half = n // 2
    x0 = rng.normal(loc=(-3, 0), scale=0.4, size=(half, 2))
    x1 = rng.normal(loc=(3, 0), scale=0.4, size=(half, 2))
    return dataio.DescriptorDataset(
        np.arange(n, dtype=np.uint64),
        np.array([0] * half + [1] * half, dtype=np.uint8),
        np.vstack([x0, x1]),
    )


class TestProbeTrain:
    def test_separable_reaches_full_train_accuracy(self):
        ds = separable_2d()
        model = probe.probe_train(ds)
        report = probe.probe_eval(model, ds)
        assert report.overall_accuracy == 100.0

    def test_permuted_labels_near_chance(self):
        rng = np.random.default_rng(5)
        n = 2000
        ds = dataio.DescriptorDataset(
            np.arange(n, dtype=np.uint64),
            rng.permutation(np.tile([0, 1], n // 2)).astype(np.uint8),
            rng.normal(size=(n, 16)),
        )
        # identity-disjoint split is trivial here (one record per identity)
        model = probe.probe_train(ds.subset(range(0, n, 2)))
        report = probe.probe_eval(model, ds.subset(range(1, n, 2)))
        assert 45.0 <= report.overall_accuracy <= 55.0

    def test_duplicated_dataset_same_model(self):
        ds = separable_2d(30)
        doubled = dataio.DescriptorDataset(
            np.concatenate([ds.identities, ds.identities]),
            np.concatenate([ds.attributes, ds.attributes]),
            np.vstack([ds.vectors, ds.vectors]),
        )
        a = probe.probe_train(ds)
        b = probe.probe_train(doubled)
        # identical up to float summation order
        assert np.allclose(a.weight, b.weight, rtol=0, atol=1e-10)
        assert a.bias == pytest.approx(b.bias, abs=1e-10)

    def test_single_class_rejected(self):
        rng = np.random.default_rng(0)
        ds = dataio.DescriptorDataset(
            np.arange(8, dtype=np.uint64),
            np.ones(8, dtype=np.uint8),
            rng.normal(size=(8, 3)),
        )
        with pytest.raises(ValidationError):
            probe.probe_train(ds)

    def test_scale_invariant_accuracy(self):
        ds = separable_2d(40)
        scaled = dataio.DescriptorDataset(ds.identities, ds.attributes, ds.vectors * 1e3)
        acc_a = probe.probe_eval(probe.probe_train(ds), ds).overall_accuracy
        acc_b = probe.probe_eval(probe.probe_train(scaled), scaled).overall_accuracy
        assert acc_a == acc_b


class TestProbeEval:
    def test_constant_male_predictor(self):
        ds = separable_2d(40)
        model = probe.ProbeModel(weight=np.zeros(2), bias=10.0)  # always predicts 1
        report = probe.probe_eval(model, ds)
        assert report.overall_accuracy == 50.0
        assert report.females_misclassified == 100.0
        assert report.males_misclassified == 0.0

    def test_group_consistency_identity(self):
        spec = synthgen.SynthSpec(
            n_identities=30, samples_per_identity=10, dim=8,
            attribute_strength=0.15, entanglement=0.2, seed=4,
        )
        ds, _ = synthgen.generate(spec)
        fit_idx, eval_idx = dataio.split_by_identity(ds, 0.3, 9)
        model = probe.probe_train(ds.subset(fit_idx))
        report = probe.probe_eval(model, ds.subset(eval_idx), train_size=len(fit_idx))
        test = ds.subset(eval_idx)
        n_f = int((test.attributes == 0).sum())
        n_m = int((test.attributes == 1).sum())
        weighted_err = (
            report.females_misclassified * n_f + report.males_misclassified * n_m
        ) / (n_f + n_m)
        assert report.overall_accuracy == pytest.approx(100.0 - weighted_err, abs=0.01)
        assert report.train_size == len(fit_idx) and report.test_size == len(eval_idx)

    def test_empty_test_rejected(self):
        ds = separable_2d(10)
        model = probe.probe_train(ds)
        with pytest.raises(ValidationError):
            probe.probe_eval(model, ds.subset([]))


class TestLeakageMonotonicity:
    def test_probe_accuracy_nondecreasing_in_signal(self):
        accs = []
        for g in (0.0, 0.1, 0.4):
            spec = synthgen.SynthSpec(
                n_identities=60, samples_per_identity=40, dim=16,
                sigma_id=0.3, sigma_noise=0.1, attribute_strength=g,
                entanglement=0.0, seed=31,
            )
            ds, _ = synthgen.generate(spec)
            fit_idx, eval_idx = dataio.split_by_identity(ds, 0.3, 7)
            model = probe.probe_train(ds.subset(fit_idx))
            accs.append(probe.probe_eval(model, ds.subset(eval_idx)).overall_accuracy)
        for lo, hi in zip(accs, accs[1:]):
            assert hi >= lo - 2.0

    def test_attribute_free_corpus_chance_floor(self):
        # many weak-centroid identities: probe predictions then decorrelate
        # within identities, so record count governs the accuracy variance
        spec = synthgen.SynthSpec(
            n_identities=500, samples_per_identity=5, dim=16,
            sigma_id=0.15, sigma_noise=0.1, attribute_strength=0.0, seed=13,
        )
        ds, _ = synthgen.generate(spec)
        fit_idx, eval_idx = dataio.split_by_identity(ds, 0.35, 3)
        model = probe.probe_train(ds.subset(fit_idx))
        report = probe.probe_eval(model, ds.subset(eval_idx))
        assert 45.0 <= report.overall_accuracy <= 55.0


def test_512d_probe_peak_rss_is_bounded(corpus_512d, tmp_path):
    # One float64 copy per split, standardized in place, with the corpus
    # dropped once split: 116 MiB. Holding the corpus beside both splits,
    # the centred temporary and the standardized copy took 170 MiB.
    peak_mib = peak_rss_mib("probe", "--data", corpus_512d,
                            "--report", tmp_path / "p.csv", "--seed", 3)
    assert peak_mib < 135, peak_mib
