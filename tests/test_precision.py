"""The precision contract: a corpus read from a file stays float32 in memory,
and every consumer widens what it reads, so a float32 dataset and its
float64 widening give the same bytes everywhere."""

import functools

import numpy as np
import pytest

from agenda import corrpca, dataio, linalg, probe, synthgen, tpe, trainer, verification
from conftest import tiny_config, tiny_corpus


def _pair(ds):
    """``ds`` narrowed to float32, and that narrowing widened back to float64."""
    narrow = dataio.DescriptorDataset(ds.identities, ds.attributes,
                                      ds.vectors.astype(np.float32))
    wide = dataio.DescriptorDataset(ds.identities, ds.attributes,
                                    narrow.vectors.astype(np.float64))
    assert narrow.vectors.dtype == np.float32 and wide.vectors.dtype == np.float64
    return narrow, wide


@pytest.fixture(scope="module")
def corpus():
    return _pair(tiny_corpus(n_identities=30, samples=6, dim=16)[0])


def _same_bytes(a, b):
    for x, y in zip(a, b, strict=True):
        assert np.asarray(x).dtype == np.asarray(y).dtype
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


def _each(corpus, fn):
    """``fn`` of the float32 dataset and of its widening, as tuples."""
    return [tuple(np.atleast_1d(value) for value in fn(ds)) for ds in corpus]


def test_reader_keeps_the_file_precision(tmp_path):
    ds, _ = synthgen.generate(synthgen.SynthSpec(n_identities=20, samples_per_identity=4,
                                                 dim=24, seed=5))
    path = tmp_path / "c.fds"
    dataio.write_dataset(ds, path)
    read = dataio.read_dataset(path)
    assert read.vectors.dtype == np.float32
    assert read.vectors.flags.c_contiguous
    assert read.subset(np.arange(5)).vectors.dtype == np.float32
    dataio.write_dataset(read, tmp_path / "again.fds")
    assert (tmp_path / "again.fds").read_bytes() == path.read_bytes()


def test_a_computed_corpus_is_float64():
    ds = dataio.DescriptorDataset([1, 2], [0, 1], [[1, 2], [3, 4]])
    assert ds.vectors.dtype == np.float64


def test_probe(corpus):
    def run(ds):
        model = probe.probe_train(ds)
        report = probe.probe_eval(model, ds)
        return model.weight, model.bias, report.overall_accuracy, report.males_misclassified

    _same_bytes(*_each(corpus, run))


def test_scores_and_evaluate(corpus):
    protocol = verification.make_pairs(corpus[1], seed=2)

    def run(ds):
        scores, zero = verification.score_pairs(ds, protocol)
        report = verification.evaluate(ds, protocol, (0.01, 0.1))
        tprs = [point.tpr for group in (0, 1) for point in report.per_group[group]]
        return scores, zero, tprs, report.bias

    _same_bytes(*_each(corpus, run))


def test_covariance(corpus):
    _same_bytes(*_each(corpus, lambda ds: linalg.covariance(ds.vectors)))


def test_corrpca(corpus):
    def run(ds):
        sub = corrpca.fit(ds)
        return (sub.mean, sub.retained_vectors, sub.eigenvalues, sub.correlations,
                corrpca.project(sub, ds).vectors)

    _same_bytes(*_each(corpus, run))


def test_tpe(corpus):
    def run(ds):
        axes = tpe.principal_axes(ds)
        w = tpe.tpe_train_single(ds, axes, 20, tpe.DEFAULT_RATE, tpe.DEFAULT_BATCH,
                                 np.random.SeedSequence(3, spawn_key=(0,)))
        return axes.eigenvalues, axes.eigenvectors, w, tpe.tpe_apply(w, ds).vectors

    _same_bytes(*_each(corpus, run))


def test_train_and_transform(corpus):
    def run(ds):
        gen, cls, ensemble, log = trainer.train(ds, tiny_config())
        return (gen.flat, cls.flat, ensemble.flat, list(log.rows()),
                trainer.transform(gen, ds).vectors)

    _same_bytes(*_each(corpus, run))


def test_one_sweep_row(corpus):
    fits = [("corrpca", lambda fit_set: functools.partial(corrpca.project,
                                                          corrpca.fit(fit_set)))]
    _same_bytes(*_each(corpus, lambda ds: verification.ablation_sweep(ds, fits, 0.1, seed=4)[0]))
