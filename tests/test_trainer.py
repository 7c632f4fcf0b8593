import copy
import math
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from agenda import dataio, linalg, losses, nets, trainer
from agenda.errors import NumericError, ValidationError
from conftest import peak_rss_mib, stage_sequence, tiny_config, tiny_corpus


def snapshot(params):
    return {name: arr.copy() for name, arr in nets.param_items(params)}


def identical(snap, params):
    return all(np.array_equal(snap[name], arr) for name, arr in nets.param_items(params))


class TestBalancedBatches:
    def make(self, n_male, n_female, dim=3):
        n = n_male + n_female
        return dataio.DescriptorDataset(
            identities=np.arange(n, dtype=np.uint64),
            attributes=np.array([1] * n_male + [0] * n_female, dtype=np.uint8),
            vectors=np.zeros((n, dim)),
        )

    def test_exact_balance(self):
        ds = self.make(10, 10)
        stream = trainer.balanced_batches(ds.attributes, 4, np.random.SeedSequence(0))
        batches = [next(stream) for _ in range(5)]
        seen = np.concatenate(batches)
        for b in batches:
            assert (ds.attributes[b] == 1).sum() == 2
            assert (ds.attributes[b] == 0).sum() == 2
        # first epoch covers each record exactly once (both classes size 10)
        assert sorted(seen.tolist()) == list(range(20))

    def test_minority_resampled(self):
        ds = self.make(100, 10)
        stream = trainer.balanced_batches(ds.attributes, 20, np.random.SeedSequence(0))
        batches = [next(stream) for _ in range(10)]
        female_draws = []
        male_draws = []
        for b in batches:
            assert (ds.attributes[b] == 1).sum() == 10
            assert (ds.attributes[b] == 0).sum() == 10
            female_draws += [i for i in b if ds.attributes[i] == 0]
            male_draws += [i for i in b if ds.attributes[i] == 1]
        # every male appears exactly once in the epoch; females repeat
        assert sorted(male_draws) == list(range(100))
        assert len(set(female_draws)) <= 10 and len(female_draws) == 100

    def test_deterministic_replay(self):
        ds = self.make(9, 7)

        def stream():
            return trainer.balanced_batches(ds.attributes, 4, np.random.SeedSequence(5))

        a = [next(stream()) for _ in range(12)]
        b_stream = stream()
        b = [next(b_stream) for _ in range(12)]
        for x, y in zip(a[:1], b[:1]):
            assert np.array_equal(x, y)
        # same seed, one shared stream: full sequence matches a fresh stream
        c = [next(stream()) for _ in range(1)]
        assert np.array_equal(a[0], c[0])
        stream1 = stream()
        stream2 = stream()
        for _ in range(12):
            assert np.array_equal(next(stream1), next(stream2))

    def test_single_class_rejected(self):
        ds = self.make(5, 0)
        with pytest.raises(ValidationError):
            next(trainer.balanced_batches(ds.attributes, 4, np.random.SeedSequence(0)))

    def test_odd_batch_rejected(self):
        ds = self.make(4, 4)
        with pytest.raises(ValidationError):
            next(trainer.balanced_batches(ds.attributes, 3, np.random.SeedSequence(0)))


class TestConfig:
    def test_t_ep_defaults_to_k(self):
        cfg = trainer.TrainConfig(k=7)
        assert cfg.t_ep == 7
        cfg = trainer.TrainConfig(k=7, t_ep=2)
        assert cfg.t_ep == 2

    def test_validation(self):
        with pytest.raises(ValidationError):
            trainer.TrainConfig(batch_size=15).validate()
        with pytest.raises(ValidationError):
            trainer.TrainConfig(g_thresh=0.4).validate()
        with pytest.raises(ValidationError):
            trainer.TrainConfig(t_fc=0).validate()
        with pytest.raises(ValidationError):
            trainer.TrainConfig(lam=-1).validate()
        trainer.TrainConfig().validate()

    def test_nan_lam_rejected(self):
        with pytest.raises(ValidationError, match="lam"):
            trainer.TrainConfig(lam=float("nan")).validate()

    def test_non_finite_config_value_rejected_at_load(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("alpha3=inf\n")
        with pytest.raises(ValidationError, match="alpha3"):
            dataio.read_config(path, trainer.TrainConfig)

    def test_file_round_trip(self, tmp_path):
        cfg = tiny_config(lam=2.5, k=3)
        path = tmp_path / "train.cfg"
        path.write_text(
            "".join("%s=%s\n" % (k, v) for k, v in cfg.to_kv()) + "# comment\n"
        )
        again = dataio.read_config(path, trainer.TrainConfig)
        assert again == cfg


class TestTrainLoop:
    def test_deterministic_checkpoints_and_logs(self):
        ds, _ = tiny_corpus()
        cfg = tiny_config()
        g1, c1, e1, log1 = trainer.train(ds, cfg)
        g2, c2, e2, log2 = trainer.train(ds, cfg)
        assert identical(snapshot(g1), g2)
        assert identical(snapshot(c1), c2)
        for m1, m2 in zip(e1.members, e2.members):
            assert identical(snapshot(m1), m2)
        assert stage_sequence(log1) == stage_sequence(log2)
        assert [r.l_br for r in log1.records] == [r.l_br for r in log2.records]

    def test_frozen_parameters_per_stage(self):
        ds, _ = tiny_corpus()
        cfg = tiny_config(n_ep=3, k=2)
        snaps = {}
        violations = []

        def hook(event, episode, stage, gen, cls, ensemble):
            key = (episode, stage)
            state = (
                snapshot(gen), snapshot(cls),
                [snapshot(m) for m in ensemble.members],
            )
            if event == "start":
                snaps[key] = state
                return
            gen0, cls0, members0 = snaps[key]
            if stage == 3:
                for before, member in zip(members0, ensemble.members):
                    if not identical(before, member):
                        violations.append(("ensemble moved in stage 3", key))
            if stage == 4:
                if not identical(gen0, gen):
                    violations.append(("generator moved in stage 4", key))
                if not identical(cls0, cls):
                    violations.append(("classifier moved in stage 4", key))
            if stage == 2:
                if not identical(gen0, gen) or not identical(cls0, cls):
                    violations.append(("generator/classifier moved in stage 2", key))

        trainer.train(ds, cfg, stage_hook=hook)
        assert violations == []

    def test_hook_sees_one_ensemble_object(self):
        # stage 2 refills the ensemble in place, so a kept reference follows
        # every later update and ends equal to the returned ensemble
        ds, _ = tiny_corpus()
        cfg = tiny_config(n_ep=3, k=2, t_ep=2)
        seen = []
        trainer.train(ds, cfg, stage_hook=lambda event, ep, st, g, c, e: seen.append(e))
        _, _, ensemble, _ = trainer.train(ds, cfg)
        assert all(e is seen[0] for e in seen)
        assert len(seen[0].members) == 2
        assert identical(snapshot(seen[0].members[1]), ensemble.members[1])

    def test_stage4_member_is_episode_mod_k(self):
        ds, _ = tiny_corpus()
        cfg = tiny_config(n_ep=5, k=3)
        _, _, _, log = trainer.train(ds, cfg)
        for r in log.records:
            if r.stage == 4:
                assert r.member_k == r.episode % 3

    def test_lambda_zero_matches_plain_classifier(self):
        ds, _ = tiny_corpus()
        cfg = tiny_config(lam=0.0, k=1, n_ep=1, t_fc=30, t_deb=12)
        gen, cls, _, _ = trainer.train(ds, cfg)

        # independent plain training loop: same split, init, batches, Adam
        train_idx, _ = dataio.split_by_identity(
            ds, cfg.validation_fraction,
            np.random.SeedSequence(cfg.seed, spawn_key=(trainer.NS_SPLIT,)),
        )
        tds = ds.subset(train_idx)
        class_ids = np.unique(tds.identities)
        y_all = np.searchsorted(class_ids, tds.identities)
        ss_gen, ss_cls = np.random.SeedSequence(
            cfg.seed, spawn_key=(trainer.NS_INIT_MC,)
        ).spawn(2)
        gen2 = nets.init_generator(tds.dim, ss_gen)
        cls2 = nets.init_classifier(len(class_ids), ss_cls)
        for stage, steps, lr in ((1, cfg.t_fc, cfg.alpha1), (3, cfg.t_deb, cfg.alpha3)):
            adam_g = nets.AdamState(lr=lr)
            adam_c = nets.AdamState(lr=lr)
            stream = trainer.balanced_batches(
                tds.attributes, cfg.batch_size,
                np.random.SeedSequence(cfg.seed, spawn_key=(trainer.NS_BATCHES, 0, stage)),
            )
            for _ in range(steps):
                idx = next(stream)
                x, y = tds.vectors[idx], y_all[idx]
                f, gcache = nets.generator_forward(gen2, x)
                probs, ccache = nets.classifier_forward(cls2, f)
                cgrads, d_f = nets.classifier_backward(
                    cls2, ccache, losses.l_class_grad(probs, y)
                )
                ggrads = nets.generator_backward(gen2, gcache, d_f)
                nets.adam_step(adam_g, gen2, ggrads)
                nets.adam_step(adam_c, cls2, cgrads)
        assert identical(snapshot(gen), gen2)
        assert identical(snapshot(cls), cls2)

    def test_early_stop_on_g_thresh(self):
        # a plateau threshold of 0.51 stops stage 4 as soon as the member
        # beats chance on the validation split
        ds, _ = tiny_corpus(n_identities=16, samples=10)
        cfg = tiny_config(n_ep=1, g_thresh=0.51, t_plat=200, t_gtrain=60)
        _, _, _, log = trainer.train(ds, cfg)
        s4 = [r for r in log.records if r.stage == 4]
        assert len(s4) < 200
        assert s4[-1].val_acc > 0.51

    def test_rejects_single_attribute_dataset(self):
        rng = np.random.default_rng(0)
        ds = dataio.DescriptorDataset(
            identities=np.repeat(np.arange(4, dtype=np.uint64), 5),
            attributes=np.ones(20, dtype=np.uint8),
            vectors=rng.normal(size=(20, 6)),
        )
        with pytest.raises(ValidationError):
            trainer.train(ds, tiny_config())

    @pytest.mark.parametrize("n_ids, message", [
        (1, "need at least 2 identities"),
        # the validation split takes one of the two identities
        (2, "training needs 2 or more identities"),
    ])
    def test_rejects_a_corpus_without_two_training_identities(self, n_ids, message):
        rng = np.random.default_rng(0)
        ds = dataio.DescriptorDataset(
            identities=np.repeat(np.arange(n_ids, dtype=np.uint64), 10),
            attributes=np.tile([0, 1], 5 * n_ids).astype(np.uint8),
            vectors=rng.normal(size=(10 * n_ids, 6)),
        )
        with pytest.raises(ValidationError, match=message):
            trainer.train(ds, tiny_config())

    def test_nonfinite_abort_has_context(self, monkeypatch):
        ds, _ = tiny_corpus()
        real = losses.l_class

        def poisoned(probs, y_id):
            real(probs, y_id)
            return float("nan")

        monkeypatch.setattr(trainer.losses, "l_class", poisoned)
        with pytest.raises(NumericError, match="stage 1, episode 0, iteration 0"):
            trainer.train(ds, tiny_config())


def _train_on(monkeypatch, workers, ds, cfg):
    """``trainer.train`` with the worker count forced to ``workers``."""
    monkeypatch.setattr(trainer, "thread_plan", lambda k: workers)
    return trainer.train(ds, cfg)


class TestWorkerCounts:
    """The threads split the work, never the arithmetic: the same bytes
    and the same errors at any worker count."""

    def test_same_bytes_at_one_two_and_k_workers(self, monkeypatch):
        # k = 3 workers is more than two cores; a short switch interval
        # interleaves the threads finely, so a lost or crossed update shows
        ds, _ = tiny_corpus()
        cfg = tiny_config(k=3, n_ep=4, t_ep=2)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, cfg.k):
                gen, cls, ensemble, log = _train_on(monkeypatch, workers, ds, cfg)
                assert log.workers == workers
                runs.append(([p.flat.tobytes() for p in (gen, cls, ensemble)],
                             list(log.rows())))
        finally:
            sys.setswitchinterval(interval)
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_one_member_on_two_workers(self, monkeypatch):
        # k = 1 gets a second worker for stages 1 and 3; stage 2 then runs
        # one group, not an empty one
        ds, _ = tiny_corpus()
        cfg = tiny_config(k=1, n_ep=3)
        runs = []
        for workers in (1, 2):
            gen, cls, ensemble, log = _train_on(monkeypatch, workers, ds, cfg)
            assert log.workers == workers
            runs.append(([p.flat.tobytes() for p in (gen, cls, ensemble)], list(log.rows())))
        assert runs[1] == runs[0]

    def test_plan_is_one_per_core_and_at_most_k_or_two(self, monkeypatch):
        monkeypatch.setattr(trainer.linalg, "openblas_handle", lambda: (None, None))
        monkeypatch.setattr(trainer.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert [trainer.thread_plan(k) for k in (1, 2, 3, 5)] == [2, 2, 3, 4]
        monkeypatch.setattr(trainer.os, "sched_getaffinity", lambda pid: {0})
        assert [trainer.thread_plan(k) for k in (1, 5)] == [1, 1]
        monkeypatch.setattr(trainer.linalg, "openblas_handle", lambda: None)
        assert trainer.thread_plan(5) == 1

    def test_same_bytes_where_stage_1_splits(self, monkeypatch):
        # The paper's 512-d at batch 400, with 85 training identities: all
        # five stage-1 products are over the work floor, so each is cut in
        # two; with the floor above every shape, nothing is cut.
        ds, _ = tiny_corpus(n_identities=100, samples=8, dim=512)
        cfg = tiny_config(k=3, t_fc=4, t_gtrain=2, t_deb=2, t_plat=2, batch_size=400)
        real = nets._split_at
        cuts = []

        def counted(rows, work):
            cut = real(rows, work)
            cuts.append(cut)
            return cut

        monkeypatch.setattr(nets, "_split_at", counted)
        runs, splits = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers, floor in ((1, nets.SPLIT_WORK), (2, nets.SPLIT_WORK),
                                   (cfg.k, nets.SPLIT_WORK), (2, math.inf)):
                monkeypatch.setattr(nets, "SPLIT_WORK", floor)
                cuts.clear()
                gen, cls, ensemble, log = _train_on(monkeypatch, workers, ds, cfg)
                runs.append(([p.flat.tobytes() for p in (gen, cls, ensemble)],
                             list(log.rows())))
                splits.append(sum(cut is not None for cut in cuts))
        finally:
            sys.setswitchinterval(interval)
        assert splits == [5 * cfg.t_fc] * 3 + [0]
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]
        assert runs[3] == runs[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_split_stage_raises_the_same_error(self, monkeypatch):
        # alpha1 = 1e300 sends the generator past overflow at stage 1's first step
        ds, _ = tiny_corpus(n_identities=100, samples=8, dim=512)
        cfg = tiny_config(batch_size=400, alpha1=1e300)
        messages = []
        for workers in (1, 2):
            with pytest.raises(NumericError) as err:
                _train_on(monkeypatch, workers, ds, cfg)
            messages.append(str(err.value))
        assert messages == ["non-finite loss (nan) at stage 1, episode 0, iteration 1"] * 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_stack_raises_the_same_error(self, monkeypatch):
        # alpha2 = 1e300 sends every member to NaN at stage 2, iteration 1
        ds, _ = tiny_corpus()
        cfg = tiny_config(k=3, alpha2=1e300)
        messages = []
        for workers in (1, 2):
            with pytest.raises(NumericError) as err:
                _train_on(monkeypatch, workers, ds, cfg)
            messages.append(str(err.value))
        assert messages == ["non-finite loss (nan) at stage 2, episode 0, iteration 1"] * 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_diverging_member_fails_the_stack(self, monkeypatch):
        # only the last member is poisoned; on two workers it is alone in
        # the second group, while the first group trains through
        real = nets.init_ensemble

        def poisoned(k, seed):
            ensemble = real(k, seed)
            ensemble.b2[k - 1] = np.nan
            return ensemble

        monkeypatch.setattr(trainer.nets, "init_ensemble", poisoned)
        ds, _ = tiny_corpus()
        messages = []
        for workers in (1, 2):
            with pytest.raises(NumericError) as err:
                _train_on(monkeypatch, workers, ds, tiny_config(k=3))
            messages.append(str(err.value))
        assert messages == ["non-finite loss (nan) at stage 2, episode 0, iteration 0"] * 2

    def test_interrupt_stops_the_other_groups(self, monkeypatch):
        # an exception on this thread (Ctrl-C, say) in stage 2 ends the
        # other group within a step, not after all t_gtrain steps
        real = trainer._discriminator_step
        worker_steps = []

        def step(*args):
            if threading.current_thread() is threading.main_thread():
                raise RuntimeError("interrupted")
            worker_steps.append(1)
            time.sleep(0.001)
            return real(*args)

        monkeypatch.setattr(trainer, "_discriminator_step", step)
        ds, _ = tiny_corpus()
        with pytest.raises(RuntimeError, match="interrupted"):
            _train_on(monkeypatch, 2, ds, tiny_config(t_gtrain=20000))
        assert len(worker_steps) < 1000

    def test_stack_failure_order(self):
        # the whole stack's step checks the loss of every member first,
        # then names the first non-finite gradient block in field order
        def failure(block=None):
            exc = NumericError(block or "loss")
            if block:
                exc.block = block
            return exc

        loss, w1, b1 = failure(), failure("w1"), failure("b1")
        assert trainer._stack_failure([(5, w1), (3, b1)]) is b1
        assert trainer._stack_failure([(3, w1), (3, loss)]) is loss
        assert trainer._stack_failure([(3, b1), (3, w1)]) is w1

    def test_blas_thread_count_restored(self):
        if linalg.openblas_handle() is None:
            pytest.skip("numpy has no bundled OpenBLAS with a thread-count call")
        get_threads, set_threads = linalg.openblas_handle()
        before = get_threads()
        set_threads(2)
        seen = []
        try:
            ds, _ = tiny_corpus()
            trainer.train(ds, tiny_config(n_ep=1),
                          stage_hook=lambda *args: seen.append(get_threads()))
            assert seen and set(seen) == {1}
            assert get_threads() == 2
        finally:
            set_threads(before)


class TestTransform:
    def test_deterministic_and_256d(self):
        ds, _ = tiny_corpus()
        gen = nets.init_generator(ds.dim, seed=0)
        out1 = trainer.transform(gen, ds)
        out2 = trainer.transform(gen, copy.deepcopy(ds))
        assert np.array_equal(out1.vectors, out2.vectors)
        assert out1.dim == 256
        assert np.array_equal(out1.identities, ds.identities)
        assert np.array_equal(out1.attributes, ds.attributes)

    def test_single_row_matches_forward(self):
        ds, _ = tiny_corpus()
        gen = nets.init_generator(ds.dim, seed=1)
        single = ds.subset([3])
        out = trainer.transform(gen, single)
        direct, _ = nets.generator_forward(gen, ds.vectors[3:4])
        assert np.array_equal(out.vectors, direct)

    def test_dim_mismatch(self):
        ds, _ = tiny_corpus()
        gen = nets.init_generator(ds.dim + 1, seed=0)
        with pytest.raises(ValidationError):
            trainer.transform(gen, ds)


class TestFrozenGeneratorPass:
    def test_gathered_rows_equal_a_per_batch_forward(self, monkeypatch):
        ds, _ = tiny_corpus(n_identities=30, samples=10)
        gen = nets.init_generator(ds.dim, seed=2)
        monkeypatch.setattr(trainer, "GENERATOR_CHUNK", 7)
        full = trainer._generate(gen, ds.vectors)
        rng = np.random.default_rng(0)
        for _ in range(5):
            idx = rng.integers(0, ds.n, 16)
            direct, _ = nets.generator_forward(gen, ds.vectors[idx])
            assert np.array_equal(full[idx], direct)

    def test_gathered_rows_equal_a_pass_over_their_copy(self, monkeypatch):
        # the split passes gather each chunk's rows from the corpus; the
        # bytes are those of one pass over a copy of the split
        ds, _ = tiny_corpus(n_identities=110, samples=10, dim=64)
        gen = nets.init_generator(ds.dim, seed=4)
        rows = np.random.default_rng(1).permutation(ds.n)[: ds.n - 3]
        assert len(rows) > trainer.GENERATOR_CHUNK
        for chunk in (1, 7, trainer.GENERATOR_CHUNK, len(rows) + 1):
            monkeypatch.setattr(trainer, "GENERATOR_CHUNK", chunk)
            gathered = trainer._generate(gen, ds.vectors, rows)
            copied = trainer._generate(gen, ds.vectors[rows])
            assert gathered.tobytes() == copied.tobytes(), chunk

    def test_train_leaves_the_corpus_unchanged(self):
        ds, _ = tiny_corpus()
        before = copy.deepcopy(ds)
        trainer.train(ds, tiny_config())
        for name in ("identities", "attributes", "vectors"):
            assert getattr(ds, name).tobytes() == getattr(before, name).tobytes(), name

    def test_one_pass_per_generator_state(self, monkeypatch):
        # k=2, t_ep=2, three episodes: the split passes are after stage 1,
        # after each stage 3, and episode 1's stage 4 pass also feeds
        # episode 2's stage 2, so four passes (plus one validation pass per
        # stage 4), not five.
        ds, _ = tiny_corpus()
        cfg = tiny_config(n_ep=3, k=2, g_thresh=1.0)
        train_idx, val_idx = dataio.split_by_identity(
            ds, cfg.validation_fraction,
            np.random.SeedSequence(cfg.seed, spawn_key=(trainer.NS_SPLIT,)),
        )
        stage = [None]
        rows = []
        real = nets.generator_forward

        def counted(params, x, **kw):
            if stage[0] in (2, 4):
                rows.append(len(x))
            return real(params, x, **kw)

        def hook(event, episode, number, *_):
            stage[0] = number if event == "start" else None

        monkeypatch.setattr(nets, "generator_forward", counted)
        trainer.train(ds, cfg, stage_hook=hook)
        assert sum(rows) == 4 * len(train_idx) + 3 * len(val_idx)

    def test_no_frozen_pass_outlives_its_stage(self, monkeypatch):
        # Stage 3 moves the generator, so at each of its steps every earlier
        # frozen-generator output (the training-split pass and each stage 4's
        # validation pass) must already be freed, not kept by the loop.
        ds, _ = tiny_corpus()
        cfg = tiny_config(n_ep=4, k=2, g_thresh=1.0)
        outputs, alive = [], []
        generate, class_step = trainer._generate, trainer._class_step

        def recorded(*args):
            out = generate(*args)
            outputs.append(weakref.ref(out))
            return out

        def step(*args, **kw):
            if kw.get("ensemble") is not None:
                alive.append(sum(ref() is not None for ref in outputs))
            return class_step(*args, **kw)

        monkeypatch.setattr(trainer, "_generate", recorded)
        monkeypatch.setattr(trainer, "_class_step", step)
        trainer.train(ds, cfg)
        assert len(outputs) >= 8 and len(alive) == cfg.n_ep * cfg.t_deb
        assert set(alive) == {0}


def _512d_train_peak(corpus_512d, tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("k=5\nt_fc=20\nt_gtrain=10\nt_deb=5\nt_plat=5\nn_ep=2\nbatch_size=400\n")
    return peak_rss_mib("train", "--data", corpus_512d, "--config", cfg,
                        "--out", tmp_path / "m.agnd", "--seed", 3)


def test_512d_train_peak_rss_is_bounded(corpus_512d, tmp_path):
    # The paper's shapes on a short schedule. With the splits as index
    # arrays into the one corpus and each stage's buffers freed when it
    # ends, the peak was about 135 MiB with the corpus held as float64;
    # copying the training and validation splits beside it took 167 MiB.
    peak_mib = _512d_train_peak(corpus_512d, tmp_path)
    assert peak_mib < 155, peak_mib


def test_512d_train_holds_the_corpus_as_float32(corpus_512d, tmp_path):
    # The same run with the corpus kept float32 and widened per batch and
    # per chunk: VmHWM 117.4 MiB, against 134.9-135.0 with a float64 copy.
    peak_mib = _512d_train_peak(corpus_512d, tmp_path)
    assert peak_mib < 125, peak_mib
