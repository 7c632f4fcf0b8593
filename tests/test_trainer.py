import copy
import dataclasses

import numpy as np
import pytest

from agenda import dataio, losses, nets, trainer
from agenda.errors import NumericError, ValidationError
from conftest import tiny_config, tiny_corpus


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
        stream = trainer.balanced_batches(ds, 4, 0)
        batches = [next(stream) for _ in range(5)]
        seen = np.concatenate(batches)
        for b in batches:
            assert (ds.attributes[b] == 1).sum() == 2
            assert (ds.attributes[b] == 0).sum() == 2
        # first epoch covers each record exactly once (both classes size 10)
        assert sorted(seen.tolist()) == list(range(20))

    def test_minority_resampled(self):
        ds = self.make(100, 10)
        stream = trainer.balanced_batches(ds, 20, 0)
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
        a = [next(trainer.balanced_batches(ds, 4, 5)) for _ in range(12)]
        b_stream = trainer.balanced_batches(ds, 4, 5)
        b = [next(b_stream) for _ in range(12)]
        for x, y in zip(a[:1], b[:1]):
            assert np.array_equal(x, y)
        # same seed, one shared stream: full sequence matches a fresh stream
        c = [next(trainer.balanced_batches(ds, 4, 5)) for _ in range(1)]
        assert np.array_equal(a[0], c[0])
        stream1 = trainer.balanced_batches(ds, 4, 5)
        stream2 = trainer.balanced_batches(ds, 4, 5)
        for _ in range(12):
            assert np.array_equal(next(stream1), next(stream2))

    def test_single_class_rejected(self):
        ds = self.make(5, 0)
        with pytest.raises(ValidationError):
            next(trainer.balanced_batches(ds, 4, 0))

    def test_odd_batch_rejected(self):
        ds = self.make(4, 4)
        with pytest.raises(ValidationError):
            next(trainer.balanced_batches(ds, 3, 0))


class TestConfig:
    def test_t_ep_defaults_to_k(self):
        cfg = trainer.TrainConfig(k=7)
        assert cfg.resolved_t_ep() == 7
        cfg = trainer.TrainConfig(k=7, t_ep=2)
        assert cfg.resolved_t_ep() == 2

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

    def test_file_round_trip(self, tmp_path):
        cfg = tiny_config(lam=2.5, k=3)
        path = tmp_path / "train.cfg"
        path.write_text(
            "".join("%s=%s\n" % (k, v) for k, v in cfg.to_kv()) + "# comment\n"
        )
        again = trainer.TrainConfig.from_file(path)
        assert again == dataclasses.replace(cfg, t_ep=cfg.resolved_t_ep())


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
        assert log1.stage_sequence() == log2.stage_sequence()
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
                tds, cfg.batch_size,
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
                ggrads, _ = nets.generator_backward(gen2, gcache, d_f)
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

    def test_nonfinite_abort_has_context(self, monkeypatch):
        ds, _ = tiny_corpus()
        real = losses.l_class

        def poisoned(probs, y_id):
            out = real(probs, y_id)
            out.value = float("nan")
            return out

        monkeypatch.setattr(trainer.losses, "l_class", poisoned)
        with pytest.raises(NumericError, match="stage 1, episode 0, iteration 0"):
            trainer.train(ds, tiny_config())


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
    def test_gathered_rows_equal_a_per_batch_forward(self):
        ds, _ = tiny_corpus(n_identities=30, samples=10)
        gen = nets.init_generator(ds.dim, seed=2)
        full = trainer._generate(gen, ds.vectors, chunk=7)
        rng = np.random.default_rng(0)
        for _ in range(5):
            idx = rng.integers(0, ds.n, 16)
            direct, _ = nets.generator_forward(gen, ds.vectors[idx])
            assert np.array_equal(full[idx], direct)

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

        def counted(params, x):
            if stage[0] in (2, 4):
                rows.append(len(x))
            return real(params, x)

        def hook(event, episode, number, *_):
            stage[0] = number if event == "start" else None

        monkeypatch.setattr(nets, "generator_forward", counted)
        trainer.train(ds, cfg, stage_hook=hook)
        assert sum(rows) == 4 * len(train_idx) + 3 * len(val_idx)
