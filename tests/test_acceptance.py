"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy end-to-end criteria share the session-scoped default pipeline run
from conftest. Criteria and tolerances are pinned here; loosening them is
not an option.
"""

import dataclasses
import functools

import numpy as np
import pytest

from agenda import corrpca, dataio, losses, nets, probe, synthgen, tpe, trainer, verification
from conftest import (
    read_eval_rows,
    read_probe_accuracy,
    run_default_pipeline,
    stage_sequence,
    tiny_corpus,
)


def _report(name, detail):
    print("ACCEPTANCE PASS %s: %s" % (name, detail))


# --- criterion 1: gradient correctness --------------------------------------

def toy_stack(seed, in_dim=8, units=6, hidden=5, n_ids=4, k=3, batch=4):
    rng = np.random.default_rng(seed)
    gen = nets.GeneratorParams(
        weight=rng.normal(size=(in_dim, units)) * 0.7,
        bias=rng.normal(size=units) * 0.3,
        prelu_slope=rng.uniform(0.1, 0.6, size=units),
    )
    cls = nets.ClassifierParams(
        weight=rng.normal(size=(units, n_ids)) * 0.7, bias=rng.normal(size=n_ids) * 0.2
    )
    members = [
        nets.DiscriminatorParams(
            w1=rng.normal(size=(units, hidden)) * 0.7,
            b1=rng.normal(size=hidden) * 0.2,
            w2=rng.normal(size=(hidden, 2)) * 0.7,
            b2=rng.normal(size=2) * 0.2,
        )
        for _ in range(k)
    ]
    x = rng.normal(size=(batch, in_dim))
    y_id = rng.integers(0, n_ids, size=batch)
    y_g = rng.integers(0, 2, size=batch)
    return gen, cls, members, x, y_id, y_g


def param_blocks(containers):
    for c in containers:
        for name, arr in nets.param_items(c):
            yield ("%s.%s" % (type(c).__name__, name), arr)


def fd_check(loss_fn, analytic, containers, h=1e-5):
    """Max relative error between analytic grads and central differences."""
    worst = 0.0
    for (name, arr), (gname, grad) in zip(param_blocks(containers), analytic):
        assert name == gname, (name, gname)
        flat = arr.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_fn()
            flat[i] = orig - h
            lo = loss_fn()
            flat[i] = orig
            fd = (hi - lo) / (2 * h)
            denom = max(1.0, abs(fd), abs(gflat[i]))
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst


def grads_l_class(gen, cls, x, y_id):
    f, gc = nets.generator_forward(gen, x)
    probs, cc = nets.classifier_forward(cls, f)
    cgrads, d_f = nets.classifier_backward(cls, cc, losses.l_class_grad(probs, y_id))
    ggrads, _ = nets.generator_backward(gen, gc, d_f)
    return [ggrads, cgrads]


def grads_l_g(gen, members, x, y_g):
    f, gc = nets.generator_forward(gen, x)
    d_f_total = np.zeros_like(f)
    member_grads = []
    for m in members:
        out, dc = nets.discriminator_forward(m, f)
        mg, d_f = nets.discriminator_backward(m, dc, losses.l_g_member_grad(out, y_g))
        member_grads.append(mg)
        d_f_total += d_f
    ggrads, _ = nets.generator_backward(gen, gc, d_f_total)
    return [ggrads] + member_grads


def grads_l_deb(gen, members, x, lam=1.0):
    f, gc = nets.generator_forward(gen, x)
    outs = [nets.discriminator_forward(m, f) for m in members]
    la = [losses.l_a(o) for o, _ in outs]
    _, kstar = losses.l_deb(la)
    out_k, dc_k = outs[kstar]
    mg, d_f = nets.discriminator_backward(
        members[kstar], dc_k, lam * losses.l_a_grad(out_k)
    )
    ggrads, _ = nets.generator_backward(gen, gc, d_f)
    return ggrads, mg, kstar


class TestCriterion1Gradients:
    def test_gradient_correctness(self):
        worst_overall = 0.0

        for seed in (0, 1):
            gen, cls, members, x, y_id, y_g = toy_stack(seed)

            def loss_class():
                f, _ = nets.generator_forward(gen, x)
                probs, _ = nets.classifier_forward(cls, f)
                return losses.l_class(probs, y_id)

            analytic = grads_l_class(gen, cls, x, y_id)
            worst = fd_check(
                loss_class,
                list(param_blocks(analytic)),
                [gen, cls],
            )
            worst_overall = max(worst_overall, worst)

            def loss_g():
                f, _ = nets.generator_forward(gen, x)
                outs = [nets.discriminator_forward(m, f)[0] for m in members]
                return losses.l_g(outs, y_g)

            analytic = grads_l_g(gen, members, x, y_g)
            worst = fd_check(loss_g, list(param_blocks(analytic)), [gen] + members)
            worst_overall = max(worst_overall, worst)

            # l_a through generator and the first member
            def loss_a():
                f, _ = nets.generator_forward(gen, x)
                out, _ = nets.discriminator_forward(members[0], f)
                return losses.l_a(out)

            f, gc = nets.generator_forward(gen, x)
            out0, dc0 = nets.discriminator_forward(members[0], f)
            mg0, d_f = nets.discriminator_backward(members[0], dc0, losses.l_a_grad(out0))
            gg0, _ = nets.generator_backward(gen, gc, d_f)
            worst = fd_check(loss_a, list(param_blocks([gg0, mg0])), [gen, members[0]])
            worst_overall = max(worst_overall, worst)

            # l_deb: gradient flows through the argmax member only
            def loss_deb():
                f, _ = nets.generator_forward(gen, x)
                la = [
                    losses.l_a(nets.discriminator_forward(m, f)[0]) for m in members
                ]
                return losses.l_deb(la)[0]

            gg, mg, kstar = grads_l_deb(gen, members, x)
            worst = fd_check(
                loss_deb, list(param_blocks([gg, mg])), [gen, members[kstar]]
            )
            worst_overall = max(worst_overall, worst)

            # l_br with lam=0.7: classifier grads must equal the pure
            # l_class grads (the debias path contributes nothing to C)
            lam = 0.7

            def loss_br():
                f, _ = nets.generator_forward(gen, x)
                probs, _ = nets.classifier_forward(cls, f)
                la = [
                    losses.l_a(nets.discriminator_forward(m, f)[0]) for m in members
                ]
                ld, _ = losses.l_deb(la)
                return losses.l_br(losses.l_class(probs, y_id), ld, lam)

            gg_class, cgrads = grads_l_class(gen, cls, x, y_id)
            gg_deb, _, _ = grads_l_deb(gen, members, x, lam=lam)
            gg_br = nets.GeneratorParams(
                gg_class.weight + gg_deb.weight,
                gg_class.bias + gg_deb.bias,
                gg_class.prelu_slope + gg_deb.prelu_slope,
            )
            worst = fd_check(loss_br, list(param_blocks([gg_br, cgrads])), [gen, cls])
            worst_overall = max(worst_overall, worst)

        assert worst_overall < 1e-4
        _report("criterion 1", "max relative gradient error %.3e" % worst_overall)


# --- criterion 2: control-flow replay ----------------------------------------

def simulate_schedule(n_ep, t_ep, k, t_fc, t_gtrain, t_deb, t_plat):
    """Table-driven rendering of the training loop's control flow."""
    rows = []
    for episode in range(n_ep):
        if episode == 0:
            rows += [(episode, 1, None)] * t_fc
        if episode % t_ep == 0:
            rows += [(episode, 2, None)] * t_gtrain
        rows += [(episode, 3, "argmax")] * t_deb
        rows += [(episode, 4, episode % k)] * t_plat
    return rows


class TestCriterion2Schedule:
    def test_schedule_replay_and_freezing(self):
        ds, _ = tiny_corpus(n_identities=8, samples=4, dim=6)
        t_fc, t_gtrain, t_deb, t_plat = 3, 2, 2, 2
        checked = 0
        for n_ep in (1, 2, 3, 4):
            for t_ep in (1, 2, 3, 4):
                for k in (1, 2, 3, 4):
                    cfg = trainer.TrainConfig(
                        lam=1.0, k=k, t_fc=t_fc, t_gtrain=t_gtrain, t_deb=t_deb,
                        t_plat=t_plat, t_ep=t_ep, n_ep=n_ep, g_thresh=1.0,
                        alpha1=1e-3, alpha2=1e-3, alpha3=1e-3,
                        batch_size=8, seed=17, validation_fraction=0.15,
                    )
                    freeze_snaps = {}
                    freeze_bad = []

                    def hook(event, episode, stage, gen, cls, ensemble):
                        key = (episode, stage)
                        if event == "start":
                            freeze_snaps[key] = (
                                gen.weight.copy(), cls.weight.copy(),
                                [m.w1.copy() for m in ensemble.members],
                            )
                            return
                        gw, cw, mws = freeze_snaps[key]
                        if stage == 3 and any(
                            not np.array_equal(a, m.w1)
                            for a, m in zip(mws, ensemble.members)
                        ):
                            freeze_bad.append(key)
                        if stage == 4 and (
                            not np.array_equal(gw, gen.weight)
                            or not np.array_equal(cw, cls.weight)
                        ):
                            freeze_bad.append(key)

                    _, _, _, log = trainer.train(ds, cfg, stage_hook=hook)
                    expected = simulate_schedule(
                        n_ep, t_ep, k, t_fc, t_gtrain, t_deb, t_plat
                    )
                    got = stage_sequence(log)
                    assert len(got) == len(expected), (n_ep, t_ep, k)
                    for (ge, gs, gm), (ee, es, em) in zip(got, expected):
                        assert (ge, gs) == (ee, es), (n_ep, t_ep, k)
                        if es == 4:
                            assert gm == em, (n_ep, t_ep, k)
                    assert freeze_bad == [], (n_ep, t_ep, k)
                    checked += 1
        assert checked == 64
        _report("criterion 2", "64 (n_ep, t_ep, k) combinations replayed bit-exact")


# --- criterion 5: CorrPCA exactness ------------------------------------------

class TestCriterion5CorrPcaExactness:
    def test_planted_axis_removal_and_chance_floor(self):
        spec = synthgen.SynthSpec(
            n_identities=1000, samples_per_identity=5, dim=64,
            sigma_id=0.15, sigma_noise=0.1, attribute_strength=0.5,
            entanglement=0.0, seed=501,
        )
        ds, meta = synthgen.generate(spec)
        u = np.asarray(meta["attribute_direction"])

        # canonical protocol: fit the subspace on one identity-disjoint
        # portion, evaluate leakage on the other (fitting on the evaluation
        # records would let the removed eigenvector absorb their realized
        # noise-gender correlation and bias the probe below chance)
        fit_idx, eval_idx = dataio.split_by_identity(ds, 0.3, 7)
        fit_ds = ds.subset(fit_idx)
        sub = corrpca.fit(fit_ds, delta=0.1)
        removed_idx = np.flatnonzero(~sub.retained_flags)
        assert len(removed_idx) == 1
        # re-derive the eigenvector from the fit to check alignment
        from agenda import linalg

        cov, _ = linalg.covariance(fit_ds.vectors)
        eig = linalg.eigh(cov)
        removed_vec = eig.eigenvectors[removed_idx[0]]
        alignment = abs(float(removed_vec @ u))
        assert alignment > 0.98

        model = probe.probe_train(corrpca.project(sub, fit_ds))
        report = probe.probe_eval(model, corrpca.project(sub, ds.subset(eval_idx)))
        assert 45.0 <= report.overall_accuracy <= 55.0
        _report(
            "criterion 5",
            "planted axis removed (alignment %.4f), post-projection probe %.2f%%"
            % (alignment, report.overall_accuracy),
        )


# --- criterion 6: ROC oracle equivalence --------------------------------------

def brute_force_point(genuine, impostor, target):
    m = len(impostor)
    candidates = np.unique(np.concatenate([genuine, impostor]))
    imp_sorted = np.sort(impostor)
    for threshold in candidates:
        above = m - np.searchsorted(imp_sorted, threshold, side="right")
        if above / m <= target:
            return float(threshold), float(np.mean(genuine > threshold))
    raise AssertionError("unreachable for target < 1")


class TestCriterion6RocOracle:
    def test_exact_equivalence_on_200_protocols(self):
        rng = np.random.default_rng(606)
        for trial in range(200):
            n_gen = int(rng.integers(2, 5001))
            n_imp = int(rng.integers(2, 5001))
            if rng.random() < 0.5:
                # heavy ties: small discrete score alphabet
                gen = rng.choice(np.round(np.linspace(-1, 1, 17), 3), size=n_gen)
                imp = rng.choice(np.round(np.linspace(-1.2, 0.8, 17), 3), size=n_imp)
            else:
                gen = rng.normal(0.5, 0.4, size=n_gen)
                imp = rng.normal(-0.2, 0.5, size=n_imp)
            total = n_gen + n_imp
            protocol = verification.PairProtocol(
                np.zeros(2 * total, dtype=np.int64),
                np.zeros(2 * total, dtype=np.int64),
                np.tile(np.r_[np.ones(n_gen, bool), np.zeros(n_imp, bool)], 2),
                np.repeat([1, 0], total).astype(np.uint8),
            )
            scores = np.tile(np.r_[gen, imp], 2)
            targets = [float(t) for t in rng.uniform(0.0005, 0.9, size=3)]
            per_group, _ = verification.tpr_at_fpr(scores, protocol, targets)
            for t_idx, target in enumerate(targets):
                want_thr, want_tpr = brute_force_point(gen, imp, target)
                point = per_group[1][t_idx]
                assert point.threshold == want_thr, (trial, target)
                assert point.tpr == want_tpr, (trial, target)
        _report("criterion 6", "200 protocols, exact threshold and TPR agreement")


# --- criterion 7: eigensolver -------------------------------------------------

class TestCriterion7Eigensolver:
    def test_invariants_on_100_random_matrices(self):
        from agenda import linalg

        rng = np.random.default_rng(707)
        worst_res, worst_orth, worst_trace = 0.0, 0.0, 0.0
        for trial in range(100):
            n = int(rng.integers(2, 129))
            a = rng.normal(size=(n, n)) * rng.uniform(0.1, 3.0)
            a = (a + a.T) / 2
            d = linalg.eigh(a)
            v = d.eigenvectors
            orth = float(np.max(np.abs(v @ v.T - np.eye(n))))
            residual = a @ v.T - v.T * d.eigenvalues
            res = float(
                np.max(
                    np.abs(residual).max(axis=0)
                    / np.maximum(1.0, np.abs(d.eigenvalues))
                )
            )
            tr = abs(float(d.eigenvalues.sum() - np.trace(a)))
            worst_res = max(worst_res, res)
            worst_orth = max(worst_orth, orth)
            worst_trace = max(worst_trace, tr)
        assert worst_res < 1e-6
        assert worst_orth < 1e-8
        assert worst_trace < 1e-9
        _report(
            "criterion 7",
            "residual %.2e orthonormality %.2e trace %.2e"
            % (worst_res, worst_orth, worst_trace),
        )


# --- criterion 3: leakage reduction (shared default pipeline) ------------------

@pytest.mark.slow
class TestCriterion3Leakage:
    def test_probe_drop_on_default_corpus(self, default_pipeline):
        raw = read_probe_accuracy(default_pipeline.probe_raw)
        suppressed = read_probe_accuracy(default_pipeline.probe_agenda)
        assert raw >= 85.0
        assert suppressed <= raw - 10.0
        _report(
            "criterion 3",
            "raw probe %.2f%%, suppressed probe %.2f%% (drop %.2f points)"
            % (raw, suppressed, raw - suppressed),
        )


# --- criterion 4: bias reduction under group-asymmetric noise -------------------

@pytest.mark.slow
class TestCriterion4Bias:
    def test_bias_not_increased_tpr_stable(self):
        fpr = 1e-3
        befores, afters = [], []
        tpr_before = {0: [], 1: []}
        tpr_after = {0: [], 1: []}
        for seed in (41, 42, 43):
            spec = synthgen.SynthSpec(female_noise_scale=1.5, seed=seed)
            ds, _ = synthgen.generate(spec)
            protocol = verification.make_pairs(ds, impostor_ratio=2.0, seed=seed)
            before = verification.evaluate(ds, protocol, (fpr,))
            cfg = dataclasses.replace(trainer.TrainConfig(), seed=seed)
            gen, _, _, _ = trainer.train(ds, cfg)
            after = verification.evaluate(trainer.transform(gen, ds), protocol, (fpr,))
            befores.append(before.bias[0])
            afters.append(after.bias[0])
            for group in (0, 1):
                tpr_before[group].append(before.per_group[group][0].tpr)
                tpr_after[group].append(after.per_group[group][0].tpr)
        mean_before = float(np.mean(befores))
        mean_after = float(np.mean(afters))
        assert mean_after <= mean_before
        for group in (0, 1):
            delta = abs(np.mean(tpr_after[group]) - np.mean(tpr_before[group]))
            assert delta <= 0.15, (group, delta)
        _report(
            "criterion 4",
            "3-seed mean bias %.4f -> %.4f; TPR shifts m %.3f f %.3f"
            % (
                mean_before, mean_after,
                abs(np.mean(tpr_after[1]) - np.mean(tpr_before[1])),
                abs(np.mean(tpr_after[0]) - np.mean(tpr_before[0])),
            ),
        )


# --- criterion 8: lambda sweep trends ------------------------------------------

@pytest.mark.slow
class TestCriterion8LambdaTrends:
    def test_probe_monotone_and_tpr_tradeoff(self):
        fpr = 1e-3
        lambdas = (0.1, 1.0, 10.0)
        probe_acc = {lam: [] for lam in lambdas}
        tpr = {lam: [] for lam in lambdas}
        for seed in (81, 82, 83):
            ds, _ = synthgen.generate(synthgen.SynthSpec(seed=seed))
            base = dataclasses.replace(trainer.TrainConfig(), k=5, t_ep=None, seed=seed)
            fits = [
                ("lam=%g" % lam, lambda fit_set, lam=lam: functools.partial(
                    trainer.transform,
                    trainer.train(fit_set, dataclasses.replace(base, lam=lam))[0]))
                for lam in lambdas
            ]
            rows = verification.ablation_sweep(
                ds, fits, fpr, impostor_ratio=2.0, seed=seed, probe_fraction=0.3,
            )
            for (label, tpr_m, tpr_f, bias_v, acc), lam in zip(rows, lambdas):
                probe_acc[lam].append(acc)
                tpr[lam].append((tpr_m + tpr_f) / 2.0)
        means = {lam: float(np.mean(probe_acc[lam])) for lam in lambdas}
        for low, high in zip(lambdas, lambdas[1:]):
            assert means[high] <= means[low] + 2.0, means
        tpr_means = {lam: float(np.mean(tpr[lam])) for lam in lambdas}
        assert tpr_means[10.0] <= tpr_means[0.1]
        _report(
            "criterion 8",
            "probe by lambda %s; TPR by lambda %s"
            % (
                {k: round(v, 2) for k, v in means.items()},
                {k: round(v, 3) for k, v in tpr_means.items()},
            ),
        )


# --- criterion 9: confusion-loss floor and trend --------------------------------

@pytest.mark.slow
class TestCriterion9ConfusionFloor:
    def test_l_deb_floor_and_quartile_trend(self, default_pipeline):
        ldebs = []
        with open(default_pipeline.log) as log:
            for line in log:
                if line.startswith("#") or line.startswith("episode,"):
                    continue
                parts = line.rstrip("\n").split(",")
                if parts[1] == "3" and parts[4]:
                    ldebs.append(float(parts[4]))
        assert len(ldebs) > 0
        floor = np.log(2.0) - 1e-9
        assert min(ldebs) >= floor
        q = len(ldebs) // 4
        first = float(np.mean(ldebs[:q]))
        last = float(np.mean(ldebs[-q:]))
        assert abs(last - np.log(2.0)) <= abs(first - np.log(2.0))
        _report(
            "criterion 9",
            "min l_deb %.9f >= ln2 - 1e-9; quartile distance %.4f -> %.4f"
            % (min(ldebs), first - np.log(2.0), last - np.log(2.0)),
        )


# --- criterion 10: pipeline determinism -----------------------------------------

@pytest.mark.slow
class TestCriterion10Determinism:
    def test_byte_identical_repeat(self, default_pipeline, tmp_path_factory):
        repeat = run_default_pipeline(tmp_path_factory.mktemp("pipeline_b"))
        pairs = [
            ("corpus", default_pipeline.corpus, repeat.corpus),
            ("checkpoint", default_pipeline.ckpt, repeat.ckpt),
            ("train log", default_pipeline.log, repeat.log),
            ("transformed", default_pipeline.transformed, repeat.transformed),
            ("probe raw", default_pipeline.probe_raw, repeat.probe_raw),
            ("probe agenda", default_pipeline.probe_agenda, repeat.probe_agenda),
            ("eval raw", default_pipeline.eval_raw, repeat.eval_raw),
            ("eval agenda", default_pipeline.eval_agenda, repeat.eval_agenda),
        ]
        for name, a, b in pairs:
            with open(a, "rb") as first, open(b, "rb") as second:
                assert first.read() == second.read(), name
        _report("criterion 10", "%d artifacts byte-identical across repeats" % len(pairs))


# --- criterion 11: TPE direction -------------------------------------------------

@pytest.mark.slow
class TestCriterion11Tpe:
    def test_tpe_preserves_verification_and_leak_reduction(self, default_pipeline):
        fpr = 1e-3
        deltas = []
        for seed in (111, 112, 113):
            ds, _ = synthgen.generate(synthgen.SynthSpec(seed=seed))
            protocol = verification.make_pairs(ds, impostor_ratio=2.0, seed=seed)
            before = verification.evaluate(ds, protocol, (fpr,))
            w = tpe.tpe_train(ds, repeats=3, iterations=3000, seed=seed)
            after = verification.evaluate(tpe.tpe_apply(w, ds), protocol, (fpr,))
            mean_before = (before.per_group[0][0].tpr + before.per_group[1][0].tpr) / 2
            mean_after = (after.per_group[0][0].tpr + after.per_group[1][0].tpr) / 2
            deltas.append(mean_after - mean_before)
        assert float(np.mean(deltas)) >= -0.02
        raw_probe = read_probe_accuracy(default_pipeline.probe_raw)
        agenda_probe = read_probe_accuracy(default_pipeline.probe_agenda)
        suppressed = dataio.read_dataset(default_pipeline.transformed)
        w = tpe.tpe_train(suppressed, repeats=3, iterations=3000, seed=114)
        embedded = tpe.tpe_apply(w, suppressed)
        fit_idx, eval_idx = dataio.split_by_identity(embedded, 0.3, 2024)
        model = probe.probe_train(embedded.subset(fit_idx))
        tpe_probe = probe.probe_eval(model, embedded.subset(eval_idx)).overall_accuracy
        reduction_agenda = raw_probe - agenda_probe
        reduction_tpe = raw_probe - tpe_probe
        assert reduction_tpe >= reduction_agenda - 5.0
        _report(
            "criterion 11",
            "3-seed mean TPR delta %+.4f >= -0.02; leak reduction %.2f (agenda) vs %.2f (agenda+tpe)"
            % (float(np.mean(deltas)), reduction_agenda, reduction_tpe),
        )
