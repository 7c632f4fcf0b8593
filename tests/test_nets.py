import struct
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from agenda import linalg, nets
from agenda.errors import DataFormatError, DimensionError, NumericError, StateError


def scalar_generator(params, x):
    # per-element loop oracle for the linear + PReLU forward
    n, d = x.shape
    units = params.bias.shape[0]
    out = np.zeros((n, units))
    for r in range(n):
        for j in range(units):
            z = params.bias[j]
            for i in range(d):
                z += x[r, i] * params.weight[i, j]
            out[r, j] = z if z >= 0 else params.prelu_slope[j] * z
    return out


def scalar_discriminator(params, f):
    lam, alpha = nets.SELU_LAMBDA, nets.SELU_ALPHA
    n = f.shape[0]
    out = np.zeros((n, 2))
    for r in range(n):
        h = []
        for j in range(params.b1.shape[0]):
            z = params.b1[j] + sum(f[r, i] * params.w1[i, j] for i in range(f.shape[1]))
            h.append(lam * z if z > 0 else lam * alpha * (np.exp(z) - 1.0))
        z2 = [params.b2[j] + sum(h[i] * params.w2[i, j] for i in range(len(h)))
              for j in range(2)]
        # two-way softmax of the logits: p_j = exp(z_j) / (exp(z_0) + exp(z_1))
        e = [np.exp(z - max(z2)) for z in z2]
        out[r] = [v / sum(e) for v in e]
    return out


def toy_generator(rng, in_dim=5, units=6):
    return nets.GeneratorParams(
        weight=rng.normal(size=(in_dim, units)),
        bias=rng.normal(size=units),
        prelu_slope=rng.uniform(0.1, 0.5, size=units),
    )


def toy_discriminator(rng, units=6, hidden=4):
    return nets.DiscriminatorParams(
        w1=rng.normal(size=(units, hidden)),
        b1=rng.normal(size=hidden),
        w2=rng.normal(size=(hidden, 2)),
        b2=rng.normal(size=2),
    )


class TestGeneratorForward:
    def test_prelu_definition(self):
        params = nets.GeneratorParams(
            weight=np.eye(3), bias=np.zeros(3), prelu_slope=np.full(3, 0.25)
        )
        out, _ = nets.generator_forward(params, np.array([[-2.0, 1.0, 0.0]]))
        assert out.tolist() == [[-0.5, 1.0, 0.0]]

    def test_zero_input_zero_bias(self):
        params = nets.GeneratorParams(
            weight=np.ones((4, 2)), bias=np.zeros(2), prelu_slope=np.full(2, 0.25)
        )
        out, _ = nets.generator_forward(params, np.zeros((3, 4)))
        assert np.all(out == 0.0)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        params = toy_generator(rng)
        x = rng.normal(size=(4, 5))
        out, _ = nets.generator_forward(params, x)
        assert np.max(np.abs(out - scalar_generator(params, x))) < 1e-10

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DimensionError):
            nets.generator_forward(toy_generator(rng), np.zeros((2, 7)))


class TestClassifierForward:
    def test_uniform_on_equal_logits(self):
        params = nets.ClassifierParams(weight=np.zeros((4, 5)), bias=np.zeros(5))
        probs, _ = nets.classifier_forward(params, np.ones((2, 4)))
        assert np.allclose(probs, 0.2)

    def test_overflow_stability(self):
        params = nets.ClassifierParams(weight=np.eye(2), bias=np.zeros(2))
        probs, _ = nets.classifier_forward(params, np.array([[1000.0, 0.0]]))
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)
        assert probs[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_known_values(self):
        params = nets.ClassifierParams(weight=np.eye(3), bias=np.zeros(3))
        probs, _ = nets.classifier_forward(params, np.array([[1.0, 2.0, 3.0]]))
        assert np.allclose(probs, [[0.09003057, 0.24472847, 0.66524096]], atol=1e-8)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        params = nets.ClassifierParams(
            weight=rng.normal(size=(6, 9)), bias=rng.normal(size=9)
        )
        probs, _ = nets.classifier_forward(params, rng.normal(size=(11, 6)) * 30)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9


class TestDiscriminatorForward:
    def test_zero_params_give_half_half(self):
        params = nets.DiscriminatorParams(
            w1=np.zeros((3, 4)), b1=np.zeros(4), w2=np.zeros((4, 2)), b2=np.zeros(2)
        )
        out, _ = nets.discriminator_forward(params, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.allclose(out, 0.5)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        params = toy_discriminator(rng)
        out, _ = nets.discriminator_forward(params, rng.normal(size=(7, 6)) * 5)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(2)
        params = toy_discriminator(rng)
        f = rng.normal(size=(3, 6))
        out, _ = nets.discriminator_forward(params, f)
        assert np.max(np.abs(out - scalar_discriminator(params, f))) < 1e-10


def identity_member():
    """w1 = w2 = I, zero biases: on positive inputs z2 = SELU_LAMBDA * f."""
    return nets.DiscriminatorParams(
        w1=np.eye(2), b1=np.zeros(2), w2=np.eye(2), b2=np.zeros(2)
    )


# Row 0 drives one logit to 20 (saturated), row 1 stays moderate.
SATURATING_F = np.array([[1e-3, 20.0 / nets.SELU_LAMBDA], [0.5, 0.7]])


class TestNonSaturatingHead:
    def test_top_probability_is_not_capped(self):
        # a sigmoid before the softmax would cap it at e/(1+e) = 0.731
        out, _ = nets.discriminator_forward(identity_member(), SATURATING_F)
        assert out[0].max() > np.e / (1.0 + np.e)

    def test_confusion_gradient_survives_saturation(self):
        # d l_a / d z2_j = (p_j - 1/2) / n for a two-way softmax; the
        # identity weights pass it back to f scaled by SELU_LAMBDA
        from agenda import losses

        params = identity_member()
        out, cache = nets.discriminator_forward(params, SATURATING_F)
        _, d_f = nets.discriminator_backward(
            params, cache, losses.l_a_grad(out), param_grad=False)
        want = nets.SELU_LAMBDA * (out - 0.5) / len(out)
        np.testing.assert_allclose(d_f, want, rtol=1e-9)


def finite_difference(loss_fn, arrays, h=1e-5):
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_fn()
            flat[i] = orig - h
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.ones_like(a)]))


class TestBackward:
    def test_generator_gradients_match_fd(self):
        rng = np.random.default_rng(10)
        params = toy_generator(rng)
        x = rng.normal(size=(3, 5))
        w = rng.normal(size=(3, 6))  # random linear readout as the scalar loss

        def loss():
            out, _ = nets.generator_forward(params, x)
            return float((out * w).sum())

        out, cache = nets.generator_forward(params, x)
        grads = nets.generator_backward(params, cache, w)
        fd_w, fd_b, fd_s = finite_difference(loss, [params.weight, params.bias, params.prelu_slope])
        assert rel_err(grads.weight, fd_w) < 1e-6
        assert rel_err(grads.bias, fd_b) < 1e-6
        assert rel_err(grads.prelu_slope, fd_s) < 1e-6

    def test_discriminator_gradients_match_fd(self):
        rng = np.random.default_rng(11)
        params = toy_discriminator(rng)
        f = rng.normal(size=(4, 6))
        w = rng.normal(size=(4, 2))

        def loss():
            out, _ = nets.discriminator_forward(params, f)
            return float((out * w).sum())

        out, cache = nets.discriminator_forward(params, f)
        grads, d_f = nets.discriminator_backward(params, cache, w)
        fd = finite_difference(loss, [params.w1, params.b1, params.w2, params.b2, f])
        for got, want in zip([grads.w1, grads.b1, grads.w2, grads.b2, d_f], fd):
            assert rel_err(got, want) < 1e-5

    def test_softmax_ce_closed_form_at_uniform(self):
        # composing the CE input-gradient with the softmax backward must
        # reproduce (p - onehot)/batch
        from agenda import losses

        params = nets.ClassifierParams(weight=np.eye(4), bias=np.zeros(4))
        f = np.zeros((2, 4))
        probs, cache = nets.classifier_forward(params, f)
        y = np.array([1, 3])
        d_probs = losses.l_class_grad(probs, y)
        inner = (d_probs * probs).sum(axis=1, keepdims=True)
        d_logits = probs * (d_probs - inner)
        onehot = np.zeros_like(probs)
        onehot[np.arange(2), y] = 1.0
        assert np.allclose(d_logits, (probs - onehot) / 2, atol=1e-12)

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(12)
        params = toy_generator(rng)
        x = rng.normal(size=(3, 5))
        _, cache = nets.generator_forward(params, x)
        grads = nets.generator_backward(params, cache, np.zeros((3, 6)))
        assert np.all(grads.weight == 0) and np.all(grads.bias == 0)
        assert np.all(grads.prelu_slope == 0)

    def test_backward_without_forward_raises(self):
        rng = np.random.default_rng(13)
        with pytest.raises(StateError):
            nets.generator_backward(toy_generator(rng), None, np.zeros((1, 6)))


class TestAdam:
    def test_first_step_hand_value(self):
        params = nets.ClassifierParams(weight=np.zeros((1, 1)), bias=np.zeros(1))
        grads = nets.ClassifierParams(weight=np.ones((1, 1)), bias=np.zeros(1))
        state = nets.AdamState(lr=1e-3)
        nets.adam_step(state, params, grads)
        # hand evaluation of the recurrence: m_hat = 1, v_hat = 1,
        # step = lr / sqrt(1 + eps)
        assert params.weight[0, 0] == pytest.approx(-9.99999995e-4, rel=1e-12)
        assert state.step == 1

    def test_zero_grad_no_move(self):
        params = nets.ClassifierParams(weight=np.full((2, 2), 0.5), bias=np.ones(2))
        grads = nets.ClassifierParams(weight=np.zeros((2, 2)), bias=np.zeros(2))
        state = nets.AdamState(lr=0.1)
        nets.adam_step(state, params, grads)
        assert np.all(params.weight == 0.5) and np.all(params.bias == 1.0)

    def test_constant_grad_monotone(self):
        params = nets.ClassifierParams(weight=np.zeros((1, 1)), bias=np.zeros(1))
        grads = nets.ClassifierParams(weight=np.full((1, 1), 0.3), bias=np.zeros(1))
        state = nets.AdamState(lr=1e-2)
        seen = [0.0]
        for _ in range(5):
            nets.adam_step(state, params, grads)
            seen.append(float(params.weight[0, 0]))
        assert all(b < a for a, b in zip(seen, seen[1:]))

    def test_nonfinite_grad_names_block(self):
        params = nets.ClassifierParams(weight=np.zeros((1, 1)), bias=np.zeros(1))
        grads = nets.ClassifierParams(weight=np.array([[np.nan]]), bias=np.zeros(1))
        with pytest.raises(NumericError, match="weight"):
            nets.adam_step(nets.AdamState(lr=1e-3), params, grads)


class RecordingPool:
    """Runs each submitted part on one worker thread and keeps the part's
    output rows, so a test sees where every product was cut."""

    def __init__(self, executor):
        self.executor, self.parts = executor, []

    def submit(self, fn, a, b, out):
        self.parts.append(len(out))
        return self.executor.submit(fn, a, b, out)


# (K, N) of every product of the three nets at 64-, 160- and 512-d, with
# the desk corpus's 180 training identities: forward, input gradient and
# their transposes, which the weight gradients take with a transposed left.
NET_SHAPES = sorted({
    *((d, 256) for d in (64, 160, 512)), *((256, d) for d in (64, 160, 512)),
    (256, 180), (180, 256), (256, 128), (128, 256), (128, 2), (2, 128),
})


class TestSplitProduct:
    """A product cut by output rows has the bytes of one gemm call."""

    def test_split_bytes_equal_one_call(self, monkeypatch):
        # the floor lowered to 0 cuts every product of 128 or more rows
        monkeypatch.setattr(nets, "SPLIT_WORK", 0)
        rng = np.random.default_rng(5)
        with linalg.blas_threads(1), ThreadPoolExecutor(1) as executor:
            pool = RecordingPool(executor)
            for k, n in NET_SHAPES:
                b = rng.normal(size=(k, n))
                for rows in (*range(64, 1025, 45), 400, 1024):
                    for a in (rng.normal(size=(rows, k)), rng.normal(size=(k, rows)).T):
                        cuts = len(pool.parts)
                        out = nets._product(a, b, pool=pool)
                        assert out.tobytes() == np.matmul(a, b).tobytes(), (rows, k, n)
                        assert len(pool.parts) == cuts + (rows >= 2 * nets.SPLIT_ROWS)
                        if len(pool.parts) > cuts:
                            cut = rows - pool.parts[-1]
                            assert cut % 8 == 0 and cut >= nets.SPLIT_ROWS
                            assert rows - cut >= nets.SPLIT_ROWS
        assert len(pool.parts) > 500

    def test_every_cut_is_aligned_and_leaves_two_large_parts(self):
        for rows in range(2 * nets.SPLIT_ROWS, 4097):
            cut = nets._split_at(rows, nets.SPLIT_WORK)
            assert cut % 8 == 0 and nets.SPLIT_ROWS <= cut <= rows - cut <= cut + 15
        assert nets._split_at(2 * nets.SPLIT_ROWS - 1, 10 * nets.SPLIT_WORK) is None
        assert nets._split_at(1024, nets.SPLIT_WORK - 1) is None

    def test_below_the_floor_is_one_call(self):
        # the desk's batch-128 products at 64-d stay whole; the paper's
        # 512-d batch-400 ones are cut
        rng = np.random.default_rng(6)
        desk = [(128, 64, 256), (128, 256, 180), (256, 128, 180), (64, 128, 256)]
        with ThreadPoolExecutor(1) as executor:
            pool = RecordingPool(executor)
            for rows, k, n in desk:
                a, b = rng.normal(size=(rows, k)), rng.normal(size=(k, n))
                assert nets._product(a, b, pool=pool).tobytes() == np.matmul(a, b).tobytes()
            assert pool.parts == []
            a, b = rng.normal(size=(400, 512)), rng.normal(size=(512, 256))
            nets._product(a, b, pool=pool)
            assert pool.parts == [200]

    def test_passes_with_a_pool_equal_passes_without(self):
        rng = np.random.default_rng(7)
        gen, cls = nets.init_generator(512, 1), nets.init_classifier(180, 2)
        x = rng.normal(size=(400, 512))
        with linalg.blas_threads(1), ThreadPoolExecutor(1) as executor:
            results = []
            for pool in (None, RecordingPool(executor)):
                f, gcache = nets.generator_forward(gen, x, pool=pool)
                probs, ccache = nets.classifier_forward(cls, f, pool=pool)
                cgrads, d_f = nets.classifier_backward(cls, ccache, probs - 0.5, pool=pool)
                ggrads = nets.generator_backward(gen, gcache, d_f, pool=pool)
                results.append([v.tobytes() for v in (f, probs, cgrads.flat, d_f, ggrads.flat)])
            # stage 1's five products: the generator forward, the classifier
            # forward, weight gradient and input gradient, the generator's
            # weight gradient
            assert pool.parts == [200, 200, 128, 200, 256]
        assert results[1] == results[0]

    def test_a_failed_part_raises_once_both_are_done(self):
        finished = threading.Event()

        class SlowPool:
            def submit(self, fn, *args):
                def late():
                    time.sleep(0.05)
                    try:
                        return fn(*args)
                    finally:
                        finished.set()
                return executor.submit(late)

        with ThreadPoolExecutor(1) as executor:
            # inner sizes differ: both parts fail, this thread's first
            with pytest.raises(ValueError):
                nets._product(np.ones((400, 512)), np.ones((511, 256)), np.empty((400, 256)),
                              SlowPool())
            assert finished.is_set()

        class FailingPool:
            def submit(self, fn, *args):
                future = Future()
                future.set_exception(RuntimeError("worker part"))
                return future

        with pytest.raises(RuntimeError, match="worker part"):
            nets._product(np.ones((400, 512)), np.ones((512, 256)), pool=FailingPool())


class TestInitAndCheckpoint:
    def test_init_deterministic_and_bounded(self):
        g1 = nets.init_generator(16, seed=4)
        g2 = nets.init_generator(16, seed=4)
        assert np.array_equal(g1.weight, g2.weight)
        limit = np.sqrt(6.0 / (16 + 256))
        assert np.abs(g1.weight).max() <= limit
        assert np.all(g1.bias == 0) and np.all(g1.prelu_slope == 0.25)

    def test_checkpoint_round_trip(self, tmp_path):
        gen = nets.init_generator(8, seed=1)
        cls = nets.init_classifier(5, seed=2)
        ens = nets.init_ensemble(3, np.random.SeedSequence(3))
        path = tmp_path / "model.agnd"
        nets.save_checkpoint(path, gen, cls, ens)
        gen2, cls2, ens2 = nets.load_checkpoint(path)
        assert np.array_equal(gen.weight, gen2.weight)
        assert np.array_equal(gen.prelu_slope, gen2.prelu_slope)
        assert np.array_equal(cls.bias, cls2.bias)
        assert len(ens2.members) == 3
        for a, b in zip(ens.members, ens2.members):
            assert np.array_equal(a.w1, b.w1) and np.array_equal(a.b2, b.b2)

    def test_checkpoint_bad_magic(self, tmp_path):
        path = tmp_path / "x.agnd"
        nets.save_checkpoint(path, nets.init_generator(4, 0), nets.init_classifier(2, 0),
                             nets.init_ensemble(1, np.random.SeedSequence(0)))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError):
            nets.load_checkpoint(path)

    def test_checkpoint_truncated(self, tmp_path):
        path = tmp_path / "y.agnd"
        nets.save_checkpoint(path, nets.init_generator(4, 0), nets.init_classifier(2, 0),
                             nets.init_ensemble(1, np.random.SeedSequence(0)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataFormatError) as err:
            nets.load_checkpoint(path)
        assert err.value.code == "truncated"


def toy_ensemble(rng, k=3, units=6, hidden=4):
    return nets.EnsembleParams([toy_discriminator(rng, units, hidden) for _ in range(k)])


class TestFlatBuffers:
    def test_blocks_view_one_buffer_in_payload_order(self):
        rng = np.random.default_rng(20)
        gen = toy_generator(rng)
        expected = np.concatenate([gen.weight.ravel(), gen.bias, gen.prelu_slope])
        assert np.array_equal(gen.flat, expected)
        gen.flat[0] = 123.0
        assert gen.weight[0, 0] == 123.0

    def test_ensemble_stacks_member_views(self):
        rng = np.random.default_rng(21)
        members = [toy_discriminator(rng) for _ in range(3)]
        ens = nets.EnsembleParams(members)
        assert ens.w1.shape == (3, 6, 4) and ens.b2.shape == (3, 2)
        assert np.array_equal(ens.flat, np.concatenate([m.flat for m in members]))
        for i, (view, src) in enumerate(zip(ens.members, members)):
            assert np.shares_memory(view.flat, ens.flat)
            for name, arr in nets.param_items(src):
                assert np.array_equal(getattr(ens, name)[i], arr)
                assert np.array_equal(getattr(view, name), arr)


class TestStackedEnsemble:
    def test_forward_and_backward_equal_per_member_calls(self):
        rng = np.random.default_rng(22)
        ens = toy_ensemble(rng, k=4)
        f = rng.normal(size=(9, 6)) * 3
        out, cache = nets.discriminator_forward(ens, f)
        d_out = rng.normal(size=out.shape)
        grads, d_f = nets.discriminator_backward(ens, cache, d_out)
        assert out.shape == (4, 9, 2) and d_f.shape == (4, 9, 6)
        for i, member in enumerate(ens.members):
            m_out, m_cache = nets.discriminator_forward(member, f)
            m_grads, m_d_f = nets.discriminator_backward(member, m_cache, d_out[i])
            assert np.array_equal(out[i], m_out)
            assert np.array_equal(d_f[i], m_d_f)
            assert np.array_equal(grads.members[i].flat, m_grads.flat)
            # the member slice of the stacked cache backs the same pass
            _, sliced_d_f = nets.discriminator_backward(
                member, nets.member_cache(cache, i), d_out[i], param_grad=False)
            assert np.array_equal(sliced_d_f, m_d_f)

    def test_skipped_gradients_are_none_and_the_rest_unchanged(self):
        rng = np.random.default_rng(23)
        ens = toy_ensemble(rng)
        f = rng.normal(size=(5, 6))
        out, cache = nets.discriminator_forward(ens, f)
        d_out = rng.normal(size=out.shape)
        grads, d_f = nets.discriminator_backward(ens, cache, d_out)
        only_params, none_in = nets.discriminator_backward(ens, cache, d_out, input_grad=False)
        none_params, only_in = nets.discriminator_backward(ens, cache, d_out, param_grad=False)
        assert none_in is None and none_params is None
        assert np.array_equal(only_params.flat, grads.flat)
        assert np.array_equal(only_in, d_f)

    def test_stacked_gradients_match_fd(self):
        rng = np.random.default_rng(24)
        ens = toy_ensemble(rng, k=3)
        f = rng.normal(size=(4, 6))
        w = rng.normal(size=(3, 4, 2))

        def loss():
            out, _ = nets.discriminator_forward(ens, f)
            return float((out * w).sum())

        _, cache = nets.discriminator_forward(ens, f)
        grads, d_f = nets.discriminator_backward(ens, cache, w)
        fd_flat, fd_f = finite_difference(loss, [ens.flat, f])
        assert rel_err(grads.flat, fd_flat) < 1e-5
        assert rel_err(d_f.sum(axis=0), fd_f) < 1e-5

    def test_one_adam_step_equals_per_member_steps(self):
        rng = np.random.default_rng(25)
        ens = toy_ensemble(rng, k=3)
        copies = [nets.DiscriminatorParams(**dict(nets.param_items(m))) for m in ens.members]
        state = nets.AdamState(lr=1e-2)
        states = [nets.AdamState(lr=1e-2) for _ in copies]
        for _ in range(4):
            grads = ens.empty_like()
            grads.flat[:] = rng.normal(size=grads.flat.size) * 10.0 ** rng.integers(-6, 3)
            nets.adam_step(state, ens, grads)
            for member, st, g in zip(copies, states, grads.members):
                nets.adam_step(st, member, g)
        for view, member in zip(ens.members, copies):
            assert np.array_equal(view.flat, member.flat)

    def test_nonfinite_ensemble_grad_names_block(self):
        rng = np.random.default_rng(26)
        ens = toy_ensemble(rng, k=2)
        grads = ens.empty_like()
        grads.flat[:] = 0.0
        grads.members[1].b1[2] = np.inf
        before = ens.flat.copy()
        with pytest.raises(NumericError, match="b1"):
            nets.adam_step(nets.AdamState(lr=1e-3), ens, grads)
        assert np.array_equal(ens.flat, before)


class TestCheckpointHeader:
    def test_huge_member_count_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "k.agnd"
        nets.save_checkpoint(path, nets.init_generator(4, 0), nets.init_classifier(2, 0),
                             nets.init_ensemble(1, np.random.SeedSequence(0)))
        blob = bytearray(path.read_bytes())
        blob[20:24] = (0xFFFFFFFF).to_bytes(4, "little")  # the k field
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError) as err:
            nets.load_checkpoint(path)
        assert err.value.code == "truncated"

    def test_nonfinite_payload_rejected(self, tmp_path):
        path = tmp_path / "n.agnd"
        nets.save_checkpoint(path, nets.init_generator(4, 0), nets.init_classifier(2, 0),
                             nets.init_ensemble(1, np.random.SeedSequence(0)))
        blob = bytearray(path.read_bytes())
        blob[-8:] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError) as err:
            nets.load_checkpoint(path)
        assert err.value.code == "nonfinite"

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "z.agnd"
        path.write_bytes(struct.pack("<4sIIIIII", b"AGND", 1, 0, 0, 0, 0, 0))
        with pytest.raises(DataFormatError):
            nets.load_checkpoint(path)

    def test_payload_is_the_concatenated_buffers(self, tmp_path):
        gen, cls = nets.init_generator(5, 1), nets.init_classifier(3, 2)
        ens = nets.init_ensemble(2, np.random.SeedSequence(3))
        path = tmp_path / "m.agnd"
        nets.save_checkpoint(path, gen, cls, ens)
        payload = np.frombuffer(path.read_bytes()[28:], dtype="<f8")
        assert np.array_equal(payload, np.concatenate([gen.flat, cls.flat, ens.flat]))
        gen2, cls2, ens2 = nets.load_checkpoint(path)
        assert np.array_equal(ens2.w1, ens.w1) and len(ens2.members) == 2
        assert np.array_equal(gen2.flat, gen.flat) and np.array_equal(cls2.flat, cls.flat)
