import numpy as np
import pytest

from agenda import losses
from agenda.errors import ValidationError


class TestLClass:
    def test_perfect_prediction_zero(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert losses.l_class(probs, [0, 1]) == pytest.approx(0.0, abs=1e-10)

    def test_uniform_is_log_n(self):
        probs = np.full((3, 7), 1.0 / 7)
        assert losses.l_class(probs, [0, 3, 6]) == pytest.approx(np.log(7))

    def test_direct_value(self):
        probs = np.array([[0.7, 0.2, 0.1]])
        assert losses.l_class(probs, [0]) == pytest.approx(-np.log(0.7))

    def test_clamp_flagged(self):
        probs = np.array([[1.0, 0.0]])
        assert losses.l_class(probs, [1]) == pytest.approx(-np.log(1e-12))

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            losses.l_class(np.full((1, 3), 1 / 3), [3])

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(0.05, 1.0, size=(4, 5))
        probs = raw / raw.sum(axis=1, keepdims=True)
        y = [0, 2, 4, 1]
        grad = losses.l_class_grad(probs, y)
        h = 1e-7
        for r, c in [(0, 0), (1, 2), (3, 1), (2, 3)]:
            bumped = probs.copy()
            bumped[r, c] += h
            fd = (losses.l_class(bumped, y) - losses.l_class(probs, y)) / h
            assert grad[r, c] == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestLG:
    def test_single_member_perfect(self):
        out = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert losses.l_g([out], np.array([1, 0])) == pytest.approx(0.0, abs=1e-9)

    def test_three_members_at_half(self):
        out = np.full((5, 2), 0.5)
        lv = losses.l_g([out, out, out], np.array([0, 1, 0, 1, 0]))
        assert lv == pytest.approx(3 * np.log(2))

    def test_sum_of_independent_members(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 2, size=6)
        outs = []
        for _ in range(2):
            raw = rng.uniform(0.1, 1.0, size=(6, 2))
            outs.append(raw / raw.sum(axis=1, keepdims=True))
        total = losses.l_g(outs, y)
        parts = sum(losses.l_g([o], y) for o in outs)
        assert total == pytest.approx(parts)
        assert total == pytest.approx(losses.l_g_member(np.stack(outs), y))

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValidationError):
            losses.l_g([], np.array([0]))


class TestLA:
    def test_half_half_is_global_minimum(self):
        assert losses.l_a(np.full((3, 2), 0.5)) == pytest.approx(np.log(2))

    def test_direct_value(self):
        lv = losses.l_a(np.array([[0.9, 0.1]]))
        assert lv == pytest.approx(-(0.5 * np.log(0.9) + 0.5 * np.log(0.1)))

    def test_swap_symmetric(self):
        rng = np.random.default_rng(5)
        raw = rng.uniform(0.05, 1.0, size=(6, 2))
        out = raw / raw.sum(axis=1, keepdims=True)
        assert losses.l_a(out) == pytest.approx(losses.l_a(out[:, ::-1]))

    def test_floor_log2(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            raw = rng.uniform(1e-6, 1.0, size=(4, 2))
            out = raw / raw.sum(axis=1, keepdims=True)
            assert losses.l_a(out) >= np.log(2) - 1e-12

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(7)
        raw = rng.uniform(0.1, 1.0, size=(3, 2))
        out = raw / raw.sum(axis=1, keepdims=True)
        grad = losses.l_a_grad(out)
        h = 1e-7
        for r, c in [(0, 0), (1, 1), (2, 0)]:
            bumped = out.copy()
            bumped[r, c] += h
            fd = (losses.l_a(bumped) - losses.l_a(out)) / h
            assert grad[r, c] == pytest.approx(fd, rel=1e-5)


class TestLDeb:
    def test_max_and_index(self):
        lv, k = losses.l_deb([0.2, 0.9, 0.5])
        assert (lv, k) == (0.9, 1)

    def test_single_member(self):
        lv, k = losses.l_deb([0.77])
        assert lv == 0.77 and k == 0

    def test_tie_lowest_index(self):
        _, k = losses.l_deb([0.4, 0.9, 0.9])
        assert k == 1

    def test_dominates_every_member(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(0.7, 1.5, size=6).tolist()
        lv, _ = losses.l_deb(values)
        assert all(lv >= v for v in values)


class TestLBr:
    def test_arithmetic(self):
        assert losses.l_br(1.0, 0.5, 10.0) == pytest.approx(6.0)

    def test_lambda_zero_is_class_loss(self):
        assert losses.l_br(1.23, 9.9, 0.0) == 1.23

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValidationError):
            losses.l_br(1.0, 1.0, -0.1)
