import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginnet import gradcheck as gc
from marginnet import heads as heads_mod
from marginnet.heads import (
    HeadSpec,
    apply_head,
    augment_ones,
    encode_targets,
    error_rate_pct,
    head_scores,
    predict,
    softmax_probs,
)
from marginnet.layers import init_gaussian
from marginnet.tensor import DomainError, ShapeError

# Softmax of [1, 2, 3], computed once with 50-digit arithmetic and frozen.
SOFTMAX_123 = np.array(
    [0.090030573170380458, 0.24472847105479765, 0.66524095577482189]
)
LN_10 = 2.3025850929940457


def head_weights(dim, num_classes, rng, std):
    """Head weights [(dim+1), num_classes] as a network's builder draws
    them: the rows drawn from ``rng``, the bias row 0."""
    w = np.zeros((dim + 1, num_classes))
    init_gaussian(w[:dim], rng, std)
    return w


class TestSoftmaxProbs:
    def test_frozen_reference_values(self):
        npt.assert_allclose(
            softmax_probs(np.array([[1.0, 2.0, 3.0]]))[0], SOFTMAX_123,
            rtol=0, atol=1e-15,
        )

    def test_zero_scores_are_uniform(self):
        npt.assert_allclose(
            softmax_probs(np.zeros((2, 4))), np.full((2, 4), 0.25),
            rtol=0, atol=1e-15,
        )

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=(5, 6))
        shifted = softmax_probs(s + 123.456)
        npt.assert_allclose(softmax_probs(s), shifted, rtol=0, atol=1e-12)

    def test_huge_scores_do_not_overflow(self):
        p = softmax_probs(np.array([[1000.0, 1001.0, 999.0]]))
        assert np.all(np.isfinite(p))
        npt.assert_allclose(p.sum(), 1.0, rtol=1e-12)


def _spec(kind, num_classes=2, c=1.0, weight_decay=0.0):
    return HeadSpec(kind, num_classes, c=c, weight_decay=weight_decay)


# Two classes, one feature straight into class 0's score, bias 0 there.
# Class 1's score is its bias -5: target -1, margin 5, never violated,
# so each margin-head loss below is class 0's alone.
W_ONE_FEATURE = np.array([[1.0, 0.0], [0.0, -5.0]])
LABEL_0 = np.array([0])


class TestSoftmaxHead:
    def test_zero_weights_give_log_k(self):
        w = np.zeros((8, 10))  # dim 7 plus bias row, 10 classes
        h = np.random.default_rng(1).normal(size=(6, 7))
        out = apply_head(_spec("softmax", 10), w, h, np.arange(6) % 10)
        npt.assert_allclose(out.loss, LN_10, rtol=0, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(5, 4))
        w = head_weights(4, 3, rng, 0.5)
        labels = rng.integers(0, 3, size=5)
        spec = _spec("softmax", 3, weight_decay=0.1)
        out = apply_head(spec, w, h, labels)

        def loss():
            return apply_head(spec, w, h, labels).loss

        assert gc.check_gradient("d_w", loss, w, out.d_w).passed
        assert gc.check_gradient("d_h", loss, h, out.d_h).passed

    def test_bias_row_escapes_weight_decay(self):
        w = np.zeros((3, 4))
        w[-1, :] = [5.0, -3.0, 2.0, 0.0]  # bias row only, no real weights
        h = np.random.default_rng(3).normal(size=(2, 2))
        labels = np.array([0, 1])
        with_decay = apply_head(_spec("softmax", 4, weight_decay=1.0), w, h, labels)
        without = apply_head(_spec("softmax", 4, weight_decay=0.0), w, h, labels)
        # bias contributes nothing to the regularizer or its gradient
        npt.assert_allclose(with_decay.loss, without.loss, rtol=0, atol=0)
        npt.assert_array_equal(with_decay.d_w[-1], without.d_w[-1])


class TestSvmHeads:
    def test_l2_worked_example(self):
        # class 0's weights [1, -1], zero bias: score 0.1, margin 0.1,
        # hinge 0.9, d_score = -2*0.9 = -1.8; class 1 sits past its margin
        w = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -5.0]])
        h = np.array([[0.2, 0.1]])
        out = apply_head(_spec("l2svm"), w, h, LABEL_0)
        npt.assert_allclose(out.d_h, [[-1.8, 1.8]], rtol=0, atol=1e-15)

    def test_margin_exactly_one_contributes_nothing(self):
        w = np.array([[1.0, 0.0], [0.0, -1.0]])
        h = np.array([[1.0]])  # scores [1, -1]: both margins exactly 1
        for kind in ("l1svm", "l2svm"):
            out = apply_head(_spec(kind, c=3.0), w, h, LABEL_0)
            npt.assert_allclose(out.loss, 0.5)  # pure 0.5 * w^2, no data term
            npt.assert_array_equal(out.d_h, [[0.0]])

    def test_l1_gradients_match_fd_away_from_kink(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(5, 4))
        w = head_weights(4, 3, rng, 0.5)
        labels = rng.integers(0, 3, size=5)
        sign = 2.0 * encode_targets(labels, 3) - 1.0
        margins = head_scores(w, h) * sign
        assert np.min(np.abs(1.0 - margins)) > 1e-3  # kink clearance
        spec = _spec("l1svm", 3, c=0.7)
        out = apply_head(spec, w, h, labels)

        def loss():
            return apply_head(spec, w, h, labels).loss

        assert gc.check_gradient("d_w", loss, w, out.d_w).passed
        assert gc.check_gradient("d_h", loss, h, out.d_h).passed

    def test_l2_gradients_match_fd(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(5, 4))
        w = head_weights(4, 3, rng, 0.5)
        labels = rng.integers(0, 3, size=5)
        spec = _spec("l2svm", 3, c=0.7)
        out = apply_head(spec, w, h, labels)

        def loss():
            return apply_head(spec, w, h, labels).loss

        assert gc.check_gradient("d_w", loss, w, out.d_w).passed
        assert gc.check_gradient("d_h", loss, h, out.d_h).passed

    def test_loss_shrinks_to_weight_norm_as_c_vanishes(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(4, 3))
        w = head_weights(3, 2, rng, 0.5)
        labels = np.array([0, 1, 0, 1])
        reg = 0.5 * float(np.sum(w[:-1] ** 2))
        for kind in ("l1svm", "l2svm"):
            losses = [apply_head(_spec(kind, c=c), w, h, labels).loss
                      for c in (1e-2, 1e-5, 1e-9)]
            assert abs(losses[-1] - reg) < 1e-7
            assert abs(losses[-1] - reg) < abs(losses[0] - reg)

    def test_hinge_scales_with_batch_size_not_mean(self):
        # the margin data term is summed over examples, so doubling the
        # batch doubles it
        spec = _spec("l1svm")
        h1 = np.array([[-1.0]])
        loss1 = apply_head(spec, W_ONE_FEATURE, h1, LABEL_0).loss
        h2 = np.vstack([h1, h1])
        loss2 = apply_head(spec, W_ONE_FEATURE, h2, np.array([0, 0])).loss
        npt.assert_allclose(loss2 - 0.5, 2 * (loss1 - 0.5))

    def test_labels_must_match_the_scores(self):
        w = np.zeros((3, 2))
        with pytest.raises(ShapeError):
            apply_head(_spec("l2svm"), w, np.zeros((2, 2)), LABEL_0)
        with pytest.raises(ShapeError):
            apply_head(_spec("softmax", 3), w, np.zeros((1, 2)), LABEL_0)


def _violation_costs(v):
    """(L1, L2) data terms of one class-0 margin 1 - v, i.e. violation v."""
    h = np.array([[1.0 - v]])
    return tuple(apply_head(_spec(kind), W_ONE_FEATURE, h, LABEL_0).loss - 0.5
                 for kind in ("l1svm", "l2svm"))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(v=st.floats(1e-6, 1 - 1e-6))
def test_small_violations_cost_l2_less_than_l1(v):
    l1, l2 = _violation_costs(v)
    assert l2 < l1


@settings(deadline=None, derandomize=True, max_examples=60)
@given(v=st.floats(1 + 1e-6, 50))
def test_large_violations_cost_l2_more_than_l1(v):
    l1, l2 = _violation_costs(v)
    assert l2 > l1


class TestTargets:
    def test_one_hot_round_trip(self):
        labels = np.array([2, 0, 1, 2])
        one_hot = encode_targets(labels, 3)
        npt.assert_array_equal(np.argmax(one_hot, axis=1), labels)
        npt.assert_array_equal(one_hot.sum(axis=1), np.ones(4))

    def test_out_of_range_label_rejected(self):
        with pytest.raises(DomainError):
            encode_targets(np.array([0, 3]), 3)
        with pytest.raises(DomainError):
            encode_targets(np.array([-1]), 3)
        with pytest.raises(DomainError):
            apply_head(_spec("l2svm"), np.zeros((2, 2)), np.zeros((1, 1)),
                       np.array([2]))


class TestPredictionRule:
    def test_same_weights_predict_identically_across_heads(self):
        rng = np.random.default_rng(6)
        h = rng.normal(size=(10, 5))
        w = head_weights(5, 4, rng, 0.5)
        labels = rng.integers(0, 4, size=10)
        outs = [
            apply_head(HeadSpec(kind, 4, c=1.0, weight_decay=0.1), w, h, labels)
            for kind in ("softmax", "l1svm", "l2svm")
        ]
        # identical scores, hence identical argmax predictions
        for out in outs[1:]:
            npt.assert_array_equal(out.scores, outs[0].scores)
        preds = predict(outs[0].scores)
        npt.assert_array_equal(preds, np.argmax(outs[0].scores, axis=1))

    def test_error_rate(self):
        scores = np.array([[2.0, 1.0], [0.0, 1.0], [3.0, 0.0], [0.0, 2.0]])
        assert error_rate_pct(scores, np.array([0, 1, 0, 1])) == 0.0
        assert error_rate_pct(scores, np.array([1, 1, 0, 1])) == 25.0
        with pytest.raises(DomainError):
            error_rate_pct(np.zeros((0, 2)), np.zeros(0, dtype=int))


@pytest.mark.parametrize("kind", ["softmax", "l1svm", "l2svm"])
def test_empty_batch_is_a_domain_error(kind):
    with pytest.raises(DomainError, match="empty batch"):
        apply_head(_spec(kind), np.zeros((3, 2)), np.zeros((0, 2)),
                   np.zeros(0, dtype=int))


class TestHeadSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            HeadSpec("mse", 3)
        with pytest.raises(DomainError):
            HeadSpec("softmax", 1)
        with pytest.raises(DomainError):
            HeadSpec("l1svm", 3, c=0.0)
        with pytest.raises(DomainError):
            HeadSpec("softmax", 3, weight_decay=-0.1)
        # every family is reported under both constants, whatever the kind
        for kind, c, weight_decay in (("softmax", -1.0, 0.0),
                                      ("l2svm", np.inf, 0.0),
                                      ("l1svm", np.nan, 0.0),
                                      ("l2svm", 0.1, -0.1),
                                      ("softmax", 0.1, np.inf)):
            with pytest.raises(DomainError):
                HeadSpec(kind, 3, c=c, weight_decay=weight_decay)

    def test_augment_ones_appends_bias_column(self):
        h = np.array([[1.0, 2.0]])
        npt.assert_array_equal(augment_ones(h), [[1.0, 2.0, 1.0]])

    def test_head_scores_of_augmented_activations_write_out(self):
        # the same bytes from h, from augment_ones(h) and into out
        rng = np.random.default_rng(4)
        w, h = rng.normal(size=(4, 2)), rng.normal(size=(5, 3))
        want = head_scores(w, h)
        ha = augment_ones(h)
        out = np.full((7, 2), np.nan)[1:6]
        assert head_scores(w, ha, out=out, augmented=True) is out
        assert out.tobytes() == want.tobytes()
        assert head_scores(w, ha, augmented=True).tobytes() == want.tobytes()
        with pytest.raises(ShapeError):
            head_scores(w, h, augmented=True)

    def test_apply_head_augments_once(self, monkeypatch):
        hstack = np.hstack
        calls = []
        monkeypatch.setattr(heads_mod.np, "hstack",
                            lambda *a: calls.append(a) or hstack(*a))
        rng = np.random.default_rng(5)
        apply_head(HeadSpec("l2svm", 3), rng.normal(size=(3, 3)), rng.normal(size=(7, 2)),
                   np.arange(7) % 3)
        assert len(calls) == 1
