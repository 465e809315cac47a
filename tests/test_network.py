import tracemalloc

import numpy as np
import pytest

from marginnet import gradcheck as gc
from marginnet.harness import ensemble_predict, evaluate_objectives
from marginnet.heads import HEAD_KINDS, HeadSpec
from marginnet.layers import LayerStateError
from marginnet.network import build_convnet, build_mlp

WD = 0.3


def _tiny_net(arch, kind, rng):
    spec = HeadSpec(kind, 3, c=0.7, weight_decay=0.1)
    if arch == "mlp":
        net = build_mlp(4, [5, 3], spec, rng=rng, init_std=0.5)
        return net, rng.normal(size=(6, 4))
    net = build_convnet((1, 4, 4), [2], 3, 5, 0.2, spec, rng=rng, init_std=0.5)
    return net, rng.normal(size=(6, 1, 4, 4))


@pytest.mark.parametrize("kind", HEAD_KINDS)
@pytest.mark.parametrize("arch", ["mlp", "conv"])
def test_backprop_with_lower_weight_decay_matches_finite_differences(arch, kind):
    rng = np.random.default_rng(5)
    net, x = _tiny_net(arch, kind, rng)
    y = rng.integers(0, 3, size=x.shape[0])

    def loss(wd=WD):
        return net.backprop(x, y, train=False, lower_weight_decay=wd).loss

    # The decay term is in the loss, summed over the stack weight tensors
    # only (dense weights and conv filters; no biases, no head).
    tensors = net.named_tensors()
    stack_weights = [t for name, t in tensors.items()
                     if name.endswith((".weights", ".filters")) and name != "head.weights"]
    assert len(stack_weights) == 2
    penalty = 0.5 * WD * sum(float(np.sum(w**2)) for w in stack_weights)
    assert loss() - loss(0.0) == pytest.approx(penalty, rel=1e-12)

    loss()
    grads = [g.copy() for g in net.grads()]
    assert len(grads) == len(tensors)
    for (name, param), grad in zip(tensors.items(), grads):
        result = gc.check_gradient(name, loss, param, grad)
        assert result.passed, result.summary()


def _eval_net(arch):
    spec = HeadSpec("l2svm", 3, c=0.7, weight_decay=0.1)
    rng = np.random.default_rng(8)
    if arch == "mlp":
        net = build_mlp(4, [5, 3], spec, rng=rng, init_std=0.5)
        return net, rng.normal(size=(7, 4))
    net = build_convnet((1, 8, 8), [2, 3], 3, 5, 0.2, spec, rng=rng, init_std=0.5)
    return net, rng.normal(size=(11, 1, 8, 8))


@pytest.mark.parametrize("arch", ["mlp", "conv"])
@pytest.mark.parametrize("call", ["evaluate_objectives", "scores", "predict",
                                  "head_output", "ensemble_predict"])
def test_forward_only_calls_leave_no_backward_state(arch, call):
    net, x = _eval_net(arch)
    labels = np.arange(x.shape[0]) % 3
    net.forward(x)  # a caching forward leaves state in every layer
    if call == "evaluate_objectives":
        evaluate_objectives(net, x, labels, chunk=4)
    elif call == "head_output":
        net.head_output(x, labels)
    elif call == "ensemble_predict":
        ensemble_predict([net, net], x)
    else:
        getattr(net, call)(x)
    for layer in net.layers:
        with pytest.raises(LayerStateError):
            layer.backward(np.zeros(1))


def test_scores_retain_no_activations():
    # A 50 -> 256 -> 256 mlp over 10k rows caches 65 MB of activations
    # when its forward keeps backward state.
    spec = HeadSpec("l2svm", 10, c=0.01, weight_decay=0.0)
    rng = np.random.default_rng(9)
    net = build_mlp(50, [256, 256], spec, rng=rng, init_std=0.1)
    x = rng.normal(size=(10_000, 50))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        scores = net.scores(x)
        del scores
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 1_000_000
