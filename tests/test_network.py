import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from marginnet import gradcheck as gc
from marginnet import network
from marginnet.harness import ensemble_predict, evaluate_objectives, member_scores
from marginnet.heads import HEAD_KINDS, HeadSpec
from marginnet.layers import LayerStateError
from marginnet.network import build_convnet, build_mlp
from marginnet.tensor import ShapeError

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
def test_forward_only_calls_leave_no_backward_state(arch, call, monkeypatch):
    net, x = _eval_net(arch)
    labels = np.arange(x.shape[0]) % 3
    monkeypatch.setattr(network, "SCORE_CHUNK", 4)  # several chunks per call
    net.forward(x)  # a caching forward leaves state in every layer
    if call == "evaluate_objectives":
        evaluate_objectives(net, x, labels)
    elif call == "head_output":
        net.head_output(x, labels)
    elif call == "ensemble_predict":
        ensemble_predict([net, net], x)
    else:
        getattr(net, call)(x)
    for layer in net.layers:
        with pytest.raises(LayerStateError):
            layer.backward(np.zeros(1))


def test_scores_of_an_empty_batch_are_still_shape_checked():
    net = build_mlp(5, [4], HeadSpec("l2svm", 3))
    assert net.scores(np.zeros((0, 5))).shape == (0, 3)
    with pytest.raises(ShapeError):
        net.scores(np.zeros((0, 7)))


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


# Scores of an MLP 5 -> [64] -> 4 classes on 4,000 rows, by every route,
# against the head run on the two 2,000-row chunks of evaluation.  The
# chunk's head product falls under OpenBLAS's small-matrix cutoff and the
# whole split's does not, so scoring the split at once changes last bits.
SCORE_ROUTES = """
import json
import numpy as np
from marginnet import harness
from marginnet.heads import HeadSpec, head_scores
from marginnet.network import build_mlp

rng = np.random.default_rng(12)
net = build_mlp(5, [64], HeadSpec("l2svm", 4), rng=rng, init_std=0.5)
x = rng.normal(size=(4000, 5))
want = np.concatenate([
    head_scores(net.head_weights, net.forward(x[s : s + 2000], cache=False))
    for s in (0, 2000)
])
voted = []
vote = harness.ensemble_vote
harness.ensemble_vote = lambda models, scores: voted.extend(scores) or vote(models, scores)
harness.ensemble_predict([net], x)
routes = {"member_scores": harness.member_scores([net], x)[0],
          "ensemble_predict": voted[0], "scores": net.scores(x)}
print(json.dumps([name for name, got in routes.items()
                  if got.tobytes() != want.tobytes()]))
"""


def test_every_route_scores_in_evaluation_chunks_at_one_blas_thread():
    # BLAS results are only reproducible at a fixed thread count, and the
    # thread count is fixed when numpy loads, hence a child process.
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", SCORE_ROUTES], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == []


def test_member_scores_memory_is_bounded_by_the_chunk():
    spec = HeadSpec("l2svm", 3, c=0.1)
    rng = np.random.default_rng(13)
    net = build_convnet((1, 12, 12), [2, 4], 3, 16, 0.0, spec, rng=rng, init_std=0.1)
    x = rng.normal(size=(5 * network.SCORE_CHUNK // 2, 1, 12, 12))

    def peak(rows):
        tracemalloc.start()
        try:
            member_scores([net], x[:rows])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(len(x)) < 1.2 * peak(network.SCORE_CHUNK)
