import gc as cyclic_gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from marginnet import gradcheck as gc
from marginnet import network
from marginnet.harness import (
    LoadedModel,
    ensemble_predict,
    evaluate_objectives,
    member_scores,
    save_model,
)
from marginnet.heads import HEAD_KINDS, HeadSpec
from marginnet.layers import (
    Conv2dLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    LayerStateError,
    MaxPool2x2Layer,
    ReluLayer,
)
from marginnet.network import Network, build_convnet, build_mlp
from marginnet.tensor import DomainError, ShapeError

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
        # A fresh rng per call: the conv net's dropout draws one mask.
        return net.backprop(x, y, rng=np.random.default_rng(6),
                            lower_weight_decay=wd).loss

    # The decay term is in the loss, summed over the stack weight tensors
    # only (dense weights and conv filters; no biases, no head).
    tensors = net.named_tensors()
    stack_weights = [t for name, t in tensors.items()
                     if name.endswith((".weights", ".filters")) and name != "head.weights"]
    assert len(stack_weights) == 2
    penalty = 0.5 * WD * sum(float(np.sum(w**2)) for w in stack_weights)
    assert loss() - loss(0.0) == pytest.approx(penalty, rel=1e-12)

    loss()
    grads = [slot.of(net.grad).copy() for slot in net.table]
    assert len(grads) == len(tensors)
    for (name, param), grad in zip(tensors.items(), grads):
        result = gc.check_gradient(name, loss, param, grad)
        assert result.passed, result.summary()


def _assert_slot_view(tensor, flat, slot):
    """``tensor`` is the C-contiguous view of ``flat`` over ``slot``."""
    assert tensor.base is flat and tensor.flags.c_contiguous
    assert tensor.shape == slot.shape
    start = tensor.__array_interface__["data"][0] - flat.__array_interface__["data"][0]
    assert start == slot.span.start * flat.itemsize


def _recording(method, calls):
    """``method`` that first appends ``(layer, args)`` to ``calls``, the
    arguments after the input: ``(params,)`` or ``(params, grads)``."""
    def record(self, *args, **kwargs):
        calls.append((self, args[1:]))
        return method(self, *args, **kwargs)
    return record


@pytest.mark.parametrize("arch, names", [
    ("mlp", ["layer0.weights", "layer0.bias", "layer2.weights", "layer2.bias"]),
    ("conv", ["layer0.filters", "layer0.bias", "layer4.weights", "layer4.bias"]),
])
def test_parameters_and_gradients_are_views_of_one_flat_buffer(arch, names, tmp_path,
                                                               monkeypatch):
    net, x = _tiny_net(arch, "l2svm", np.random.default_rng(12))
    assert [slot.name for slot in net.table] == names + ["head.weights"]
    assert list(net.named_tensors()) == names + ["head.weights"]
    # The spans tile the buffer in table order: no gap, no overlap.
    spans = [slot.span for slot in net.table]
    assert [s.start for s in spans] == [0] + [s.stop for s in spans[:-1]]
    assert spans[-1].stop == net.param.size
    for slot in net.table:
        assert slot.span.stop - slot.span.start == math.prod(slot.shape) > 0
        _assert_slot_view(net.named_tensors()[slot.name], net.param, slot)
    _assert_slot_view(net.head_weights, net.param, net.table[-1])
    assert [slot for slots in net.layer_slots for slot in slots] == net.table[:-1]
    save_model(str(tmp_path), net)
    blob = (tmp_path / "params.bin").read_bytes()
    assert net.param.tobytes() == blob[: net.param.nbytes]

    # Each parameter layer computes with views of the store and writes its
    # gradients into views of the step's gradient buffer.
    calls = []
    for layer_type in (DenseLayer, Conv2dLayer):
        for name in ("forward", "backward"):
            monkeypatch.setattr(layer_type, name,
                                _recording(getattr(layer_type, name), calls))
    net.backprop(x, np.arange(x.shape[0]) % 3, rng=np.random.default_rng(13))
    slots = {id(layer): slots for layer, slots in zip(net.layers, net.layer_slots)}
    assert [len(args) for _, args in calls] == [1, 1, 2, 2]
    for layer, args in calls:
        for flat, views in zip((net.param, net.grad), args):
            assert len(views) == len(slots[id(layer)]) == 2
            for view, slot in zip(views, slots[id(layer)]):
                _assert_slot_view(view, flat, slot)


def test_a_dropped_network_frees_its_buffers_by_reference_counting():
    # No reference cycle holds the flat buffers: they go with the last
    # reference to the network, not at a later run of the cyclic collector.
    net, x = _tiny_net("conv", "l2svm", np.random.default_rng(14))
    net.backprop(x, np.arange(x.shape[0]) % 3, rng=np.random.default_rng(15))
    refs = [weakref.ref(net.param), weakref.ref(net.grad)]
    cyclic_gc.disable()
    try:
        del net
        assert all(ref() is None for ref in refs)
    finally:
        cyclic_gc.enable()


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
    # a training forward leaves state in every layer
    net.forward(x, train=True, rng=np.random.default_rng(1))
    if call == "evaluate_objectives":
        evaluate_objectives(net, x, labels)
    elif call == "head_output":
        net.head_output(x, labels)
    elif call == "ensemble_predict":
        member = LoadedModel(net, None, None, {})
        ensemble_predict([member, member], x)
    else:
        getattr(net, call)(x)
    for layer, slots in zip(net.layers, net.layer_slots):
        views = [slot.of(net.param) for slot in slots]
        with pytest.raises(LayerStateError):
            layer.backward(np.zeros(1), views, [np.empty_like(v) for v in views])


@pytest.mark.parametrize("build", [
    lambda spec: build_mlp(4, [5, 0], spec),
    lambda spec: build_convnet((1, 8, 8), [], 3, 5, 0.0, spec),
    lambda spec: build_convnet((1, 8, 8), [2, 0], 3, 5, 0.0, spec),
    lambda spec: build_convnet((1, 8, 8), [2, -1], 3, 5, 0.0, spec),
    lambda spec: build_convnet((1, 8, 8), [2, 3], 3, 0, 0.0, spec),
    lambda spec: build_convnet((1, 8, 8), [2, 3], 4, 5, 0.0, spec),
], ids=["mlp-width-0", "no-conv-block", "conv-width-0", "conv-width-neg",
        "dense-0", "even-kernel"])
def test_builders_reject_bad_architectures(build):
    with pytest.raises(DomainError):
        build(HeadSpec("l2svm", 3))


def test_scores_of_an_empty_batch_are_still_shape_checked():
    net = build_mlp(5, [4], HeadSpec("l2svm", 3))
    assert net.scores(np.zeros((0, 5))).shape == (0, 3)
    with pytest.raises(ShapeError):
        net.scores(np.zeros((0, 7)))


@pytest.mark.parametrize("arch", ["mlp", "conv"])
def test_unscaled_pixels_never_reach_a_layer(arch):
    # bytes taken as 0-255 values would train and score silently wrong
    net, x = _tiny_net(arch, "l2svm", np.random.default_rng(13))
    pixels = np.zeros(x.shape, dtype=np.uint8)
    for entry in (net.forward, net.scores, net.predict,
                  lambda p: net.backprop(p, np.zeros(len(p), dtype=np.int64))):
        with pytest.raises(DomainError, match="uint8 pixels"):
            entry(pixels)


def test_scores_transform_each_chunk():
    # a transform applied per chunk of pixels scores like the transformed
    # rows at once: the chunks are the same either way
    net = build_mlp(6, [8], HeadSpec("l2svm", 3), rng=np.random.default_rng(14),
                    init_std=0.5)
    pixels = np.random.default_rng(15).integers(0, 256, size=(4500, 6), dtype=np.uint8)
    chunks = []

    def scale(rows):
        chunks.append(len(rows))
        return rows / 255.0

    assert net.scores(pixels, scale).tobytes() == net.scores(pixels / 255.0).tobytes()
    assert chunks == [network.SCORE_CHUNK, network.SCORE_CHUNK, 500]


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
    head_scores(net.head_weights, net.forward(x[s : s + 2000]))
    for s in (0, 2000)
])
member = harness.LoadedModel(net, None, None, {})
voted = []
vote = harness.ensemble_vote
harness.ensemble_vote = lambda models, scores: voted.extend(scores) or vote(models, scores)
harness.ensemble_predict([member], x)
routes = {"member_scores": harness.member_scores([member], x)[0],
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
    member = LoadedModel(net, None, None, {})

    def peak(rows):
        tracemalloc.start()
        try:
            member_scores([member], x[:rows])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(len(x)) < 1.2 * peak(network.SCORE_CHUNK)


@pytest.mark.parametrize("channels, names", [
    ([2], ["layer0.filters", "layer0.bias", "layer4.weights", "layer4.bias"]),
    ([2, 3], ["layer0.filters", "layer0.bias", "layer3.filters", "layer3.bias",
              "layer7.weights", "layer7.bias"]),
    ([2, 3, 2], ["layer0.filters", "layer0.bias", "layer3.filters", "layer3.bias",
                 "layer6.filters", "layer6.bias", "layer10.weights", "layer10.bias"]),
])
def test_conv_tensors_are_named_by_stack_position(channels, names):
    # a pooled conv block fills three positions: conv, pool and ReLU
    net = build_convnet((1, 8, 8), channels, 3, 5, 0.2, HeadSpec("l2svm", 3))
    assert list(net.named_tensors()) == names + ["head.weights"]


@pytest.mark.parametrize("kind", HEAD_KINDS)
def test_pool_before_relu_blocks_match_relu_before_pool(kind):
    # build_convnet's pooled conv blocks (conv -> pool -> ReLU) against
    # the same parameters in conv -> ReLU -> pool blocks built by hand
    # from standalone layers.  Zero patches make all four conv outputs of
    # a window equal the bias (a tie); the zero bias makes those windows
    # pool 0; the inputs hold signed zeros.
    spec = HeadSpec(kind, 3, c=0.7, weight_decay=0.1)
    net = build_convnet((2, 8, 8), [3, 4], 3, 6, 0.2, spec,
                        rng=np.random.default_rng(8), init_std=0.5)
    assert [(type(layer), layer.positions) for layer in net.layers[:2]] == [
        (Conv2dLayer, 3), (Conv2dLayer, 3)]
    ref = Network([Conv2dLayer(2, 3, 3), ReluLayer(), MaxPool2x2Layer(),
                   Conv2dLayer(3, 4, 3), ReluLayer(), MaxPool2x2Layer(),
                   FlattenLayer(), DenseLayer(16, 6), ReluLayer(),
                   DropoutLayer(0.2)], spec, 6, net.arch)
    net.named_tensors()["layer0.bias"][:] = [0.3, -0.2, 0.0]
    ref.param[...] = net.param
    assert list(net.named_tensors()) == list(ref.named_tensors())

    rng = np.random.default_rng(9)
    x = rng.normal(size=(5, 2, 8, 8))
    x[:, :, :5, :5] = 0.0  # conv1 sees only zeros over the top-left 2x2 windows
    x[1:3, :, :5, :5] = -0.0
    x[0, 0, 6:, :] = -0.0
    y = rng.integers(0, 3, size=5)

    assert net.scores(x).tobytes() == ref.scores(x).tobytes()
    out = net.backprop(x, y, rng=np.random.default_rng(10))
    ref_out = ref.backprop(x, y, rng=np.random.default_rng(10))
    assert np.float64(out.loss).tobytes() == np.float64(ref_out.loss).tobytes()
    assert len(net.table) == len(ref.table)
    for slot, ref_slot in zip(net.table, ref.table):
        assert slot.of(net.grad).tobytes() == ref_slot.of(ref.grad).tobytes()


# Builds the conv-mnist net (init drawn, or all zeros as a load rebuilds
# it) and saves it, or loads it; prints the ru_maxrss growth of that step
# over the size of the parameter store.
RSS_GROWTH = """
import resource, sys
import numpy as np
from marginnet.harness import load_model, save_model
from marginnet.heads import HeadSpec
from marginnet.network import build_convnet

step, model_dir = sys.argv[1:]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if step == "build":
    net = build_convnet((1, 28, 28), [32, 64], 5, 3072, 0.2, HeadSpec("l2svm", 10),
                        rng=np.random.default_rng(0))
else:
    net = load_model(model_dir).network
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
if step == "build":
    save_model(model_dir, net)
print(grown * 1024 / net.param.nbytes)
"""


def test_parameters_live_only_in_the_store(tmp_path):
    # The conv-mnist net's parameters take 74 MiB.  Drawing them into
    # layer arrays and copying those into the store, or reading a saved
    # model's tensors into arrays of their own first, holds them twice.
    # ru_maxrss is per process, hence a child process for each step.
    model_dir = str(tmp_path / "model")
    for step in ("build", "load"):
        proc = subprocess.run([sys.executable, "-c", RSS_GROWTH, step, model_dir],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert float(proc.stdout) <= 1.1, step


def test_conv_mnist_build_allocates_one_store():
    # The layers allocate no parameter arrays of their own: building the
    # conv-mnist net, init drawn, allocates little beyond its 77 MB store.
    tracemalloc.start()
    try:
        net = build_convnet((1, 28, 28), [32, 64], 5, 3072, 0.2, HeadSpec("l2svm", 10),
                            rng=np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * net.param.nbytes
