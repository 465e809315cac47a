import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from marginnet import gradcheck as gc
from marginnet.layers import (
    IMAGE_BLOCK,
    Conv2dLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    LayerStateError,
    MaxPool2x2Layer,
    ReluLayer,
    dropout_mask,
    gaussian_noise,
)
from marginnet.tensor import DomainError, ShapeError

KINK_CLEARANCE = 1e-3  # finite differences stay this far from relu/pool kinks


def _kink_free_normal(rng, shape):
    x = rng.normal(size=shape)
    x[np.abs(x) < KINK_CLEARANCE] += 2 * KINK_CLEARANCE
    return x


# Reference implementations: the straightforward einsum convolution and
# the argmax max-pool that the layers module used before its GEMM and
# strided-view rewrites.  The layers must agree with them.


def _reference_conv_patches(x, k, padding, stride):
    n, c, h, w = x.shape
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, k, k, ho, wo))
    for a in range(k):
        for b in range(k):
            cols[:, :, a, b] = xp[
                :, :, a : a + ho * stride : stride, b : b + wo * stride : stride
            ]
    return cols, xp.shape


def _reference_conv_forward(x, filters, bias, padding, stride):
    cols, _ = _reference_conv_patches(x, filters.shape[-1], padding, stride)
    out = np.einsum("ncabhw,fcab->nfhw", cols, filters)
    return out + bias[None, :, None, None]


def _reference_conv_backward(x, filters, d_out, padding, stride):
    """Returns (d_input, d_filters, d_bias)."""
    k = filters.shape[-1]
    n, c, h, w = x.shape
    ho, wo = d_out.shape[2:]
    cols, xp_shape = _reference_conv_patches(x, k, padding, stride)
    d_filters = np.einsum("nfhw,ncabhw->fcab", d_out, cols)
    d_cols = np.einsum("nfhw,fcab->ncabhw", d_out, filters)
    d_xp = np.zeros(xp_shape)
    for a in range(k):
        for b in range(k):
            d_xp[
                :, :, a : a + ho * stride : stride, b : b + wo * stride : stride
            ] += d_cols[:, :, a, b]
    d_input = d_xp[:, :, padding : padding + h, padding : padding + w]
    return d_input, d_filters, d_out.sum(axis=(0, 2, 3))


def _reference_maxpool2x2(x):
    n, c, h, w = x.shape
    windows = (
        x.reshape(n, c, h // 2, 2, w // 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h // 2, w // 2, 4)
    )
    switches = np.argmax(windows, axis=-1)
    pooled = np.take_along_axis(windows, switches[..., None], axis=-1)[..., 0]
    return pooled, switches


def _routing(switches):
    """The input gradient that routes 1.0 from each pooled cell to the
    window position ``switches`` names, 0.0 elsewhere."""
    n, c, ho, wo = switches.shape
    hits = (np.arange(4) == switches[..., None]).astype(float)
    return (
        hits.reshape(n, c, ho, wo, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, 2 * ho, 2 * wo)
    )


# float64 summation-order differences between two correct contractions
# stay near 1e-15 relative; 1e-12 leaves room without hiding a wrong term.
REF_RTOL = 1e-12


def _assert_matches_reference(got, want):
    assert got.shape == want.shape
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1.0)
    npt.assert_allclose(got, want, rtol=REF_RTOL, atol=REF_RTOL * scale)


class TestDense:
    def test_worked_forward(self):
        layer = DenseLayer(2, 2)
        layer.weights[...] = [[1.0, 0.0], [0.0, 2.0]]
        layer.bias[...] = [1.0, 1.0]
        out = layer.forward(np.array([[1.0, 2.0]]))
        npt.assert_array_equal(out, [[2.0, 5.0]])

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        layer = DenseLayer(3, 4, rng=rng, init_std=0.5)
        x = rng.normal(size=(5, 3))
        r = rng.normal(size=(5, 4))  # fixed projection makes a scalar loss
        layer.forward(x)
        d_x = layer.backward(r)

        def loss():
            return float(np.sum((x @ layer.weights + layer.bias) * r))

        assert gc.check_gradient("d_w", loss, layer.weights, layer.d_weights).passed
        assert gc.check_gradient("d_b", loss, layer.bias, layer.d_bias).passed
        assert gc.check_gradient("d_x", loss, x, d_x).passed

    def test_backward_without_forward_is_a_state_error(self):
        layer = DenseLayer(2, 2)
        with pytest.raises(LayerStateError):
            layer.backward(np.zeros((1, 2)))

    def test_grads_accumulate_nowhere(self):
        # two forward/backward rounds give identical gradients, not sums
        rng = np.random.default_rng(1)
        layer = DenseLayer(3, 2, rng=rng, init_std=0.1)
        x = rng.normal(size=(4, 3))
        r = rng.normal(size=(4, 2))
        layer.forward(x)
        layer.backward(r)
        first = layer.d_weights.copy()
        layer.forward(x)
        layer.backward(r)
        second = layer.d_weights
        npt.assert_array_equal(first, second)


class TestRelu:
    def test_values_and_subgradient_zero_at_zero(self):
        layer = ReluLayer()
        x = np.array([-2.0, 0.0, 3.0])
        npt.assert_array_equal(layer.forward(x), [0.0, 0.0, 3.0])
        d = layer.backward(np.ones(3))
        npt.assert_array_equal(d, [0.0, 0.0, 1.0])

    def test_backward_shape_mismatch_rejected(self):
        layer = ReluLayer()
        layer.forward(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            layer.backward(np.ones((3, 2)))

    def test_backward_matches_fd_away_from_kink(self):
        rng = np.random.default_rng(2)
        x = _kink_free_normal(rng, (6, 5))
        r = rng.normal(size=(6, 5))
        results = gc.check_layer("relu", ReluLayer(), x, r)
        assert [res.name for res in results] == ["relu.d_input"]
        assert results[0].passed


class TestConv2d:
    def test_ones_filter_counts_window(self):
        # 3x3 ones input, one 2x2 ones filter, stride 1, padding 0
        layer = Conv2dLayer(1, 1, 2, padding=0)
        layer.filters[...] = 1.0
        out = layer.forward(np.ones((1, 1, 3, 3)))
        npt.assert_array_equal(out, np.full((1, 1, 2, 2), 4.0))

    def test_delta_filter_crops_input(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 1, 6, 6))
        layer = Conv2dLayer(1, 1, 3, padding=0)
        layer.filters[...] = 0.0
        layer.filters[0, 0, 0, 0] = 1.0  # kernel origin only
        out = layer.forward(x)
        npt.assert_array_equal(out[0, 0], x[0, 0, :4, :4])

    def test_default_padding_preserves_spatial_dims(self):
        layer = Conv2dLayer(2, 3, 3)
        out = layer.forward(np.zeros((2, 2, 8, 8)))
        assert out.shape == (2, 3, 8, 8)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        layer = Conv2dLayer(2, 3, 3, padding=1, rng=rng, init_std=0.5)
        x = rng.normal(size=(1, 2, 6, 6))
        r = rng.normal(size=(1, 3, 6, 6))
        layer.forward(x)
        d_x = layer.backward(r)

        def loss():
            fresh = Conv2dLayer(2, 3, 3, padding=1)
            fresh.filters[...] = layer.filters
            fresh.bias[...] = layer.bias
            return float(np.sum(fresh.forward(x) * r))

        assert gc.check_gradient("d_f", loss, layer.filters, layer.d_filters).passed
        assert gc.check_gradient("d_b", loss, layer.bias, layer.d_bias).passed
        assert gc.check_gradient("d_x", loss, x, d_x).passed

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, None])
    def test_matches_einsum_reference(self, kernel, stride, padding):
        rng = np.random.default_rng(100 + 10 * kernel + 2 * stride + (padding is None))
        for _ in range(3):
            n = int(rng.integers(2, 5))
            c_in = int(rng.integers(2, 4))
            c_out = int(rng.integers(1, 4))
            h = int(rng.integers(kernel, kernel + 6))
            w = h + int(rng.integers(1, 4))  # never square
            layer = Conv2dLayer(c_in, c_out, kernel, padding=padding,
                                stride=stride, rng=rng, init_std=0.5)
            layer.bias[...] = rng.normal(size=c_out)
            x = rng.normal(size=(n, c_in, h, w))
            out = layer.forward(x)
            _assert_matches_reference(
                out, _reference_conv_forward(
                    x, layer.filters, layer.bias, layer.padding, stride
                )
            )
            r = rng.normal(size=out.shape)
            d_x = layer.backward(r)
            d_input, d_filters, d_bias = _reference_conv_backward(
                x, layer.filters, r, layer.padding, stride
            )
            _assert_matches_reference(d_x, d_input)
            _assert_matches_reference(layer.d_filters, d_filters)
            _assert_matches_reference(layer.d_bias, d_bias)
            d_filters_out, d_bias_out = layer.param_grads()
            assert d_filters_out is layer.d_filters and d_bias_out is layer.d_bias

    def test_strided_batch_backward_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        layer = Conv2dLayer(2, 3, 3, stride=2, rng=rng, init_std=0.5)
        layer.bias[...] = rng.normal(size=3)
        x = rng.normal(size=(3, 2, 7, 6))
        out = layer.forward(x)
        assert out.shape == (3, 3, 4, 3)
        r = rng.normal(size=out.shape)
        d_x = layer.backward(r)

        def loss():
            fresh = Conv2dLayer(2, 3, 3, stride=2)
            fresh.filters[...] = layer.filters
            fresh.bias[...] = layer.bias
            return float(np.sum(fresh.forward(x) * r))

        assert gc.check_gradient("d_f", loss, layer.filters, layer.d_filters).passed
        assert gc.check_gradient("d_b", loss, layer.bias, layer.d_bias).passed
        assert gc.check_gradient("d_x", loss, x, d_x).passed

    def test_bad_geometry_rejected(self):
        layer = Conv2dLayer(1, 1, 5, padding=0)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 1, 3, 3)))  # kernel larger than input
        with pytest.raises(ShapeError):
            Conv2dLayer(1, 1, 3).forward(np.zeros((1, 2, 6, 6)))  # channels


# Inference (cache-free) conv forward against the caching forward:
# (in_channels, out_channels, kernel, stride, n, h, w).  The MNIST conv1
# and conv2 shapes at batch sizes around and past the 8-image block, then
# kernels 1/3/5 at strides 1/2 on non-square inputs.
CONV_CASES = (
    [(1, 32, 5, 1, n, 28, 28) for n in (1, 7, 37, 200)]
    + [(32, 64, 5, 1, n, 14, 14) for n in (1, 7, 37, 200)]
    + [(3, 4, k, s, 19, 9, 12) for k in (1, 3, 5) for s in (1, 2)]
)


def conv_forward_both_ways(case):
    """(caching forward, cache-free forward) of one seeded layer."""
    c_in, c_out, k, stride, n, h, w = case
    rng = np.random.default_rng(sum(case))
    layer = Conv2dLayer(c_in, c_out, k, stride=stride, rng=rng, init_std=0.3)
    layer.bias[...] = rng.normal(size=c_out)
    x = rng.normal(size=(n, c_in, h, w))
    cached = layer.forward(x)
    return cached, layer.forward(x, cache=False)


class TestConvInferenceForward:
    def test_bytes_match_caching_forward_at_one_blas_thread(self):
        # BLAS results are only reproducible at a fixed thread count, and
        # the thread count is fixed when numpy loads, hence a child process.
        here = os.path.dirname(os.path.abspath(__file__))
        path = os.environ.get("PYTHONPATH")
        src = os.path.join(os.path.dirname(here), "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=src if not path else src + os.pathsep + path)
        code = (
            "import json, sys\n"
            f"sys.path.insert(0, {here!r})\n"
            "import test_layers as t\n"
            "bad = []\n"
            "for case in t.CONV_CASES:\n"
            "    cached, free = t.conv_forward_both_ways(case)\n"
            "    if cached.shape != free.shape or cached.tobytes() != free.tobytes():\n"
            "        bad.append(case)\n"
            "print(json.dumps(bad))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout) == []

    @pytest.mark.parametrize("case", CONV_CASES, ids=str)
    def test_matches_caching_forward_at_default_threads(self, case):
        cached, free = conv_forward_both_ways(case)
        assert free.flags.c_contiguous
        _assert_matches_reference(free, cached)

    def test_caches_no_patch_matrix(self):
        layer = Conv2dLayer(2, 3, 3)
        x = np.ones((9, 2, 5, 5))
        layer.forward(x)
        assert layer._cache[0].shape == (18, 9 * 25)
        layer.forward(x, cache=False)
        assert layer._cache is None

    def test_empty_batch(self):
        out = Conv2dLayer(2, 3, 3).forward(np.zeros((0, 2, 5, 5)), cache=False)
        assert out.shape == (0, 3, 5, 5)


def test_caching_forward_builds_no_product_temporary():
    # conv-mnist's conv1 at batch 200: beyond the kept patches, the output
    # and the padded input, only one image block's product buffer is
    # allowed.  A one-GEMM forward adds an output-sized [F, N*Ho*Wo]
    # product (40 MB here).
    rng = np.random.default_rng(4)
    layer = Conv2dLayer(1, 32, 5, rng=rng)
    x = rng.normal(size=(200, 1, 28, 28))
    tracemalloc.start()
    try:
        out = layer.forward(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    patches = layer._cache[0]
    assert patches.shape == (25, 200 * 28 * 28)
    padded = x.nbytes * 32 * 32 // (28 * 28)
    block_product = out.nbytes * IMAGE_BLOCK // 200
    slack = block_product + 1_000_000
    assert peak < patches.nbytes + out.nbytes + padded + slack


# One constructor per layer type, with the input shape it takes.
LAYER_TYPES = {
    "dense": (lambda rng: DenseLayer(4, 3, rng=rng), (5, 4)),
    "relu": (lambda rng: ReluLayer(), (5, 4)),
    "conv": (lambda rng: Conv2dLayer(2, 3, 3, rng=rng), (2, 2, 4, 4)),
    "maxpool": (lambda rng: MaxPool2x2Layer(), (2, 2, 4, 4)),
    "flatten": (lambda rng: FlattenLayer(), (2, 2, 4, 4)),
    "dropout": (lambda rng: DropoutLayer(0.5), (5, 4)),
}


@pytest.mark.parametrize("kind", LAYER_TYPES)
def test_second_backward_is_a_state_error(kind):
    make, shape = LAYER_TYPES[kind]
    rng = np.random.default_rng(21)
    layer, x = make(rng), rng.normal(size=shape)
    out = layer.forward(x, train=True, rng=np.random.default_rng(1))
    layer.backward(np.ones_like(out))
    with pytest.raises(LayerStateError):
        layer.backward(np.ones_like(out))


class TestCacheFreeForward:
    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("kind", LAYER_TYPES)
    def test_clears_state_and_keeps_the_output(self, kind, train):
        make, shape = LAYER_TYPES[kind]
        rng = np.random.default_rng(20)
        layer, x = make(rng), rng.normal(size=shape)
        cached = layer.forward(x, train=train, rng=np.random.default_rng(1))
        free = layer.forward(x, train=train, rng=np.random.default_rng(1), cache=False)
        assert free.tobytes() == cached.tobytes()
        # The earlier caching forward left state; the cache-free one dropped it.
        with pytest.raises(LayerStateError):
            layer.backward(np.ones_like(cached))

    @pytest.mark.parametrize("make", [
        lambda rng: (DenseLayer(4, 3, rng=rng, init_std=0.5), (5, 4)),
        lambda rng: (Conv2dLayer(2, 3, 3, stride=2, rng=rng, init_std=0.5), (3, 2, 7, 6)),
    ], ids=["dense", "conv"])
    def test_backward_without_input_grad_keeps_parameter_grads(self, make):
        rng = np.random.default_rng(22)
        layer, shape = make(rng)
        x = rng.normal(size=shape)
        r = rng.normal(size=layer.forward(x).shape)
        assert layer.backward(r) is not None
        want = [g.copy() for g in layer.param_grads()]
        layer.forward(x)
        assert layer.backward(r, input_grad=False) is None
        for got, expected in zip(layer.param_grads(), want):
            assert got.tobytes() == expected.tobytes()
        with pytest.raises(LayerStateError):
            layer.backward(r)


def _pool(x):
    """A caching pool of ``x``: the pooled output and the gradient that
    ``backward(ones)`` routes to each window's switch position."""
    layer = MaxPool2x2Layer()
    pooled = layer.forward(x)
    return pooled, layer.backward(np.ones_like(pooled))


class TestMaxPool:
    def test_values_and_switches(self):
        x = np.array(
            [[[[1.0, 2.0, 0.0, 0.0],
               [3.0, 4.0, 0.0, 0.0],
               [5.0, 5.0, 7.0, 8.0],
               [5.0, 5.0, 9.0, 6.0]]]]
        )
        pooled, routed = _pool(x)
        npt.assert_array_equal(pooled[0, 0], [[4.0, 0.0], [5.0, 9.0]])
        # constant window ties resolve to the first element (row-major)
        npt.assert_array_equal(
            routed[0, 0],
            [[0.0, 0.0, 1.0, 0.0],
             [0.0, 1.0, 0.0, 0.0],
             [1.0, 0.0, 0.0, 0.0],
             [0.0, 0.0, 1.0, 0.0]],
        )

    def test_backward_routes_to_argmax_only(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        layer = MaxPool2x2Layer()
        r = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        layer.forward(x)
        d = layer.backward(r)
        expected = np.zeros_like(x)
        expected[0, 0, 1::2, 1::2] = r[0, 0]  # bottom-right of each window wins
        npt.assert_array_equal(d, expected)

    def test_backward_matches_fd_with_distinct_windows(self):
        rng = np.random.default_rng(5)
        # Distinct values keep every window's argmax stable under eps.
        x = rng.permutation(np.arange(2 * 2 * 4 * 4) * 1.0).reshape(2, 2, 4, 4)
        r = rng.normal(size=(2, 2, 2, 2))
        results = gc.check_layer("maxpool", MaxPool2x2Layer(), x, r)
        assert [res.name for res in results] == ["maxpool.d_input"]
        assert results[0].passed

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError):
            MaxPool2x2Layer().forward(np.zeros((1, 1, 5, 4)))

    def test_backward_shape_mismatch_rejected(self):
        layer = MaxPool2x2Layer()
        layer.forward(np.zeros((1, 1, 4, 4)))
        with pytest.raises(ShapeError):
            layer.backward(np.ones((1, 1, 4, 4)))

    @staticmethod
    def _assert_same_bytes_as_reference(x):
        pooled, routed = _pool(x)
        want_pooled, want_switches = _reference_maxpool2x2(x)
        assert pooled.dtype == want_pooled.dtype
        assert pooled.shape == want_pooled.shape
        assert pooled.tobytes() == want_pooled.tobytes()
        assert routed.tobytes() == _routing(want_switches).tobytes()

    def test_matches_argmax_reference_bytewise(self):
        rng = np.random.default_rng(17)
        self._assert_same_bytes_as_reference(rng.normal(size=(3, 4, 6, 10)))
        # few distinct values: ties in most windows, in every position
        for _ in range(20):
            shape = (2, 3, 2 * int(rng.integers(1, 5)), 2 * int(rng.integers(1, 5)))
            self._assert_same_bytes_as_reference(
                rng.integers(-1, 2, size=shape).astype(float)
            )

    def test_signed_zeros_and_infinities_match_reference(self):
        rng = np.random.default_rng(18)
        values = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0])
        for _ in range(20):
            self._assert_same_bytes_as_reference(
                rng.choice(values, size=(2, 2, 4, 6))
            )
        # every ordering of +0.0 and -0.0 in one window
        for bits in range(16):
            window = [(-0.0 if bits >> i & 1 else 0.0) for i in range(4)]
            self._assert_same_bytes_as_reference(
                np.array(window).reshape(1, 1, 2, 2)
            )

    def test_nan_window_pools_to_its_first_nan(self):
        rng = np.random.default_rng(19)
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        x[0, 0, 1, 0] = np.nan  # window (0, 0), index 2
        x[0, 0, 2, 3] = np.nan  # window (1, 1), index 1
        x[0, 0, 3, 3] = np.nan  # window (1, 1), index 3
        pooled, routed = _pool(x)
        assert np.isnan(pooled[0, 0, 0, 0]) and routed[0, 0, 1, 0] == 1.0
        assert np.isnan(pooled[0, 0, 1, 1]) and routed[0, 0, 2, 3] == 1.0
        assert routed.sum() == 4.0
        assert pooled[0, 0, 0, 1] == 7.0 and pooled[0, 0, 1, 0] == 13.0
        self._assert_same_bytes_as_reference(x)
        values = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 2.0])
        for _ in range(20):
            self._assert_same_bytes_as_reference(
                rng.choice(values, size=(2, 2, 4, 4))
            )

    def test_empty_batch(self):
        pooled, routed = _pool(np.zeros((0, 2, 4, 4)))
        assert pooled.shape == (0, 2, 2, 2)
        assert routed.shape == (0, 2, 4, 4)

    def test_switch_free_pooling_matches_bytewise(self):
        rng = np.random.default_rng(23)
        values = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0])
        inputs = [rng.normal(size=(3, 4, 6, 10))]
        inputs += [rng.choice(values, size=(2, 3, 4, 6)) for _ in range(30)]
        inputs += [rng.choice(values[2:], size=(2, 3, 4, 6)) for _ in range(30)]
        layer = MaxPool2x2Layer()
        for x in inputs:
            pooled = layer.forward(x, cache=False)
            want = layer.forward(x)
            assert pooled.shape == want.shape
            assert pooled.tobytes() == want.tobytes()


class TestFlatten:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 2, 4, 4))
        layer = FlattenLayer()
        flat = layer.forward(x)
        assert flat.shape == (3, 32)
        npt.assert_array_equal(layer.backward(flat), x)


class TestDropout:
    def test_eval_mode_is_bitwise_identity(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(10, 10))
        out = DropoutLayer(0.4).forward(x, train=False, rng=rng)
        assert out is x or np.array_equal(out, x)

    def test_rate_zero_is_identity(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 5))
        npt.assert_array_equal(DropoutLayer(0.0).forward(x, train=True, rng=rng), x)

    def test_kept_units_scaled_by_inverse_keep_rate(self):
        rng = np.random.default_rng(9)
        x = np.ones((100, 100))
        out = DropoutLayer(0.2).forward(x, train=True, rng=rng)
        kept = out[out != 0.0]
        npt.assert_allclose(kept, 1.0 / 0.8)

    def test_train_mean_preserved_monte_carlo(self):
        # rate 0.2 over 1e5 samples: mean within [0.99, 1.01] of input mean
        rng = np.random.default_rng(10)
        x = np.ones(100_000)
        out = DropoutLayer(0.2).forward(x, train=True, rng=rng)
        assert 0.99 <= out.mean() <= 1.01

    def test_rate_domain(self):
        with pytest.raises(DomainError):
            DropoutLayer(1.0)
        with pytest.raises(DomainError):
            DropoutLayer(-0.1)

    def test_layer_and_function_draw_the_same_mask(self):
        x = np.ones((6, 9))
        for seed, rate in ((21, 0.2), (22, 0.5)):
            # The draw both have always made: one uniform per unit.
            rng = np.random.default_rng(seed)
            want = (rng.random(x.shape) >= rate) / (1.0 - rate)
            layer = DropoutLayer(rate)
            from_layer = layer.forward(x, train=True, rng=np.random.default_rng(seed))
            helper = dropout_mask(x.shape, rate, np.random.default_rng(seed))
            for got in (layer._mask, from_layer, helper):
                assert got.tobytes() == want.tobytes()

    def test_layer_backward_reuses_forward_mask(self):
        rng = np.random.default_rng(12)
        layer = DropoutLayer(0.5)
        x = np.ones((4, 8))
        out = layer.forward(x, train=True, rng=rng)
        d_x = layer.backward(np.ones_like(out))
        # gradient passes exactly where activations passed, same scaling
        npt.assert_array_equal(d_x, out)


class TestGaussianNoise:
    def test_monte_carlo_moments(self):
        rng = np.random.default_rng(13)
        x = np.zeros(100_000)
        out = gaussian_noise(x, 1.0, rng)
        assert abs(out.mean()) < 0.02
        assert 0.99 <= out.std() <= 1.01

    def test_std_zero_is_identity(self):
        rng = np.random.default_rng(14)
        x = np.arange(6.0)
        npt.assert_array_equal(gaussian_noise(x, 0.0, rng), x)

    def test_negative_std_rejected(self):
        with pytest.raises(DomainError):
            gaussian_noise(np.zeros(3), -1.0, np.random.default_rng(15))
