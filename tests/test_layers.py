import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from marginnet import gradcheck as gc
from marginnet.heads import HeadSpec
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
    init_gaussian,
    zero_params,
)
from marginnet.network import build_convnet
from marginnet.tensor import DomainError, ShapeError


def drawn(layer, rng, std=0.01):
    """``(layer, params)``: standalone parameters for ``layer``, its
    weight tensor drawn from ``rng`` as a network's builder draws it."""
    params = zero_params(layer)
    init_gaussian(params[0], rng, std)
    return layer, params


def test_layers_hold_no_parameter_or_gradient_arrays():
    # A layer's parameters are a name and a shape each; the arrays are
    # its caller's, passed to every forward and backward.
    rng = np.random.default_rng(11)
    for layer, x in ((DenseLayer(3, 2), rng.normal(size=(4, 3))),
                     (Conv2dLayer(2, 3, 3), rng.normal(size=(2, 2, 4, 4)))):
        before = set(vars(layer))
        params, grads = zero_params(layer), zero_params(layer)
        assert [p.shape for p in params] == list(layer.param_shapes)
        assert len(layer.param_shapes) == len(layer.param_names) == 2
        layer.backward(layer.forward(x, params, train=True), params, grads)
        assert set(vars(layer)) == before
        arrays = [k for k, v in vars(layer).items() if isinstance(v, np.ndarray)]
        assert arrays == []
    for layer in (ReluLayer(), MaxPool2x2Layer(), FlattenLayer(), DropoutLayer(0.5)):
        assert layer.param_names == layer.param_shapes == ()


def test_init_gaussian_is_the_normal_draw_in_place():
    drawn_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    out = np.zeros((300, 7))
    init_gaussian(out, drawn_rng, 0.1)
    assert out.tobytes() == ref_rng.normal(0.0, 0.1, size=(300, 7)).tobytes()
    kept = out.copy()
    init_gaussian(out, drawn_rng, 0.0)  # std 0 draws nothing
    assert out.tobytes() == kept.tobytes()
    assert drawn_rng.random() == ref_rng.random()


KINK_CLEARANCE = 1e-3  # finite differences stay this far from relu/pool kinks


def _kink_free_normal(rng, shape):
    x = rng.normal(size=shape)
    x[np.abs(x) < KINK_CLEARANCE] += 2 * KINK_CLEARANCE
    return x


# Reference implementations: the straightforward einsum convolution and
# the argmax max-pool that the layers module used before its GEMM and
# strided-view rewrites.  The layers must agree with them.


def _reference_conv_patches(x, k, padding):
    n, c, h, w = x.shape
    ho = h + 2 * padding - k + 1
    wo = w + 2 * padding - k + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, k, k, ho, wo))
    for a in range(k):
        for b in range(k):
            cols[:, :, a, b] = xp[:, :, a : a + ho, b : b + wo]
    return cols, xp.shape


def _reference_conv_forward(x, filters, bias, padding):
    cols, _ = _reference_conv_patches(x, filters.shape[-1], padding)
    out = np.einsum("ncabhw,fcab->nfhw", cols, filters)
    return out + bias[None, :, None, None]


def _reference_conv_backward(x, filters, d_out, padding):
    """Returns (d_input, d_filters, d_bias)."""
    k = filters.shape[-1]
    n, c, h, w = x.shape
    ho, wo = d_out.shape[2:]
    cols, xp_shape = _reference_conv_patches(x, k, padding)
    d_filters = np.einsum("nfhw,ncabhw->fcab", d_out, cols)
    d_cols = np.einsum("nfhw,fcab->ncabhw", d_out, filters)
    d_xp = np.zeros(xp_shape)
    for a in range(k):
        for b in range(k):
            d_xp[:, :, a : a + ho, b : b + wo] += d_cols[:, :, a, b]
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


def _reference_pool_backward(switches, d_out):
    """``d_out`` put along the window axis at each window's switch
    position, +0.0 elsewhere, as the layers module routed it before its
    strided-view rewrite."""
    n, c, ho, wo = switches.shape
    d_windows = np.zeros((n, c, ho, wo, 4))
    np.put_along_axis(d_windows, switches[..., None], d_out[..., None], axis=-1)
    return (
        d_windows.reshape(n, c, ho, wo, 2, 2)
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
        weights, bias = params = zero_params(layer)
        weights[...] = [[1.0, 0.0], [0.0, 2.0]]
        bias[...] = [1.0, 1.0]
        out = layer.forward(np.array([[1.0, 2.0]]), params)
        npt.assert_array_equal(out, [[2.0, 5.0]])

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        layer, params = drawn(DenseLayer(3, 4), rng, 0.5)
        weights, bias = params
        x = rng.normal(size=(5, 3))
        r = rng.normal(size=(5, 4))  # fixed projection makes a scalar loss
        d_weights, d_bias = grads = zero_params(layer)
        layer.forward(x, params, train=True)
        d_x = layer.backward(r, params, grads)

        def loss():
            return float(np.sum((x @ weights + bias) * r))

        assert gc.check_gradient("d_w", loss, weights, d_weights).passed
        assert gc.check_gradient("d_b", loss, bias, d_bias).passed
        assert gc.check_gradient("d_x", loss, x, d_x).passed

    def test_backward_without_forward_is_a_state_error(self):
        layer = DenseLayer(2, 2)
        with pytest.raises(LayerStateError):
            layer.backward(np.zeros((1, 2)), zero_params(layer), zero_params(layer))

    def test_grads_accumulate_nowhere(self):
        # two forward/backward rounds give identical gradients, not sums
        rng = np.random.default_rng(1)
        layer, params = drawn(DenseLayer(3, 2), rng, 0.1)
        x = rng.normal(size=(4, 3))
        r = rng.normal(size=(4, 2))
        grads = zero_params(layer)
        layer.forward(x, params, train=True)
        layer.backward(r, params, grads)
        first = grads[0].copy()
        layer.forward(x, params, train=True)
        layer.backward(r, params, grads)
        npt.assert_array_equal(first, grads[0])


class TestRelu:
    def test_values_and_subgradient_zero_at_zero(self):
        layer = ReluLayer()
        x = np.array([-2.0, 0.0, 3.0])
        npt.assert_array_equal(layer.forward(x, train=True), [0.0, 0.0, 3.0])
        d = layer.backward(np.ones(3))
        npt.assert_array_equal(d, [0.0, 0.0, 1.0])

    def test_backward_shape_mismatch_rejected(self):
        layer = ReluLayer()
        layer.forward(np.zeros((2, 3)), train=True)
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
        # 3x3 ones input, one 3x3 ones filter, padding 1: each output
        # counts the input cells its window covers.
        layer = Conv2dLayer(1, 1, 3)
        params = zero_params(layer)
        params[0][...] = 1.0
        out = layer.forward(np.ones((1, 1, 3, 3)), params)
        npt.assert_array_equal(out[0, 0], [[4, 6, 4], [6, 9, 6], [4, 6, 4]])

    def test_delta_filter_crops_input(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 1, 6, 6))
        layer = Conv2dLayer(1, 1, 3)
        params = zero_params(layer)
        params[0][0, 0, 0, 0] = 1.0  # kernel origin only
        out = layer.forward(x, params)
        # Output (i, j) reads padded (i, j), which is input (i-1, j-1).
        npt.assert_array_equal(out[0, 0, 1:, 1:], x[0, 0, :5, :5])
        npt.assert_array_equal(out[0, 0, 0], 0.0)
        npt.assert_array_equal(out[0, 0, :, 0], 0.0)

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_default_padding_preserves_spatial_dims(self, kernel):
        layer = Conv2dLayer(2, 3, kernel)
        assert layer.padding == kernel // 2
        out = layer.forward(np.zeros((2, 2, 8, 11)), zero_params(layer))
        assert out.shape == (2, 3, 8, 11)
        assert layer.output_hw(8, 11) == (8, 11)

    @pytest.mark.parametrize("kernel", [0, 2, 4])
    def test_even_kernel_rejected(self, kernel):
        with pytest.raises(DomainError):
            Conv2dLayer(1, 1, kernel)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        layer, params = drawn(Conv2dLayer(2, 3, 3), rng, 0.5)
        x = rng.normal(size=(1, 2, 6, 6))
        r = rng.normal(size=(1, 3, 6, 6))
        grads = zero_params(layer)
        layer.forward(x, params, train=True)
        d_x = layer.backward(r, params, grads)

        def loss():
            return float(np.sum(layer.forward(x, params) * r))

        assert gc.check_gradient("d_f", loss, params[0], grads[0]).passed
        assert gc.check_gradient("d_b", loss, params[1], grads[1]).passed
        assert gc.check_gradient("d_x", loss, x, d_x).passed

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_matches_einsum_reference(self, kernel):
        rng = np.random.default_rng(103 + 10 * kernel)
        for _ in range(3):
            n = int(rng.integers(2, 5))
            c_in = int(rng.integers(2, 4))
            c_out = int(rng.integers(1, 4))
            h = int(rng.integers(kernel, kernel + 6))
            w = h + int(rng.integers(1, 4))  # never square
            layer, params = drawn(Conv2dLayer(c_in, c_out, kernel), rng, 0.5)
            filters, bias = params
            bias[...] = rng.normal(size=c_out)
            x = rng.normal(size=(n, c_in, h, w))
            out = layer.forward(x, params, train=True)
            _assert_matches_reference(
                out, _reference_conv_forward(x, filters, bias, layer.padding)
            )
            r = rng.normal(size=out.shape)
            grads = zero_params(layer)
            d_x = layer.backward(r, params, grads)
            d_input, d_filters, d_bias = _reference_conv_backward(
                x, filters, r, layer.padding
            )
            _assert_matches_reference(d_x, d_input)
            _assert_matches_reference(grads[0], d_filters)
            _assert_matches_reference(grads[1], d_bias)

    def test_bad_geometry_rejected(self):
        layer = Conv2dLayer(1, 1, 3)
        params = zero_params(layer)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 2, 6, 6)), params)  # channels
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 6, 6)), params)  # not NCHW


# Inference conv forward against the training (caching) forward:
# (in_channels, out_channels, kernel, n, h, w).  The MNIST conv1 and
# conv2 shapes at batch sizes around and past the 8-image block, then
# kernels 1/3/5 on a non-square input.
CONV_CASES = (
    [(1, 32, 5, n, 28, 28) for n in (1, 7, 37, 200)]
    + [(32, 64, 5, n, 14, 14) for n in (1, 7, 37, 200)]
    + [(3, 4, k, 19, 9, 12) for k in (1, 3, 5)]
)


def conv_forward_both_ways(case):
    """(training forward, inference forward) of one seeded layer."""
    c_in, c_out, k, n, h, w = case
    rng = np.random.default_rng(sum(case))
    layer, params = drawn(Conv2dLayer(c_in, c_out, k), rng, 0.3)
    params[1][...] = rng.normal(size=c_out)
    x = rng.normal(size=(n, c_in, h, w))
    trained = layer.forward(x, params, train=True)
    return trained, layer.forward(x, params)


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
            "    trained, free = t.conv_forward_both_ways(case)\n"
            "    if trained.shape != free.shape or trained.tobytes() != free.tobytes():\n"
            "        bad.append(case)\n"
            "print(json.dumps(bad))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout) == []

    @pytest.mark.parametrize("case", CONV_CASES, ids=str)
    def test_matches_caching_forward_at_default_threads(self, case):
        trained, free = conv_forward_both_ways(case)
        assert free.flags.c_contiguous
        _assert_matches_reference(free, trained)

    def test_caches_no_patch_matrix(self):
        # The training forward keeps the channel-major padded input
        # [C, N, H+k-1, W+k-1], smaller than the [C*k*k, N*H*W] patch
        # matrix; the inference forward keeps nothing.
        layer = Conv2dLayer(2, 3, 3)
        params = zero_params(layer)
        x = np.ones((9, 2, 5, 5))
        layer.forward(x, params, train=True)
        kept = layer._cache[0]
        assert kept.shape == (2, 9, 7, 7)
        assert kept.transpose(1, 0, 2, 3)[:, :, 1:6, 1:6].tobytes() == x.tobytes()
        assert kept.size < 18 * 9 * 25
        layer.forward(x, params)
        assert layer._cache is None

    def test_empty_batch(self):
        layer = Conv2dLayer(2, 3, 3)
        out = layer.forward(np.zeros((0, 2, 5, 5)), zero_params(layer))
        assert out.shape == (0, 3, 5, 5)

    def test_scores_pad_one_image_block_at_a_time(self):
        # Network.scores on one 2,000-row chunk of the conv-mnist net: the
        # pooled outputs of its two blocks take 151 MB.  Padding each
        # whole input would add conv2's 166 MB ([32, 2000, 18, 18]) and
        # conv1's 16 MB.
        net = build_convnet((1, 28, 28), [32, 64], 5, 3072, 0.2,
                            HeadSpec("l2svm", 10), rng=np.random.default_rng(0))
        x = np.random.default_rng(1).random((2000, 1, 28, 28))
        tracemalloc.start()
        try:
            net.scores(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 170e6


def test_caching_forward_builds_no_product_temporary():
    # conv-mnist's conv1 at batch 200: beyond the output and the kept
    # padded input, only one image block's patches and product buffer are
    # allowed.  A kept patch matrix adds 31 MB here, and a one-GEMM
    # forward an output-sized [F, N*Ho*Wo] product (40 MB).
    rng = np.random.default_rng(4)
    layer, params = drawn(Conv2dLayer(1, 32, 5), rng)
    x = rng.normal(size=(200, 1, 28, 28))
    tracemalloc.start()
    try:
        out = layer.forward(x, params, train=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    padded = layer._cache[0]
    assert padded.shape == (1, 200, 32, 32)
    block_patches = 25 * IMAGE_BLOCK * 28 * 28 * 8
    block_product = out.nbytes * IMAGE_BLOCK // 200
    slack = 1_000_000
    assert peak < out.nbytes + padded.nbytes + block_patches + block_product + slack


def test_training_step_builds_no_patch_matrix():
    # conv-mnist's conv2 (32 -> 64, k5, 14x14) at batch 200, training
    # forward then backward.  Its patch matrix would be 251 MB.  Allowed:
    # the output, backward's [F, N*H*W] copy of d_out, one padded-input
    # sized array (the kept input, freed before col2im allocates the input
    # gradient), and one block of patches or one col2im product (both
    # 10 MB here), which never coexist.
    rng = np.random.default_rng(24)
    layer, params = drawn(Conv2dLayer(32, 64, 5), rng)
    grads = zero_params(layer)
    x = rng.normal(size=(200, 32, 14, 14))
    d_out = rng.normal(size=(200, 64, 14, 14))
    padded = 32 * 200 * 18 * 18 * 8
    block_patches = 32 * 25 * IMAGE_BLOCK * 14 * 14 * 8  # = x.nbytes
    tracemalloc.start()
    try:
        out = layer.forward(x, params, train=True)
        d_x = layer.backward(d_out, params, grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d_x.shape == x.shape
    slack = 4_000_000  # filter-sized arrays (0.4 MB each) and the rest
    assert peak < out.nbytes + padded + d_out.nbytes + block_patches + slack


def _block_both_ways(n, nan):
    """One seeded conv -> pool -> ReLU block on ``n`` images, run as one
    pooled conv pass and as the three standalone layers.  Returns the
    pairs (fused, standalone) of the inference output, the training
    output, d_input, d_filters and d_bias, plus the standalone conv
    output gradient."""
    rng = np.random.default_rng(40 + n)
    fused, params = drawn(Conv2dLayer(3, 4, 3, pool_relu=True), rng, 0.5)
    params[1][...] = [0.3, -0.2, 0.0, -0.0]
    plain = Conv2dLayer(3, 4, 3)
    fused_grads, plain_grads = zero_params(fused), zero_params(plain)
    pool, relu = MaxPool2x2Layer(), ReluLayer()
    x = rng.normal(size=(n, 3, 10, 12))
    # Only zeros reach the conv outputs at the top-left 4x4, so their
    # windows tie at the bias; the zero-bias channels pool signed zeros.
    x[:, :, :5, :5] = 0.0
    x[1::3, :, :5, :5] = -0.0
    if nan:  # a 3x3 patch of NaN outputs: whole and partial NaN windows
        x[n - 1, 1, 6, 8] = np.nan
    d_out = rng.normal(size=(n, 4, 5, 6))
    d_out[rng.random(d_out.shape) < 0.1] = -0.0

    pairs = [(fused.forward(x, params),
              relu.forward(pool.forward(plain.forward(x, params))))]
    pairs.append((fused.forward(x, params, train=True),
                  relu.forward(pool.forward(plain.forward(x, params, train=True),
                                            train=True), train=True)))
    d_conv = pool.backward(relu.backward(d_out))
    pairs.append((fused.backward(d_out, params, fused_grads),
                  plain.backward(d_conv, params, plain_grads)))
    pairs += list(zip(fused_grads, plain_grads))
    return pairs, d_conv


@pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
@pytest.mark.parametrize("n", [8, 37])
def test_pooled_block_matches_standalone_layers_bytewise(n, nan):
    # 8 images are one full block; 37 are four and a partial one of 5.
    pairs, d_conv = _block_both_ways(n, nan)
    names = ["inference", "training", "d_input", "d_filters", "d_bias"]
    for name, (got, want) in zip(names, pairs):
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert pairs[0][0].shape == (n, 4, 5, 6)
    assert np.isnan(pairs[0][0]).any() == nan
    # numpy's own summation order for the bias gradient
    assert pairs[4][0].tobytes() == d_conv.sum(axis=(0, 2, 3)).tobytes()


def test_pooled_block_rejects_odd_spatial_dims():
    layer = Conv2dLayer(1, 2, 3, pool_relu=True)
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((2, 1, 6, 5)), zero_params(layer))


def test_pooled_block_allocates_no_full_resolution_array():
    # conv-mnist's conv1 block (1 -> 32, k5, 28x28) at batch 200, training
    # forward then backward.  Its full-resolution conv output, or the
    # gradient of it, would be [200, 32, 28, 28]: 40 MB.  Allowed: the
    # pooled output, the kept padded input (which col2im then reuses),
    # one byte of pool switch and one of ReLU mask per output unit, one
    # image block of patches plus one of product or gradient, and four
    # pooled-block temporaries of the pool and ReLU.
    rng = np.random.default_rng(27)
    layer, params = drawn(Conv2dLayer(1, 32, 5, pool_relu=True), rng)
    grads = zero_params(layer)
    x = rng.normal(size=(200, 1, 28, 28))
    d_out = rng.normal(size=(200, 32, 14, 14))
    full_resolution = 200 * 32 * 28 * 28 * 8
    tracemalloc.start()
    try:
        out = layer.forward(x, params, train=True)
        d_x = layer.backward(d_out, params, grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == d_out.shape and d_x.shape == x.shape
    padded = 200 * 32 * 32 * 8
    block = (25 + 32) * IMAGE_BLOCK * 28 * 28 * 8
    pooled_block = out.nbytes * IMAGE_BLOCK // 200
    slack = 1_000_000
    allowed = out.nbytes + padded + 2 * out.size + block + 4 * pooled_block + slack
    assert allowed < full_resolution  # so one such array breaks the bound
    assert peak < allowed


def _col2im(filters, d2, xp_shape, padding):
    """The input gradient as one [C, F] @ d2 product per kernel offset,
    for ``d2`` as [F, N*H*W] and the channel-major padded shape."""
    f, c, k, _ = filters.shape
    _, n, hp, wp = xp_shape
    h, w = hp - k + 1, wp - k + 1
    taps = np.ascontiguousarray(filters.transpose(2, 3, 1, 0))
    d_xp = np.zeros(xp_shape)
    for a in range(k):
        for b in range(k):
            d_xp[:, :, a : a + h, b : b + w] += (taps[a, b] @ d2).reshape(c, n, h, w)
    p = padding
    return d_xp[:, :, p : p + h, p : p + w].transpose(1, 0, 2, 3)


def test_backward_is_deterministic_and_accurate_at_conv2_shape():
    # conv2 of conv-mnist at 37 images: four full 8-image blocks and a
    # partial one of 5.
    def step():
        rng = np.random.default_rng(25)
        layer, params = drawn(Conv2dLayer(32, 64, 5), rng, 0.1)
        grads = zero_params(layer)
        x = rng.normal(size=(37, 32, 14, 14))
        d_out = rng.normal(size=(37, 64, 14, 14))
        layer.forward(x, params, train=True)
        return params, grads, x, d_out, layer.backward(d_out, params, grads)

    (filters, _), (d_filters, d_bias), x, d_out, d_x = step()
    _, (d_filters_again, _), _, _, d_x_again = step()
    assert d_filters.tobytes() == d_filters_again.tobytes()
    assert d_x.tobytes() == d_x_again.tobytes()

    cols, xp_shape = _reference_conv_patches(x, 5, 2)
    cols = cols.transpose(1, 2, 3, 0, 4, 5).reshape(32 * 25, 37 * 14 * 14)
    d2 = d_out.transpose(1, 0, 2, 3).reshape(64, 37 * 14 * 14)
    _assert_matches_reference(d_filters, (d2 @ cols.T).reshape(filters.shape))
    channel_major = (32, 37) + xp_shape[2:]
    want = _col2im(filters, d2, channel_major, 2)
    assert d_x.shape == want.shape
    assert d_x.tobytes() == want.tobytes()
    assert d_bias.tobytes() == d_out.sum(axis=(0, 2, 3)).tobytes()


# One constructor per layer type, returning ``(layer, params)``, with the
# input shape it takes.
LAYER_TYPES = {
    "dense": (lambda rng: drawn(DenseLayer(4, 3), rng), (5, 4)),
    "relu": (lambda rng: (ReluLayer(), []), (5, 4)),
    "conv": (lambda rng: drawn(Conv2dLayer(2, 3, 3), rng), (2, 2, 4, 4)),
    "maxpool": (lambda rng: (MaxPool2x2Layer(), []), (2, 2, 4, 4)),
    "flatten": (lambda rng: (FlattenLayer(), []), (2, 2, 4, 4)),
    "dropout": (lambda rng: (DropoutLayer(0.5), []), (5, 4)),
}


@pytest.mark.parametrize("kind", LAYER_TYPES)
def test_second_backward_is_a_state_error(kind):
    make, shape = LAYER_TYPES[kind]
    rng = np.random.default_rng(21)
    (layer, params), x = make(rng), rng.normal(size=shape)
    grads = zero_params(layer)
    out = layer.forward(x, params, train=True, rng=np.random.default_rng(1))
    layer.backward(np.ones_like(out), params, grads)
    with pytest.raises(LayerStateError):
        layer.backward(np.ones_like(out), params, grads)


class TestCacheFreeForward:
    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("kind", LAYER_TYPES)
    def test_clears_state_and_keeps_the_output(self, kind, train):
        # ``train`` is the mode of the forward before the inference one.
        make, shape = LAYER_TYPES[kind]
        rng = np.random.default_rng(20)
        (layer, params), x = make(rng), rng.normal(size=shape)
        earlier = layer.forward(x, params, train=train, rng=np.random.default_rng(1))
        free = layer.forward(x, params)
        # Only dropout's training forward differs from the inference one,
        # which passes its input through.
        want = x if kind == "dropout" else earlier
        assert free.tobytes() == want.tobytes()
        # Whatever the earlier forward kept, the inference forward dropped.
        with pytest.raises(LayerStateError):
            layer.backward(np.ones_like(free), params, zero_params(layer))

    @pytest.mark.parametrize("make", [
        lambda rng: (drawn(DenseLayer(4, 3), rng, 0.5), (5, 4)),
        lambda rng: (drawn(Conv2dLayer(2, 3, 3), rng, 0.5), (3, 2, 7, 6)),
    ], ids=["dense", "conv"])
    def test_backward_without_input_grad_keeps_parameter_grads(self, make):
        rng = np.random.default_rng(22)
        (layer, params), shape = make(rng)
        grads = zero_params(layer)
        x = rng.normal(size=shape)
        r = rng.normal(size=layer.forward(x, params, train=True).shape)
        assert layer.backward(r, params, grads) is not None
        want = [g.copy() for g in grads]
        for g in grads:  # backward must overwrite the arrays it is given
            g[...] = np.nan
        layer.forward(x, params, train=True)
        assert layer.backward(r, params, grads, input_grad=False) is None
        for g, expected in zip(grads, want):
            assert g.tobytes() == expected.tobytes()
        with pytest.raises(LayerStateError):
            layer.backward(r, params, grads)


def _pool(x):
    """A training pool of ``x``: the pooled output and the gradient that
    ``backward(ones)`` routes to each window's switch position."""
    layer = MaxPool2x2Layer()
    pooled = layer.forward(x, train=True)
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
        layer.forward(x, train=True)
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
        layer.forward(np.zeros((1, 1, 4, 4)), train=True)
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

    def test_signed_gradients_match_reference_bytewise(self):
        # Random signed gradients, -0.0 among them, routed through the
        # switches of the tie, signed-zero, infinite and NaN inputs above.
        # Every off-switch position must hold +0.0: a product with a 0/1
        # mask would leave -0.0 under a negative gradient.
        rng = np.random.default_rng(26)
        values = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0])
        inputs = [rng.normal(size=(3, 4, 6, 10))]
        inputs += [rng.integers(-1, 2, size=(2, 3, 4, 6)).astype(float)
                   for _ in range(20)]
        inputs += [rng.choice(values, size=(2, 3, 4, 6)) for _ in range(20)]
        inputs += [rng.choice(values[2:], size=(2, 3, 4, 6)) for _ in range(20)]
        layer = MaxPool2x2Layer()
        for x in inputs:
            pooled = layer.forward(x, train=True)
            d_out = rng.normal(size=pooled.shape)
            d_out[rng.random(pooled.shape) < 0.1] = -0.0
            got = layer.backward(d_out)
            _, switches = _reference_maxpool2x2(x)
            want = _reference_pool_backward(switches, d_out)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            off_switch = _routing(switches) == 0.0
            assert not np.signbit(got[off_switch]).any()

    def test_switches_are_one_byte_each(self):
        layer = MaxPool2x2Layer()
        pooled = layer.forward(np.zeros((2, 3, 4, 6)), train=True)
        assert layer._switches.dtype == np.uint8
        assert layer._switches.nbytes == pooled.size

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
            pooled = layer.forward(x)
            want = layer.forward(x, train=True)
            assert pooled.shape == want.shape
            assert pooled.tobytes() == want.tobytes()


class TestFlatten:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 2, 4, 4))
        layer = FlattenLayer()
        flat = layer.forward(x, train=True)
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

    def test_training_forward_without_rng_is_a_domain_error(self):
        x = np.ones((3, 4))
        with pytest.raises(DomainError, match="rng"):
            DropoutLayer(0.2).forward(x, train=True)
        # Nothing to draw: rate 0 and the inference forward need no rng.
        assert DropoutLayer(0.0).forward(x, train=True) is x
        assert DropoutLayer(0.2).forward(x) is x

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
