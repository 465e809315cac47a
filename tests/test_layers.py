import numpy as np
import numpy.testing as npt
import pytest

from marginnet import gradcheck as gc
from marginnet.layers import (
    Conv2dLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    LayerStateError,
    MaxPool2x2Layer,
    dropout,
    gaussian_noise,
    maxpool2x2,
    maxpool_backward,
    relu,
    relu_backward,
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
        grads = layer.backward(r)

        def loss():
            return float(np.sum((x @ layer.weights + layer.bias) * r))

        assert gc.check_gradient("d_w", loss, layer.weights, grads.d_weights).passed
        assert gc.check_gradient("d_b", loss, layer.bias, grads.d_bias).passed
        assert gc.check_gradient("d_x", loss, x, grads.d_input).passed

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
        first = layer.backward(r).d_weights.copy()
        layer.forward(x)
        second = layer.backward(r).d_weights
        npt.assert_array_equal(first, second)


class TestRelu:
    def test_values_and_subgradient_zero_at_zero(self):
        x = np.array([-2.0, 0.0, 3.0])
        npt.assert_array_equal(relu(x), [0.0, 0.0, 3.0])
        d = relu_backward(np.ones(3), x)
        npt.assert_array_equal(d, [0.0, 0.0, 1.0])

    def test_backward_matches_fd_away_from_kink(self):
        rng = np.random.default_rng(2)
        x = _kink_free_normal(rng, (6, 5))
        r = rng.normal(size=(6, 5))
        analytic = relu_backward(r, x)

        def loss():
            return float(np.sum(relu(x) * r))

        assert gc.check_gradient("relu", loss, x, analytic).passed


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
        grads = layer.backward(r)

        def loss():
            fresh = Conv2dLayer(2, 3, 3, padding=1)
            fresh.filters[...] = layer.filters
            fresh.bias[...] = layer.bias
            return float(np.sum(fresh.forward(x) * r))

        assert gc.check_gradient("d_f", loss, layer.filters, grads.d_weights).passed
        assert gc.check_gradient("d_b", loss, layer.bias, grads.d_bias).passed
        assert gc.check_gradient("d_x", loss, x, grads.d_input).passed

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
            grads = layer.backward(r)
            d_input, d_filters, d_bias = _reference_conv_backward(
                x, layer.filters, r, layer.padding, stride
            )
            _assert_matches_reference(grads.d_input, d_input)
            _assert_matches_reference(grads.d_weights, d_filters)
            _assert_matches_reference(grads.d_bias, d_bias)
            assert grads.d_weights is layer.d_filters
            assert grads.d_bias is layer.d_bias

    def test_strided_batch_backward_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        layer = Conv2dLayer(2, 3, 3, stride=2, rng=rng, init_std=0.5)
        layer.bias[...] = rng.normal(size=3)
        x = rng.normal(size=(3, 2, 7, 6))
        out = layer.forward(x)
        assert out.shape == (3, 3, 4, 3)
        r = rng.normal(size=out.shape)
        grads = layer.backward(r)

        def loss():
            fresh = Conv2dLayer(2, 3, 3, stride=2)
            fresh.filters[...] = layer.filters
            fresh.bias[...] = layer.bias
            return float(np.sum(fresh.forward(x) * r))

        assert gc.check_gradient("d_f", loss, layer.filters, grads.d_weights).passed
        assert gc.check_gradient("d_b", loss, layer.bias, grads.d_bias).passed
        assert gc.check_gradient("d_x", loss, x, grads.d_input).passed

    def test_bad_geometry_rejected(self):
        layer = Conv2dLayer(1, 1, 5, padding=0)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 1, 3, 3)))  # kernel larger than input
        with pytest.raises(ShapeError):
            Conv2dLayer(1, 1, 3).forward(np.zeros((1, 2, 6, 6)))  # channels


class TestMaxPool:
    def test_values_and_switches(self):
        x = np.array(
            [[[[1.0, 2.0, 0.0, 0.0],
               [3.0, 4.0, 0.0, 0.0],
               [5.0, 5.0, 7.0, 8.0],
               [5.0, 5.0, 9.0, 6.0]]]]
        )
        pooled, switches = maxpool2x2(x)
        npt.assert_array_equal(pooled[0, 0], [[4.0, 0.0], [5.0, 9.0]])
        # constant window ties resolve to the first element (row-major)
        assert switches[0, 0, 1, 0] == 0
        assert switches[0, 0, 0, 0] == 3

    def test_backward_routes_to_argmax_only(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        pooled, switches = maxpool2x2(x)
        d = maxpool_backward(np.ones_like(pooled), switches)
        expected = np.zeros_like(x)
        expected[0, 0, 1::2, 1::2] = 1.0  # bottom-right of each window wins
        npt.assert_array_equal(d, expected)

    def test_backward_matches_fd_with_distinct_windows(self):
        rng = np.random.default_rng(5)
        # Distinct values keep every window's argmax stable under eps.
        x = rng.permutation(np.arange(2 * 2 * 4 * 4) * 1.0).reshape(2, 2, 4, 4)
        r = rng.normal(size=(2, 2, 2, 2))
        pooled, switches = maxpool2x2(x)
        analytic = maxpool_backward(r, switches)

        def loss():
            return float(np.sum(maxpool2x2(x)[0] * r))

        assert gc.check_gradient("pool", loss, x, analytic).passed

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError):
            maxpool2x2(np.zeros((1, 1, 5, 4)))

    @staticmethod
    def _assert_same_bytes_as_reference(x):
        pooled, switches = maxpool2x2(x)
        want_pooled, want_switches = _reference_maxpool2x2(x)
        assert pooled.dtype == want_pooled.dtype
        assert switches.dtype == want_switches.dtype
        assert pooled.shape == want_pooled.shape
        assert pooled.tobytes() == want_pooled.tobytes()
        assert switches.tobytes() == want_switches.tobytes()

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
        pooled, switches = maxpool2x2(x)
        assert np.isnan(pooled[0, 0, 0, 0]) and switches[0, 0, 0, 0] == 2
        assert np.isnan(pooled[0, 0, 1, 1]) and switches[0, 0, 1, 1] == 1
        assert pooled[0, 0, 0, 1] == 7.0 and pooled[0, 0, 1, 0] == 13.0
        self._assert_same_bytes_as_reference(x)
        values = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 2.0])
        for _ in range(20):
            self._assert_same_bytes_as_reference(
                rng.choice(values, size=(2, 2, 4, 4))
            )

    def test_empty_batch(self):
        pooled, switches = maxpool2x2(np.zeros((0, 2, 4, 4)))
        assert pooled.shape == switches.shape == (0, 2, 2, 2)


class TestFlatten:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 2, 4, 4))
        layer = FlattenLayer()
        flat = layer.forward(x)
        assert flat.shape == (3, 32)
        grads = layer.backward(flat)
        npt.assert_array_equal(grads.d_input, x)


class TestDropout:
    def test_eval_mode_is_bitwise_identity(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(10, 10))
        out = dropout(x, 0.4, train=False, rng=rng)
        assert out is x or np.array_equal(out, x)

    def test_rate_zero_is_identity(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 5))
        npt.assert_array_equal(dropout(x, 0.0, train=True, rng=rng), x)

    def test_kept_units_scaled_by_inverse_keep_rate(self):
        rng = np.random.default_rng(9)
        x = np.ones((100, 100))
        out = dropout(x, 0.2, train=True, rng=rng)
        kept = out[out != 0.0]
        npt.assert_allclose(kept, 1.0 / 0.8)

    def test_train_mean_preserved_monte_carlo(self):
        # rate 0.2 over 1e5 samples: mean within [0.99, 1.01] of input mean
        rng = np.random.default_rng(10)
        x = np.ones(100_000)
        out = dropout(x, 0.2, train=True, rng=rng)
        assert 0.99 <= out.mean() <= 1.01

    def test_rate_domain(self):
        rng = np.random.default_rng(11)
        with pytest.raises(DomainError):
            dropout(np.ones(3), 1.0, train=True, rng=rng)
        with pytest.raises(DomainError):
            dropout(np.ones(3), -0.1, train=True, rng=rng)

    def test_layer_backward_reuses_forward_mask(self):
        rng = np.random.default_rng(12)
        layer = DropoutLayer(0.5)
        x = np.ones((4, 8))
        out = layer.forward(x, train=True, rng=rng)
        grads = layer.backward(np.ones_like(out))
        # gradient passes exactly where activations passed, same scaling
        npt.assert_array_equal(grads.d_input, out)


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
