"""Differentiable layers with a uniform forward/backward contract.

Conventions:
    - Dense inputs are [N, in]; image inputs are NCHW ([N, C, H, W]).
    - ``forward(x, train=..., rng=...)`` caches what backward needs;
      ``backward(d_out)`` consumes that cache and returns a
      :class:`LayerGradients`.  One outstanding forward per instance:
      backward clears the cache, and calling it again without a fresh
      forward raises :class:`LayerStateError`.
    - Parameter gradients are also kept on the layer (``d_weights`` etc.)
      so an optimizer can collect them after a backward pass.

Gradients of every layer here are verified against central finite
differences in the test suite.

Convolution is im2col plus one GEMM per product (Chellapilla et al.
2006): the forward pass lays its receptive fields out as a patch matrix
[C*k*k, N*Ho*Wo], so the forward output and the filter gradient are each
a single 2-D matmul, and the input gradient is scattered back (col2im)
with one small matmul per kernel offset.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import DTYPE, DomainError, ShapeError, matmul


class LayerStateError(RuntimeError):
    """backward() called without a preceding forward() on this instance."""


@dataclass
class LayerGradients:
    """Gradients produced by one backward pass.

    ``d_weights`` / ``d_bias`` are None for parameter-free layers.
    ``d_input`` always matches the forward input's shape.
    """

    d_input: np.ndarray
    d_weights: np.ndarray | None = None
    d_bias: np.ndarray | None = None


def _init_gaussian(rng, shape, std):
    if rng is None or std == 0.0:
        return np.zeros(shape, dtype=DTYPE)
    return rng.normal(0.0, std, size=shape).astype(DTYPE, copy=False)


class DenseLayer:
    """Affine map x -> x @ W + b with weights [in, out] and bias [out]."""

    def __init__(self, n_in, n_out, rng=None, init_std=0.01):
        self.n_in = n_in
        self.n_out = n_out
        self.weights = _init_gaussian(rng, (n_in, n_out), init_std)
        self.bias = np.zeros(n_out, dtype=DTYPE)
        self.d_weights = None
        self.d_bias = None
        self._cached_input = None

    def forward(self, x, train=False, rng=None):
        x = np.asarray(x, dtype=DTYPE)
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeError(
                f"dense layer expects [N, {self.n_in}] input, got {x.shape}"
            )
        self._cached_input = x
        return matmul(x, self.weights) + self.bias

    def backward(self, d_out):
        if self._cached_input is None:
            raise LayerStateError("dense backward called before forward")
        x = self._cached_input
        d_out = np.asarray(d_out, dtype=DTYPE)
        if d_out.shape != (x.shape[0], self.n_out):
            raise ShapeError(
                f"dense backward expects {(x.shape[0], self.n_out)}, got {d_out.shape}"
            )
        self.d_weights = matmul(x.T, d_out)
        self.d_bias = d_out.sum(axis=0)
        d_input = matmul(d_out, self.weights.T)
        self._cached_input = None
        return LayerGradients(d_input, self.d_weights, self.d_bias)

    def params(self):
        return [self.weights, self.bias]

    def param_grads(self):
        return [self.d_weights, self.d_bias]


def relu(x):
    """max(x, 0), elementwise."""
    return np.maximum(np.asarray(x, dtype=DTYPE), 0.0)


def relu_backward(d_out, cached_x):
    """Pass d_out where the forward input was > 0; the subgradient at
    exactly 0 is taken as 0."""
    d_out = np.asarray(d_out, dtype=DTYPE)
    cached_x = np.asarray(cached_x)
    if d_out.shape != cached_x.shape:
        raise ShapeError(
            f"relu backward shapes disagree: {d_out.shape} vs {cached_x.shape}"
        )
    return d_out * (cached_x > 0)


class ReluLayer:
    def __init__(self):
        self._cached_input = None

    def forward(self, x, train=False, rng=None):
        x = np.asarray(x, dtype=DTYPE)
        self._cached_input = x
        return relu(x)

    def backward(self, d_out):
        if self._cached_input is None:
            raise LayerStateError("relu backward called before forward")
        d_input = relu_backward(d_out, self._cached_input)
        self._cached_input = None
        return LayerGradients(d_input)

    def params(self):
        return []

    def param_grads(self):
        return []


class Conv2dLayer:
    """2-D cross-correlation (no kernel flip) over NCHW inputs.

    Filters are [out_channels, in_channels, k, k] with one bias per
    output channel.  Zero padding; ``padding=None`` defaults to k // 2 so
    spatial size is preserved at stride 1.  Output spatial size is
    floor((in + 2*padding - k) / stride) + 1 and must be positive.

    Forward builds the patch tensor [C, k, k, N, Ho, Wo] with one strided
    slice of the channel-major padded input per kernel offset (a, b), and
    views it as the patch matrix ``cols`` [C*k*k, N*Ho*Wo].  With
    ``W = filters.reshape(F, C*k*k)`` and ``d2 = d_out`` as [F, N*Ho*Wo]:

        out       = W @ cols
        d_filters = d2 @ cols.T
        d_input   = col2im: for each (a, b), filters[:, :, a, b].T @ d2
                    is added into the (a, b) strided slice of the padded
                    input gradient

    so backward never builds a patch-sized d_cols array; ``cols`` is the
    only patch-sized array, cached from forward to backward.  Results are
    bit-identical from run to run at a fixed BLAS thread count; a
    different thread count can change their last bits.
    """

    def __init__(self, in_channels, out_channels, kernel_size, padding=None,
                 stride=1, rng=None, init_std=0.01):
        if kernel_size < 1:
            raise DomainError(f"kernel size must be positive, got {kernel_size}")
        if stride < 1:
            raise DomainError(f"stride must be positive, got {stride}")
        if padding is None:
            padding = kernel_size // 2
        if padding < 0:
            raise DomainError(f"padding must be non-negative, got {padding}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        self.stride = stride
        self.filters = _init_gaussian(
            rng, (out_channels, in_channels, kernel_size, kernel_size), init_std
        )
        self.bias = np.zeros(out_channels, dtype=DTYPE)
        self.d_filters = None
        self.d_bias = None
        self._cache = None

    def output_hw(self, h, w):
        k, p, s = self.kernel_size, self.padding, self.stride
        ho = (h + 2 * p - k) // s + 1
        wo = (w + 2 * p - k) // s + 1
        if ho <= 0 or wo <= 0:
            raise ShapeError(
                f"conv output size {ho}x{wo} not positive for input {h}x{w}, "
                f"kernel {k}, padding {p}, stride {s}"
            )
        return ho, wo

    def forward(self, x, train=False, rng=None):
        x = np.asarray(x, dtype=DTYPE)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv expects [N, {self.in_channels}, H, W] input, got {x.shape}"
            )
        n, _, h, w = x.shape
        ho, wo = self.output_hw(h, w)
        k, p, s = self.kernel_size, self.padding, self.stride
        c, f = self.in_channels, self.out_channels
        self._cache = None  # free the last patch matrix before building this one
        # Channel-major view of the padded input, so each kernel offset
        # fills one [C, N, Ho, Wo] block of the patch tensor [C, k, k, N, Ho, Wo].
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))).transpose(1, 0, 2, 3)
        cols = np.empty((c, k, k, n, ho, wo), dtype=DTYPE)
        for a in range(k):
            for b in range(k):
                cols[:, a, b] = xp[:, :, a : a + ho * s : s, b : b + wo * s : s]
        cols = cols.reshape(c * k * k, n * ho * wo)
        out = self.filters.reshape(f, -1) @ cols
        out += self.bias[:, None]
        self._cache = (cols, x.shape, xp.shape)
        return np.ascontiguousarray(out.reshape(f, n, ho, wo).transpose(1, 0, 2, 3))

    def backward(self, d_out):
        if self._cache is None:
            raise LayerStateError("conv backward called before forward")
        cols, x_shape, xp_shape = self._cache
        n, _, h, w = x_shape
        ho, wo = self.output_hw(h, w)
        d_out = np.asarray(d_out, dtype=DTYPE)
        if d_out.shape != (n, self.out_channels, ho, wo):
            raise ShapeError(
                f"conv backward expects {(n, self.out_channels, ho, wo)}, "
                f"got {d_out.shape}"
            )
        k, p, s = self.kernel_size, self.padding, self.stride
        c, f = self.in_channels, self.out_channels
        d2 = d_out.transpose(1, 0, 2, 3).reshape(f, n * ho * wo)
        self.d_filters = (d2 @ cols.T).reshape(self.filters.shape)
        self.d_bias = d_out.sum(axis=(0, 2, 3))
        # col2im one kernel offset at a time: [C, F] @ [F, N*Ho*Wo] lands
        # in the offset's strided slice, so no patch-sized d_cols exists.
        taps = np.ascontiguousarray(self.filters.transpose(2, 3, 1, 0))
        d_xp = np.zeros(xp_shape, dtype=DTYPE)
        for a in range(k):
            for b in range(k):
                d_xp[:, :, a : a + ho * s : s, b : b + wo * s : s] += (
                    taps[a, b] @ d2
                ).reshape(c, n, ho, wo)
        d_input = d_xp[:, :, p : p + h, p : p + w].transpose(1, 0, 2, 3)
        self._cache = None
        return LayerGradients(d_input, self.d_filters, self.d_bias)

    def params(self):
        return [self.filters, self.bias]

    def param_grads(self):
        return [self.d_filters, self.d_bias]


def maxpool2x2(x):
    """Max over non-overlapping 2x2 windows, stride 2.

    Returns (pooled, switches) where switches holds the flat row-major
    index (0..3) of each window's maximum, ties resolved to the lowest
    index.  Spatial dims must be even.
    """
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim != 4:
        raise ShapeError(f"maxpool expects NCHW input, got shape {x.shape}")
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool needs even spatial dims, got {h}x{w}")
    # A knockout over the four strided window views: left against right
    # in each row, then top row against bottom.  Strict ``>`` keeps the
    # lower index on ties (and on +-0.0), as argmax does.
    views = [x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]
    right_top = views[1] > views[0]
    right_bottom = views[3] > views[2]
    top = np.where(right_top, views[1], views[0])
    bottom = np.where(right_bottom, views[3], views[2])
    down = bottom > top
    pooled = np.where(down, bottom, top)
    switches = (2 * down + np.where(down, right_bottom, right_top)).astype(np.intp)
    # ``>`` never selects a NaN, but argmax does: a window holding a NaN
    # pools to its first NaN.  The max of x is NaN iff x holds one.
    if np.isnan(np.max(x, initial=-np.inf)):
        for index in (3, 2, 1, 0):
            nans = np.isnan(views[index])
            np.copyto(pooled, views[index], where=nans)
            np.copyto(switches, index, where=nans)
    return pooled, switches


def maxpool_backward(d_out, switches):
    """Route each gradient to its window's argmax position, zeros elsewhere."""
    d_out = np.asarray(d_out, dtype=DTYPE)
    if d_out.shape != switches.shape:
        raise ShapeError(
            f"maxpool backward shapes disagree: {d_out.shape} vs {switches.shape}"
        )
    n, c, ho, wo = d_out.shape
    d_windows = np.zeros((n, c, ho, wo, 4), dtype=DTYPE)
    np.put_along_axis(d_windows, switches[..., None], d_out[..., None], axis=-1)
    return (
        d_windows.reshape(n, c, ho, wo, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, 2 * ho, 2 * wo)
    )


class MaxPool2x2Layer:
    def __init__(self):
        self._switches = None

    def forward(self, x, train=False, rng=None):
        pooled, self._switches = maxpool2x2(x)
        return pooled

    def backward(self, d_out):
        if self._switches is None:
            raise LayerStateError("maxpool backward called before forward")
        d_input = maxpool_backward(d_out, self._switches)
        self._switches = None
        return LayerGradients(d_input)

    def params(self):
        return []

    def param_grads(self):
        return []


class FlattenLayer:
    """[N, ...] -> [N, prod(...)], undone on backward."""

    def __init__(self):
        self._shape = None

    def forward(self, x, train=False, rng=None):
        x = np.asarray(x, dtype=DTYPE)
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, d_out):
        if self._shape is None:
            raise LayerStateError("flatten backward called before forward")
        d_input = np.asarray(d_out, dtype=DTYPE).reshape(self._shape)
        self._shape = None
        return LayerGradients(d_input)

    def params(self):
        return []

    def param_grads(self):
        return []


def dropout(x, rate, train, rng):
    """Inverted dropout: zero units with probability ``rate`` and scale
    survivors by 1/(1-rate) at train time; identity in eval mode.

    rate 0 and eval mode return ``x`` unchanged (bitwise identity).
    """
    _check_rate(rate)
    x = np.asarray(x, dtype=DTYPE)
    if not train or rate == 0.0:
        return x
    mask = rng.random(x.shape) >= rate
    return x * (mask / (1.0 - rate))


def _check_rate(rate):
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate must be in [0, 1), got {rate}")


class DropoutLayer:
    def __init__(self, rate):
        _check_rate(rate)
        self.rate = rate
        self._mask = None
        self._identity = False

    def forward(self, x, train=False, rng=None):
        x = np.asarray(x, dtype=DTYPE)
        if not train or self.rate == 0.0:
            self._mask = None
            self._identity = True
            return x
        self._mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        self._identity = False
        return x * self._mask

    def backward(self, d_out):
        if self._identity:
            self._identity = False
            return LayerGradients(np.asarray(d_out, dtype=DTYPE))
        if self._mask is None:
            raise LayerStateError("dropout backward called before forward")
        d_input = np.asarray(d_out, dtype=DTYPE) * self._mask
        self._mask = None
        return LayerGradients(d_input)

    def params(self):
        return []

    def param_grads(self):
        return []


def gaussian_noise(x, std, rng):
    """Add i.i.d. N(0, std^2) noise per element; std 0 is the identity.

    Train-time input corruption only; there is no backward because the
    noise is applied to data, not to activations of a trainable path.
    """
    if std < 0:
        raise DomainError(f"noise std must be non-negative, got {std}")
    x = np.asarray(x, dtype=DTYPE)
    if std == 0.0:
        return x
    return x + rng.normal(0.0, std, size=x.shape)
