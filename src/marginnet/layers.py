"""Differentiable layers with a uniform forward/backward contract.

Conventions:
    - Dense inputs are [N, in]; image inputs are NCHW ([N, C, H, W]).
    - ``forward(x, train=False, rng=None)`` has one mode flag.
      ``train=True`` is the training forward: the layer keeps what its
      backward needs, and dropout draws its mask from ``rng``.
      ``backward(d_out)`` consumes that state and returns ``d_input``,
      the gradient with respect to the forward input (same shape).  One
      outstanding training forward per instance: backward clears the
      state, and calling it again without a fresh training forward
      raises :class:`LayerStateError`.
    - ``train=False``, the default, is the inference forward
      (evaluation, scores, predictions): dropout is the identity, every
      other layer returns the same bytes as its training forward at a
      fixed BLAS thread count, and the layer keeps nothing.  It drops
      whatever an earlier training forward kept, so a following backward
      raises :class:`LayerStateError` instead of reusing stale state.
    - Layers with parameters take ``backward(d_out, input_grad=False)``
      when no gradient is needed below them (the first layer of a
      stack): parameter gradients are computed as usual, ``d_input`` is
      skipped and None is returned.
    - ``param_names`` lists a layer's parameter attributes, weight tensor
      first; backward leaves the gradient of parameter ``p`` in
      ``d_<p>``.  ``params()`` and ``param_grads()`` return them in that
      order, so an optimizer can collect them after a backward pass.
      Parameter-free layers have an empty ``param_names``.

:func:`marginnet.gradcheck.check_layer` checks a layer's backward against
central finite differences; ``marginnet gradcheck`` runs it on the dense,
ReLU, conv, max-pool and dropout layers.

Convolution is im2col plus GEMM (Chellapilla et al. 2006) at one
geometry, stride 1 with "same" padding for an odd kernel k, so a conv
layer keeps the spatial size and the 2x2 max-pool halves it.  The
receptive fields of a few images at a time are laid out as a block of
the patch matrix [C*k*k, N*H*W] in one reused buffer.  The forward pass
multiplies each block straight into the output; backward refills the
blocks to sum the filter gradient block by block, and scatters the
input gradient back (col2im) with one small matmul per kernel offset.
The training forward keeps only the padded input, so no patch matrix
outlives a call in either mode.
"""

import numpy as np

from .tensor import DTYPE, DomainError, ShapeError, matmul


class LayerStateError(RuntimeError):
    """backward() called without a preceding forward() on this instance."""


class Layer:
    """Base class: ``params()`` and ``param_grads()`` from ``param_names``."""

    param_names = ()

    def params(self):
        return [getattr(self, name) for name in self.param_names]

    def param_grads(self):
        return [getattr(self, "d_" + name) for name in self.param_names]


def _init_gaussian(rng, shape, std):
    if rng is None or std == 0.0:
        return np.zeros(shape, dtype=DTYPE)
    return rng.normal(0.0, std, size=shape).astype(DTYPE, copy=False)


class DenseLayer(Layer):
    """Affine map x -> x @ W + b with weights [in, out] and bias [out]."""

    param_names = ("weights", "bias")

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
        self._cached_input = x if train else None
        out = matmul(x, self.weights)
        out += self.bias
        return out

    def backward(self, d_out, input_grad=True):
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
        self._cached_input = None
        return matmul(d_out, self.weights.T) if input_grad else None


class ReluLayer(Layer):
    """max(x, 0), elementwise.  Backward passes d_out where the forward
    input was > 0; the subgradient at exactly 0 is taken as 0."""

    def __init__(self):
        self._cached_input = None

    def forward(self, x, train=False, rng=None):
        x = np.asarray(x, dtype=DTYPE)
        self._cached_input = x if train else None
        return np.maximum(x, 0.0)

    def backward(self, d_out):
        x = self._cached_input
        if x is None:
            raise LayerStateError("relu backward called before forward")
        d_out = np.asarray(d_out, dtype=DTYPE)
        if d_out.shape != x.shape:
            raise ShapeError(
                f"relu backward shapes disagree: {d_out.shape} vs {x.shape}"
            )
        self._cached_input = None
        return d_out * (x > 0)


# Images per block of the conv patches, in both forwards and in backward.
# With OpenBLAS 0.3.31 (Haswell kernels, 1 thread) a forward GEMM over a
# column block whose width is a multiple of 8 reproduces the matching
# columns of the one-GEMM product bit for bit; blocks of 1 or 25 images
# at 14x14 output (196 and 4,900 columns) differ in the last bit.  8
# images give 8*H*W columns.  The filter gradient sums one product per
# block, which can differ from a one-GEMM d2 @ cols.T in the last bits.
IMAGE_BLOCK = 8


class Conv2dLayer(Layer):
    """2-D cross-correlation (no kernel flip) over NCHW inputs, stride 1
    with ``k // 2`` zero padding on each side, so the output has the
    input's spatial size.

    Filters are [out_channels, in_channels, k, k] with one bias per
    output channel.  The kernel size k must be odd: an even kernel has
    no centre, and "same" padding would need one more row on one side.

    The patch tensor [C, k, k, N, H, W] takes one slice of the
    channel-major padded input per kernel offset (a, b); viewed as the
    patch matrix ``cols`` [C*k*k, N*H*W], with
    ``K = filters.reshape(F, C*k*k)`` and ``d2 = d_out`` as [F, N*H*W]:

        out       = K @ cols
        d_filters = d2 @ cols.T
        d_input   = col2im: for each (a, b), filters[:, :, a, b].T @ d2
                    is added into the (a, b) slice of the padded input
                    gradient

    ``cols`` is never built whole.  Both forwards run one loop over
    ``IMAGE_BLOCK`` images: each block's patches are refilled into one
    reused buffer, multiplied by ``K`` into one reused product buffer
    and written (plus the bias) straight into the NCHW output, so no
    [F, N*H*W] product exists.  The training forward keeps only the
    channel-major padded input [C, N, H+k-1, W+k-1], and the inference
    forward (``train=False``) keeps nothing.  Backward runs the same
    block loop and adds each block's ``d2`` columns times its patches
    into ``d_filters``, in ascending block order, then frees the padded
    input before col2im allocates its gradient.  No patch-sized array,
    and no patch-sized d_cols, exists at any point.  Results are
    bit-identical from run to run at a fixed BLAS thread count; a
    different thread count can change their last bits.
    """

    param_names = ("filters", "bias")

    def __init__(self, in_channels, out_channels, kernel_size, rng=None,
                 init_std=0.01):
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise DomainError(
                f"kernel size must be odd and positive, got {kernel_size}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = kernel_size // 2
        self.filters = _init_gaussian(
            rng, (out_channels, in_channels, kernel_size, kernel_size), init_std
        )
        self.bias = np.zeros(out_channels, dtype=DTYPE)
        self.d_filters = None
        self.d_bias = None
        self._cache = None

    def output_hw(self, h, w):
        """Output spatial size of an h x w input: the same, h x w."""
        return h, w

    def forward(self, x, train=False, rng=None):
        x = np.asarray(x, dtype=DTYPE)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv expects [N, {self.in_channels}, H, W] input, got {x.shape}"
            )
        n, _, h, w = x.shape
        c, k, f, p = self.in_channels, self.kernel_size, self.out_channels, self.padding
        weights = self.filters.reshape(f, c * k * k)
        self._cache = None  # free the last padded input before padding this one
        # Channel-major view of the padded input: each kernel offset fills
        # one [C, B, H, W] block of the patch tensor [C, k, k, B, H, W].
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))).transpose(1, 0, 2, 3)
        out = np.empty((n, f, h, w), dtype=DTYPE)
        product = np.empty(f * min(n, IMAGE_BLOCK) * h * w, dtype=DTYPE)
        for images, cols in self._patch_blocks(xp):
            gemm = product[: f * cols.shape[1]].reshape(f, -1)
            self._write_output(np.matmul(weights, cols, out=gemm), out[images])
        if train:
            self._cache = (xp, x.shape)
        return out

    def _patch_blocks(self, xp):
        """Yield ``(images, cols)`` for each block of ``IMAGE_BLOCK``
        images of the channel-major padded input ``xp`` [C, N, H+k-1,
        W+k-1], in ascending order: the block's slice of the batch and
        its patch matrix [C*k*k, B*H*W].  Every block is refilled into
        one reused contiguous buffer, so a block's ``cols`` is only
        valid until the next one is yielded."""
        c, n = xp.shape[:2]
        k = self.kernel_size
        h, w = xp.shape[2] - k + 1, xp.shape[3] - k + 1
        buffer = np.empty(c * k * k * min(n, IMAGE_BLOCK) * h * w, dtype=DTYPE)
        for start in range(0, n, IMAGE_BLOCK):
            images = slice(start, min(start + IMAGE_BLOCK, n))
            b = images.stop - start
            patches = buffer[: c * k * k * b * h * w].reshape(c, k, k, b, h, w)
            for a in range(k):
                for j in range(k):
                    patches[:, a, j] = xp[:, images, a : a + h, j : j + w]
            yield images, patches.reshape(c * k * k, b * h * w)

    def _filter_grad(self, xp, d2):
        """``d2 @ cols.T`` as a filter-shaped array, for ``d2`` as
        [F, N, H*W]: one product per block of ``_patch_blocks``, summed in
        ascending block order.  The block buffer is freed on return."""
        grad = np.zeros((self.out_channels, self.filters[0].size), dtype=DTYPE)
        for images, cols in self._patch_blocks(xp):
            grad += d2[:, images].reshape(self.out_channels, -1) @ cols.T
        return grad.reshape(self.filters.shape)

    def _write_output(self, gemm, out):
        """Add the bias to ``gemm`` [F, B*H*W] into ``out`` [B, F, H, W]."""
        b, f, h, w = out.shape
        np.add(gemm.reshape(f, b, h, w).transpose(1, 0, 2, 3),
               self.bias[:, None, None], out=out)

    def backward(self, d_out, input_grad=True):
        if self._cache is None:
            raise LayerStateError("conv backward called before forward")
        xp, x_shape = self._cache
        n, _, h, w = x_shape
        d_out = np.asarray(d_out, dtype=DTYPE)
        if d_out.shape != (n, self.out_channels, h, w):
            raise ShapeError(
                f"conv backward expects {(n, self.out_channels, h, w)}, "
                f"got {d_out.shape}"
            )
        k, p = self.kernel_size, self.padding
        c, f = self.in_channels, self.out_channels
        d2 = d_out.transpose(1, 0, 2, 3).reshape(f, n * h * w)
        self.d_filters = self._filter_grad(xp, d2.reshape(f, n, h * w))
        self.d_bias = d_out.sum(axis=(0, 2, 3))
        self._cache = None
        if not input_grad:
            return None
        # col2im needs only the padded shape: free the padded input first.
        xp_shape = xp.shape
        del xp
        # col2im one kernel offset at a time: [C, F] @ [F, N*H*W] lands
        # in the offset's slice, so no patch-sized d_cols exists.
        taps = np.ascontiguousarray(self.filters.transpose(2, 3, 1, 0))
        d_xp = np.zeros(xp_shape, dtype=DTYPE)
        for a in range(k):
            for b in range(k):
                d_xp[:, :, a : a + h, b : b + w] += (
                    taps[a, b] @ d2
                ).reshape(c, n, h, w)
        return d_xp[:, :, p : p + h, p : p + w].transpose(1, 0, 2, 3)


class MaxPool2x2Layer(Layer):
    """Max over non-overlapping 2x2 windows, stride 2, of NCHW input
    with even spatial dims.

    The training forward keeps the switches: the flat row-major index
    (0..3, as uint8) of each window's maximum, ties resolved to the
    lowest index as argmax does.  Backward routes each gradient to its
    window's switch position, zeros elsewhere.  The inference forward
    (``train=False``) keeps no switches and pools the same bytes.
    """

    def __init__(self):
        self._switches = None

    def forward(self, x, train=False, rng=None):
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
        switches = None
        if train:
            switches = 2 * down.astype(np.uint8) + np.where(down, right_bottom, right_top)
        # ``>`` never selects a NaN, but argmax does: a window holding a NaN
        # pools to its first NaN.  The max of x is NaN iff x holds one.
        if np.isnan(np.max(x, initial=-np.inf)):
            for i in (3, 2, 1, 0):
                nans = np.isnan(views[i])
                np.copyto(pooled, views[i], where=nans)
                if switches is not None:
                    np.copyto(switches, i, where=nans)
        self._switches = switches
        return pooled

    def backward(self, d_out):
        switches = self._switches
        if switches is None:
            raise LayerStateError("maxpool backward called before forward")
        d_out = np.asarray(d_out, dtype=DTYPE)
        if d_out.shape != switches.shape:
            raise ShapeError(
                f"maxpool backward shapes disagree: {d_out.shape} vs {switches.shape}"
            )
        self._switches = None
        # Each switch position is one strided view of the input gradient.
        # copyto writes d_out's own bytes there, and +0.0 stays everywhere
        # else (a product with a 0/1 mask would write -0.0 under negative
        # gradients).
        n, c, ho, wo = d_out.shape
        d_input = np.zeros((n, c, 2 * ho, 2 * wo), dtype=DTYPE)
        for i in (0, 1):
            for j in (0, 1):
                np.copyto(d_input[:, :, i::2, j::2], d_out,
                          where=switches == 2 * i + j)
        return d_input


class FlattenLayer(Layer):
    """[N, ...] -> [N, prod(...)], undone on backward."""

    def __init__(self):
        self._shape = None

    def forward(self, x, train=False, rng=None):
        x = np.asarray(x, dtype=DTYPE)
        self._shape = x.shape if train else None
        return x.reshape(x.shape[0], -1)

    def backward(self, d_out):
        if self._shape is None:
            raise LayerStateError("flatten backward called before forward")
        d_input = np.asarray(d_out, dtype=DTYPE).reshape(self._shape)
        self._shape = None
        return d_input


def dropout_mask(shape, rate, rng):
    """The inverted-dropout multiplier: 1/(1-rate) for each unit that
    survives (one uniform draw per unit, kept when >= ``rate``), else 0."""
    return (rng.random(shape) >= rate) / (1.0 - rate)


class DropoutLayer(Layer):
    """Inverted dropout: the training forward zeros units with
    probability ``rate`` and scales survivors by 1/(1-rate); the
    inference forward is the identity.

    rate 0 and the inference forward return ``x`` unchanged (bitwise
    identity).
    """

    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._mask = None
        self._identity = False  # a training forward at rate 0

    def forward(self, x, train=False, rng=None):
        x = np.asarray(x, dtype=DTYPE)
        self._identity = train and self.rate == 0.0
        self._mask = None
        if not train or self._identity:
            return x
        self._mask = dropout_mask(x.shape, self.rate, rng)
        return x * self._mask

    def backward(self, d_out):
        if self._identity:
            self._identity = False
            return np.asarray(d_out, dtype=DTYPE)
        if self._mask is None:
            raise LayerStateError("dropout backward called before forward")
        d_input = np.asarray(d_out, dtype=DTYPE) * self._mask
        self._mask = None
        return d_input


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
