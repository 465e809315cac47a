"""Differentiable layers with a uniform forward/backward contract.

Conventions:
    - Dense inputs are [N, in]; image inputs are NCHW ([N, C, H, W]).
    - ``forward(x, train=..., rng=..., cache=True)`` caches what backward
      needs; ``backward(d_out)`` consumes that cache and returns
      ``d_input``, the gradient with respect to the forward input (same
      shape).  One outstanding forward per instance: backward clears the
      cache, and calling it again without a fresh forward raises
      :class:`LayerStateError`.
    - ``cache=False`` is the inference forward (evaluation, scores,
      predictions): it returns the same bytes as the caching forward at
      a fixed BLAS thread count, keeps nothing for backward and drops
      whatever an earlier forward cached, so a following backward raises
      :class:`LayerStateError` instead of reusing stale state.
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

Convolution is im2col plus GEMM (Chellapilla et al. 2006): the forward
pass lays its receptive fields out as a patch matrix [C*k*k, N*Ho*Wo]
and multiplies it a few images at a time straight into the output; the
filter gradient is a single 2-D matmul over the whole patch matrix, and
the input gradient is scattered back (col2im) with one small matmul per
kernel offset.  The caching forward keeps every block's patches in one
matrix for backward; the inference forward refills one reused block
buffer, so no patch matrix outlives the call.
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

    def forward(self, x, train=False, rng=None, cache=True):
        x = np.asarray(x, dtype=DTYPE)
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeError(
                f"dense layer expects [N, {self.n_in}] input, got {x.shape}"
            )
        self._cached_input = x if cache else None
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

    def forward(self, x, train=False, rng=None, cache=True):
        x = np.asarray(x, dtype=DTYPE)
        self._cached_input = x if cache else None
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


# Images per block of the conv forward, caching or not.  With OpenBLAS
# 0.3.31 (Haswell kernels, 1 thread) a GEMM over a column block whose
# width is a multiple of 8 reproduces the matching columns of the one-GEMM
# product bit for bit, also when the block is a strided slice of a wider
# patch matrix; blocks of 1 or 25 images at 14x14 output (196 and 4,900
# columns) differ in the last bit.  8 images give 8*Ho*Wo columns.
IMAGE_BLOCK = 8


class Conv2dLayer(Layer):
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

    Both forwards run one loop over ``IMAGE_BLOCK`` images: each block's
    patches are filled, multiplied by ``W`` into one reused product
    buffer and written (plus the bias) straight into the NCHW output, so
    no [F, N*Ho*Wo] product exists.  The caching forward fills each block
    into its images' slice of one kept patch tensor, which backward reads
    as ``cols``; the inference forward (``cache=False``) refills one
    reused block buffer and keeps nothing.  Backward never builds a
    patch-sized d_cols array, so ``cols`` is the only patch-sized array.
    Results are bit-identical from run to run at a fixed BLAS thread
    count; a different thread count can change their last bits.
    """

    param_names = ("filters", "bias")

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

    def forward(self, x, train=False, rng=None, cache=True):
        x = np.asarray(x, dtype=DTYPE)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv expects [N, {self.in_channels}, H, W] input, got {x.shape}"
            )
        n, _, h, w = x.shape
        ho, wo = self.output_hw(h, w)
        c, k, f, p = self.in_channels, self.kernel_size, self.out_channels, self.padding
        weights = self.filters.reshape(f, c * k * k)
        self._cache = None  # free the last patch matrix before building this one
        # Channel-major view of the padded input: each kernel offset fills
        # one [C, B, Ho, Wo] block of the patch tensor [C, k, k, B, Ho, Wo].
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))).transpose(1, 0, 2, 3)
        out = np.empty((n, f, ho, wo), dtype=DTYPE)
        block = min(n, IMAGE_BLOCK)
        # The caching forward keeps every block's patches, at its images'
        # place in one tensor; the inference forward reuses one block's.
        patches = np.empty((c, k, k, n if cache else block, ho, wo), dtype=DTYPE)
        product = np.empty(f * block * ho * wo, dtype=DTYPE)
        for start in range(0, n, IMAGE_BLOCK):
            stop = min(start + IMAGE_BLOCK, n)
            place = slice(start, stop) if cache else slice(0, stop - start)
            cols = self._fill_patches(xp[:, start:stop], patches[:, :, :, place])
            gemm = product[: f * cols.shape[1]].reshape(f, -1)
            self._write_output(np.matmul(weights, cols, out=gemm), out[start:stop])
        if cache:
            self._cache = (patches.reshape(c * k * k, n * ho * wo), x.shape, xp.shape)
        return out

    def _fill_patches(self, xp, patches):
        """Lay the receptive fields of the channel-major padded images
        ``xp`` [C, B, Hp, Wp] out in ``patches`` [C, k, k, B, Ho, Wo] and
        return them as the patch matrix [C*k*k, B*Ho*Wo]: a view, strided
        when ``patches`` is one block of a larger tensor."""
        c, k, _, b, ho, wo = patches.shape
        s = self.stride
        for a in range(k):
            for j in range(k):
                patches[:, a, j] = xp[:, :, a : a + ho * s : s, j : j + wo * s : s]
        return patches.reshape(c * k * k, b * ho * wo)

    def _write_output(self, gemm, out):
        """Add the bias to ``gemm`` [F, B*Ho*Wo] into ``out`` [B, F, Ho, Wo]."""
        b, f, ho, wo = out.shape
        np.add(gemm.reshape(f, b, ho, wo).transpose(1, 0, 2, 3),
               self.bias[:, None, None], out=out)

    def backward(self, d_out, input_grad=True):
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
        self._cache = None
        if not input_grad:
            return None
        # col2im one kernel offset at a time: [C, F] @ [F, N*Ho*Wo] lands
        # in the offset's strided slice, so no patch-sized d_cols exists.
        taps = np.ascontiguousarray(self.filters.transpose(2, 3, 1, 0))
        d_xp = np.zeros(xp_shape, dtype=DTYPE)
        for a in range(k):
            for b in range(k):
                d_xp[:, :, a : a + ho * s : s, b : b + wo * s : s] += (
                    taps[a, b] @ d2
                ).reshape(c, n, ho, wo)
        return d_xp[:, :, p : p + h, p : p + w].transpose(1, 0, 2, 3)


class MaxPool2x2Layer(Layer):
    """Max over non-overlapping 2x2 windows, stride 2, of NCHW input
    with even spatial dims.

    The caching forward keeps the switches: the flat row-major index
    (0..3) of each window's maximum, ties resolved to the lowest index
    as argmax does.  Backward routes each gradient to its window's
    switch position, zeros elsewhere.  The inference forward
    (``cache=False``) keeps no switches and pools the same bytes.
    """

    def __init__(self):
        self._switches = None

    def forward(self, x, train=False, rng=None, cache=True):
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
        if cache:
            switches = (2 * down + np.where(down, right_bottom, right_top)).astype(np.intp)
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
        n, c, ho, wo = d_out.shape
        d_windows = np.zeros((n, c, ho, wo, 4), dtype=DTYPE)
        np.put_along_axis(d_windows, switches[..., None], d_out[..., None], axis=-1)
        return (
            d_windows.reshape(n, c, ho, wo, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, 2 * ho, 2 * wo)
        )


class FlattenLayer(Layer):
    """[N, ...] -> [N, prod(...)], undone on backward."""

    def __init__(self):
        self._shape = None

    def forward(self, x, train=False, rng=None, cache=True):
        x = np.asarray(x, dtype=DTYPE)
        self._shape = x.shape if cache else None
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
    """Inverted dropout: zero units with probability ``rate`` and scale
    survivors by 1/(1-rate) at train time; identity in eval mode.

    rate 0 and eval mode return ``x`` unchanged (bitwise identity).
    """

    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._mask = None
        self._identity = False

    def forward(self, x, train=False, rng=None, cache=True):
        x = np.asarray(x, dtype=DTYPE)
        identity = not train or self.rate == 0.0
        mask = None if identity else dropout_mask(x.shape, self.rate, rng)
        self._identity = cache and identity
        self._mask = mask if cache else None
        return x if identity else x * mask

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
