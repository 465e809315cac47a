"""Differentiable layers with a uniform forward/backward contract.

Conventions:
    - Dense inputs are [N, in]; image inputs are NCHW ([N, C, H, W]).
    - A layer holds no parameter or gradient arrays.  ``param_names``
      and ``param_shapes`` name and size its parameters, weight tensor
      first (both empty, and ``params`` and ``grads`` ignored, for
      parameter-free layers).  ``params`` and ``grads`` are arrays of
      those shapes in that order, and backward overwrites ``grads``: a
      network passes views of its flat buffers, :func:`zero_params`
      makes standalone ones.
    - ``forward(x, params, train=False, rng=None)`` has one mode flag.
      ``train=True`` is the training forward: the layer keeps what its
      backward needs, and dropout draws its mask from ``rng``.
      ``backward(d_out, params, grads)`` consumes that state and returns
      ``d_input``, the gradient with respect to the forward input (same
      shape).  One outstanding training forward per instance: backward
      clears the state, and calling it again without a fresh training
      forward raises :class:`LayerStateError`.
    - ``train=False``, the default, is the inference forward
      (evaluation, scores, predictions): dropout is the identity, every
      other layer returns the same bytes as its training forward at a
      fixed BLAS thread count, and the layer keeps nothing.  It drops
      whatever an earlier training forward kept, so a following backward
      raises :class:`LayerStateError` instead of reusing stale state.
    - Layers with parameters take ``backward(..., input_grad=False)``
      when no gradient is needed below them (the first layer of a
      stack): parameter gradients are computed as usual, ``d_input`` is
      skipped and None is returned.
    - ``positions`` is the number of stack positions a layer fills in
      its network's tensor names: 1, or 3 for a pooled conv block
      (conv, pool and ReLU).

:func:`marginnet.gradcheck.check_layer` checks a layer's backward against
central finite differences; ``marginnet gradcheck`` runs it on the dense,
ReLU, conv, max-pool and dropout layers.

Convolution is im2col plus GEMM (Chellapilla et al. 2006) at one
geometry, stride 1 with "same" padding for an odd kernel k, so a conv
layer keeps the spatial size and the 2x2 max-pool halves it.  The
receptive fields of a few images at a time are laid out as a block of
the patch matrix [C*k*k, N*H*W] in one reused buffer, and every pass of
a conv layer runs one loop over those image blocks.  Forward multiplies
each block into a reused product buffer and adds the bias there;
backward sums the filter gradient block by block and scatters each
block's input gradient back (col2im) with one small matmul per kernel
offset.  A convnet's blocks are ``Conv2dLayer(..., pool_relu=True)``:
conv -> 2x2 max-pool -> ReLU in one such pass, the product pooled and
rectified while it is in cache and backward unpooling one block of the
gradient at a time, so neither the full-resolution conv output nor its
gradient is ever allocated.  The pool and ReLU are the same functions
the standalone :class:`MaxPool2x2Layer` and :class:`ReluLayer` apply.
No patch matrix outlives a call in either mode.
"""

import numpy as np

from .tensor import DTYPE, DomainError, ShapeError, matmul


class LayerStateError(RuntimeError):
    """backward() called without a preceding forward() on this instance."""


class Layer:
    """Base class: a layer's parameters by name and shape, none by
    default, and the one stack position it fills."""

    param_names = ()
    param_shapes = ()
    positions = 1


def zero_params(layer):
    """Standalone arrays for ``layer``'s parameters, all 0, in
    ``param_names`` order."""
    return [np.zeros(shape, dtype=DTYPE) for shape in layer.param_shapes]


def init_gaussian(out, rng, std):
    """The one weight init: fill the C-contiguous float64 ``out`` in
    place as ``rng.normal(0.0, std, out.shape)`` would, with its bytes
    and its generator state; std 0 draws nothing."""
    if std != 0.0:
        rng.standard_normal(out=out)
        out *= std


class DenseLayer(Layer):
    """Affine map x -> x @ W + b with weights [in, out] and bias [out]."""

    param_names = ("weights", "bias")

    def __init__(self, n_in, n_out):
        self.n_in = n_in
        self.n_out = n_out
        self.param_shapes = ((n_in, n_out), (n_out,))
        self._cached_input = None

    def forward(self, x, params, train=False, rng=None):
        weights, bias = params
        x = np.asarray(x, dtype=DTYPE)
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeError(
                f"dense layer expects [N, {self.n_in}] input, got {x.shape}"
            )
        self._cached_input = x if train else None
        out = matmul(x, weights)
        out += bias
        return out

    def backward(self, d_out, params, grads, input_grad=True):
        if self._cached_input is None:
            raise LayerStateError("dense backward called before forward")
        x = self._cached_input
        d_out = np.asarray(d_out, dtype=DTYPE)
        if d_out.shape != (x.shape[0], self.n_out):
            raise ShapeError(
                f"dense backward expects {(x.shape[0], self.n_out)}, got {d_out.shape}"
            )
        d_weights, d_bias = grads
        np.matmul(x.T, d_out, out=d_weights)
        np.sum(d_out, axis=0, out=d_bias)
        self._cached_input = None
        return matmul(d_out, params[0].T) if input_grad else None


class ReluLayer(Layer):
    """max(x, 0), elementwise.  Backward passes d_out where the forward
    input was > 0; the subgradient at exactly 0 is taken as 0."""

    def __init__(self):
        self._cached_input = None

    def forward(self, x, params=(), train=False, rng=None):
        x = np.asarray(x, dtype=DTYPE)
        self._cached_input = x if train else None
        return np.maximum(x, 0.0)

    def backward(self, d_out, params=(), grads=()):
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
# images give 8*H*W columns.  The same holds for the col2im products,
# short last block included.  The filter gradient sums one product per
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

    ``cols`` is never built whole.  Both passes run one loop over
    ``IMAGE_BLOCK`` images, in ascending order: each block's patches are
    refilled into one reused buffer.  Forward multiplies them by ``K``
    into one reused product buffer, adds the bias there and writes the
    block's output.  The training forward keeps only the channel-major
    padded input [C, N, H+k-1, W+k-1]; the inference forward
    (``train=False``) pads each block into one reused buffer and keeps
    nothing.  Backward copies each block's ``d2`` columns into one
    reused buffer, adds their product with the patches into
    ``d_filters``, and, unless ``input_grad=False``, adds the block's
    col2im into the block's own slice of the padded input, whose
    patches it no longer needs; the input gradient is a view of that
    array.  ``d_bias`` sums each image's H*W plane, then the planes over
    images, the order of ``d_out.sum(axis=(0, 2, 3))``.

    ``pool_relu=True`` makes the layer a convnet's block, conv -> bias
    -> 2x2 max-pool -> ReLU, run in the same loop (H and W must be
    even): each block's product is pooled by :func:`max_pool2x2` and
    rectified into the [N, F, H/2, W/2] output, and the training forward
    also keeps the pool switches and the ReLU mask (one byte per output
    unit each).  Backward then takes the pooled gradient, masks it as
    :class:`ReluLayer` does and unpools it one block at a time with
    :func:`unpool2x2`.  The bytes equal those of the conv, pool and ReLU
    layers run one after another, and the block fills their three stack
    positions.  The default, ``pool_relu=False``, is the plain conv.
    Results are bit-identical from run to run at a fixed BLAS thread
    count; a different thread count can change their last bits.
    """

    param_names = ("filters", "bias")

    def __init__(self, in_channels, out_channels, kernel_size, pool_relu=False):
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise DomainError(
                f"kernel size must be odd and positive, got {kernel_size}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = kernel_size // 2
        self.pool_relu = pool_relu
        self.positions = 3 if pool_relu else 1
        self.param_shapes = ((out_channels, in_channels, kernel_size, kernel_size),
                             (out_channels,))
        self._cache = None

    def output_hw(self, h, w):
        """Spatial size of the conv product of an h x w input: the same,
        h x w (a pooled block then halves it)."""
        return h, w

    def forward(self, x, params, train=False, rng=None):
        filters, bias = params
        x = np.asarray(x, dtype=DTYPE)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv expects [N, {self.in_channels}, H, W] input, got {x.shape}"
            )
        n, _, h, w = x.shape
        if self.pool_relu and (h % 2 or w % 2):
            raise ShapeError(
                f"a pooled conv block needs even spatial dims, got {h}x{w}"
            )
        c, k, f, p = self.in_channels, self.kernel_size, self.out_channels, self.padding
        weights = filters.reshape(f, c * k * k)
        self._cache = None  # free the last padded input before padding this one
        # The zero-padded input, channel-major, filled by _patch_blocks:
        # the whole batch for backward, or one reused block.
        xp = np.zeros((c, n if train else min(n, IMAGE_BLOCK), h + 2 * p, w + 2 * p),
                      dtype=DTYPE)
        out_hw = (h // 2, w // 2) if self.pool_relu else (h, w)
        out = np.empty((n, f, *out_hw), dtype=DTYPE)
        pool_state = None
        if self.pool_relu and train:  # switches and ReLU mask, channel-major
            pool_state = (np.empty((f, n, *out_hw), dtype=np.uint8),
                          np.empty((f, n, *out_hw), dtype=bool))
        product = np.empty(f * min(n, IMAGE_BLOCK) * h * w, dtype=DTYPE)
        for images, cols in self._patch_blocks(xp, x):
            conv = product[: f * cols.shape[1]].reshape(f, -1)
            np.matmul(weights, cols, out=conv)
            conv += bias[:, None]
            conv = conv.reshape(f, -1, h, w)
            block_out = out[images].transpose(1, 0, 2, 3)
            if not self.pool_relu:
                block_out[...] = conv
                continue
            pooled, switches = max_pool2x2(conv, train)
            np.maximum(pooled, 0.0, out=block_out)
            if train:
                pool_state[0][:, images] = switches
                np.greater(pooled, 0.0, out=pool_state[1][:, images])
        if train:
            self._cache = (xp, x.shape, pool_state)
        return out

    def _patch_blocks(self, xp, x=None):
        """Yield ``(images, cols)`` for each block of ``IMAGE_BLOCK``
        images of the channel-major padded input ``xp`` [C, N, H+k-1,
        W+k-1], in ascending order: the block's slice of the batch and
        its patch matrix [C*k*k, B*H*W].  A block of NCHW ``x``, if given,
        is first padded into its slice of ``xp`` (or ``xp``'s first B
        images, if ``xp`` holds one block).  Every block is refilled into
        one reused buffer, so ``cols`` is valid until the next yield."""
        c, n = xp.shape[0], xp.shape[1] if x is None else len(x)
        k, p = self.kernel_size, self.padding
        h, w = xp.shape[2] - k + 1, xp.shape[3] - k + 1
        buffer = np.empty(c * k * k * min(n, IMAGE_BLOCK) * h * w, dtype=DTYPE)
        for start in range(0, n, IMAGE_BLOCK):
            images = slice(start, min(start + IMAGE_BLOCK, n))
            b = images.stop - start
            block = xp[:, images] if xp.shape[1] == n else xp[:, :b]
            if x is not None:
                block[:, :, p : p + h, p : p + w] = x[images].transpose(1, 0, 2, 3)
            patches = buffer[: c * k * k * b * h * w].reshape(c, k, k, b, h, w)
            for a in range(k):
                for j in range(k):
                    patches[:, a, j] = block[:, :, a : a + h, j : j + w]
            yield images, patches.reshape(c * k * k, b * h * w)

    def backward(self, d_out, params, grads, input_grad=True):
        if self._cache is None:
            raise LayerStateError("conv backward called before forward")
        xp, x_shape, pool_state = self._cache
        n, _, h, w = x_shape
        c, f, k, p = self.in_channels, self.out_channels, self.kernel_size, self.padding
        out_hw = (h, w) if pool_state is None else (h // 2, w // 2)
        d_out = np.asarray(d_out, dtype=DTYPE)
        if d_out.shape != (n, f, *out_hw):
            raise ShapeError(
                f"conv backward expects {(n, f, *out_hw)}, got {d_out.shape}"
            )
        self._cache = None
        taps = np.ascontiguousarray(params[0].transpose(2, 3, 1, 0))
        d_filters, d_bias = grads
        d_filters = d_filters.reshape(f, c * k * k)  # a view: it is contiguous
        d_filters[...] = 0.0
        plane_sums = np.empty((n, f), dtype=DTYPE)
        buffer = np.empty(f * min(n, IMAGE_BLOCK) * h * w, dtype=DTYPE)
        for images, cols in self._patch_blocks(xp):
            b = images.stop - images.start
            d_conv = buffer[: f * b * h * w].reshape(f, b, h, w)
            d_block = d_out[images].transpose(1, 0, 2, 3)
            if pool_state is None:
                d_conv[...] = d_block
            else:
                switches, positive = pool_state
                unpool2x2(d_block * positive[:, images], switches[:, images], d_conv)
            plane_sums[images] = d_conv.sum(axis=(2, 3)).T
            d2 = d_conv.reshape(f, b * h * w)
            d_filters += d2 @ cols.T
            if input_grad:
                # col2im one kernel offset at a time: [C, F] @ [F, B*H*W]
                # lands in the offset's slice of this block's padded input,
                # which becomes its gradient.
                d_xp = xp[:, images]
                d_xp[...] = 0.0
                for a in range(k):
                    for j in range(k):
                        d_xp[:, :, a : a + h, j : j + w] += (
                            taps[a, j] @ d2
                        ).reshape(c, b, h, w)
        np.sum(plane_sums, axis=0, out=d_bias)
        if not input_grad:
            return None
        return xp[:, :, p : p + h, p : p + w].transpose(1, 0, 2, 3)


def max_pool2x2(x, train=False):
    """Max over the non-overlapping 2x2 windows of the last two axes of
    ``x`` [..., H, W] (H and W even): ``(pooled, switches)``, with
    ``switches`` None unless ``train``; see :class:`MaxPool2x2Layer`."""
    # The max of the four strided window views.  np.maximum does not say
    # which operand a tie returns, so a window whose max is 0 takes the
    # sign of its first zero, the one argmax picks.
    views = [x[..., i::2, j::2] for i in (0, 1) for j in (0, 1)]
    top = np.maximum(views[0], views[1])
    bottom = np.maximum(views[2], views[3])
    pooled = np.maximum(top, bottom)
    zero = pooled == 0
    if zero.any():
        for view in reversed(views):
            np.copyto(pooled, view, where=zero & (view == 0))
    switches = None
    if train:
        # A knockout: left against right in each row, then bottom row
        # against top.  Strict ``>`` keeps the lower index on ties.
        down = bottom > top
        switches = np.where(down, views[3] > views[2],
                            views[1] > views[0]).view(np.uint8)
        switches += down  # twice: the bottom row is indices 2 and 3
        switches += down
    # np.maximum propagates a NaN but not necessarily the first one, and
    # ``>`` never selects one; argmax pools a window holding a NaN to its
    # first NaN.  So the pooled max is NaN iff x holds one.
    if np.isnan(np.max(pooled, initial=-np.inf)):
        for i in (3, 2, 1, 0):
            nans = np.isnan(views[i])
            np.copyto(pooled, views[i], where=nans)
            if switches is not None:
                np.copyto(switches, i, where=nans)
    return pooled, switches


def unpool2x2(d_out, switches, out):
    """Write into ``out`` [..., 2h, 2w] the gradient of :func:`max_pool2x2`:
    each value of ``d_out`` [..., h, w] at its window's switch position,
    +0.0 everywhere else.  Returns ``out``."""
    # Each switch position is one strided view of ``out``.  copyto writes
    # d_out's own bytes there, and +0.0 stays everywhere else (a product
    # with a 0/1 mask would write -0.0 under negative gradients).
    out[...] = 0.0
    for i in (0, 1):
        for j in (0, 1):
            np.copyto(out[..., i::2, j::2], d_out, where=switches == 2 * i + j)
    return out


class MaxPool2x2Layer(Layer):
    """Max over non-overlapping 2x2 windows, stride 2, of NCHW input
    with even spatial dims.

    Values are ``np.maximum`` over the four strided window views, with
    argmax's choice on ±0.0 ties and NaN windows.  The training forward
    also keeps the switches: the flat row-major index (0..3, as uint8)
    of each window's maximum, ties resolved to the lowest index as
    argmax does.  Backward routes each gradient to its window's switch
    position, zeros elsewhere.  The inference forward (``train=False``)
    computes no switches and pools the same bytes.
    """

    def __init__(self):
        self._switches = None

    def forward(self, x, params=(), train=False, rng=None):
        x = np.asarray(x, dtype=DTYPE)
        if x.ndim != 4:
            raise ShapeError(f"maxpool expects NCHW input, got shape {x.shape}")
        h, w = x.shape[2:]
        if h % 2 or w % 2:
            raise ShapeError(f"maxpool needs even spatial dims, got {h}x{w}")
        pooled, self._switches = max_pool2x2(x, train)
        return pooled

    def backward(self, d_out, params=(), grads=()):
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
        return unpool2x2(d_out, switches,
                         np.empty((n, c, 2 * ho, 2 * wo), dtype=DTYPE))


class FlattenLayer(Layer):
    """[N, ...] -> [N, prod(...)], undone on backward."""

    def __init__(self):
        self._shape = None

    def forward(self, x, params=(), train=False, rng=None):
        x = np.asarray(x, dtype=DTYPE)
        self._shape = x.shape if train else None
        return x.reshape(x.shape[0], -1)

    def backward(self, d_out, params=(), grads=()):
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

    def forward(self, x, params=(), train=False, rng=None):
        x = np.asarray(x, dtype=DTYPE)
        self._identity = train and self.rate == 0.0
        self._mask = None
        if not train or self._identity:
            return x
        if rng is None:
            raise DomainError("a training forward through dropout needs an rng")
        self._mask = dropout_mask(x.shape, self.rate, rng)
        return x * self._mask

    def backward(self, d_out, params=(), grads=()):
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
