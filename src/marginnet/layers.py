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
      shape).  One outstanding training forward per instance.  The rule
      is written once, in :class:`Layer`: a forward ends in ``_keep``
      and a backward starts with ``_take``.  A backward with nothing
      kept raises :class:`LayerStateError`, and a ``d_out`` of another
      shape than the forward output raises :class:`ShapeError` in every
      layer.  A backward consumes the state even when it raises, so a
      second one raises :class:`LayerStateError`.
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
    default, the one stack position it fills, and the backward contract
    of every layer (``_keep`` and ``_take``)."""

    param_names = ()
    param_shapes = ()
    positions = 1
    _state = None  # what the last training forward kept for backward
    _out_shape = None  # its output's shape; None when nothing is kept

    def _keep(self, train, out, state):
        """Return the forward output ``out``.  A training forward keeps
        ``state`` and ``out.shape`` for backward; an inference forward
        drops both."""
        self._state, self._out_shape = (state, out.shape) if train else (None, None)
        return out

    def _take(self, d_out):
        """Consume the kept state: ``(d_out as float64, state)``.  Raises
        :class:`LayerStateError` when nothing is kept, and
        :class:`ShapeError` when ``d_out``'s shape is not the forward
        output's; the state is gone either way."""
        state, shape = self._state, self._out_shape
        self._state = self._out_shape = None
        name = type(self).__name__
        if shape is None:
            raise LayerStateError(f"{name}.backward called without a training forward")
        d_out = np.asarray(d_out, dtype=DTYPE)
        if d_out.shape != shape:
            raise ShapeError(f"{name}.backward expects {shape}, got {d_out.shape}")
        return d_out, state


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

    @property
    def _cached_input(self):  # perfbench's dense backward span reads it
        return self._state

    def forward(self, x, params, train=False, rng=None):
        weights, bias = params
        x = np.asarray(x, dtype=DTYPE)
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeError(
                f"dense layer expects [N, {self.n_in}] input, got {x.shape}"
            )
        out = matmul(x, weights)
        out += bias
        return self._keep(train, out, x)

    def backward(self, d_out, params, grads, input_grad=True):
        d_out, x = self._take(d_out)
        d_weights, d_bias = grads
        np.matmul(x.T, d_out, out=d_weights)
        np.sum(d_out, axis=0, out=d_bias)
        return matmul(d_out, params[0].T) if input_grad else None


class ReluLayer(Layer):
    """max(x, 0), elementwise.  Backward passes d_out where the forward
    input was > 0; the subgradient at exactly 0 is taken as 0."""

    def forward(self, x, params=(), train=False, rng=None):
        x = np.asarray(x, dtype=DTYPE)
        return self._keep(train, np.maximum(x, 0.0), x)

    def backward(self, d_out, params=(), grads=()):
        d_out, x = self._take(d_out)
        return d_out * (x > 0)


# Images per block of the conv patches, in both forwards and in backward.
# With OpenBLAS 0.3.31 (SkylakeX kernels, 1 thread) a forward GEMM over a
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

    Neither ``cols`` nor the padded input is ever built whole.  All three
    passes run one loop over ``IMAGE_BLOCK`` images, in ascending order
    (:meth:`_patch_blocks`): each block is padded into one reused buffer
    and its patches refilled into another.  Forward multiplies them by
    ``K`` into one reused product buffer, adds the bias there and writes
    the block's output.  The training forward keeps the input ``x``
    itself; the inference forward (``train=False``) keeps nothing.
    Backward copies each block's ``d2`` columns into one reused buffer,
    adds their product with the patches into ``d_filters``, and, unless
    ``input_grad=False``, adds the block's col2im into one reused
    block-sized padded gradient, whose centre it writes into the block's
    images of ``d_input``.  ``d_bias`` sums each image's H*W plane, then
    the planes over images, the order of ``d_out.sum(axis=(0, 2, 3))``.

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

    @property
    def _cache(self):  # perfbench's conv backward span reads _cache[0]
        return self._state

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
        f = self.out_channels
        weights = filters.reshape(f, -1)
        out_hw = (h // 2, w // 2) if self.pool_relu else (h, w)
        out = np.empty((n, f, *out_hw), dtype=DTYPE)
        pool_state = None
        if self.pool_relu and train:  # switches and ReLU mask, channel-major
            pool_state = (np.empty((f, n, *out_hw), dtype=np.uint8),
                          np.empty((f, n, *out_hw), dtype=bool))
        product = np.empty(f * min(n, IMAGE_BLOCK) * h * w, dtype=DTYPE)
        for images, cols in self._patch_blocks(x):
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
        return self._keep(train, out, (x, pool_state))

    def _padded_block(self, n, h, w):
        """A zeroed channel-major buffer [C, min(n, IMAGE_BLOCK), H+k-1,
        W+k-1]: one image block's padded input or input gradient."""
        hp, wp = h + 2 * self.padding, w + 2 * self.padding
        return np.zeros((self.in_channels, min(n, IMAGE_BLOCK), hp, wp), dtype=DTYPE)

    def _patch_blocks(self, x):
        """Yield ``(images, cols)`` for each block of ``IMAGE_BLOCK``
        images of the NCHW input ``x``, in ascending order: the block's
        slice of the batch and its patch matrix [C*k*k, B*H*W].  Each
        block is padded, channel-major, into one reused buffer whose
        border stays zero, and its patches are refilled into another, so
        ``cols`` is valid until the next yield."""
        n, c, h, w = x.shape
        k, p = self.kernel_size, self.padding
        xp = self._padded_block(n, h, w)
        buffer = np.empty(c * k * k * min(n, IMAGE_BLOCK) * h * w, dtype=DTYPE)
        for start in range(0, n, IMAGE_BLOCK):
            images = slice(start, min(start + IMAGE_BLOCK, n))
            b = images.stop - start
            block = xp[:, :b]
            block[:, :, p : p + h, p : p + w] = x[images].transpose(1, 0, 2, 3)
            patches = buffer[: c * k * k * b * h * w].reshape(c, k, k, b, h, w)
            for a in range(k):
                for j in range(k):
                    patches[:, a, j] = block[:, :, a : a + h, j : j + w]
            yield images, patches.reshape(c * k * k, b * h * w)

    def backward(self, d_out, params, grads, input_grad=True):
        d_out, (x, pool_state) = self._take(d_out)
        n, c, h, w = x.shape
        f, k, p = self.out_channels, self.kernel_size, self.padding
        taps = np.ascontiguousarray(params[0].transpose(2, 3, 1, 0))
        d_filters, d_bias = grads
        d_filters = d_filters.reshape(f, c * k * k)  # a view: it is contiguous
        d_filters[...] = 0.0
        plane_sums = np.empty((n, f), dtype=DTYPE)
        buffer = np.empty(f * min(n, IMAGE_BLOCK) * h * w, dtype=DTYPE)
        d_input = np.empty((n, c, h, w), dtype=DTYPE) if input_grad else None
        d_xp = self._padded_block(n, h, w) if input_grad else None
        for images, cols in self._patch_blocks(x):
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
                # lands in the offset's slice of the block's padded input
                # gradient, whose centre is the block's d_input.
                d_padded = d_xp[:, :b]
                d_padded[...] = 0.0
                for a in range(k):
                    for j in range(k):
                        d_padded[:, :, a : a + h, j : j + w] += (
                            taps[a, j] @ d2
                        ).reshape(c, b, h, w)
                centre = d_padded[:, :, p : p + h, p : p + w]
                d_input[images] = centre.transpose(1, 0, 2, 3)
        np.sum(plane_sums, axis=0, out=d_bias)
        return d_input


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

    def forward(self, x, params=(), train=False, rng=None):
        x = np.asarray(x, dtype=DTYPE)
        if x.ndim != 4:
            raise ShapeError(f"maxpool expects NCHW input, got shape {x.shape}")
        h, w = x.shape[2:]
        if h % 2 or w % 2:
            raise ShapeError(f"maxpool needs even spatial dims, got {h}x{w}")
        pooled, switches = max_pool2x2(x, train)
        return self._keep(train, pooled, switches)

    def backward(self, d_out, params=(), grads=()):
        d_out, switches = self._take(d_out)
        n, c, ho, wo = d_out.shape
        return unpool2x2(d_out, switches,
                         np.empty((n, c, 2 * ho, 2 * wo), dtype=DTYPE))


class FlattenLayer(Layer):
    """[N, ...] -> [N, prod(...)], undone on backward."""

    def forward(self, x, params=(), train=False, rng=None):
        x = np.asarray(x, dtype=DTYPE)
        return self._keep(train, x.reshape(x.shape[0], -1), x.shape)

    def backward(self, d_out, params=(), grads=()):
        d_out, shape = self._take(d_out)
        return d_out.reshape(shape)


def dropout_mask(shape, rate, rng):
    """The inverted-dropout multiplier: 1/(1-rate) for each unit that
    survives (one uniform draw per unit, kept when >= ``rate``), else 0."""
    return (rng.random(shape) >= rate) / (1.0 - rate)


class DropoutLayer(Layer):
    """Inverted dropout: the training forward zeros units with
    probability ``rate`` and scales survivors by 1/(1-rate); the
    inference forward is the identity.

    rate 0 and the inference forward return ``x`` unchanged (bitwise
    identity); a training forward at rate 0 keeps no mask.
    """

    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x, params=(), train=False, rng=None):
        x = np.asarray(x, dtype=DTYPE)
        if not train or self.rate == 0.0:
            return self._keep(train, x, None)
        if rng is None:
            raise DomainError("a training forward through dropout needs an rng")
        mask = dropout_mask(x.shape, self.rate, rng)
        return self._keep(train, x * mask, mask)

    def backward(self, d_out, params=(), grads=()):
        d_out, mask = self._take(d_out)
        return d_out if mask is None else d_out * mask


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
