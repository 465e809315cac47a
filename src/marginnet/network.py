"""Network container: a layer stack feeding one objective head.

The stack maps raw inputs to penultimate activations h; the head turns
h into scores, a loss, and exact gradients.  Heads are interchangeable:
swapping the HeadSpec (and its weight matrix) changes the training
objective but nothing about the stack or the prediction rule.
"""

import math
from typing import NamedTuple

import numpy as np

from . import heads as heads_mod
from .layers import (
    Conv2dLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    ReluLayer,
    init_gaussian,
)
from .tensor import DTYPE, DomainError, ShapeError, reject_pixels

# Rows per chunk of Network.scores; see there for why 2,000.
SCORE_CHUNK = 2000


class TensorSlot(NamedTuple):
    """A parameter tensor's entry in a network's offset table: its saved
    name, its span of the flat buffers and its shape."""

    name: str
    span: slice
    shape: tuple

    def of(self, flat):
        """This tensor's view of ``flat``, laid out like ``Network.param``."""
        return flat[self.span].reshape(self.shape)


class Network:
    """A layer stack and a head over one flat parameter buffer.

    ``param`` holds every parameter in :meth:`named_tensors` order (layer
    by layer, then ``head.weights``: the order ``params.bin`` saves).
    ``table`` has one :class:`TensorSlot` per tensor, ``layer_slots[i]``
    layer ``i``'s, and ``head_weights`` [(head_dim+1), K] is the last
    one's view.  A layer's tensors are named ``layer{p}.{name}``, p being
    the stack positions the layers before it fill (``Layer.positions``).
    Layers hold no arrays: each call passes a layer its views of
    ``param`` and, in :meth:`backprop`, of a new ``grad`` buffer laid
    out alike.  ``param`` starts at 0 (the layers give shapes, not
    values); ``rng`` draws each weight view in ``table`` order, the
    head's bias row excepted.
    """

    def __init__(self, layers, head_spec, head_dim, arch, rng=None):
        self.layers = layers
        self.head_spec = head_spec
        self.arch = arch  # dict describing how to rebuild the stack
        tensors, position = [], 0
        for i, layer in enumerate(layers):
            tensors += [(i, f"layer{position}.{name}", shape)
                        for name, shape in zip(layer.param_names, layer.param_shapes)]
            position += layer.positions
        tensors.append((None, "head.weights", (head_dim + 1, head_spec.num_classes)))
        self.table, self.layer_slots, offset = [], [[] for _ in layers], 0
        for i, name, shape in tensors:
            slot = TensorSlot(name, slice(offset, offset + math.prod(shape)), shape)
            self.table.append(slot)
            if i is not None:
                self.layer_slots[i].append(slot)
            offset = slot.span.stop
        self.param = np.zeros(offset, dtype=DTYPE)
        self.head_weights = self.table[-1].of(self.param)
        # The stack weight tensors: each layer's first parameter.
        self._decayed = [slots[0] for slots in self.layer_slots if slots]
        if rng is not None:
            for slot in self._decayed:
                init_gaussian(slot.of(self.param), rng, arch["init_std"])
            init_gaussian(self.head_weights[:-1], rng, arch["init_std"])
        self.grad = None

    def forward(self, x, train=False, rng=None):
        """Run the stack to penultimate activations [N, D].

        ``train=True`` is the training forward: every layer keeps what
        its backward needs, and dropout draws its masks from ``rng``.
        The default is the inference forward: dropout is the identity
        and no layer keeps anything (see :mod:`marginnet.layers`).
        Unscaled uint8 pixels are a :class:`DomainError`.
        """
        reject_pixels(x, "Network.forward")
        for layer, slots in zip(self.layers, self.layer_slots):
            x = layer.forward(x, [slot.of(self.param) for slot in slots],
                              train=train, rng=rng)
        return x

    def scores(self, x, transform=None):
        """Head scores [N, K] of ``x``: the inference forward
        (``train=False``: no dropout, nothing kept) and the head on
        consecutive ``SCORE_CHUNK``-row chunks (the last may be short).
        With ``transform``, each chunk of ``x`` goes through it first, so
        rows kept as bytes become network inputs one chunk at a time.

        Evaluation (every ``metrics.csv`` row, ``marginnet eval``),
        ``predict`` and the ensembles all score here, so they agree byte
        for byte and need one chunk's activations, not the split's.  The
        last bits depend on the chunk size, because a 2,000-row head
        product can fall under OpenBLAS's small-matrix cutoff where the
        whole split's does not; 2,000 is the partition evaluation has
        always used, which keeps ``metrics.csv`` bytes unchanged.
        """
        x = np.asarray(x)
        n = x.shape[0]
        out = np.empty((n, self.head_weights.shape[1]), dtype=DTYPE)
        for start in range(0, max(n, 1), SCORE_CHUNK):  # empty x is shape-checked too
            rows = slice(start, start + SCORE_CHUNK)
            h = self.forward(x[rows] if transform is None else transform(x[rows]))
            out[rows] = heads_mod.head_scores(self.head_weights, h)
        return out

    def predict(self, x):
        return heads_mod.predict(self.scores(x))

    def head_output(self, x, labels):
        """The inference forward plus head evaluation; no backprop
        through the stack."""
        h = self.forward(x)
        return heads_mod.apply_head(self.head_spec, self.head_weights, h, labels)

    def backprop(self, x, labels, rng=None, lower_weight_decay=0.0):
        """The training forward (dropout draws from ``rng``) and the full
        backward pass; returns the HeadOutput.

        Afterwards ``grad`` holds every parameter's gradient, laid out
        like ``param``, until the caller drops it after its step.
        ``lower_weight_decay`` adds :meth:`stack_penalty` to the loss
        and its gradient to every stack weight tensor.
        """
        h = self.forward(x, train=True, rng=rng)
        out = heads_mod.apply_head(self.head_spec, self.head_weights, h, labels)
        self.grad = np.empty_like(self.param)
        self.table[-1].of(self.grad)[...] = out.d_w
        d = out.d_h
        stack = enumerate(zip(self.layers, self.layer_slots))
        for depth, (layer, slots) in reversed(list(stack)):
            params = [slot.of(self.param) for slot in slots]
            grads = [slot.of(self.grad) for slot in slots]
            if depth:
                d = layer.backward(d, params, grads)
            else:  # nothing sits below the first layer: skip its input gradient
                layer.backward(d, params, grads, input_grad=False)
        if lower_weight_decay > 0.0:
            for slot in self._decayed:
                d_weight = slot.of(self.grad)
                d_weight += lower_weight_decay * slot.of(self.param)
            out.loss += self.stack_penalty(lower_weight_decay)
        return out

    def stack_penalty(self, lower_weight_decay):
        """0.5 * wd * the summed squares of every stack weight tensor (the
        first parameter of each layer; not biases, not the head)."""
        if lower_weight_decay <= 0.0:
            return 0.0
        total = 0.0
        for slot in self._decayed:
            total += float(np.sum(slot.of(self.param) ** 2))
        return 0.5 * lower_weight_decay * total

    def named_tensors(self):
        """Stable name -> parameter view mapping for serialization."""
        return {slot.name: slot.of(self.param) for slot in self.table}


def build_mlp(input_dim, hidden_dims, head_spec, rng=None, init_std=0.01):
    """Dense-ReLU stack: input_dim -> hidden_dims... -> head."""
    if input_dim < 1:
        raise DomainError(f"input_dim must be positive, got {input_dim}")
    layers, d = [], input_dim
    for width in hidden_dims:
        if width < 1:
            raise DomainError(f"hidden width must be positive, got {width}")
        layers += [DenseLayer(d, width), ReluLayer()]
        d = width
    arch = {
        "kind": "mlp",
        "input_dim": int(input_dim),
        "hidden_dims": [int(w) for w in hidden_dims],
        "init_std": float(init_std),
    }
    return Network(layers, head_spec, d, arch, rng)


def build_convnet(input_shape, conv_channels, kernel_size, dense_dim,
                  dropout_rate, head_spec, rng=None, init_std=0.01):
    """Conv blocks, then flatten -> dense penultimate layer with ReLU
    and dropout on top of it.

    input_shape is (C, H, W); each block keeps the spatial dims through
    its conv and halves them in its pool, so H and W must be divisible
    by 2**len(conv_channels).  There must be at least one block.

    A block is one ``Conv2dLayer(..., pool_relu=True)``, conv -> 2x2
    max-pool -> ReLU in one pass.  That is the conv -> ReLU -> pool
    block exactly: ReLU is monotone, so the max of the rectified window
    is the rectified max of the window, and the gradient reaches the
    same conv output (the window's first maximum) with the same value;
    where the window's max is not positive both orders send it a zero.
    A block fills three stack positions, so two blocks and the dense
    layer name their tensors ``layer0.*``, ``layer3.*`` and ``layer7.*``.
    """
    if not conv_channels:
        raise DomainError("a convnet needs at least one conv block")
    for width in (*conv_channels, dense_dim):
        if width < 1:
            raise DomainError(f"layer width must be positive, got {width}")
    c, h, w = input_shape
    factor = 2 ** len(conv_channels)
    if h % factor or w % factor:
        raise ShapeError(
            f"{h}x{w} images cannot be pooled {len(conv_channels)} times"
        )
    widths = [c, *conv_channels]
    layers = [Conv2dLayer(c_in, c_out, kernel_size, pool_relu=True)
              for c_in, c_out in zip(widths, widths[1:])]
    flat = widths[-1] * (h // factor) * (w // factor)
    layers += [FlattenLayer(), DenseLayer(flat, dense_dim), ReluLayer(),
               DropoutLayer(dropout_rate)]
    arch = {
        "kind": "conv",
        "input_shape": [int(v) for v in input_shape],
        "conv_channels": [int(v) for v in conv_channels],
        "kernel_size": int(kernel_size),
        "dense_dim": int(dense_dim),
        "dropout_rate": float(dropout_rate),
        "init_std": float(init_std),
    }
    return Network(layers, head_spec, dense_dim, arch, rng)


def build_from_arch(arch, head_spec):
    """Reconstruct a network from its arch dict, all parameters 0: its
    ``init_std`` is kept in ``arch``, and no init is drawn."""
    kind = arch.get("kind")
    if kind == "mlp":
        return build_mlp(arch["input_dim"], arch["hidden_dims"], head_spec,
                         init_std=arch["init_std"])
    if kind == "conv":
        return build_convnet(
            tuple(arch["input_shape"]), arch["conv_channels"],
            arch["kernel_size"], arch["dense_dim"], arch["dropout_rate"],
            head_spec, init_std=arch["init_std"],
        )
    raise DomainError(f"unknown architecture kind {kind!r}")
