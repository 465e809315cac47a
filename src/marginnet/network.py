"""Network container: a layer stack feeding one objective head.

The stack maps raw inputs to penultimate activations h; the head turns
h into scores, a loss, and exact gradients.  Heads are interchangeable:
swapping the HeadSpec (and its weight matrix) changes the training
objective but nothing about the stack or the prediction rule.
"""

from dataclasses import replace

import numpy as np

from . import heads as heads_mod
from .layers import (
    Conv2dLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    MaxPool2x2Layer,
    ReluLayer,
)
from .serialize import assign_tensor
from .tensor import DTYPE, DomainError, ShapeError

# Rows per chunk of Network.scores; see there for why 2,000.
SCORE_CHUNK = 2000


class Network:
    def __init__(self, layers, head_spec, head_weights, arch):
        self.layers = layers
        self.head_spec = head_spec
        self.head_weights = head_weights
        self.arch = arch  # dict describing how to rebuild the stack
        self.d_head_weights = None

    def forward(self, x, train=False, rng=None, cache=True):
        """Run the stack to penultimate activations [N, D].

        ``cache=False`` is the inference forward: no layer keeps what a
        backward would need (see :mod:`marginnet.layers`).
        """
        for layer in self.layers:
            x = layer.forward(x, train=train, rng=rng, cache=cache)
        return x

    def scores(self, x):
        """Head scores [N, K] of ``x``: the inference forward and the head
        on consecutive ``SCORE_CHUNK``-row chunks (the last may be short).

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
            h = self.forward(x[rows], cache=False)
            out[rows] = heads_mod.head_scores(self.head_weights, h)
        return out

    def predict(self, x):
        return heads_mod.predict(self.scores(x))

    def head_output(self, x, labels, train=False, rng=None):
        """Forward plus head evaluation; no backprop through the stack."""
        h = self.forward(x, train=train, rng=rng, cache=False)
        return heads_mod.apply_head(self.head_spec, self.head_weights, h, labels)

    def backprop(self, x, labels, train=True, rng=None, lower_weight_decay=0.0):
        """Full forward/backward pass; returns the HeadOutput.

        Afterwards params()/grads() give aligned lists for an optimizer.
        ``lower_weight_decay`` adds :meth:`stack_penalty` to the loss and
        its gradient to every stack weight tensor.
        """
        h = self.forward(x, train=train, rng=rng)
        out = heads_mod.apply_head(self.head_spec, self.head_weights, h, labels)
        self.d_head_weights = out.d_w
        d = out.d_h
        for layer in reversed(self.layers[1:]):
            d = layer.backward(d)
        if self.layers:
            # Nothing sits below the first layer: skip its input gradient.
            self.layers[0].backward(d, input_grad=False)
        if lower_weight_decay > 0.0:
            for layer in self.layers:
                if layer.param_names:
                    d_weight = layer.param_grads()[0]
                    d_weight += lower_weight_decay * layer.params()[0]
            out.loss += self.stack_penalty(lower_weight_decay)
        return out

    def stack_penalty(self, lower_weight_decay):
        """0.5 * wd * the summed squares of every stack weight tensor (the
        first parameter of each layer; not biases, not the head)."""
        if lower_weight_decay <= 0.0:
            return 0.0
        total = 0.0
        for layer in self.layers:
            if layer.param_names:
                total += float(np.sum(layer.params()[0] ** 2))
        return 0.5 * lower_weight_decay * total

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        out.append(self.head_weights)
        return out

    def grads(self):
        out = []
        for layer in self.layers:
            out.extend(layer.param_grads())
        out.append(self.d_head_weights)
        return out

    def named_tensors(self):
        """Stable name -> parameter array mapping for serialization."""
        out = {}
        for i, layer in enumerate(self.layers):
            for name, tensor in zip(layer.param_names, layer.params()):
                out[f"layer{i}.{name}"] = tensor
        out["head.weights"] = self.head_weights
        return out

    def assign_tensors(self, tensors):
        """Copy each parameter from ``tensors`` (name -> array, named as
        :meth:`named_tensors` names them) in place, shapes checked.  A
        missing name raises :class:`ShapeError`; names that are not
        parameters of this network are ignored."""
        for name, target in self.named_tensors().items():
            if name not in tensors:
                raise ShapeError(f"missing tensor {name!r}")
            assign_tensor(target, tensors[name], name)

    def head_meta(self):
        s = self.head_spec
        return {
            "kind": s.kind,
            "num_classes": s.num_classes,
            "c": s.c,
            "weight_decay": s.weight_decay,
        }


def build_mlp(input_dim, hidden_dims, head_spec, rng=None, init_std=0.01):
    """Dense-ReLU stack: input_dim -> hidden_dims... -> head."""
    if input_dim < 1:
        raise DomainError(f"input_dim must be positive, got {input_dim}")
    layers = []
    d = input_dim
    for width in hidden_dims:
        if width < 1:
            raise DomainError(f"hidden width must be positive, got {width}")
        layers.append(DenseLayer(d, width, rng=rng, init_std=init_std))
        layers.append(ReluLayer())
        d = width
    head_spec = replace(head_spec, dim=int(d))
    head_w = heads_mod.init_head_weights(
        d, head_spec.num_classes, rng=rng, init_std=init_std
    )
    arch = {
        "kind": "mlp",
        "input_dim": int(input_dim),
        "hidden_dims": [int(w) for w in hidden_dims],
        "init_std": float(init_std),
    }
    return Network(layers, head_spec, head_w, arch)


def build_convnet(input_shape, conv_channels, kernel_size, dense_dim,
                  dropout_rate, head_spec, rng=None, init_std=0.01):
    """Conv-ReLU-pool blocks, then flatten -> dense penultimate layer
    with ReLU and dropout on top of it.

    input_shape is (C, H, W); each block halves the spatial dims, so H
    and W must be divisible by 2**len(conv_channels).
    """
    c, h, w = input_shape
    factor = 2 ** len(conv_channels)
    if h % factor or w % factor:
        raise ShapeError(
            f"{h}x{w} images cannot be pooled {len(conv_channels)} times"
        )
    layers = []
    in_c = c
    for out_c in conv_channels:
        layers.append(
            Conv2dLayer(in_c, out_c, kernel_size, rng=rng, init_std=init_std)
        )
        layers.append(ReluLayer())
        layers.append(MaxPool2x2Layer())
        in_c = out_c
    layers.append(FlattenLayer())
    flat = in_c * (h // factor) * (w // factor)
    layers.append(DenseLayer(flat, dense_dim, rng=rng, init_std=init_std))
    layers.append(ReluLayer())
    layers.append(DropoutLayer(dropout_rate))
    head_spec = replace(head_spec, dim=int(dense_dim))
    head_w = heads_mod.init_head_weights(
        dense_dim, head_spec.num_classes, rng=rng, init_std=init_std
    )
    arch = {
        "kind": "conv",
        "input_shape": [int(v) for v in input_shape],
        "conv_channels": [int(v) for v in conv_channels],
        "kernel_size": int(kernel_size),
        "dense_dim": int(dense_dim),
        "dropout_rate": float(dropout_rate),
        "init_std": float(init_std),
    }
    return Network(layers, head_spec, head_w, arch)


def build_from_arch(arch, head_spec):
    """Reconstruct an uninitialized network from its arch dict."""
    kind = arch.get("kind")
    if kind == "mlp":
        return build_mlp(
            arch["input_dim"], arch["hidden_dims"], head_spec,
            rng=None, init_std=0.0,
        )
    if kind == "conv":
        return build_convnet(
            tuple(arch["input_shape"]), arch["conv_channels"],
            arch["kernel_size"], arch["dense_dim"], arch["dropout_rate"],
            head_spec, rng=None, init_std=0.0,
        )
    raise DomainError(f"unknown architecture kind {kind!r}")
