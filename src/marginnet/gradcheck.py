"""Finite-difference gradient verification.

Central differences at 64-bit are the independent oracle for every
analytic backward pass in this library.  Relative error is floored at
unit scale, so for gradients below 1.0 in magnitude the bound acts as an
absolute tolerance; finite-difference noise on near-zero entries then
cannot produce spurious failures.

:func:`check_layer` holds any layer to its forward/backward contract;
:func:`gradcheck_suite` runs it on each layer type, checks each head and
a composed network under each head, and is what ``marginnet gradcheck``
prints.
"""

from dataclasses import dataclass

import numpy as np

from .config import class_count
from .heads import HeadSpec, apply_head, encode_targets, head_scores
from .layers import (
    Conv2dLayer,
    DenseLayer,
    DropoutLayer,
    MaxPool2x2Layer,
    ReluLayer,
    init_gaussian,
    zero_params,
)
from .network import build_mlp

EPS = 1e-5
TOL = 1e-6


def fd_gradient(f, x, eps=EPS):
    """Numeric gradient of scalar ``f`` at ``x`` by central differences.

    ``x`` is perturbed in place one entry at a time and restored, so ``f``
    may close over ``x`` itself.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def rel_errors(analytic, numeric):
    """|a - n| / max(|a|, |n|, 1) per entry."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
    return np.abs(a - n) / denom


@dataclass
class GradCheckResult:
    """Outcome of one analytic-vs-numeric comparison."""

    name: str
    max_rel_error: float
    worst_index: tuple
    analytic_at_worst: float
    numeric_at_worst: float
    tol: float

    @property
    def passed(self):
        return self.max_rel_error < self.tol

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name}: max rel err {self.max_rel_error:.3e} "
            f"at {self.worst_index} (analytic {self.analytic_at_worst:.9g}, "
            f"numeric {self.numeric_at_worst:.9g}, tol {self.tol:g})"
        )


def compare_gradients(name, analytic, numeric, tol=TOL):
    """Compare an analytic gradient against its numeric oracle."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    if analytic.shape != numeric.shape:
        raise ValueError(
            f"{name}: gradient shapes disagree: {analytic.shape} vs {numeric.shape}"
        )
    errs = rel_errors(analytic, numeric)
    if errs.size == 0:
        return GradCheckResult(name, 0.0, (), 0.0, 0.0, tol)
    worst = np.unravel_index(np.argmax(errs), errs.shape)
    return GradCheckResult(
        name,
        float(errs[worst]),
        tuple(int(i) for i in worst),
        float(analytic[worst]),
        float(numeric[worst]),
        tol,
    )


def check_gradient(name, f, x, analytic, eps=EPS, tol=TOL):
    """Check ``analytic`` = dF/dx for the scalar-valued closure ``f``."""
    numeric = fd_gradient(f, x, eps=eps)
    return compare_gradients(name, analytic, numeric, tol=tol)


def check_layer(name, layer, x, r, params=(), seed=0):
    """Check a layer's backward against finite differences of
    ``sum(layer.forward(x, params, train=True) * r)``.

    Runs the layer's own training forward, then ``backward(r, params,
    grads)`` into a fresh array per parameter, and checks ``d_input``
    and then ``d_<p>`` for each ``p`` in ``param_names``, against
    differences in ``x`` and in each of ``params``; results are named
    ``<name>.d_input`` and so on.  Every forward gets a fresh rng of
    ``seed``, so a dropout layer draws the same mask each time.
    """
    grads = [np.empty_like(p) for p in params]

    def forward():
        return layer.forward(x, params, train=True, rng=np.random.default_rng(seed))

    def loss():
        return float(np.sum(forward() * r))

    forward()
    checks = [("d_input", x, layer.backward(r, params, grads))]
    checks += [("d_" + p, tensor, grad)
               for p, tensor, grad in zip(layer.param_names, params, grads)]
    return [check_gradient(f"{name}.{grad_name}", loss, tensor, grad)
            for grad_name, tensor, grad in checks]


# Check points keep every ReLU pre-activation and hinge margin this far
# from its kink, far beyond what an EPS-sized perturbation can move them.
KINK_CLEARANCE = 100 * EPS


def gradcheck_suite(num_classes=3, seed=0):
    """Finite-difference checks for every layer and head gradient.

    Uses tiny shapes (the composed network is an 8-8 mlp) so the whole
    suite runs in well under a minute.  Returns a list of
    GradCheckResult, one per checked array.
    """
    rng = np.random.default_rng(seed)
    results = []

    # Each layer is built, then its input x and projection r drawn, in
    # this order.  ReLU inputs are kept away from the kink at 0, and
    # max-pool inputs are distinct so no window's argmax moves under EPS.
    dense = DenseLayer(5, 6)
    params = zero_params(dense)
    init_gaussian(params[0], rng, 0.5)
    results += check_layer("dense", dense, rng.normal(size=(4, 5)),
                           rng.normal(size=(4, 6)), params)
    xr = rng.normal(size=(4, 6))
    xr = np.where(np.abs(xr) < 0.1, xr + 0.2, xr)
    results += check_layer("relu", ReluLayer(), xr, rng.normal(size=xr.shape))
    conv = Conv2dLayer(2, 3, 3)
    params = zero_params(conv)
    init_gaussian(params[0], rng, 0.5)
    results += check_layer("conv", conv, rng.normal(size=(2, 2, 6, 6)),
                           rng.normal(size=(2, 3, 6, 6)), params)
    xm = rng.permutation(2 * 2 * 4 * 4).astype(float).reshape(2, 2, 4, 4)
    results += check_layer("maxpool", MaxPool2x2Layer(), xm,
                           rng.normal(size=(2, 2, 2, 2)))
    xd = rng.normal(size=(4, 6))
    results += check_layer("dropout", DropoutLayer(0.5), xd,
                           rng.normal(size=xd.shape), seed=seed + 1)

    # heads; the L1 hinge is non-differentiable at margin 1, so the
    # margin heads' check point keeps every margin clear of the kink
    d, k = 4, num_classes
    specs = [HeadSpec(kind, k, c=0.7, weight_decay=0.1)
             for kind in ("softmax", "l1svm", "l2svm")]
    h = rng.normal(size=(5, d))
    w = np.zeros((d + 1, k))  # the bias row stays 0
    init_gaussian(w[:d], rng, 0.5)
    labels = rng.integers(0, k, size=5)
    for spec in specs:
        while spec.kind != "softmax" and _hinge_gap(w, h, labels, k) <= KINK_CLEARANCE:
            h = rng.normal(size=(5, d))
        out = apply_head(spec, w, h, labels)
        for grad_name, tensor, grad in (("d_w", w, out.d_w), ("d_h", h, out.d_h)):
            results.append(check_gradient(
                f"{spec.kind}.{grad_name}",
                lambda: apply_head(spec, w, h, labels).loss,
                tensor, grad,
            ))

    # composed network: every parameter of a small mlp under each head,
    # at inputs redrawn until no ReLU or hinge sits near its kink
    for spec in specs:
        net_rng = np.random.default_rng(seed + 2)
        net = build_mlp(d, [8, 8], spec, rng=net_rng, init_std=0.5)
        xs = rng.normal(size=(6, d))
        ys = rng.integers(0, k, size=6)
        while _kink_gap(net, xs, ys) <= KINK_CLEARANCE:
            xs = rng.normal(size=(6, d))
        net.backprop(xs, ys)
        for slot in net.table:
            results.append(check_gradient(
                f"mlp[{spec.kind}].{slot.name}",
                lambda: net.head_output(xs, ys).loss,
                slot.of(net.param), slot.of(net.grad),
            ))
    return results


def _hinge_gap(w, h, labels, num_classes):
    """Distance from the hinge kink (margin 1) of the nearest margin."""
    sign = 2.0 * encode_targets(labels, num_classes) - 1.0
    return np.min(np.abs(1.0 - head_scores(w, h) * sign))


def _kink_gap(net, xs, labels):
    """Distance from its kink of the nearest ReLU pre-activation in an mlp
    and, under a margin head, of the nearest hinge margin."""
    gaps = []
    h = xs
    for layer, slots in zip(net.layers, net.layer_slots):
        h = layer.forward(h, [slot.of(net.param) for slot in slots])
        if isinstance(layer, DenseLayer):  # every dense output feeds a ReLU
            gaps.append(np.min(np.abs(h)))
    if net.head_spec.kind != "softmax":
        gaps.append(_hinge_gap(net.head_weights, h, labels,
                               net.head_spec.num_classes))
    return min(gaps, default=np.inf)


def run_gradcheck(cfg):
    """Config-driven entry point; returns (results, all_passed).

    Reads only the config's seed and class count, so it runs on any
    valid run config."""
    results = gradcheck_suite(num_classes=class_count(cfg), seed=cfg.seed)
    return results, all(r.passed for r in results)
