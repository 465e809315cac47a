"""Training harness and experiment procedures.

This module owns the run lifecycle: dataset preparation, the SGD loop
with schedules and train-time corruption, per-epoch metrics, and the
procedures layered on trained models (cross-objective evaluation, warm
starts, ensembles, and the gradient-check suite).

Determinism: a run's seed feeds a SeedSequence that is split into three
independent streams (data, init, train), and every random draw in the
run comes from one of them in a fixed order.  Rerunning with the same
config and seed reproduces the metrics CSV byte for byte.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import gradcheck as gc
from .config import ConfigError, head_spec_from_config
from .data import Dataset, load_cifar10, load_idx, make_blobs, minibatches, num_batches
from .heads import (
    HeadSpec,
    encode_targets,
    error_rate_pct,
    head_scores,
    init_head_weights,
    l1svm_head,
    l2svm_head,
    predict,
    softmax_head,
    softmax_probs,
)
from .layers import (
    Conv2dLayer,
    DenseLayer,
    dropout,
    gaussian_noise,
    maxpool2x2,
    maxpool_backward,
    relu,
)
from .network import Network, build_convnet, build_from_arch, build_mlp
from .optim import LinearSchedule, SgdMomentum
from .preprocess import PcaModel, PixelStandardizer, augment, pca_fit, pca_transform
from .serialize import assign_tensor, load_tensors, save_tensors
from .tensor import DomainError, ShapeError

CSV_COLUMNS = (
    "epoch",
    "updates",
    "lr",
    "noise_std",
    "train_loss",
    "test_error_pct",
    "avg_xent",
    "hinge_sq_sum",
    "hinge_sq_mean",
)

METRICS_NAME = "metrics.csv"
RUNMETA_NAME = "runmeta.json"
MODEL_DIRNAME = "model"


class TrainingDivergedError(RuntimeError):
    """Loss went non-finite; names the epoch and minibatch."""


def format_float(value):
    """Canonical float text for metrics: 9 significant digits."""
    return "%.9g" % value


@dataclass
class ObjectiveReport:
    """All objective families evaluated on one split with one model.

    Regardless of which head trained the model, every loss is computed
    from the same scores: cross-entropy through softmax probabilities,
    hinge losses through sign targets.  Each loss value includes the
    head regularizer (weight decay for xent, 0.5*||W_nobias||^2 for the
    margin losses); *_sum sums margin violations over examples, *_mean
    divides that sum by N.
    """

    n: int
    error_pct: float
    avg_xent: float
    hinge_sum: float
    hinge_mean: float
    hinge_sq_sum: float
    hinge_sq_mean: float

    def own_loss(self, kind):
        if kind == "softmax":
            return self.avg_xent
        if kind == "l1svm":
            return self.hinge_sum
        if kind == "l2svm":
            return self.hinge_sq_sum
        raise DomainError(f"unknown head kind {kind!r}")


def evaluate_objectives(network, inputs, labels, c=None, weight_decay=None,
                        chunk=2000):
    """Score a network on both objective families at once.

    ``c`` / ``weight_decay`` default to the network's own HeadSpec
    constants, so an svm-trained model's cross-entropy is evaluated
    with the weight decay it would have trained under, and vice versa.
    """
    spec = network.head_spec
    if c is None:
        c = spec.c
    if weight_decay is None:
        weight_decay = spec.weight_decay
    n = inputs.shape[0]
    if n == 0:
        raise DomainError("cannot evaluate on an empty split")
    score_rows = []
    for start in range(0, n, chunk):
        x = inputs[start : start + chunk]
        score_rows.append(head_scores(network.head_weights, network.forward(x)))
    scores = np.concatenate(score_rows)
    k = spec.num_classes
    one_hot = encode_targets(labels, k, "one_hot")
    sign = 2.0 * one_hot - 1.0

    w_nb = network.head_weights.copy()
    w_nb[-1] = 0.0
    reg = 0.5 * float(np.sum(w_nb * w_nb))

    shifted = scores - scores.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    xent = -float(np.sum(one_hot * log_probs)) / n

    hinge = np.maximum(1.0 - scores * sign, 0.0)
    h1 = float(np.sum(hinge))
    h2 = float(np.sum(hinge * hinge))

    return ObjectiveReport(
        n=n,
        error_pct=error_rate_pct(scores, labels),
        avg_xent=xent + weight_decay * reg,
        hinge_sum=reg + c * h1,
        hinge_mean=reg + c * h1 / n,
        hinge_sq_sum=reg + c * h2,
        hinge_sq_mean=reg + c * h2 / n,
    )


def stack_penalty(network, lower_weight_decay):
    """0.5 * wd * sum of squared stack weights (heads excluded)."""
    if lower_weight_decay <= 0.0:
        return 0.0
    total = 0.0
    for layer in network.layers:
        if isinstance(layer, DenseLayer):
            total += float(np.sum(layer.weights**2))
        elif isinstance(layer, Conv2dLayer):
            total += float(np.sum(layer.filters**2))
    return 0.5 * lower_weight_decay * total


# ---------------------------------------------------------------------------
# dataset preparation


@dataclass
class PreparedData:
    train: Dataset
    test: Dataset
    pca: PcaModel | None = None
    standardizer: PixelStandardizer | None = None


def _as_images(inputs):
    # Flat rows whose width is a perfect square become 1-channel images.
    n, d = inputs.shape
    side = math.isqrt(d)
    if side * side != d:
        raise ShapeError(
            f"cannot reshape width {d} into square images"
        )
    return inputs.reshape(n, 1, side, side)


def prepare_data(cfg, data_rng):
    """Load, subset, and preprocess the configured dataset.

    Preprocessing order: optional per-pixel standardization (fitted on
    the training split only), then optional PCA (likewise).  Both fits
    see only training rows; the test split is transformed with the
    fitted parameters.
    """
    if cfg.dataset == "blobs":
        total = cfg.blobs_train_n + cfg.blobs_test_n
        full = make_blobs(
            total, cfg.blobs_classes, cfg.blobs_dim, cfg.blobs_separation,
            data_rng,
        )
        train = full.subset(np.arange(cfg.blobs_train_n))
        test = full.subset(
            np.arange(cfg.blobs_train_n, total), split="test"
        )
    elif cfg.dataset == "idx":
        train = load_idx(
            os.path.join(cfg.data_dir, cfg.train_images),
            os.path.join(cfg.data_dir, cfg.train_labels),
            split="train",
        )
        test = load_idx(
            os.path.join(cfg.data_dir, cfg.test_images),
            os.path.join(cfg.data_dir, cfg.test_labels),
            split="test",
        )
    else:
        train = load_cifar10(
            [os.path.join(cfg.data_dir, p) for p in cfg.cifar_train_batches],
            split="train",
        )
        test = load_cifar10(
            [os.path.join(cfg.data_dir, p) for p in cfg.cifar_test_batches],
            split="test",
        )

    if cfg.train_subset:
        if cfg.train_subset > train.n:
            raise ConfigError(
                f"train_subset {cfg.train_subset} exceeds {train.n} rows"
            )
        train = train.subset(np.arange(cfg.train_subset))

    standardizer = None
    pca = None
    if cfg.standardize:
        if train.inputs.ndim != 2:
            raise ConfigError("standardize requires flat [N, D] inputs")
        standardizer = PixelStandardizer().fit(train.inputs)
        train = Dataset(standardizer.apply(train.inputs), train.labels,
                        train.num_classes, train.split)
        test = Dataset(standardizer.apply(test.inputs), test.labels,
                       test.num_classes, test.split)
    if cfg.pca_dims:
        if train.inputs.ndim != 2:
            raise ConfigError("pca requires flat [N, D] inputs")
        pca = pca_fit(train.inputs, cfg.pca_dims)
        train = Dataset(pca_transform(pca, train.inputs), train.labels,
                        train.num_classes, train.split)
        test = Dataset(pca_transform(pca, test.inputs), test.labels,
                       test.num_classes, test.split)

    if cfg.arch == "conv" and train.inputs.ndim == 2:
        train = Dataset(_as_images(train.inputs), train.labels,
                        train.num_classes, train.split)
        test = Dataset(_as_images(test.inputs), test.labels,
                       test.num_classes, test.split)
    if cfg.augment and train.inputs.ndim != 4:
        raise ConfigError("augment requires image-shaped [N, C, H, W] inputs")
    return PreparedData(train, test, pca, standardizer)


def build_network(cfg, train_inputs, head_spec, init_rng):
    if cfg.arch == "mlp":
        if train_inputs.ndim != 2:
            raise ConfigError("mlp arch requires flat [N, D] inputs")
        return build_mlp(
            train_inputs.shape[1], cfg.hidden_dims, head_spec,
            rng=init_rng, init_std=cfg.init_std,
        )
    if train_inputs.ndim != 4:
        raise ConfigError("conv arch requires image [N, C, H, W] inputs")
    return build_convnet(
        train_inputs.shape[1:], cfg.conv_channels, cfg.conv_kernel,
        cfg.conv_dense, cfg.conv_dropout, head_spec,
        rng=init_rng, init_std=cfg.init_std,
    )


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    network: Network
    metrics: list
    out_dir: str
    csv_path: str
    model_dir: str
    prepared: PreparedData
    updates: int


def train(cfg, warm_from=None, command="train"):
    """Run the full training loop described by ``cfg``.

    ``warm_from`` is a LoadedModel whose parameters (hidden layers and
    head weights alike) seed this run's network.  Only the objective
    changes, so before the first update the warm-started network
    predicts exactly what the source model predicts.

    Writes metrics.csv, runmeta.json, and a model/ directory under
    cfg.out_dir; returns everything in a TrainResult.
    """
    ss = np.random.SeedSequence(cfg.seed)
    data_rng, init_rng, train_rng = (np.random.default_rng(s) for s in ss.spawn(3))
    prepared = prepare_data(cfg, data_rng)
    train_set, test_set = prepared.train, prepared.test
    spec = head_spec_from_config(cfg)
    if spec.num_classes != train_set.num_classes:
        spec = HeadSpec(cfg.head, train_set.num_classes, cfg.svm_c,
                        cfg.weight_decay)
    net = build_network(cfg, train_set.inputs, spec, init_rng)
    warm_meta = None
    if warm_from is not None:
        try:
            _copy_stack(warm_from.network, net)
        except ShapeError as e:
            raise ConfigError(f"warm start architecture mismatch: {e}") from None
        warm_meta = {
            "source": warm_from.source_dir,
            "source_head": warm_from.network.head_spec.kind,
        }

    opt = SgdMomentum(cfg.momentum)
    n = train_set.n
    batches_per_epoch = num_batches(n, cfg.batch_size)
    total_updates = cfg.epochs * batches_per_epoch
    # epochs=0 is a pure evaluation run; the schedules still need a
    # nonzero span to report their starting values in the metrics row.
    sched_span = max(total_updates, 1)
    lr_sched = LinearSchedule(cfg.lr_start, cfg.lr_end, sched_span)
    noise_sched = LinearSchedule(cfg.noise_start, cfg.noise_end, sched_span)

    def metrics_row(epoch, updates):
        train_rep = evaluate_objectives(net, train_set.inputs, train_set.labels)
        test_rep = evaluate_objectives(net, test_set.inputs, test_set.labels)
        return {
            "epoch": epoch,
            "updates": updates,
            "lr": lr_sched.value(updates),
            "noise_std": noise_sched.value(updates),
            "train_loss": train_rep.own_loss(spec.kind)
            + stack_penalty(net, cfg.lower_weight_decay),
            "test_error_pct": test_rep.error_pct,
            "avg_xent": test_rep.avg_xent,
            "hinge_sq_sum": test_rep.hinge_sq_sum,
            "hinge_sq_mean": test_rep.hinge_sq_mean,
        }

    rows = [metrics_row(0, 0)]
    updates = 0
    for epoch in range(1, cfg.epochs + 1):
        for b, idx in enumerate(minibatches(n, cfg.batch_size, train_rng)):
            x = train_set.inputs[idx]
            y = train_set.labels[idx]
            if cfg.augment:
                x = augment(x, train_rng, cfg.max_jitter, cfg.mirror)
            noise_std = noise_sched.value(updates)
            if noise_std > 0.0:
                x = gaussian_noise(x, noise_std, train_rng)
            # Overflow here is not a numpy bug but a diverging run; the
            # isfinite check below turns it into a diagnosable abort.
            with np.errstate(over="ignore", invalid="ignore"):
                out = net.backprop(
                    x, y, train=True, rng=train_rng,
                    lower_weight_decay=cfg.lower_weight_decay,
                )
            if not np.isfinite(out.loss):
                raise TrainingDivergedError(
                    f"non-finite loss {out.loss} at epoch {epoch}, "
                    f"minibatch {b + 1} of {batches_per_epoch} "
                    f"(update {updates + 1})"
                )
            opt.step(net.params(), net.grads(), lr_sched.value(updates))
            updates += 1
        rows.append(metrics_row(epoch, updates))

    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, METRICS_NAME)
    write_metrics_csv(csv_path, rows)
    model_dir = os.path.join(cfg.out_dir, MODEL_DIRNAME)
    save_model(model_dir, net, prepared, config_echo=cfg.echo())
    runmeta = {
        "command": command,
        "config": cfg.echo(),
        "head": net.head_meta(),
        "arch": net.arch,
        "warm_start": warm_meta,
        "updates": updates,
        "final": rows[-1],
    }
    with open(os.path.join(cfg.out_dir, RUNMETA_NAME), "w") as f:
        json.dump(runmeta, f, indent=2, default=_json_default)
        f.write("\n")
    return TrainResult(net, rows, cfg.out_dir, csv_path, model_dir,
                       prepared, updates)


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    raise TypeError(f"not JSON serializable: {type(value)}")


def _copy_stack(source, target):
    # Every parameter carries over, head weights included: a warm start
    # changes the objective, not the function computed at step 0.
    src_layers = [l for l in source.layers if l.params()]
    dst_layers = [l for l in target.layers if l.params()]
    if len(src_layers) != len(dst_layers):
        raise ShapeError(
            f"warm start stacks disagree: {len(src_layers)} vs "
            f"{len(dst_layers)} parameterized layers"
        )
    for src, dst in zip(src_layers, dst_layers):
        for sp, dp in zip(src.params(), dst.params()):
            if sp.shape != dp.shape:
                raise ShapeError(
                    f"warm start parameter shapes disagree: {sp.shape} "
                    f"vs {dp.shape}"
                )
            dp[...] = sp
    if source.head_weights.shape != target.head_weights.shape:
        raise ShapeError(
            f"warm start head shapes disagree: {source.head_weights.shape} "
            f"vs {target.head_weights.shape}"
        )
    target.head_weights[...] = source.head_weights


def write_metrics_csv(path, rows):
    """Fixed column order, ints verbatim, floats at 9 significant digits."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = []
        for col in CSV_COLUMNS:
            v = row[col]
            cells.append(str(int(v)) if col in ("epoch", "updates")
                         else format_float(v))
        lines.append(",".join(cells))
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_metrics_csv(path):
    with open(path) as f:
        lines = f.read().strip().splitlines()
    header = lines[0].split(",")
    if tuple(header) != CSV_COLUMNS:
        raise DomainError(f"{path}: unexpected columns {header}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        row = {}
        for col, cell in zip(CSV_COLUMNS, cells):
            row[col] = int(cell) if col in ("epoch", "updates") else float(cell)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# model persistence


def save_model(model_dir, net, prepared=None, config_echo=None):
    tensors = dict(net.named_tensors())
    preprocess_meta = {}
    if prepared is not None and prepared.standardizer is not None:
        tensors["standardizer.mean"] = prepared.standardizer.mean
        tensors["standardizer.std"] = prepared.standardizer.std
        preprocess_meta["standardize"] = True
    if prepared is not None and prepared.pca is not None:
        tensors["pca.mean"] = prepared.pca.mean
        tensors["pca.components"] = prepared.pca.components
        tensors["pca.explained_variances"] = prepared.pca.explained_variances
        preprocess_meta["pca"] = True
    meta = {
        "arch": net.arch,
        "head": net.head_meta(),
        "preprocess": preprocess_meta,
    }
    if config_echo is not None:
        meta["config"] = config_echo
    save_tensors(model_dir, tensors, meta)


@dataclass
class LoadedModel:
    network: Network
    pca: PcaModel | None
    standardizer: PixelStandardizer | None
    meta: dict
    source_dir: str

    def transform(self, inputs):
        """Apply the model's saved preprocessing to raw inputs."""
        x = inputs
        if self.standardizer is not None:
            x = self.standardizer.apply(x)
        if self.pca is not None:
            x = pca_transform(self.pca, x)
        if self.network.arch["kind"] == "conv" and x.ndim == 2:
            x = _as_images(x)
        return x


def load_model(model_dir):
    tensors, meta = load_tensors(model_dir)
    head = meta["head"]
    spec = HeadSpec(head["kind"], head["num_classes"], head["c"],
                    head["weight_decay"])
    net = build_from_arch(meta["arch"], spec)
    for name, target in net.named_tensors().items():
        if name not in tensors:
            raise ShapeError(f"saved model is missing tensor {name!r}")
        assign_tensor(target, tensors[name], name)
    pca = None
    if meta.get("preprocess", {}).get("pca"):
        pca = PcaModel(
            tensors["pca.mean"], tensors["pca.components"],
            tensors["pca.explained_variances"],
        )
    standardizer = None
    if meta.get("preprocess", {}).get("standardize"):
        standardizer = PixelStandardizer()
        standardizer.mean = tensors["standardizer.mean"]
        standardizer.std = tensors["standardizer.std"]
    return LoadedModel(net, pca, standardizer, meta, model_dir)


# ---------------------------------------------------------------------------
# experiment procedures


def cross_objective_eval(model, dataset, c=None, weight_decay=None):
    """Evaluate one model under every objective family on one split.

    ``model`` is a Network or LoadedModel (the latter applies its saved
    preprocessing first).  Constants default to the ones the model was
    configured with, so reports from differently-trained models are
    directly comparable when their configs shared those constants.
    """
    if isinstance(model, LoadedModel):
        inputs = model.transform(dataset.inputs)
        net = model.network
    else:
        inputs = dataset.inputs
        net = model
    return evaluate_objectives(net, inputs, dataset.labels, c, weight_decay)


def warm_start(source_model_dir, cfg, command="warmstart"):
    """Train per ``cfg`` starting from a saved model's parameters.

    Hidden layers and head weights all carry over; cfg picks the new
    objective.  Architectures (and class counts) must match exactly.
    """
    source = load_model(source_model_dir)
    src_arch = dict(source.meta["arch"])
    return train(cfg, warm_from=source, command=command) if _arch_compatible(
        src_arch, cfg
    ) else _raise_arch_mismatch(src_arch, cfg)


def _arch_compatible(src_arch, cfg):
    if src_arch["kind"] != cfg.arch:
        return False
    if cfg.arch == "mlp":
        return src_arch["hidden_dims"] == list(cfg.hidden_dims)
    return (
        src_arch["conv_channels"] == list(cfg.conv_channels)
        and src_arch["kernel_size"] == cfg.conv_kernel
        and src_arch["dense_dim"] == cfg.conv_dense
    )


def _raise_arch_mismatch(src_arch, cfg):
    raise ConfigError(
        f"warm start architecture mismatch: source {src_arch}, "
        f"config arch={cfg.arch}"
    )


def ensemble_predict(models, inputs):
    """Average member outputs, then argmax.

    Softmax members contribute probabilities, margin members raw
    scores; mixing the two families in one ensemble is rejected since
    their outputs live on different scales.  ``inputs`` are raw; each
    LoadedModel applies its own saved preprocessing.
    """
    if not models:
        raise DomainError("ensemble needs at least one model")
    kinds = set()
    totals = None
    for m in models:
        if isinstance(m, LoadedModel):
            x = m.transform(inputs)
            net = m.network
        else:
            x = inputs
            net = m
        kinds.add("softmax" if net.head_spec.kind == "softmax" else "margin")
        out = head_scores(net.head_weights, net.forward(x))
        if net.head_spec.kind == "softmax":
            out = softmax_probs(out)
        if totals is None:
            totals = out
        elif totals.shape != out.shape:
            raise ShapeError(
                f"ensemble member outputs disagree: {totals.shape} vs {out.shape}"
            )
        else:
            totals = totals + out
    if len(kinds) > 1:
        raise DomainError(
            "cannot mix softmax and margin heads in one ensemble"
        )
    return predict(totals / len(models))


# ---------------------------------------------------------------------------
# gradient-check suite

# Check points keep every ReLU pre-activation and hinge margin this far
# from its kink, far beyond what an EPS-sized perturbation can move them.
KINK_CLEARANCE = 100 * gc.EPS


def gradcheck_suite(hidden_dims=(8, 8), num_classes=3, seed=0):
    """Finite-difference checks for every layer and head gradient.

    Uses tiny shapes so the whole suite runs in well under a minute.
    Returns a list of GradCheckResult, one per checked array.
    """
    for width in hidden_dims:
        if width > 16:
            raise DomainError(
                f"gradient checks want tiny layers (<= 16 units), got {width}"
            )
    rng = np.random.default_rng(seed)
    results = []

    # dense
    dense = DenseLayer(5, 6, rng=rng, init_std=0.5)
    x = rng.normal(size=(4, 5))
    r = rng.normal(size=(4, 6))
    dense.forward(x)
    grads = dense.backward(r)
    results.append(gc.check_gradient(
        "dense.d_input", lambda: float(np.sum(dense_eval(dense, x) * r)),
        x, grads.d_input,
    ))
    results.append(gc.check_gradient(
        "dense.d_weights", lambda: float(np.sum(dense_eval(dense, x) * r)),
        dense.weights, grads.d_weights,
    ))
    results.append(gc.check_gradient(
        "dense.d_bias", lambda: float(np.sum(dense_eval(dense, x) * r)),
        dense.bias, grads.d_bias,
    ))

    # relu, inputs kept away from the kink at 0
    xr = rng.normal(size=(4, 6))
    xr = np.where(np.abs(xr) < 0.1, xr + 0.2, xr)
    rr = rng.normal(size=xr.shape)
    results.append(gc.check_gradient(
        "relu.d_input", lambda: float(np.sum(relu(xr) * rr)),
        xr, (xr > 0) * rr,
    ))

    # conv
    conv = Conv2dLayer(2, 3, 3, rng=rng, init_std=0.5)
    xc = rng.normal(size=(2, 2, 6, 6))
    rc = rng.normal(size=(2, 3, 6, 6))
    conv.forward(xc)
    cgrads = conv.backward(rc)
    results.append(gc.check_gradient(
        "conv.d_input", lambda: float(np.sum(conv_eval(conv, xc) * rc)),
        xc, cgrads.d_input,
    ))
    results.append(gc.check_gradient(
        "conv.d_filters", lambda: float(np.sum(conv_eval(conv, xc) * rc)),
        conv.filters, cgrads.d_weights,
    ))
    results.append(gc.check_gradient(
        "conv.d_bias", lambda: float(np.sum(conv_eval(conv, xc) * rc)),
        conv.bias, cgrads.d_bias,
    ))

    # maxpool, distinct entries so the argmax is stable under perturbation
    xm = rng.permutation(2 * 2 * 4 * 4).astype(float).reshape(2, 2, 4, 4)
    rm = rng.normal(size=(2, 2, 2, 2))

    def pool_loss():
        pooled, _ = maxpool2x2(xm)
        return float(np.sum(pooled * rm))

    _, switches = maxpool2x2(xm)
    results.append(gc.check_gradient(
        "maxpool.d_input", pool_loss, xm, maxpool_backward(rm, switches),
    ))

    # dropout with a reproducible mask (fresh identically-seeded rng per call)
    xd = rng.normal(size=(4, 6))
    rd = rng.normal(size=xd.shape)

    def drop_loss():
        y = dropout(xd, 0.5, True, np.random.default_rng(seed + 1))
        return float(np.sum(y * rd))

    mask = (np.random.default_rng(seed + 1).random(xd.shape) >= 0.5) / 0.5
    results.append(gc.check_gradient(
        "dropout.d_input", drop_loss, xd, rd * mask,
    ))

    # heads
    d, k = 4, num_classes
    h = rng.normal(size=(5, d))
    w = init_head_weights(d, k, rng=rng, init_std=0.5)
    labels = rng.integers(0, k, size=5)
    one_hot = encode_targets(labels, k, "one_hot")
    sign = encode_targets(labels, k, "sign")

    sm = softmax_head(w, h, one_hot, weight_decay=0.1)
    results.append(gc.check_gradient(
        "softmax.d_w",
        lambda: softmax_head(w, h, one_hot, weight_decay=0.1).loss,
        w, sm.d_w,
    ))
    results.append(gc.check_gradient(
        "softmax.d_h",
        lambda: softmax_head(w, h, one_hot, weight_decay=0.1).loss,
        h, sm.d_h,
    ))

    # The L1 hinge is non-differentiable at margin 1, so the check point
    # must keep every margin clear of the kink (finite differences with
    # eps 1e-5 need far less than the 1e-3 slack enforced here).
    margins = head_scores(w, h) * sign
    while np.min(np.abs(1.0 - margins)) <= KINK_CLEARANCE:
        h = rng.normal(size=(5, d))
        margins = head_scores(w, h) * sign
    l1 = l1svm_head(w, h, sign, c=0.7)
    results.append(gc.check_gradient(
        "l1svm.d_w", lambda: l1svm_head(w, h, sign, c=0.7).loss, w, l1.d_w,
    ))
    results.append(gc.check_gradient(
        "l1svm.d_h", lambda: l1svm_head(w, h, sign, c=0.7).loss, h, l1.d_h,
    ))

    l2 = l2svm_head(w, h, sign, c=0.7)
    results.append(gc.check_gradient(
        "l2svm.d_w", lambda: l2svm_head(w, h, sign, c=0.7).loss, w, l2.d_w,
    ))
    results.append(gc.check_gradient(
        "l2svm.d_h", lambda: l2svm_head(w, h, sign, c=0.7).loss, h, l2.d_h,
    ))

    # composed network: every parameter of a small mlp under each head,
    # at inputs redrawn until no ReLU or hinge sits near its kink
    for kind in ("softmax", "l1svm", "l2svm"):
        spec = HeadSpec(kind, k, c=0.7, weight_decay=0.1)
        net_rng = np.random.default_rng(seed + 2)
        net = build_mlp(d, list(hidden_dims), spec, rng=net_rng, init_std=0.5)
        xs = rng.normal(size=(6, d))
        ys = rng.integers(0, k, size=6)
        while _kink_gap(net, xs, ys) <= KINK_CLEARANCE:
            xs = rng.normal(size=(6, d))
        net.backprop(xs, ys, train=False)
        for pname, (param, grad) in _named_params(net):
            results.append(gc.check_gradient(
                f"mlp[{kind}].{pname}",
                lambda: net.head_output(xs, ys).loss,
                param, grad,
            ))
    return results


def _kink_gap(net, xs, labels):
    """Distance from its kink of the nearest ReLU pre-activation in an mlp
    and, under a margin head, of the nearest hinge margin."""
    gaps = []
    h = xs
    for layer in net.layers:
        h = layer.forward(h)
        if isinstance(layer, DenseLayer):  # every dense output feeds a ReLU
            gaps.append(np.min(np.abs(h)))
    if net.head_spec.kind != "softmax":
        sign = encode_targets(labels, net.head_spec.num_classes, "sign")
        gaps.append(np.min(np.abs(1.0 - head_scores(net.head_weights, h) * sign)))
    return min(gaps, default=np.inf)


def dense_eval(layer, x):
    # Evaluate without disturbing cached state (fresh throwaway forward).
    return x @ layer.weights + layer.bias


def conv_eval(layer, x):
    probe = Conv2dLayer(
        layer.in_channels, layer.out_channels, layer.kernel_size,
        padding=layer.padding, stride=layer.stride,
    )
    probe.filters = layer.filters
    probe.bias = layer.bias
    return probe.forward(x)


def _named_params(net):
    names = list(net.named_tensors().items())
    grads = net.grads()
    params = net.params()
    out = []
    for (name, tensor), param, grad in zip(names, params, grads):
        assert tensor is param
        out.append((name, (param, grad)))
    return out


def run_gradcheck(cfg):
    """Config-driven entry point; returns (results, all_passed)."""
    hidden = cfg.hidden_dims if cfg.arch == "mlp" else (8, 8)
    results = gradcheck_suite(
        hidden_dims=tuple(hidden), num_classes=max(_safe_classes(cfg), 2),
        seed=cfg.seed,
    )
    return results, all(r.passed for r in results)


def _safe_classes(cfg):
    return cfg.blobs_classes if cfg.dataset == "blobs" else 10
