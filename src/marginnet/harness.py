"""Training harness and experiment procedures.

This module owns the run lifecycle: dataset preparation, the SGD loop
with schedules and train-time corruption, per-epoch metrics, and the
procedures layered on trained models (cross-objective evaluation and
ensembles).  A run is a function of its config alone; a warm start is
its ``source_model`` key.

Determinism: a run's seed feeds a SeedSequence that is split into three
independent streams (data, init, train; :func:`seed_streams`), and every
random draw in the run comes from one of them in a fixed order.  Rerunning with the same
config and seed reproduces the metrics CSV byte for byte.
"""

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigError, head_spec_from_config
from .data import Dataset, load_cifar10, load_idx, make_blobs, minibatches, num_batches
from .heads import (
    HeadSpec,
    cross_entropy,
    encode_targets,
    error_rate_pct,
    head_penalty,
    head_scores,  # unused here; perfbench/spans.py wraps harness.head_scores
    hinge_terms,
    predict,
    softmax_probs,
)
from .layers import gaussian_noise
from .network import Network, build_convnet, build_from_arch, build_mlp
from .optim import LinearSchedule, SgdMomentum
from .preprocess import PcaModel, PixelStandardizer, augment, pca_fit, pca_transform
from .serialize import ManifestError, json_text, load_tensors, save_tensors, write_text
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

# Counters, written as integers; every other column is a float.
INT_COLUMNS = ("epoch", "updates")

METRICS_NAME = "metrics.csv"
RUNMETA_NAME = "runmeta.json"
MODEL_DIRNAME = "model"


class TrainingDivergedError(RuntimeError):
    """Loss went non-finite; names the epoch and minibatch."""


def format_float(value):
    """Canonical float text for metrics: 9 significant digits."""
    return "%.9g" % value


def format_cell(col, value):
    """Canonical text of one metrics value: integer columns verbatim,
    the rest through :func:`format_float`."""
    return str(int(value)) if col in INT_COLUMNS else format_float(value)


def seed_streams(seed):
    """The run's (data, init, train) generators, split from one seed."""
    return tuple(
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )


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


def evaluate_objectives(network, inputs, labels):
    """Score a network on both objective families at once, from the
    scores of :meth:`Network.scores`.

    Both families use the network's own HeadSpec constants, so an
    svm-trained model's cross-entropy is evaluated with the weight decay
    it would have trained under, and vice versa.
    """
    spec = network.head_spec
    n = inputs.shape[0]
    if n == 0:
        raise DomainError("cannot evaluate on an empty split")
    scores = network.scores(inputs)
    one_hot = encode_targets(labels, spec.num_classes)
    reg, _ = head_penalty(network.head_weights)
    xent = cross_entropy(scores, one_hot)
    hinge = hinge_terms(scores, 2.0 * one_hot - 1.0)
    h1 = float(np.sum(hinge))
    h2 = float(np.sum(hinge * hinge))

    return ObjectiveReport(
        n=n,
        error_pct=error_rate_pct(scores, labels),
        avg_xent=xent + spec.weight_decay * reg,
        hinge_sum=reg + spec.c * h1,
        hinge_mean=reg + spec.c * h1 / n,
        hinge_sq_sum=reg + spec.c * h2,
        hinge_sq_mean=reg + spec.c * h2 / n,
    )


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


def load_splits(cfg):
    """The configured (train, test) splits as loaded, with ``train_subset``
    applied and no fitted preprocessing: the raw inputs a saved model's
    :meth:`LoadedModel.transform` expects.  Blobs are drawn from the data
    stream of ``cfg.seed``; the IDX and CIFAR-10 files need no generator."""
    if cfg.dataset == "blobs":
        total = cfg.blobs_train_n + cfg.blobs_test_n
        full = make_blobs(
            total, cfg.blobs_classes, cfg.blobs_dim, cfg.blobs_separation,
            seed_streams(cfg.seed)[0],
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
    return train, test


def _preprocess(inputs, standardizer, pca, images):
    """Standardize, then project, then (``images``) reshape flat rows into
    1-channel images; a None transform is skipped.  A standardizer
    followed by a PCA runs as one row-blocked pass (:func:`pca_transform`)
    that never builds the standardized rows."""
    x = inputs
    if pca is not None:
        x = pca_transform(pca, x, standardizer)
    elif standardizer is not None:
        x = standardizer.apply(x)
    if images and x.ndim == 2:
        x = _as_images(x)
    return x


def prepare_data(cfg):
    """Load, subset (:func:`load_splits`), and preprocess the configured
    dataset.

    Preprocessing order: optional per-pixel standardization (fitted on
    the training split only), then optional PCA (likewise), then, for a
    convnet, flat rows become images.  Both fits see only training rows;
    the test split is transformed from its raw rows with the fitted
    parameters, as a saved model's :meth:`LoadedModel.transform` does.
    """
    train, test = load_splits(cfg)
    standardizer = None
    pca = None
    # The training split is standardized as soon as the standardizer is
    # fitted: the PCA fit needs standardized rows.
    if cfg.standardize:
        if train.inputs.ndim != 2:
            raise ConfigError("standardize requires flat [N, D] inputs")
        standardizer = PixelStandardizer().fit(train.inputs)
        train = replace(train, inputs=standardizer.apply(train.inputs))
    if cfg.pca_dims:
        if train.inputs.ndim != 2:
            raise ConfigError("pca requires flat [N, D] inputs")
        pca = pca_fit(train.inputs, cfg.pca_dims)
    images = cfg.arch == "conv"
    train = replace(train, inputs=_preprocess(train.inputs, None, pca, images))
    test = replace(test, inputs=_preprocess(test.inputs, standardizer, pca,
                                            images))
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
class TrainState:
    """A run between epochs: :func:`train` builds it and writes its
    artifacts to ``csv_path`` and ``model_dir``; :func:`run_epochs` advances it."""

    network: Network
    optimizer: SgdMomentum
    rng: np.random.Generator  # the train stream: batch order, corruption, dropout
    prepared: PreparedData
    metrics: list
    epoch: int  # finished epochs
    updates: int
    out_dir: str
    csv_path: str
    model_dir: str


def run_epochs(cfg, state):
    """The epoch loop: append each metrics row to ``state.metrics`` and
    yield it, first the epoch-0 row of a fresh state, then one row per
    epoch up to ``cfg.epochs``.  A consumer that stops after a row
    leaves ``state`` exactly at that epoch's end."""
    net = state.network
    train_set, test_set = state.prepared.train, state.prepared.test
    n = train_set.n
    batches_per_epoch = num_batches(n, cfg.batch_size)
    # epochs=0 is a pure evaluation run; the schedules still need a
    # nonzero span to report their starting values in the metrics row.
    sched_span = max(cfg.epochs * batches_per_epoch, 1)
    lr_sched = LinearSchedule(cfg.lr_start, cfg.lr_end, sched_span)
    noise_sched = LinearSchedule(cfg.noise_start, cfg.noise_end, sched_span)

    def metrics_row():
        train_rep = evaluate_objectives(net, train_set.inputs, train_set.labels)
        test_rep = evaluate_objectives(net, test_set.inputs, test_set.labels)
        state.metrics.append({
            "epoch": state.epoch,
            "updates": state.updates,
            "lr": lr_sched.value(state.updates),
            "noise_std": noise_sched.value(state.updates),
            "train_loss": train_rep.own_loss(net.head_spec.kind)
            + net.stack_penalty(cfg.lower_weight_decay),
            "test_error_pct": test_rep.error_pct,
            "avg_xent": test_rep.avg_xent,
            "hinge_sq_sum": test_rep.hinge_sq_sum,
            "hinge_sq_mean": test_rep.hinge_sq_mean,
        })
        return state.metrics[-1]

    if not state.metrics:
        yield metrics_row()
    for epoch in range(state.epoch + 1, cfg.epochs + 1):
        for b, idx in enumerate(minibatches(n, cfg.batch_size, state.rng)):
            x = train_set.inputs[idx]
            y = train_set.labels[idx]
            if cfg.augment:
                x = augment(x, state.rng, cfg.max_jitter, cfg.mirror)
            noise_std = noise_sched.value(state.updates)
            if noise_std > 0.0:
                x = gaussian_noise(x, noise_std, state.rng)
            # Overflow here is not a numpy bug but a diverging run; the
            # isfinite check below turns it into a diagnosable abort.  Only
            # the loss is kept: the head output's [N, D] gradient would
            # otherwise outlive the step, through the epoch's evaluation.
            with np.errstate(over="ignore", invalid="ignore"):
                loss = net.backprop(
                    x, y, rng=state.rng,
                    lower_weight_decay=cfg.lower_weight_decay,
                ).loss
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss {loss} at epoch {epoch}, "
                    f"minibatch {b + 1} of {batches_per_epoch} "
                    f"(update {state.updates + 1})"
                )
            state.optimizer.step(net.grads(), lr_sched.value(state.updates))
            state.updates += 1
        state.epoch = epoch
        yield metrics_row()


def train(cfg):
    """Run the full training loop described by ``cfg``.

    With ``source_model`` set, the saved model there is loaded before any
    data, and its parameters (hidden layers and head weights alike) seed
    this run's network: a warm start.  Only the objective changes, so
    before the first update the warm-started network predicts exactly
    what the source model predicts.

    Writes metrics.csv, runmeta.json, and a model/ directory under
    cfg.out_dir; returns the finished TrainState.
    """
    source = load_model(cfg.source_model) if cfg.source_model else None
    _, init_rng, train_rng = seed_streams(cfg.seed)
    prepared = prepare_data(cfg)
    spec = head_spec_from_config(cfg)
    net = build_network(cfg, prepared.train.inputs, spec, init_rng)
    if source is not None:
        # Every parameter carries over, head weights included: a warm start
        # changes the objective, not the function computed at step 0.  The
        # names must match exactly: a deeper source has every tensor, shapes
        # included, that a shallower target has.
        tensors = source.network.named_tensors()
        names = list(net.named_tensors())
        try:
            if list(tensors) != names:
                raise ShapeError(f"parameter tensors {list(tensors)} vs {names}")
            net.assign_tensors(tensors)
        except ShapeError as e:
            raise ConfigError(f"warm start architecture mismatch: {e}") from None

    state = TrainState(
        net, SgdMomentum(net.params(), cfg.momentum), train_rng, prepared,
        [], 0, 0, cfg.out_dir, os.path.join(cfg.out_dir, METRICS_NAME),
        os.path.join(cfg.out_dir, MODEL_DIRNAME),
    )
    for _ in run_epochs(cfg, state):
        pass
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_metrics_csv(state.csv_path, state.metrics)
    save_model(state.model_dir, net, prepared, config_echo=cfg.echo())
    runmeta = {
        "config": cfg.echo(),
        "head": net.head_meta(),
        "arch": net.arch,
        "warm_start": None if source is None else {
            "source": cfg.source_model,
            "source_head": source.network.head_spec.kind,
        },
        "updates": state.updates,
        "final": state.metrics[-1],
    }
    write_text(os.path.join(cfg.out_dir, RUNMETA_NAME), json_text(runmeta))
    return state


def write_metrics_csv(path, rows):
    """Fixed column order, ints verbatim, floats at 9 significant digits."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(format_cell(col, row[col]) for col in CSV_COLUMNS))
    write_text(path, "\n".join(lines) + "\n")


def read_metrics_csv(path):
    with open(path) as f:
        lines = f.read().strip().splitlines()
    header = lines[0].split(",")
    if tuple(header) != CSV_COLUMNS:
        raise DomainError(f"{path}: unexpected columns {header}")
    return [
        {col: int(cell) if col in INT_COLUMNS else float(cell)
         for col, cell in zip(CSV_COLUMNS, line.split(","))}
        for line in lines[1:]
    ]


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

    def transform(self, inputs):
        """Apply the model's saved preprocessing to raw inputs."""
        return _preprocess(inputs, self.standardizer, self.pca,
                           self.network.arch["kind"] == "conv")


def load_model(model_dir):
    """Rebuild the model saved in ``model_dir``.  A manifest whose meta
    cannot rebuild it (a head, arch or preprocess entry of the wrong type,
    value or shape) raises :class:`ManifestError`."""
    tensors, meta = load_tensors(model_dir)
    try:
        head, arch = meta["head"], meta["arch"]
        if not isinstance(arch, dict):
            raise TypeError(f"arch is {arch!r}, not an object")
        # Evaluation reports both objective families, so both constants
        # must be numbers whichever head the model has.
        spec = HeadSpec(head["kind"], head["num_classes"], float(head["c"]),
                        float(head["weight_decay"]))
        net = build_from_arch(arch, spec)
    except (KeyError, TypeError, ValueError) as e:
        raise ManifestError(
            f"{model_dir}: manifest meta has no usable head and arch "
            f"({type(e).__name__}: {e})"
        ) from None
    net.assign_tensors(tensors)  # the preprocessing tensors are not parameters
    preprocess = meta.get("preprocess", {})
    if not isinstance(preprocess, dict):
        raise ManifestError(
            f"{model_dir}: manifest meta.preprocess is {preprocess!r}, "
            f"not an object"
        )
    pca = standardizer = None
    try:
        if preprocess.get("pca"):
            pca = PcaModel(tensors["pca.mean"], tensors["pca.components"],
                           tensors["pca.explained_variances"])
        if preprocess.get("standardize"):
            standardizer = PixelStandardizer()
            standardizer.mean = tensors["standardizer.mean"]
            standardizer.std = tensors["standardizer.std"]
    except KeyError as e:
        raise ManifestError(
            f"{model_dir}: manifest meta.preprocess names a step whose "
            f"tensor {e} is missing"
        ) from None
    return LoadedModel(net, pca, standardizer, meta)


# ---------------------------------------------------------------------------
# experiment procedures


def cross_objective_eval(model, dataset):
    """Evaluate a LoadedModel under every objective family on one split
    of raw inputs, after the model's saved preprocessing.

    The constants are the ones the model was configured with, so reports
    from differently-trained models are directly comparable when their
    configs shared those constants.  A bare Network on prepared inputs
    goes to :func:`evaluate_objectives` directly.
    """
    return evaluate_objectives(model.network, model.transform(dataset.inputs),
                               dataset.labels)


def member_scores(models, inputs):
    """Each LoadedModel's head scores [N, K] on raw ``inputs``, in order;
    each applies its own saved preprocessing once."""
    return [m.network.scores(m.transform(inputs)) for m in models]


def ensemble_vote(models, scores):
    """Average the members' ``scores`` (from :func:`member_scores`), then
    argmax.

    Softmax members contribute probabilities, margin members raw
    scores; mixing the two families in one ensemble is rejected since
    their outputs live on different scales.
    """
    if not models:
        raise DomainError("ensemble needs at least one model")
    kinds = set()
    totals = None
    for m, out in zip(models, scores):
        kind = m.network.head_spec.kind
        kinds.add("softmax" if kind == "softmax" else "margin")
        if kind == "softmax":
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


def ensemble_predict(models, inputs):
    """Average the LoadedModels' outputs on raw ``inputs``, then argmax:
    the vote of :func:`ensemble_vote` over :func:`member_scores`."""
    return ensemble_vote(models, member_scores(models, inputs))
