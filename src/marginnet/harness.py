"""Training harness and experiment procedures.

This module owns the run lifecycle: dataset preparation, the SGD loop
with schedules and train-time corruption, per-epoch metrics, and the
procedures layered on trained models (cross-objective evaluation and
ensembles).  A run is a function of its config alone; a warm start is
its ``source_model`` key.

Raw rows of any shape become network inputs through one
:class:`InputPipeline`: each row is flattened, scaled to float64 (uint8
pixels by 1/255, see :func:`marginnet.preprocess.to_float`),
standardized and projected by the fitted transforms, and a convnet's
rows are then reshaped to its input shape.  A run's
:class:`PreparedData` and a saved :class:`LoadedModel` are both
pipelines, and one rule, :meth:`InputPipeline.stored`, says how either
keeps a split: projected whole with a PCA, otherwise as the raw rows,
which :meth:`InputPipeline.network_inputs` transforms a minibatch or
an evaluation chunk at a time, so loaded pixels stay bytes until then.
The :data:`TRANSFORMS` table names each fitted step's saved tensors.

Determinism: a run's seed feeds a SeedSequence that is split into three
independent streams (data, init, train; :func:`seed_streams`), and every
random draw in the run comes from one of them in a fixed order.  Rerunning with the same
config and seed reproduces the metrics CSV byte for byte.
"""

import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .config import ConfigError, head_spec_from_config
from .data import (Dataset, check_batch_size, load_cifar10, load_idx, make_blobs,
                   minibatches, num_batches)
from .heads import (
    OWN_OBJECTIVE,
    HeadSpec,
    encode_targets,
    error_rate_pct,
    head_scores,  # unused here; perfbench/spans.py wraps harness.head_scores
    objective_values,
    predict,
    softmax_probs,
)
from .layers import gaussian_noise
from .network import Network, build_convnet, build_from_arch, build_mlp
from .optim import LinearSchedule, SgdMomentum
from .preprocess import (PcaModel, PixelStandardizer, augment, check_jitter, pca_fit,
                         pca_transform, to_float)
from .serialize import (ManifestError, json_text, load_tensors, read_manifest,
                        save_tensors, write_text)
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
    """A step's loss or a metrics row went non-finite; names the epoch
    (and the step's minibatch)."""


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

    Regardless of which head trained the model, every value is
    :func:`~marginnet.heads.objective_values` of the same scores, so each
    includes its head regularizer; *_sum sums margin violations over
    examples, *_mean divides that sum by N.
    """

    n: int
    error_pct: float
    avg_xent: float
    hinge_sum: float
    hinge_mean: float
    hinge_sq_sum: float
    hinge_sq_mean: float

    def own_loss(self, kind):
        """The value a ``kind`` head trains on."""
        return getattr(self, OWN_OBJECTIVE[kind])


def evaluate_objectives(network, inputs, labels, transform=None):
    """Score a network on both objective families at once, from the
    scores of :meth:`Network.scores` (which applies ``transform``, if
    given, to each chunk of ``inputs``).

    Both families use the network's own HeadSpec constants, so an
    svm-trained model's cross-entropy is evaluated with the weight decay
    it would have trained under, and vice versa.
    """
    spec = network.head_spec
    n = inputs.shape[0]
    if n == 0:
        raise DomainError("cannot evaluate on an empty split")
    scores = network.scores(inputs, transform)
    one_hot = encode_targets(labels, spec.num_classes)
    return ObjectiveReport(
        n, error_rate_pct(scores, labels),
        **objective_values(spec, network.head_weights, scores, one_hot),
    )


# ---------------------------------------------------------------------------
# dataset preparation


# Each fitted step: its ``meta.preprocess`` flag, the pipeline attribute
# that holds it, its type, and its tensors' axes (D input columns, k
# components) by field; a tensor is saved as "<attribute>.<field>", in
# this order.
TRANSFORMS = (
    ("standardize", "standardizer", PixelStandardizer, {"mean": "D", "std": "D"}),
    ("pca", "pca", PcaModel, {"mean": "D", "components": "Dk", "explained_variances": "k"}),
)


class InputPipeline:
    """Raw rows to network inputs, through the fitted ``standardizer``
    and ``pca`` (None when a run has none) to rows of ``shape`` (None
    keeps them flat)."""

    def transform(self, inputs):
        """Raw ``inputs`` of any shape as network inputs: each row is
        flattened, scaled to float64 (:func:`to_float`), standardized,
        projected and reshaped (:meth:`shaped`).  With a PCA, scaling,
        standardizing and projecting run as one row-blocked pass
        (:func:`pca_transform`) that never builds the scaled or
        standardized rows."""
        x = _flat(inputs)
        if self.pca is not None:
            x = pca_transform(self.pca, x, self.standardizer)
        else:
            x = to_float(x)
            if self.standardizer is not None:
                x = self.standardizer.apply(x)
        return self.shaped(x)

    def shaped(self, x):
        """Flat network rows ``x`` reshaped to ``shape`` per row."""
        if self.shape is None:
            return x
        if x.shape[1] != math.prod(self.shape):
            raise ShapeError(f"rows of width {x.shape[1]} are not {list(self.shape)} inputs")
        return x.reshape(len(x), *self.shape)

    def stored(self, inputs):
        """A split of raw ``inputs`` as it is kept for training or
        scoring.  With a PCA it is projected whole, because a short
        chunk's product could round differently (see
        ``preprocess.ROW_BLOCK``).  Otherwise the transform is
        elementwise, so the raw rows are kept, and pixels stay bytes."""
        return inputs if self.pca is None else self.transform(inputs)

    def network_inputs(self, rows):
        """Rows gathered from a :meth:`stored` split (a minibatch or a
        scoring chunk) as network inputs."""
        return rows if self.pca is not None else self.transform(rows)

    def tensors(self):
        """``(tensors, record)``: the fitted steps' tensors by saved
        name, and the ``meta.preprocess`` record that flags the steps."""
        tensors, record = {}, {}
        for flag, attr, _, axes in TRANSFORMS:
            step = getattr(self, attr)
            if step is not None:
                tensors.update((f"{attr}.{field}", getattr(step, field)) for field in axes)
                record[flag] = True
        return tensors, record


@dataclass
class PreparedData(InputPipeline):
    """A run's two splits, each kept as :meth:`stored` returns it, and
    the pipeline fitted on its training rows."""

    train: Dataset
    test: Dataset
    pca: PcaModel | None = None
    standardizer: PixelStandardizer | None = None
    shape: tuple | None = None


# The config keys :func:`load_splits` reads for each dataset, beside
# ``dataset`` and ``train_subset``: a blobs draw is fixed by its sizes,
# its separation and the seed's data stream.
DATA_KEYS = {
    "blobs": ("blobs_train_n", "blobs_test_n", "blobs_classes", "blobs_dim",
              "blobs_separation", "seed"),
    "idx": ("data_dir", "train_images", "train_labels", "test_images",
            "test_labels"),
    "cifar10": ("data_dir", "cifar_train_batches", "cifar_test_batches"),
}


def load_splits(cfg, splits):
    """The configured ``splits`` (each "train" or "test") as loaded, one
    :class:`Dataset` each, with no fitted preprocessing: the raw inputs
    a saved model's :meth:`LoadedModel.transform` expects.  The IDX and
    CIFAR-10 files of a split are read only when it is asked for, and
    their inputs are the files' uint8 pixels.  Blobs are one draw of
    both splits from the data stream of ``cfg.seed``, made once per
    call and sliced into ``splits``.  ``train_subset`` applies to the
    train split."""
    if cfg.dataset == "blobs":
        full = make_blobs(
            cfg.blobs_train_n + cfg.blobs_test_n, cfg.blobs_classes,
            cfg.blobs_dim, cfg.blobs_separation, seed_streams(cfg.seed)[0],
        )
        cut = {"train": np.arange(cfg.blobs_train_n),
               "test": np.arange(cfg.blobs_train_n, full.n)}
    loaded = []
    for split in splits:
        is_train = split == "train"
        if cfg.dataset == "blobs":
            data = full.subset(cut[split], split=split)
        elif cfg.dataset == "idx":
            images, labels = ((cfg.train_images, cfg.train_labels) if is_train
                              else (cfg.test_images, cfg.test_labels))
            data = load_idx(os.path.join(cfg.data_dir, images),
                            os.path.join(cfg.data_dir, labels), split=split)
        else:
            batches = cfg.cifar_train_batches if is_train else cfg.cifar_test_batches
            data = load_cifar10([os.path.join(cfg.data_dir, p) for p in batches],
                                split=split)
        if is_train and cfg.train_subset:
            if cfg.train_subset > data.n:
                raise ConfigError(
                    f"train_subset {cfg.train_subset} exceeds {data.n} rows"
                )
            data = data.subset(np.arange(cfg.train_subset))
        loaded.append(data)
    return loaded


def load_split(cfg, split):
    """The configured ``split`` alone: ``load_splits(cfg, (split,))``."""
    return load_splits(cfg, (split,))[0]


def _flat(inputs):
    # The explicit width keeps an empty split reshapeable.
    return inputs.reshape(len(inputs), math.prod(inputs.shape[1:]))


def prepare_data(cfg):
    """Load both splits (:func:`load_splits`), fit the input pipeline,
    and keep each split as :meth:`InputPipeline.stored` returns it.

    Standardization and PCA see flat rows of whatever was loaded, and
    the MLP takes those rows.  Both are fitted on training rows only:
    optional per-pixel standardization, then optional PCA of the
    standardized rows; uint8 pixels are fitted a block of rows at a
    time, without a float copy of the split.  A convnet takes [N, C, H,
    W] images as loaded when there is no PCA, otherwise a 1-channel
    square of the flat (or projected) width.  A ``batch_size`` or
    ``max_jitter`` too large for the training split fails here, before
    any evaluation.
    """
    if cfg.augment and cfg.arch != "conv":
        raise ConfigError("augment requires arch = conv")
    train, test = load_splits(cfg, ("train", "test"))
    rows = _flat(train.inputs)
    standardizer = PixelStandardizer().fit(rows) if cfg.standardize else None
    pca = pca_fit(rows, cfg.pca_dims, standardizer) if cfg.pca_dims else None
    width = rows.shape[1] if pca is None else cfg.pca_dims
    if cfg.arch != "conv":
        shape = (width,)
    elif train.inputs.ndim == 4 and pca is None:
        shape = train.inputs.shape[1:]
    else:
        side = math.isqrt(width)
        if side * side != width:
            raise ShapeError(f"cannot reshape width {width} into square images")
        shape = (1, side, side)
    if cfg.epochs:
        check_batch_size(train.n, cfg.batch_size)
        if cfg.augment:
            check_jitter(cfg.max_jitter, *shape[1:])
    prepared = PreparedData(train, test, pca, standardizer, shape)
    prepared.train, prepared.test = (replace(s, inputs=prepared.stored(s.inputs))
                                     for s in (train, test))
    return prepared


def build_network(cfg, shape, head_spec, init_rng):
    """The configured network for input rows of ``shape`` (an MLP's
    ``(width,)``, a convnet's ``(C, H, W)``), drawn from ``init_rng``."""
    if cfg.arch == "mlp":
        return build_mlp(
            shape[0], cfg.hidden_dims, head_spec,
            rng=init_rng, init_std=cfg.init_std,
        )
    return build_convnet(
        shape, cfg.conv_channels, cfg.conv_kernel,
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
    prepared = state.prepared
    train_set, test_set = prepared.train, prepared.test
    n = train_set.n
    batches_per_epoch = num_batches(n, cfg.batch_size)
    # epochs=0 is a pure evaluation run; the schedules still need a
    # nonzero span to report their starting values in the metrics row.
    sched_span = max(cfg.epochs * batches_per_epoch, 1)
    lr_sched = LinearSchedule(cfg.lr_start, cfg.lr_end, sched_span)
    noise_sched = LinearSchedule(cfg.noise_start, cfg.noise_end, sched_span)

    def metrics_row():
        # Weights that a step left finite can still overflow the scores;
        # as in the step, the isfinite check below reports that instead.
        with np.errstate(over="ignore", invalid="ignore"):
            train_rep = evaluate_objectives(net, train_set.inputs, train_set.labels,
                                            prepared.network_inputs)
            test_rep = evaluate_objectives(net, test_set.inputs, test_set.labels,
                                           prepared.network_inputs)
            row = {
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
            }
        bad = [f"{col}={value}" for col, value in row.items() if not np.isfinite(value)]
        if bad:
            raise TrainingDivergedError(
                f"non-finite metrics {', '.join(bad)} at epoch {state.epoch}"
            )
        state.metrics.append(row)
        return row

    if not state.metrics:
        yield metrics_row()
    for epoch in range(state.epoch + 1, cfg.epochs + 1):
        for b, idx in enumerate(minibatches(n, cfg.batch_size, state.rng)):
            x = prepared.network_inputs(train_set.inputs[idx])
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
            state.optimizer.step([net.grad], lr_sched.value(state.updates))
            net.grad = None  # not kept through the evaluation or the next forward
            state.updates += 1
        state.epoch = epoch
        yield metrics_row()


def train(cfg):
    """Run the full training loop described by ``cfg``.

    With ``source_model`` set, the saved model there is loaded before any
    data, and its parameters (hidden layers and head weights alike) seed
    this run's network: a warm start.  Only the objective changes, so
    before the first update the warm-started network predicts exactly
    what the source model predicts.  A run whose ``standardize`` or
    ``pca_dims`` differs from the source's saved preprocessing, or whose
    data keys differ from the source's saved config (see
    :data:`DATA_KEYS`), would start from a different function, and is a
    :class:`ConfigError`.

    ``cfg.out_dir`` is made after the epoch-0 row, before the first
    update, so a directory that cannot be made fails the run after one
    evaluation; errors before that row leave no directory.  Writes
    metrics.csv, runmeta.json, and a model/ directory under it; returns
    the finished TrainState.
    """
    source = load_model(cfg.source_model) if cfg.source_model else None
    warm_start = None
    if source is not None:
        _check_source_preprocessing(cfg, source)
        _check_source_data(cfg, source)
    _, init_rng, train_rng = seed_streams(cfg.seed)
    prepared = prepare_data(cfg)
    spec = head_spec_from_config(cfg)
    # A warm start draws no init: the init stream feeds nothing else.
    net = build_network(cfg, prepared.shape, spec, None if source else init_rng)
    if source is not None:
        # Every parameter carries over, head weights included: a warm start
        # changes the objective, not the function computed at step 0.  The
        # names and shapes must match exactly: a deeper source has every
        # tensor, shapes included, that a shallower target has.
        layout = [(slot.name, slot.shape) for slot in net.table]
        source_layout = [(slot.name, slot.shape) for slot in source.network.table]
        if source_layout != layout:
            raise ConfigError(f"warm start architecture mismatch: parameter "
                              f"tensors {source_layout} vs {layout}")
        net.param[...] = source.network.param
        warm_start = {"source": cfg.source_model,
                      "source_head": source.network.head_spec.kind}
        del source  # its store would sit beside this run's through every step

    state = TrainState(
        net, SgdMomentum([net.param], cfg.momentum), train_rng, prepared,
        [], 0, 0, cfg.out_dir, os.path.join(cfg.out_dir, METRICS_NAME),
        os.path.join(cfg.out_dir, MODEL_DIRNAME),
    )
    for row in run_epochs(cfg, state):
        if row["epoch"] == 0:
            os.makedirs(cfg.out_dir, exist_ok=True)
    write_metrics_csv(state.csv_path, state.metrics)
    save_model(state.model_dir, net, prepared, config_echo=cfg.echo())
    runmeta = {
        "config": cfg.echo(),
        "head": asdict(net.head_spec),
        "arch": net.arch,
        "warm_start": warm_start,
        "updates": state.updates,
        "final": state.metrics[-1],
    }
    write_text(os.path.join(cfg.out_dir, RUNMETA_NAME), json_text(runmeta))
    return state


def _check_source_preprocessing(cfg, source):
    """Raise :class:`ConfigError` unless the run's ``standardize`` and
    ``pca_dims`` match the warm-start source's saved preprocessing."""
    saved = (source.standardizer is not None,
             0 if source.pca is None else source.pca.components.shape[1])
    if saved != (cfg.standardize, cfg.pca_dims):
        raise ConfigError(
            f"warm start preprocessing mismatch: {cfg.source_model} was "
            f"trained with standardize = {str(saved[0]).lower()}, "
            f"pca_dims = {saved[1]}; this run has standardize = "
            f"{str(cfg.standardize).lower()}, pca_dims = {cfg.pca_dims}"
        )


def _check_source_data(cfg, source):
    """Raise :class:`ConfigError` unless the warm-start source's saved
    config names the data this run loads: the same ``dataset``,
    ``train_subset`` and :data:`DATA_KEYS` values.  Fitted on other rows,
    the run's standardizer and PCA would differ from the source's."""
    saved = source.meta.get("config")
    if not isinstance(saved, dict):
        raise ConfigError(f"warm start: {cfg.source_model} has no config "
                          "record, so its training data cannot be checked")
    ours, theirs = [], []
    for key in ("dataset", "train_subset", *DATA_KEYS[cfg.dataset]):
        entry = saved.get(key)
        value = entry.get("value") if isinstance(entry, dict) else None
        if value != cfg.values[key]:
            theirs.append(f"{key} = {value!r}")
            ours.append(f"{key} = {cfg.values[key]!r}")
    if ours:
        raise ConfigError(
            f"warm start data mismatch: {cfg.source_model} was trained with "
            f"{', '.join(theirs)}; this run has {', '.join(ours)}"
        )


def write_metrics_csv(path, rows):
    """Fixed column order, ints verbatim, floats at 9 significant digits."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(format_cell(col, row[col]) for col in CSV_COLUMNS))
    write_text(path, "\n".join(lines) + "\n")


def read_metrics_csv(path):
    """The rows :func:`write_metrics_csv` wrote to ``path``.  An empty
    file, other columns, a row whose cell count is not the header's, or
    a cell that does not parse as its column's type is a
    :class:`DomainError` naming the file and the line."""
    with open(path) as f:
        lines = f.read().rstrip().splitlines()
    if not lines:
        raise DomainError(f"{path}, line 1: empty file, no header")
    header = lines[0].split(",")
    if tuple(header) != CSV_COLUMNS:
        raise DomainError(f"{path}, line 1: unexpected columns {header}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise DomainError(f"{path}, line {number}: {len(cells)} cells "
                              f"under {len(CSV_COLUMNS)} columns")
        try:
            rows.append({col: int(cell) if col in INT_COLUMNS else float(cell)
                         for col, cell in zip(CSV_COLUMNS, cells)})
        except ValueError as e:
            raise DomainError(f"{path}, line {number}: {e}") from None
    return rows


# ---------------------------------------------------------------------------
# model persistence


def save_model(model_dir, net, prepared=None, config_echo=None):
    """Save ``net`` and the fitted steps of the input pipeline
    ``prepared`` (:meth:`InputPipeline.tensors`) to ``model_dir``."""
    transforms, record = ({}, {}) if prepared is None else prepared.tensors()
    meta = {
        "arch": net.arch,
        "head": asdict(net.head_spec),
        "preprocess": record,
    }
    if config_echo is not None:
        meta["config"] = config_echo
    save_tensors(model_dir, dict(net.named_tensors()) | transforms, meta)


@dataclass
class LoadedModel(InputPipeline):
    """A saved network and the input pipeline it was trained behind,
    whose ``shape`` is a convnet's saved ``arch["input_shape"]`` (an MLP
    takes flat rows)."""

    network: Network
    pca: PcaModel | None
    standardizer: PixelStandardizer | None
    meta: dict

    # perfbench/spans.py times LoadedModel.__dict__["transform"].
    transform = InputPipeline.transform

    @property
    def shape(self):
        return self.network.arch.get("input_shape")


def load_model(model_dir):
    """Rebuild the model saved in ``model_dir``, each parameter read
    straight into its view of ``Network.param``.  A manifest whose meta
    cannot rebuild it (a head, arch or preprocess entry of the wrong type,
    value or shape), that flags a step of :data:`TRANSFORMS` whose
    tensor is missing, or whose saved transform tensors, flagged or not,
    do not have their axes with one D and one k, raises
    :class:`ManifestError`."""
    meta = read_manifest(model_dir).get("meta", {})
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
    tensors, _ = load_tensors(model_dir, net.named_tensors())
    preprocess = meta.get("preprocess", {})
    if not isinstance(preprocess, dict):
        raise ManifestError(
            f"{model_dir}: manifest meta.preprocess is {preprocess!r}, "
            f"not an object"
        )
    steps, sizes = {}, {}
    for flag, attr, step_type, axes in TRANSFORMS:
        for field, axis in axes.items():
            name = f"{attr}.{field}"
            if name not in tensors:
                continue
            shape = tensors[name].shape
            if len(shape) != len(axis) or any(sizes.setdefault(a, n) != n
                                              for a, n in zip(axis, shape)):
                where = ", ".join(f"{a} = {n}" for a, n in sizes.items())
                raise ManifestError(
                    f"{model_dir}: saved transforms disagree: {name!r} has shape "
                    f"{list(shape)}, not [{', '.join(axis)}]" + (f" where {where}" if where else "")
                )
        if preprocess.get(flag):
            try:
                steps[attr] = step_type(**{field: tensors[f"{attr}.{field}"] for field in axes})
            except KeyError as e:
                raise ManifestError(f"{model_dir}: manifest meta.preprocess names a step "
                                    f"whose tensor {e} is missing") from None
    return LoadedModel(net, steps.get("pca"), steps.get("standardizer"), meta)


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
    return evaluate_objectives(model.network, model.stored(dataset.inputs),
                               dataset.labels, model.network_inputs)


def member_scores(models, inputs):
    """Each LoadedModel's head scores [N, K] on raw ``inputs``, in order,
    with the bytes of scoring its :meth:`~InputPipeline.stored` rows.

    The members with a PCA are projected by one :func:`pca_transform`
    call on their ``(pca, standardizer)`` pairs, which scales,
    standardizes and centers each row block once for each group of
    members whose saved preprocessing agrees, as members trained on one
    dataset's rows do.  A member without a PCA transforms each chunk as
    it is scored."""
    with_pca = [m for m in models if m.pca is not None]
    projected = iter(pca_transform([(m.pca, m.standardizer) for m in with_pca],
                                   _flat(inputs)))
    return [m.network.scores(m.stored(inputs) if m.pca is None else m.shaped(next(projected)),
                             m.network_inputs)
            for m in models]


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
