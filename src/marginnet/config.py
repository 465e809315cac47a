"""Run configuration: a flat key = value text format.

Rules:
    - one ``key = value`` per line; blank lines and full-line ``#``
      comments are ignored
    - every key must be known; unknown keys are hard errors, not
      warnings, so typos cannot silently fall back to defaults
    - values are typed (int/float/bool/str/int list); conversion
      failures are errors naming the key and the offending text

The parsed RunConfig remembers where each value came from ("config",
"default", or "cli" for post-parse overrides), and ``echo()`` returns
that provenance for run metadata.
"""

import math
from dataclasses import dataclass, field

from .tensor import DomainError


class ConfigError(ValueError):
    """Bad key, bad value, or unreadable config text."""


def _to_bool(text):
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _to_int_list(text):
    t = text.strip()
    if not t:
        return []
    return [int(part.strip()) for part in t.split(",")]


def _to_str_list(text):
    t = text.strip()
    if not t:
        return []
    return [part.strip() for part in t.split(",")]


# key -> (type converter, default).  This table is the whole schema.
SCHEMA = {
    # data
    "dataset": (str, "blobs"),           # blobs | idx | cifar10
    "data_dir": (str, "data/mnist"),
    "train_images": (str, "train-images-idx3-ubyte.gz"),
    "train_labels": (str, "train-labels-idx1-ubyte.gz"),
    "test_images": (str, "t10k-images-idx3-ubyte.gz"),
    "test_labels": (str, "t10k-labels-idx1-ubyte.gz"),
    "cifar_train_batches": (_to_str_list, []),
    "cifar_test_batches": (_to_str_list, []),
    "train_subset": (int, 0),            # 0 = use everything
    "blobs_train_n": (int, 200),
    "blobs_test_n": (int, 200),
    "blobs_classes": (int, 2),
    "blobs_dim": (int, 2),
    "blobs_separation": (float, 20.0),
    # preprocessing
    "pca_dims": (int, 0),                # 0 = off
    "standardize": (_to_bool, False),
    "augment": (_to_bool, False),
    "max_jitter": (int, 2),
    "mirror": (_to_bool, True),
    # architecture
    "arch": (str, "mlp"),                # mlp | conv
    "hidden_dims": (_to_int_list, [256, 256]),
    "conv_channels": (_to_int_list, [32, 64]),
    "conv_kernel": (int, 5),
    "conv_dense": (int, 3072),
    "conv_dropout": (float, 0.2),
    "init_std": (float, 0.01),
    # objective
    "head": (str, "softmax"),            # softmax | l1svm | l2svm
    "svm_c": (float, 0.01),
    "weight_decay": (float, 0.001),
    "lower_weight_decay": (float, 0.0),
    # optimization
    "epochs": (int, 10),
    "batch_size": (int, 200),
    "momentum": (float, 0.9),
    "lr_start": (float, 0.1),
    "lr_end": (float, 0.0),
    "noise_start": (float, 0.0),
    "noise_end": (float, 0.0),
    # run control
    "seed": (int, 0),
    "out_dir": (str, "runs/run"),
    "eval_split": (str, "test"),         # train | test
    # model references (eval / warmstart / ensemble)
    "model": (str, ""),
    "source_model": (str, ""),
    "models": (_to_str_list, []),
}

_CHOICES = {
    "dataset": ("blobs", "idx", "cifar10"),
    "arch": ("mlp", "conv"),
    "head": ("softmax", "l1svm", "l2svm"),
    "eval_split": ("train", "test"),
}

# Defaults whose values come straight from the published training recipe
# this library reproduces.  Every other default (momentum, init_std,
# max_jitter, ...) is an implementation choice the recipe is silent on,
# and the echo tags it "artifact" so run metadata keeps the two apart.
RECIPE_DEFAULTS = frozenset({
    "lr_start",
    "lr_end",
    "weight_decay",
    "batch_size",
    "conv_channels",
    "conv_kernel",
    "conv_dense",
    "conv_dropout",
    "mirror",
})


@dataclass
class RunConfig:
    values: dict
    sources: dict = field(default_factory=dict)

    def __getattr__(self, name):
        try:
            return self.__dict__["values"][name]
        except KeyError:
            raise AttributeError(name) from None

    def override(self, key, value):
        """Post-parse override (CLI flags); key must be in the schema."""
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        self.values[key] = value
        self.sources[key] = "cli"

    def echo(self):
        """key -> {value, source, default_origin} for every schema key.

        default_origin says what the *default* for that key is: "recipe"
        if the shipped default restates the published training recipe,
        "artifact" if it is an implementation choice.
        """
        return {
            key: {
                "value": self.values[key],
                "source": self.sources[key],
                "default_origin": (
                    "recipe" if key in RECIPE_DEFAULTS else "artifact"
                ),
            }
            for key in SCHEMA
        }


def default_config():
    values = {key: default for key, (_, default) in SCHEMA.items()}
    sources = {key: "default" for key in SCHEMA}
    return RunConfig(values, sources)


def parse_config_text(text, origin="<string>"):
    cfg = default_config()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{origin}:{lineno}: expected 'key = value', got {line!r}"
            )
        key, _, value_text = line.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{origin}:{lineno}: unknown config key {key!r}")
        converter, _ = SCHEMA[key]
        try:
            value = converter(value_text.strip())
        except ValueError as e:
            raise ConfigError(
                f"{origin}:{lineno}: bad value for {key!r}: "
                f"{value_text.strip()!r} ({e})"
            ) from None
        cfg.values[key] = value
        cfg.sources[key] = "config"
    _validate(cfg, origin)
    return cfg


def parse_config(path):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return parse_config_text(text, origin=str(path))


def _validate(cfg, origin):
    for key, choices in _CHOICES.items():
        if cfg.values[key] not in choices:
            raise ConfigError(
                f"{origin}: {key} must be one of {choices}, "
                f"got {cfg.values[key]!r}"
            )
    # Each key group and its rule.  epochs 0 is legal: train() then emits
    # only the initial evaluation row.  weight_decay and svm_c are checked
    # for every head: evaluation reports both objective families, each
    # with its own constant, whichever head trains.
    rules = (
        (("epochs", "train_subset", "max_jitter"), ">= 0", lambda v: v >= 0),
        (("weight_decay", "init_std", "noise_start", "noise_end",
          "lower_weight_decay", "lr_start", "lr_end"),
         "finite and >= 0", lambda v: 0 <= v < math.inf),
        (("svm_c", "blobs_separation"), "finite and > 0",
         lambda v: 0 < v < math.inf),
        (("momentum", "conv_dropout"), "in [0, 1)", lambda v: 0 <= v < 1),
        (("batch_size", "blobs_train_n", "blobs_test_n"), "positive",
         lambda v: v >= 1),
    )
    for keys, rule, holds in rules:
        for key in keys:
            if not holds(cfg.values[key]):
                raise ConfigError(
                    f"{origin}: {key} must be {rule}, got {cfg.values[key]}"
                )


def head_spec_from_config(cfg):
    from .heads import HeadSpec

    try:
        return HeadSpec(
            kind=cfg.head,
            num_classes=class_count(cfg),
            c=cfg.svm_c,
            weight_decay=cfg.weight_decay,
        )
    except DomainError as e:
        raise ConfigError(str(e)) from None


def class_count(cfg):
    """Classes in the configured dataset: blobs_classes, or 10 for IDX
    and CIFAR-10 (what their loaders return)."""
    if cfg.dataset == "blobs":
        return cfg.blobs_classes
    return 10
