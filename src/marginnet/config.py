"""Run configuration: a flat key = value text format.

Rules:
    - one ``key = value`` per line; blank lines and full-line ``#``
      comments are ignored
    - every key must be known; unknown keys are hard errors, not
      warnings, so typos cannot silently fall back to defaults
    - values are typed (int/float/bool/str/int list); conversion
      failures are errors naming the key and the offending text
    - every value is held to its key's rule, whether it came from a
      config line or a post-parse override, before any run starts

Each key has one ``SCHEMA`` row: its converter, default, rule and the
origin of its default.  The parsed RunConfig remembers where each value
came from ("config", "default", or "cli" for post-parse overrides), and
``echo()`` returns that provenance for run metadata.
"""

import copy
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from .data import IMAGE_CLASSES
from .heads import FINITE_NON_NEGATIVE, FINITE_POSITIVE, HEAD_KINDS, HeadSpec


class ConfigError(ValueError):
    """Bad key, bad value, or unreadable config text."""


def _to_bool(text):
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _to_str_list(text):
    t = text.strip()
    if not t:
        return []
    return [part.strip() for part in t.split(",")]


def _to_int_list(text):
    return [int(part) for part in _to_str_list(text)]


# Rules: (text, predicate) pairs.  A key's value must satisfy its rule's
# predicate, and an error says the key "must be <text>".
ANY = ("anything", lambda v: True)


def at_least(low):
    return (f">= {low}", lambda v: v >= low)


def one_of(*choices):
    return (f"one of {choices}", lambda v: v in choices)


RATE = ("in [0, 1)", lambda v: 0 <= v < 1)
ODD_KERNEL = ("odd and positive (stride 1, same padding)",
              lambda v: v >= 1 and v % 2 == 1)
WIDTHS = ("a list of positive widths", lambda v: all(w >= 1 for w in v))
CHANNELS = ("a non-empty list of positive widths",
            lambda v: bool(v) and all(w >= 1 for w in v))

# Where a key's default comes from: "recipe" if it restates the
# published training recipe this library reproduces, "artifact" if it
# is an implementation choice the recipe is silent on (momentum,
# init_std, max_jitter, ...).  The echo reports it so run metadata
# keeps the two apart.
RECIPE, ARTIFACT = "recipe", "artifact"


class Key(NamedTuple):
    """One SCHEMA row: the whole description of a config key."""

    convert: Callable
    default: object
    rule: tuple
    origin: str = ARTIFACT


# key -> Key.  This table is the whole schema.  epochs 0 is legal:
# train() then emits only the initial evaluation row.  svm_c and
# weight_decay take HeadSpec's rules, which hold under every head.
SCHEMA = {
    # data
    "dataset": Key(str, "blobs", one_of("blobs", "idx", "cifar10")),
    "data_dir": Key(str, "data/mnist", ANY),
    "train_images": Key(str, "train-images-idx3-ubyte.gz", ANY),
    "train_labels": Key(str, "train-labels-idx1-ubyte.gz", ANY),
    "test_images": Key(str, "t10k-images-idx3-ubyte.gz", ANY),
    "test_labels": Key(str, "t10k-labels-idx1-ubyte.gz", ANY),
    "cifar_train_batches": Key(_to_str_list, [], ANY),
    "cifar_test_batches": Key(_to_str_list, [], ANY),
    "train_subset": Key(int, 0, at_least(0)),           # 0 = use everything
    "blobs_train_n": Key(int, 200, at_least(1)),
    "blobs_test_n": Key(int, 200, at_least(1)),
    "blobs_classes": Key(int, 2, at_least(2)),
    "blobs_dim": Key(int, 2, at_least(1)),
    "blobs_separation": Key(float, 20.0, FINITE_POSITIVE),
    # preprocessing
    "pca_dims": Key(int, 0, at_least(0)),               # 0 = off
    "standardize": Key(_to_bool, False, ANY),
    "augment": Key(_to_bool, False, ANY),
    "max_jitter": Key(int, 2, at_least(0)),
    "mirror": Key(_to_bool, True, ANY, RECIPE),
    # architecture
    "arch": Key(str, "mlp", one_of("mlp", "conv")),
    "hidden_dims": Key(_to_int_list, [256, 256], WIDTHS),
    "conv_channels": Key(_to_int_list, [32, 64], CHANNELS, RECIPE),
    "conv_kernel": Key(int, 5, ODD_KERNEL, RECIPE),
    "conv_dense": Key(int, 3072, at_least(1), RECIPE),
    "conv_dropout": Key(float, 0.2, RATE, RECIPE),
    "init_std": Key(float, 0.01, FINITE_NON_NEGATIVE),
    # objective
    "head": Key(str, "softmax", one_of(*HEAD_KINDS)),
    "svm_c": Key(float, 0.01, FINITE_POSITIVE),
    "weight_decay": Key(float, 0.001, FINITE_NON_NEGATIVE, RECIPE),
    "lower_weight_decay": Key(float, 0.0, FINITE_NON_NEGATIVE),
    # optimization
    "epochs": Key(int, 10, at_least(0)),
    "batch_size": Key(int, 200, at_least(1), RECIPE),
    "momentum": Key(float, 0.9, RATE),
    "lr_start": Key(float, 0.1, FINITE_NON_NEGATIVE, RECIPE),
    "lr_end": Key(float, 0.0, FINITE_NON_NEGATIVE, RECIPE),
    "noise_start": Key(float, 0.0, FINITE_NON_NEGATIVE),
    "noise_end": Key(float, 0.0, FINITE_NON_NEGATIVE),
    # run control
    "seed": Key(int, 0, at_least(0)),
    "out_dir": Key(str, "runs/run", ANY),
    "eval_split": Key(str, "test", one_of("train", "test")),
    # model references: eval reads model, ensemble reads models, and
    # train warm-starts from source_model when it is set
    "model": Key(str, "", ANY),
    "source_model": Key(str, "", ANY),
    "models": Key(_to_str_list, [], ANY),
}


def _check(key, value, origin):
    """Hold ``value`` to ``key``'s rule; raise ConfigError if it fails."""
    text, holds = SCHEMA[key].rule
    if not holds(value):
        raise ConfigError(f"{origin}: {key} must be {text}, got {value!r}")


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
        """Post-parse override (CLI flags); key must be in the schema, and
        the value is held to the same rule as a config line."""
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        _check(key, value, "--" + key.replace("_", "-"))
        self.values[key] = value
        self.sources[key] = "cli"

    def echo(self):
        """key -> {value, source, default_origin} for every schema key;
        default_origin is the key's SCHEMA origin."""
        return {
            key: {
                "value": self.values[key],
                "source": self.sources[key],
                "default_origin": row.origin,
            }
            for key, row in SCHEMA.items()
        }


def default_config():
    """A RunConfig of every key's default, each a copy: appending to a
    list value leaves SCHEMA and later configs alone."""
    values = {key: copy.copy(row.default) for key, row in SCHEMA.items()}
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
        try:
            value = SCHEMA[key].convert(value_text.strip())
        except ValueError as e:
            raise ConfigError(
                f"{origin}:{lineno}: bad value for {key!r}: "
                f"{value_text.strip()!r} ({e})"
            ) from None
        cfg.values[key] = value
        cfg.sources[key] = "config"
    for key, value in cfg.values.items():
        _check(key, value, origin)
    return cfg


def parse_config(path):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return parse_config_text(text, origin=str(path))


def head_spec_from_config(cfg):
    # Parsing held every field to HeadSpec's own rules: this cannot fail.
    return HeadSpec(cfg.head, class_count(cfg), cfg.svm_c, cfg.weight_decay)


def class_count(cfg):
    """Classes in the configured dataset: blobs_classes, or the
    :data:`~marginnet.data.IMAGE_CLASSES` its IDX and CIFAR-10 loaders
    return."""
    if cfg.dataset == "blobs":
        return cfg.blobs_classes
    return IMAGE_CLASSES
