"""Timers installed around marginnet's public functions from outside.

Nothing in ``src/`` is edited.  ``harness`` imports most of its callees
by name, so a wrapper replaces the attribute the caller looks up: class
methods such as ``DenseLayer.forward``, and module globals such as
``harness.evaluate_objectives`` or ``marginnet.heads.apply_head``.

Two instruments share that mechanism:

- ``PhaseClock`` is what untraced runs carry.  It timestamps step and
  phase boundaries only (two clock reads per update step, one pair per
  evaluation) and feeds the end-to-end metrics.
- ``Tracer`` records a span for every call listed in ``SPANS``: name,
  start, end, parent, and the id of the operation it belongs to.
  Spans stay in memory until the run ends.  A span's self time is its
  duration minus the time its child spans cover; the operation's root
  span keeps whatever no library span covers, reported as the
  unattributed remainder.
"""

import json
import weakref
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from marginnet import cli, harness, heads
from marginnet.layers import (
    Conv2dLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    MaxPool2x2Layer,
    ReluLayer,
)
from marginnet.network import Network
from marginnet.optim import SgdMomentum
from marginnet.preprocess import PixelStandardizer

ROOT = "trace.unattributed"
MB = 1e6

# Every span the tracer can record, with the suffix of its self-time
# metric.  Containers whose own work is dispatch or glue report
# ``self_s``; the rest report ``s``.  Both are self time.
SPANS = (
    ("data.load_idx", "s"),
    ("data.minibatches", "s"),
    ("preprocess.pca_fit", "s"),
    ("preprocess.pca_transform", "s"),
    ("preprocess.standardize", "s"),
    ("preprocess.augment", "s"),
    ("layers.dense.fwd", "s"),
    ("layers.dense.bwd", "s"),
    ("layers.conv1.fwd", "s"),
    ("layers.conv1.bwd", "s"),
    ("layers.conv2.fwd", "s"),
    ("layers.conv2.bwd", "s"),
    ("layers.maxpool.fwd", "s"),
    ("layers.maxpool.bwd", "s"),
    ("layers.relu", "s"),
    ("layers.dropout", "s"),
    ("layers.flatten", "s"),
    ("layers.noise", "s"),
    ("heads.apply", "s"),
    ("heads.scores", "s"),
    ("network.forward", "self_s"),
    ("network.backprop", "self_s"),
    ("network.build", "s"),
    ("optim.step", "s"),
    ("harness.train", "self_s"),
    ("harness.prepare_data", "self_s"),
    ("harness.evaluate", "self_s"),
    ("harness.write_metrics", "s"),
    ("harness.save_model", "self_s"),
    ("harness.load_model", "self_s"),
    ("harness.transform", "self_s"),
    ("harness.cross_eval", "self_s"),
    ("harness.ensemble", "self_s"),
    ("serialize.save", "s"),
    ("serialize.load", "s"),
    ("config.parse", "s"),
    ("cli.main", "self_s"),
)

# Quantities computed from argument and result shapes, not timed.
COMPUTED = (
    ("data.load_idx.mb", "MB"),           # decoded inputs and labels, per call
    ("layers.dense.gflops", "GFLOP"),     # forward and backward, per operation
    ("layers.conv.gflops", "GFLOP"),      # every conv layer, per operation
    ("layers.conv2.cache_mb", "MB"),      # largest conv2 patch tensor
    ("heads.active_margin_frac", "ratio"),
    ("optim.step.mb", "MB"),              # params, grads and velocities, per call
    ("serialize.save.mb", "MB"),          # params.bin bytes, per call
    ("serialize.load.mb", "MB"),
)

TRACE_SUMMARY = (
    ("trace.unattributed_s", "s"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace_overhead_pct", "%"),
    ("trace.spans_per_op", "count"),
    ("process.warmup_s", "s"),
)


def per_layer_metrics():
    """(name, unit) of every metric a traced run prints, in order."""
    out = []
    for name, suffix in SPANS:
        out.append((f"{name}.{suffix}", "s"))
        out.append((f"{name}.calls", "count"))
    return out + list(COMPUTED) + list(TRACE_SUMMARY)


@contextmanager
def patched(replacements):
    """Set each (owner, attr, value) for the duration of the block."""
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in originals:
            setattr(owner, attr, value)


class PhaseClock:
    """Step and phase boundary timestamps for untraced runs.

    ``patches(points)`` hooks the named boundaries: "steps" times every
    SGD update from the minibatch yield to the end of the optimizer
    step, and "evaluate" times ``evaluate_objectives``.  Workloads add
    their own phases with ``add``.
    """

    def __init__(self):
        self.step_s = []
        self.rows = defaultdict(int)
        self.seconds = defaultdict(float)
        self._batch = None

    def add(self, phase, rows, seconds):
        self.rows[phase] += rows
        self.seconds[phase] += seconds

    def rate(self, phase):
        return self.rows[phase] / self.seconds[phase]

    def patches(self, points):
        clock = self
        plan = harness.minibatches
        opt_step = SgdMomentum.step
        evaluate = harness.evaluate_objectives

        def minibatches(*args, **kwargs):
            for idx in plan(*args, **kwargs):
                clock._batch = (perf_counter(), len(idx))
                yield idx

        def step(self, *args, **kwargs):
            opt_step(self, *args, **kwargs)
            start, rows = clock._batch
            seconds = perf_counter() - start
            clock.step_s.append(seconds)
            clock.add("train", rows, seconds)

        def evaluate_objectives(network, inputs, *args, **kwargs):
            start = perf_counter()
            report = evaluate(network, inputs, *args, **kwargs)
            clock.add("eval", inputs.shape[0], perf_counter() - start)
            return report

        available = {
            "steps": [(harness, "minibatches", minibatches), (SgdMomentum, "step", step)],
            "evaluate": [(harness, "evaluate_objectives", evaluate_objectives)],
        }
        return [p for point in points for p in available[point]]


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans = []        # (op, name, start, end, parent index)
        self._stack = [-1]
        self._op = -1
        self.ops = 0
        self.sums = defaultdict(float)
        self.conv2_cache_mb = 0.0
        self._conv_names = weakref.WeakKeyDictionary()
        self._patches = self._build_patches()

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so each call records a span.  ``name`` is a string
        or a function of the call's arguments; ``before(args)`` and
        ``after(args, result)`` record computed quantities."""
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            if before is not None:
                before(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (tracer._op, label, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    @contextmanager
    def operation(self):
        """Trace one operation: install every wrapper and open its root span."""
        self._op = self.ops
        self.ops += 1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        with patched(self._patches):
            start = perf_counter()
            try:
                yield
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (self._op, ROOT, start, end, -1)

    def last_op_seconds(self):
        _, _, start, end, _ = next(s for s in reversed(self.spans) if s[4] == -1)
        return end - start

    # -- computed quantities ------------------------------------------------

    def _conv_name(self, kind):
        names = self._conv_names

        def label(args):
            return f"layers.conv{names.get(args[0], 1)}.{kind}"

        return label

    def _register_convs(self, args):
        convs = [l for l in args[0].layers if isinstance(l, Conv2dLayer)]
        for i, layer in enumerate(convs, start=1):
            self._conv_names.setdefault(layer, i)

    def _dense_fwd(self, args):
        layer, x = args[0], args[1]
        self.sums["layers.dense.gflops"] += 2 * x.shape[0] * layer.n_in * layer.n_out / 1e9

    def _dense_bwd(self, args):
        layer = args[0]
        rows = layer._cached_input.shape[0]
        self.sums["layers.dense.gflops"] += 4 * rows * layer.n_in * layer.n_out / 1e9

    def _conv_fwd(self, args):
        layer, x = args[0], args[1]
        n, c, h, w = x.shape
        ho, wo = layer.output_hw(h, w)
        patch = n * c * layer.kernel_size**2 * ho * wo
        self.sums["layers.conv.gflops"] += 2 * patch * layer.out_channels / 1e9
        if self._conv_names.get(layer, 1) == 2:
            self.conv2_cache_mb = max(self.conv2_cache_mb, 8 * patch / MB)

    def _conv_bwd(self, args):
        layer = args[0]
        cols = layer._cache[0]
        self.sums["layers.conv.gflops"] += 4 * cols.size * layer.out_channels / 1e9

    def _apply_head_margins(self, args, out):
        spec, labels = args[0], np.asarray(args[3])
        if spec.kind != "softmax":
            sign = -np.ones_like(out.scores)
            sign[np.arange(labels.shape[0]), labels] = 1.0
            self.sums["margin_terms"] += out.scores.size
            self.sums["margin_active"] += int(np.count_nonzero(out.scores * sign < 1.0))

    def _optim_mb(self, args):
        self.sums["optim.step.mb"] += 3 * sum(p.nbytes for p in args[1]) / MB

    def _idx_mb(self, args, dataset):
        self.sums["data.load_idx.mb"] += (dataset.inputs.nbytes + dataset.labels.nbytes) / MB

    def _save_mb(self, args):
        self.sums["serialize.save.mb"] += sum(np.asarray(t).nbytes for t in args[1].values()) / MB

    def _load_mb(self, args, out):
        self.sums["serialize.load.mb"] += sum(t.nbytes for t in out[0].values()) / MB

    def _build_patches(self):
        table = [
            (harness, "load_idx", "data.load_idx", None, self._idx_mb),
            (harness, "minibatches", "data.minibatches", None, None),
            (harness, "pca_fit", "preprocess.pca_fit", None, None),
            (harness, "pca_transform", "preprocess.pca_transform", None, None),
            (PixelStandardizer, "fit", "preprocess.standardize", None, None),
            (PixelStandardizer, "apply", "preprocess.standardize", None, None),
            (harness, "augment", "preprocess.augment", None, None),
            (DenseLayer, "forward", "layers.dense.fwd", self._dense_fwd, None),
            (DenseLayer, "backward", "layers.dense.bwd", self._dense_bwd, None),
            (Conv2dLayer, "forward", self._conv_name("fwd"), self._conv_fwd, None),
            (Conv2dLayer, "backward", self._conv_name("bwd"), self._conv_bwd, None),
            (MaxPool2x2Layer, "forward", "layers.maxpool.fwd", None, None),
            (MaxPool2x2Layer, "backward", "layers.maxpool.bwd", None, None),
            (ReluLayer, "forward", "layers.relu", None, None),
            (ReluLayer, "backward", "layers.relu", None, None),
            (DropoutLayer, "forward", "layers.dropout", None, None),
            (DropoutLayer, "backward", "layers.dropout", None, None),
            (FlattenLayer, "forward", "layers.flatten", None, None),
            (FlattenLayer, "backward", "layers.flatten", None, None),
            (harness, "gaussian_noise", "layers.noise", None, None),
            (heads, "apply_head", "heads.apply", None, self._apply_head_margins),
            (heads, "head_scores", "heads.scores", None, None),
            (harness, "head_scores", "heads.scores", None, None),
            (Network, "forward", "network.forward", self._register_convs, None),
            (Network, "backprop", "network.backprop", self._register_convs, None),
            (harness, "build_mlp", "network.build", None, None),
            (harness, "build_convnet", "network.build", None, None),
            (harness, "build_from_arch", "network.build", None, None),
            (SgdMomentum, "step", "optim.step", self._optim_mb, None),
            (harness, "train", "harness.train", None, None),
            (harness, "prepare_data", "harness.prepare_data", None, None),
            (harness, "evaluate_objectives", "harness.evaluate", None, None),
            (harness, "write_metrics_csv", "harness.write_metrics", None, None),
            (harness, "save_model", "harness.save_model", None, None),
            (harness, "load_model", "harness.load_model", None, None),
            (harness.LoadedModel, "transform", "harness.transform", None, None),
            (harness, "cross_objective_eval", "harness.cross_eval", None, None),
            (harness, "ensemble_predict", "harness.ensemble", None, None),
            (harness, "save_tensors", "serialize.save", self._save_mb, None),
            (harness, "load_tensors", "serialize.load", None, self._load_mb),
            (cli, "parse_config", "config.parse", None, None),
            (cli, "main", "cli.main", None, None),
        ]
        return [
            (owner, attr, self.span(name, owner.__dict__[attr], before, after))
            for owner, attr, name, before, after in table
        ]

    # -- results ------------------------------------------------------------

    def summary(self, untraced_op_s, warmup_s):
        """Per-layer metrics, each as (value, unit), averaged per operation.

        Self times plus the root spans' self time (the unattributed
        remainder) add up to the operations' total time by construction.
        Raises ValueError if a span carries an undeclared name.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        root_s = 0.0
        for i, (_, name, start, end, parent) in enumerate(spans):
            self_s[name] += end - start - covered[i]
            calls[name] += 1
            if parent < 0:
                root_s += end - start
        declared = {name for name, _ in SPANS} | {ROOT}
        unknown = sorted(set(self_s) - declared)
        if unknown:
            raise ValueError(f"spans without a declared metric: {unknown}")
        n = self.ops

        out = {}
        for name, suffix in SPANS:
            out[f"{name}.{suffix}"] = (self_s[name] / n, "s")
            out[f"{name}.calls"] = (calls[name] / n, "count")
        sums = self.sums
        per_call = lambda key, span: sums[key] / max(calls[span], 1)  # noqa: E731
        terms = sums["margin_terms"]
        computed = {
            "data.load_idx.mb": per_call("data.load_idx.mb", "data.load_idx"),
            "layers.dense.gflops": sums["layers.dense.gflops"] / n,
            "layers.conv.gflops": sums["layers.conv.gflops"] / n,
            "layers.conv2.cache_mb": self.conv2_cache_mb,
            "heads.active_margin_frac": sums["margin_active"] / terms if terms else 0.0,
            "optim.step.mb": per_call("optim.step.mb", "optim.step"),
            "serialize.save.mb": per_call("serialize.save.mb", "serialize.save"),
            "serialize.load.mb": per_call("serialize.load.mb", "serialize.load"),
        }
        for name, unit in COMPUTED:
            out[name] = (computed[name], unit)
        traced_op_s = root_s / n
        out["trace.unattributed_s"] = (self_s[ROOT] / n, "s")
        out["trace.run_s"] = (traced_op_s, "s")
        out["trace.untraced_run_s"] = (untraced_op_s, "s")
        out["trace_overhead_pct"] = (100.0 * (traced_op_s / untraced_op_s - 1.0), "%")
        out["trace.spans_per_op"] = (len(spans) / n, "count")
        out["process.warmup_s"] = (warmup_s, "s")
        return out

    def dump(self, path):
        """Write every span as one JSON array per line:
        [op, index, parent, name, start_s, end_s], times from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (op, name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps([op, i, parent, name, start - origin, end - origin]))
                f.write("\n")
