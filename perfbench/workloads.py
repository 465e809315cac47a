"""The benchmark workloads.

Each is a closed loop: one client runs one operation after another, with
no arrival rate.  A workload provides

    setup(work_dir, seed)        -> state; repeated for the setup_s median
    operation(state, clock)      -> Outcome; the timed, user-visible work
    check(state, outcome)        -> list of problems; untimed

and names the ``PhaseClock`` points its untraced runs hook.  Every input
comes from the seed; the library sees only the generated files.
"""

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from marginnet import cli, harness
from marginnet.data import load_idx

import synth

# The reference model must beat this test error; chance is 90%.
ERROR_CEILING_PCT = 50.0


@dataclass
class Outcome:
    """What one operation produced.  ``files`` are fingerprinted
    (sha256) after the timed region."""

    files: dict = field(default_factory=dict)       # label -> path
    problems: list = field(default_factory=list)
    test_error_pct: float | None = None
    compare: tuple = ()                             # kept for check()


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_cli(argv):
    """Call the CLI entry point in this process; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_config(path, lines):
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


class TrainWorkload:
    """CLI ``train`` once per config; the shared body of mlp-desk and conv-mnist."""

    clock_points = ("steps", "evaluate")
    reference_head = "l2svm"

    def __init__(self, size):
        self.size = size
        self.p = self.SIZES[size]

    def model_lines(self):
        raise NotImplementedError

    def setup(self, work_dir, seed):
        p = self.p
        (train_x, train_y), (test_x, test_y) = synth.make_images(
            seed, (p["train"], p["test"])
        )
        train = synth.write_idx_gz(work_dir, "train", train_x, train_y)
        test = synth.write_idx_gz(work_dir, "test", test_x, test_y)
        configs = {}
        for head in self.heads:
            lines = synth.idx_config_lines(work_dir, train, test) + self.model_lines() + [
                f"head = {head}",
                f"batch_size = {p['batch']}",
                f"epochs = {p['epochs']}",
                "lr_start = 0.01",
                f"seed = {seed}",
                f"out_dir = {os.path.join(work_dir, 'run-' + head)}",
            ]
            configs[head] = write_config(os.path.join(work_dir, f"{head}.cfg"), lines)
        return configs

    def operation(self, configs, clock):
        outcome = Outcome()
        for head, path in configs.items():
            code, _, err = run_cli(["train", "--config", path])
            if code != 0:
                outcome.problems.append(f"train {head} exited {code}: {err.strip()}")
                continue
            run_dir = os.path.join(os.path.dirname(path), "run-" + head)
            outcome.files[f"{head}/metrics.csv"] = os.path.join(run_dir, harness.METRICS_NAME)
            outcome.files[f"{head}/params.bin"] = os.path.join(
                run_dir, harness.MODEL_DIRNAME, "params.bin"
            )
        return outcome

    def check(self, configs, outcome):
        problems = []
        for head in configs:
            csv = outcome.files.get(f"{head}/metrics.csv")
            if csv is None:
                continue
            rows = harness.read_metrics_csv(csv)
            if not all(math.isfinite(v) for row in rows for v in row.values()):
                problems.append(f"{head}: non-finite value in metrics.csv")
            if head == self.reference_head:
                outcome.test_error_pct = rows[-1]["test_error_pct"]
        return problems


class MlpDesk(TrainWorkload):
    name = "mlp-desk"
    why = ("softmax vs L2-SVM MLP via CLI train on gzipped IDX: load, PCA fit, dense "
           "GEMMs and per-epoch evaluation; no conv, pool or augment")
    heads = ("softmax", "l2svm")
    setup_reps = 3
    SIZES = {
        "full": dict(train=10000, test=10000, pca=70, hidden="256, 256", batch=200, epochs=3),
        "smoke": dict(train=400, test=200, pca=20, hidden="16, 16", batch=100, epochs=1),
    }

    def model_lines(self):
        return [
            f"pca_dims = {self.p['pca']}",
            f"hidden_dims = {self.p['hidden']}",
            "init_std = 0.1",
            "noise_start = 0.3",
            "noise_end = 0",
        ]

    def check(self, configs, outcome):
        problems = super().check(configs, outcome)
        err = outcome.test_error_pct
        if self.size == "full" and err is not None and not err < ERROR_CEILING_PCT:
            problems.append(f"l2svm test error {err}% is not below {ERROR_CEILING_PCT}%")
        return problems


class ConvMnist(TrainWorkload):
    name = "conv-mnist"
    why = ("MNIST-shaped convnet (conv 32/64 k5, dense 3072) under L2-SVM at batch 200 "
           "with augment: conv2 dominates each step; saves a 78 MB params.bin")
    heads = ("l2svm",)
    setup_reps = 15
    SIZES = {
        "full": dict(train=200, test=100, channels="32, 64", dense=3072, batch=200, epochs=1),
        "smoke": dict(train=20, test=10, channels="4, 8", dense=32, batch=10, epochs=1),
    }

    def model_lines(self):
        return [
            "arch = conv",
            f"conv_channels = {self.p['channels']}",
            "conv_kernel = 5",
            f"conv_dense = {self.p['dense']}",
            "conv_dropout = 0.2",
            "augment = true",
            "max_jitter = 2",
            "mirror = true",
        ]


@dataclass
class Ensemble:
    model_dirs: list
    test: object
    files: dict


class InferEnsemble:
    """Forward-only use of saved margin models on raw inputs."""

    name = "infer-ensemble"
    why = ("load three saved margin models, cross_objective_eval and ensemble_predict on "
           "raw rows, save/load round-trips: forward-only, standardize and PCA transforms")
    clock_points = ()
    setup_reps = 3
    MODELS = (("l2svm", 0), ("l1svm", 10), ("l2svm", 20))   # head, extra PCA dims
    SIZES = {
        "full": dict(train=2000, test=10000, pca=50, hidden="256, 256", batch=200),
        "smoke": dict(train=300, test=200, pca=10, hidden="16, 16", batch=100),
    }

    def __init__(self, size):
        self.size = size
        self.p = self.SIZES[size]

    def setup(self, work_dir, seed):
        p = self.p
        (train_x, train_y), (test_x, test_y) = synth.make_images(
            seed, (p["train"], p["test"])
        )
        train = synth.write_idx_gz(work_dir, "train", train_x, train_y)
        test = synth.write_idx_gz(work_dir, "test", test_x, test_y)
        model_dirs, files = [], {}
        for i, (head, extra_dims) in enumerate(self.MODELS):
            out_dir = os.path.join(work_dir, f"member{i}")
            cfg = write_config(
                os.path.join(work_dir, f"member{i}.cfg"),
                synth.idx_config_lines(work_dir, train, test) + [
                    "standardize = true",
                    f"pca_dims = {p['pca'] + extra_dims}",
                    f"hidden_dims = {p['hidden']}",
                    "init_std = 0.1",
                    f"head = {head}",
                    f"batch_size = {p['batch']}",
                    "epochs = 3",
                    # Standardized PCA inputs have large variance; 0.01 diverges.
                    "lr_start = 0.001",
                    f"seed = {seed + i}",
                    f"out_dir = {out_dir}",
                ],
            )
            code, _, err = run_cli(["train", "--config", cfg])
            if code != 0:
                raise RuntimeError(f"training ensemble member {i} failed: {err.strip()}")
            model_dirs.append(os.path.join(out_dir, harness.MODEL_DIRNAME))
            files[f"member{i}/metrics.csv"] = os.path.join(out_dir, harness.METRICS_NAME)
            files[f"member{i}/params.bin"] = os.path.join(model_dirs[-1], "params.bin")
        test_set = load_idx(
            os.path.join(work_dir, test[0]), os.path.join(work_dir, test[1]), split="test"
        )
        return Ensemble(model_dirs, test_set, files)

    def operation(self, state, clock):
        test = state.test
        n = test.n
        models = [harness.load_model(d) for d in state.model_dirs]
        for m in models:
            start = perf_counter()
            harness.cross_objective_eval(m, test)
            clock.add("eval", n, perf_counter() - start)
        start = perf_counter()
        pred = harness.ensemble_predict(models, test.inputs)
        clock.add("ensemble", n, perf_counter() - start)

        outcome = Outcome(files=dict(state.files))
        copies = []
        for i, m in enumerate(models):
            copy_dir = os.path.join(os.path.dirname(state.model_dirs[i]), "roundtrip")
            harness.save_model(
                copy_dir, m.network,
                harness.PreparedData(None, None, m.pca, m.standardizer),
                config_echo=m.meta.get("config"),
            )
            copies.append(harness.load_model(copy_dir))
            outcome.files[f"member{i}/roundtrip/params.bin"] = os.path.join(
                copy_dir, "params.bin"
            )
        start = perf_counter()
        pred_copies = harness.ensemble_predict(copies, test.inputs)
        clock.add("ensemble", n, perf_counter() - start)

        outcome.compare = ([_model_arrays(m) for m in models],
                           [_model_arrays(c) for c in copies], pred, pred_copies)
        outcome.test_error_pct = 100.0 * float(np.mean(pred != test.labels))
        return outcome

    def check(self, state, outcome):
        problems = []
        models, copies, pred, pred_copies = outcome.compare
        for i, (m, c) in enumerate(zip(models, copies)):
            for label, a in m.items():
                b = c[label]
                if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                    problems.append(f"member{i}: {label} changed in a save/load round-trip")
            saved = outcome.files[f"member{i}/params.bin"]
            copied = outcome.files[f"member{i}/roundtrip/params.bin"]
            if sha256(saved) != sha256(copied):
                problems.append(f"member{i}: re-saved params.bin differs from the original")
        if not np.array_equal(pred, pred_copies):
            problems.append("round-tripped ensemble predicts differently")
        if self.size == "full" and not outcome.test_error_pct < ERROR_CEILING_PCT:
            problems.append(
                f"ensemble test error {outcome.test_error_pct}% is not below "
                f"{ERROR_CEILING_PCT}%"
            )
        return problems


def _model_arrays(model):
    """Every array a saved model carries, by name."""
    arrays = dict(model.network.named_tensors())
    for attr in ("mean", "components", "explained_variances"):
        arrays[f"pca.{attr}"] = getattr(model.pca, attr)
    for attr in ("mean", "std"):
        arrays[f"standardizer.{attr}"] = getattr(model.standardizer, attr)
    return arrays


WORKLOADS = {w.name: w for w in (MlpDesk, ConvMnist, InferEnsemble)}
