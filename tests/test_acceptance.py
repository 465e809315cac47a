"""Acceptance suite: one test per shipped claim.

Every test records its own PASS/FAIL/SKIP line, and the terminal
summary (wired up in conftest.py) prints the lot as a checklist after
any ``pytest tests/test_acceptance.py`` run.  Criteria that need the
official MNIST files skip with download instructions when the files
are not on disk; nothing is fetched from the network here.

The recipes come from ``marginnet.recipes``, and so does MNIST
discovery: ``recipes.find_mnist`` looks in $MNIST_DIR, then
<repo>/data/mnist, and accepts both .gz and uncompressed IDX file names.
"""

import contextlib
import os
import time

import numpy as np
import numpy.testing as npt
import pytest

from marginnet import gradcheck as gc
from marginnet.config import parse_config_text
from marginnet.data import load_idx, make_blobs, write_idx
from marginnet.gradcheck import gradcheck_suite
from marginnet.harness import (
    cross_objective_eval,
    evaluate_objectives,
    load_model,
    train,
)
from marginnet.heads import HeadSpec, apply_head, softmax_probs
from marginnet.network import build_convnet
from marginnet.preprocess import to_float
from marginnet.recipes import (
    BLOBS,
    DESK,
    FULL,
    MNIST_HELP,
    find_mnist,
    mnist_data,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MNIST = find_mnist(os.path.join(REPO_ROOT, "data", "mnist"))


CHECKLIST = []  # printed by conftest's terminal-summary hook


def _report(line):
    CHECKLIST.append(line)


@contextlib.contextmanager
def criterion(tag):
    try:
        yield
    except pytest.skip.Exception as e:
        _report(f"{tag}: SKIP ({str(e).split(';')[0]})")
        raise
    except BaseException:
        _report(f"{tag}: FAIL")
        raise
    _report(f"{tag}: PASS")


# ---------------------------------------------------------------------------
# criteria that always run


def test_criterion_01_gradient_correctness():
    with criterion("criterion 1, gradient correctness"):
        started = time.monotonic()
        results = gradcheck_suite()
        elapsed = time.monotonic() - started
        assert len(results) == 30
        worst = max(r.max_rel_error for r in results)
        assert worst < 1e-6, [r.summary() for r in results if not r.passed]
        assert elapsed < 60.0


def test_criterion_02_l2_hinge_smoothness():
    # data term through one score: class 0's column is w = [1, bias 0]
    # with label 0 (t = +1) and h = [m]; class 1's column is only a
    # bias of -5, a margin of 5 that never contributes.
    # C = 0.01 keeps finite-difference noise at the margin (C*eps/2)
    # below 1e-6 and the smooth gradient steps (2*C*spacing) below 1e-4,
    # while the L1 kink jump (= C) stays detectably above 1e-4.
    with criterion("criterion 2, L2 hinge smoothness"):
        c = 0.01
        w = np.array([[1.0, 0.0], [0.0, -5.0]])
        labels = np.array([0])

        def fd_at(margin, kind):
            spec = HeadSpec(kind, 2, c=c)
            h = np.array([[margin]])
            return float(gc.fd_gradient(
                lambda: apply_head(spec, w, h, labels).loss, h
            )[0, 0])

        at_kink = fd_at(1.0, "l2svm")
        assert abs(at_kink) < 1e-6

        margins = np.arange(0.9, 1.1 + 1e-9, 1e-3)
        l2_grads = np.array([fd_at(m, "l2svm") for m in margins])
        l2_jumps = np.abs(np.diff(l2_grads))
        assert l2_jumps.max() < 1e-4

        l1_grads = np.array([fd_at(m, "l1svm") for m in margins])
        l1_jumps = np.abs(np.diff(l1_grads))
        assert l1_jumps.max() > 1e-4  # the L1 kink the sweep must resolve


def test_criterion_03_prediction_equivalence():
    # every head scores the same weights identically, and the argmax of
    # those scores is the argmax of their softmax probabilities
    with criterion("criterion 3, prediction equivalence"):
        rng = np.random.default_rng(0)
        specs = [HeadSpec(kind, 5, c=0.1, weight_decay=0.001)
                 for kind in ("softmax", "l1svm", "l2svm")]
        mismatches = 0
        for _ in range(1000):
            h = rng.normal(size=(16, 4))
            w = rng.normal(size=(5, 5))
            labels = rng.integers(0, 5, size=16)
            outs = [apply_head(spec, w, h, labels) for spec in specs]
            scores = outs[0].scores
            for out in outs[1:]:
                assert out.scores.tobytes() == scores.tobytes()
            a = np.argmax(softmax_probs(scores), axis=1)
            b = np.argmax(scores, axis=1)
            mismatches += int(np.sum(a != b))
        assert mismatches == 0


def test_criterion_04_separable_oracle_training(tmp_path):
    with criterion("criterion 4, separable-oracle training"):
        started = time.monotonic()
        failures = []
        for head in ("softmax", "l2svm"):
            for k in (2, 4):
                for seed in range(5):
                    cfg = parse_config_text(
                        BLOBS
                        + f"head = {head}\nblobs_classes = {k}\n"
                        f"seed = {seed}\n"
                        f"out_dir = {tmp_path}/{head}_{k}_{seed}\n"
                    )
                    res = train(cfg)
                    ts = res.prepared.train
                    err = evaluate_objectives(
                        res.network, ts.inputs, ts.labels,
                        res.prepared.network_inputs,
                    ).error_pct
                    if err != 0.0:
                        failures.append((head, k, seed, err))
        assert failures == [], failures
        assert time.monotonic() - started < 120.0


def test_criterion_10a_synthetic_idx_round_trip(tmp_path):
    with criterion("criterion 10a, synthetic IDX round-trip"):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(5, 2, 2), dtype=np.uint8)
        labels = np.array([0, 3, 9, 1, 7], dtype=np.uint8)
        ip, lp = str(tmp_path / "i"), str(tmp_path / "l")
        write_idx(ip, lp, images, labels)
        ds = load_idx(ip, lp)
        expected = images.reshape(5, 4).astype(np.float64) / 255.0
        assert ds.inputs.dtype == np.uint8
        npt.assert_array_equal(ds.inputs, images.reshape(5, 4))
        npt.assert_array_equal(to_float(ds.inputs).view(np.uint64),
                               expected.view(np.uint64))
        npt.assert_array_equal(ds.labels, labels)


def test_topology_smoke_conv_stack():
    # the published conv recipe's shape contract: 32 then 64 5x5 filters,
    # two 2x pools, 3072 penultimate units, dropout 0.2; one forward pass
    # of a 32x32x3 batch must reach K finite scores under every head
    with criterion("topology smoke, conv stack"):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(8, 3, 32, 32))
        labels = rng.integers(0, 10, size=8)
        for kind in ("softmax", "l1svm", "l2svm"):
            spec = HeadSpec(kind, 10, c=0.01, weight_decay=0.001)
            net = build_convnet(
                (3, 32, 32), [32, 64], 5, 3072, 0.2, spec,
                rng=np.random.default_rng(0), init_std=0.01,
            )
            filters = [t.shape for name, t in net.named_tensors().items()
                       if name.endswith(".filters")]
            assert [f[0] for f in filters] == [32, 64]
            assert all(f[2:] == (5, 5) for f in filters)
            assert net.head_weights.shape == (3073, 10)
            scores = net.scores(x)
            assert scores.shape == (8, 10)
            assert np.all(np.isfinite(scores))
            out = net.head_output(x, labels)
            assert np.isfinite(out.loss)


# ---------------------------------------------------------------------------
# desk-scale MNIST criteria (data-gated)

DESK_SEEDS = (0, 1, 2, 3, 4)


def desk_config_text(head, seed, out_dir, recipe=DESK):
    return (mnist_data(*MNIST) + recipe
            + f"head = {head}\nseed = {seed}\nout_dir = {out_dir}\n")


class DeskRuns:
    """Lazily trains the ten shared desk-scale runs on first access.

    The skip (when MNIST is absent) must fire inside each test's
    ``criterion`` block so the checklist still prints a line for it,
    which rules out skipping at fixture-setup time.
    """

    def __init__(self, tmp_path_factory):
        self._tmp = tmp_path_factory
        self._runs = None

    def get(self):
        if MNIST is None:
            pytest.skip(MNIST_HELP)
        if self._runs is None:
            tmp = self._tmp.mktemp("desk")
            self._runs = {
                (head, seed): train(parse_config_text(
                    desk_config_text(head, seed, f"{tmp}/{head}_{seed}")
                ))
                for head in ("softmax", "l2svm")
                for seed in DESK_SEEDS
            }
        return self._runs


@pytest.fixture(scope="session")
def desk_runs(tmp_path_factory):
    return DeskRuns(tmp_path_factory)


def raw_mnist_test():
    if MNIST is None:
        pytest.skip(MNIST_HELP)
    root, names = MNIST
    return load_idx(
        os.path.join(root, names["test_images"]),
        os.path.join(root, names["test_labels"]),
        split="test",
    )


def test_criterion_05_desk_scale_gap(desk_runs):
    with criterion("criterion 5, desk-scale error gap"):
        runs = desk_runs.get()
        errors = {
            head: [runs[head, s].metrics[-1]["test_error_pct"]
                   for s in DESK_SEEDS]
            for head in ("softmax", "l2svm")
        }
        for head, errs in errors.items():
            assert max(errs) <= 5.0, (head, errs)
        mean_soft = float(np.mean(errors["softmax"]))
        mean_l2 = float(np.mean(errors["l2svm"]))
        _report(f"    softmax mean {mean_soft:.3f}%  "
                f"l2svm mean {mean_l2:.3f}%")
        assert mean_l2 <= mean_soft


def test_criterion_06_full_recipe(tmp_path):
    with criterion("criterion 6, full-recipe reproduction"):
        if os.environ.get("RUN_EXTENDED") != "1":
            pytest.skip("extended full-recipe run; set RUN_EXTENDED=1 "
                        "(hours of CPU)")
        if MNIST is None:
            pytest.skip(MNIST_HELP)
        finals = {}
        for head in ("softmax", "l2svm"):
            cfg = parse_config_text(desk_config_text(
                head, 0, f"{tmp_path}/{head}_full", recipe=FULL
            ))
            finals[head] = train(cfg).metrics[-1]["test_error_pct"]
        _report(f"    softmax {finals['softmax']:.2f}%  "
                f"l2svm {finals['l2svm']:.2f}%")
        # non-blocking targets: 0.99% and 0.87% within +/- 0.20 absolute
        assert abs(finals["softmax"] - 0.99) <= 0.20
        assert abs(finals["l2svm"] - 0.87) <= 0.20


def test_criterion_07_cross_objective_pattern(desk_runs):
    with criterion("criterion 7, cross-objective pattern"):
        runs = desk_runs.get()
        raw_test = raw_mnist_test()
        hits = 0
        for seed in DESK_SEEDS:
            soft = load_model(runs["softmax", seed].model_dir)
            svm = load_model(runs["l2svm", seed].model_dir)
            # both models carry the recipe's constants, so the
            # comparison is about the models alone
            rep_soft = cross_objective_eval(soft, raw_test)
            rep_svm = cross_objective_eval(svm, raw_test)
            if (rep_soft.avg_xent < rep_svm.avg_xent
                    and rep_svm.hinge_sq_sum < rep_soft.hinge_sq_sum):
                hits += 1
        _report(f"    inversion held in {hits}/5 seed pairs")
        assert hits >= 4


def test_criterion_08_warm_start_drift(desk_runs, tmp_path):
    with criterion("criterion 8, warm-start drift"):
        runs = desk_runs.get()
        best = min(
            (runs["l2svm", s] for s in DESK_SEEDS),
            key=lambda r: r.metrics[-1]["test_error_pct"],
        )
        drifted = 0
        for seed in (10, 11, 12, 13, 14):
            cfg = parse_config_text(
                desk_config_text("softmax", seed, f"{tmp_path}/warm_{seed}")
                + f"source_model = {best.model_dir}\n"
            )
            res = train(cfg)
            start_err = res.metrics[0]["test_error_pct"]
            end_err = res.metrics[-1]["test_error_pct"]
            if end_err >= start_err:
                drifted += 1
        _report(f"    error did not improve in {drifted}/5 warm starts")
        assert drifted >= 3


def test_criterion_09_desk_determinism(desk_runs, tmp_path):
    with criterion("criterion 9, desk-scale determinism"):
        first = desk_runs.get()["l2svm", 0]
        cfg = parse_config_text(desk_config_text("l2svm", 0, f"{tmp_path}/re"))
        second = train(cfg)
        with open(first.csv_path, "rb") as f:
            a = f.read()
        with open(second.csv_path, "rb") as f:
            b = f.read()
        assert a == b


def test_criterion_10b_official_mnist_shapes():
    with criterion("criterion 10b, official MNIST loads"):
        if MNIST is None:
            pytest.skip(MNIST_HELP)
        root, names = MNIST
        train_set = load_idx(
            os.path.join(root, names["train_images"]),
            os.path.join(root, names["train_labels"]),
        )
        test_set = load_idx(
            os.path.join(root, names["test_images"]),
            os.path.join(root, names["test_labels"]),
            split="test",
        )
        assert train_set.inputs.shape == (60000, 784)
        assert test_set.inputs.shape == (10000, 784)
        npt.assert_array_equal(np.unique(train_set.labels), np.arange(10))
        npt.assert_array_equal(np.unique(test_set.labels), np.arange(10))
