import copy
import json
import math
import os
import re
import shutil
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from marginnet import harness as harness_mod
from marginnet import preprocess as preprocess_mod
from marginnet.config import ConfigError, head_spec_from_config, parse_config_text
from marginnet.data import make_blobs, num_batches, write_idx
from marginnet.harness import (
    CSV_COLUMNS,
    LoadedModel,
    TrainingDivergedError,
    TrainState,
    build_network,
    cross_objective_eval,
    ensemble_predict,
    ensemble_vote,
    evaluate_objectives,
    load_model,
    load_split,
    load_splits,
    member_scores,
    prepare_data,
    read_metrics_csv,
    run_epochs,
    save_model,
    seed_streams,
    train,
    write_metrics_csv,
)
from marginnet.heads import HEAD_KINDS, HeadSpec
from marginnet.network import Network, build_convnet, build_mlp
from marginnet.preprocess import STD_FLOOR
from marginnet.optim import SgdMomentum
from marginnet.serialize import read_manifest
from marginnet.tensor import DomainError, ShapeError

BLOBS_BASE = """
dataset = blobs
blobs_train_n = 80
blobs_test_n = 40
blobs_classes = 3
blobs_dim = 2
blobs_separation = 20.0
standardize = true
hidden_dims = 16
epochs = 40
batch_size = 20
lr_start = 0.02
lr_end = 0.0
momentum = 0.9
seed = 3
"""


def blobs_config(tmp_path, name, **overrides):
    text = BLOBS_BASE + f"out_dir = {tmp_path}/{name}\n"
    for key, value in overrides.items():
        text += f"{key} = {value}\n"
    return parse_config_text(text)


@pytest.fixture(scope="module")
def l2svm_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("l2svm_run")
    cfg = blobs_config(tmp, "run", head="l2svm", svm_c=0.1)
    return train(cfg)


class TestTrainLoop:
    def test_blobs_reach_zero_train_error(self, l2svm_run):
        train_set = l2svm_run.prepared.train
        rep = evaluate_objectives(
            l2svm_run.network, train_set.inputs, train_set.labels
        )
        assert rep.error_pct == 0.0

    def test_metrics_have_initial_row_plus_one_per_epoch(self, l2svm_run):
        assert len(l2svm_run.metrics) == 41
        assert l2svm_run.metrics[0]["epoch"] == 0
        assert l2svm_run.metrics[0]["updates"] == 0
        assert l2svm_run.metrics[-1]["epoch"] == 40

    def test_zero_epochs_emit_only_the_initial_row(self, tmp_path):
        cfg = blobs_config(tmp_path, "zero", epochs=0)
        res = train(cfg)
        assert len(res.metrics) == 1
        assert res.metrics[0]["epoch"] == 0
        assert res.updates == 0

    def test_own_objective_eval_reproduces_training_log_exactly(
        self, l2svm_run, tmp_path
    ):
        # cross_objective_eval takes raw inputs (the saved model owns its
        # preprocessing), so reload the run's splits without it
        model = load_model(l2svm_run.model_dir)
        cfg = blobs_config(tmp_path, "raw", head="l2svm", svm_c=0.1)
        raw_train = load_split(cfg, "train")
        rep = cross_objective_eval(model, raw_train)
        logged = l2svm_run.metrics[-1]["train_loss"]
        assert rep.own_loss("l2svm") == logged  # same code path, bitwise

    def test_saved_transform_of_raw_splits_is_the_prepared_data(self, tmp_path):
        # standardize, PCA and the image reshape, fitted in training and
        # replayed by the saved model on the raw rows, give the same bytes
        cfg = blobs_config(
            tmp_path, "conv", blobs_dim=64, epochs=0, pca_dims=16, arch="conv",
            conv_channels="2, 2", conv_kernel=3, conv_dense=8,
        )
        res = train(cfg)
        model = load_model(res.model_dir)
        raw = load_split(cfg, "train"), load_split(cfg, "test")
        for split, prepared in zip(raw, (res.prepared.train, res.prepared.test)):
            assert split.inputs.shape[1:] == (64,)
            assert prepared.inputs.shape[1:] == (1, 4, 4)
            assert model.transform(split.inputs).tobytes() == prepared.inputs.tobytes()
            npt.assert_array_equal(split.labels, prepared.labels)

    @pytest.mark.parametrize("standardize, pca_dims",
                             [(True, 0), (False, 6), (True, 6)])
    def test_fused_transform_of_raw_rows_is_the_prepared_data(
            self, tmp_path, standardize, pca_dims):
        # training and the saved model take each split's raw rows through
        # the same transform, standardize and project fused in one pass
        cfg = blobs_config(tmp_path, "fused", blobs_dim=40, epochs=0,
                           standardize=str(standardize).lower(), pca_dims=pca_dims)
        res = train(cfg)
        model = load_model(res.model_dir)
        raw = load_split(cfg, "train"), load_split(cfg, "test")
        for split, prepared in zip(raw, (res.prepared.train, res.prepared.test)):
            assert prepared.inputs.shape[1:] == (pca_dims or 40,)
            assert model.transform(split.inputs).tobytes() == prepared.inputs.tobytes()

    def test_random_init_cross_entropy_near_log_k(self, tmp_path):
        cfg = blobs_config(tmp_path, "lnk", epochs=0, blobs_classes=4)
        res = train(cfg)
        assert res.metrics[0]["avg_xent"] == pytest.approx(
            math.log(4), abs=0.05
        )

    def test_loss_curve_decreases_with_small_transients(self, tmp_path):
        # own-objective training loss under the decaying schedule: never
        # up more than 5% between consecutive epochs, final below initial
        cfg = blobs_config(
            tmp_path, "curve", head="softmax", lr_start=0.1, epochs=30,
        )
        res = train(cfg)
        losses = [row["train_loss"] for row in res.metrics]
        for prev, cur in zip(losses, losses[1:]):
            assert cur <= prev * 1.05
        assert losses[-1] < losses[0]

    def test_noise_and_lr_columns_follow_schedules(self, tmp_path):
        cfg = blobs_config(
            tmp_path, "sched", noise_start=0.5, noise_end=0.0, epochs=4,
        )
        res = train(cfg)
        lrs = [row["lr"] for row in res.metrics]
        noises = [row["noise_std"] for row in res.metrics]
        assert lrs[0] == pytest.approx(0.02)
        assert lrs[-1] == pytest.approx(0.0)
        assert noises[0] == pytest.approx(0.5)
        assert noises[-1] == pytest.approx(0.0)
        assert all(a >= b for a, b in zip(noises, noises[1:]))

    def test_divergence_aborts_with_location(self, tmp_path):
        cfg = blobs_config(
            tmp_path, "boom", head="l2svm", svm_c=10.0, lr_start=1e6,
            standardize="false", epochs=5,
        )
        with pytest.raises(TrainingDivergedError) as exc:
            train(cfg)
        msg = str(exc.value)
        assert "epoch" in msg
        assert "minibatch" in msg
        assert "update" in msg

    def test_same_config_is_bit_deterministic(self, tmp_path):
        cfg_a = blobs_config(tmp_path, "det_a", epochs=3)
        cfg_b = blobs_config(tmp_path, "det_b", epochs=3)
        res_a, res_b = train(cfg_a), train(cfg_b)
        npt.assert_array_equal(
            res_a.network.head_weights, res_b.network.head_weights
        )
        assert res_a.metrics == res_b.metrics

    def test_conv_run_is_bit_deterministic(self, tmp_path):
        # tiny 8x8 IDX images through the conv stack with augmentation:
        # im2col, GEMMs, col2im, pooling and the augment draws must all
        # replay exactly
        rng = np.random.default_rng(0)
        for split, n in (("train", 24), ("test", 12)):
            write_idx(
                str(tmp_path / f"{split}-images"), str(tmp_path / f"{split}-labels"),
                rng.integers(0, 256, size=(n, 8, 8)), rng.integers(0, 3, size=n),
            )
        text = f"""
dataset = idx
data_dir = {tmp_path}
train_images = train-images
train_labels = train-labels
test_images = test-images
test_labels = test-labels
arch = conv
conv_channels = 2, 4
conv_kernel = 3
conv_dense = 8
init_std = 0.1
augment = true
max_jitter = 1
head = l2svm
svm_c = 0.01
epochs = 2
batch_size = 8
lr_start = 0.01
seed = 5
"""
        runs = [
            train(parse_config_text(text + f"out_dir = {tmp_path}/{name}\n"))
            for name in ("conv_a", "conv_b")
        ]
        assert runs[0].metrics == runs[1].metrics
        assert runs[0].updates == runs[1].updates == 6
        blobs = []
        for run in runs:
            with open(os.path.join(run.model_dir, "params.bin"), "rb") as f:
                blobs.append(f.read())
        assert blobs[0] == blobs[1]

    def test_lower_weight_decay_enters_train_loss(self, tmp_path):
        plain = train(blobs_config(tmp_path, "wd0", epochs=0))
        decayed = train(
            blobs_config(tmp_path, "wd1", epochs=0, lower_weight_decay=0.5)
        )
        # identical network (same seed), so the gap is exactly the stack
        # penalty, which is positive at random init
        assert decayed.metrics[0]["train_loss"] > plain.metrics[0]["train_loss"]


class TestPairedHeads:
    # the paired comparison rests on every head starting from the same
    # network: the initial draws must not depend on the head, even when
    # the run also draws input noise or augmentation
    @pytest.mark.parametrize("extra", [
        {"noise_start": 0.5},
        {"arch": "conv", "blobs_dim": 64, "conv_channels": "2, 2",
         "conv_kernel": 3, "conv_dense": 8, "augment": "true",
         "max_jitter": 1},
    ], ids=["mlp-noise", "conv-augment"])
    def test_heads_share_their_initial_draws(self, tmp_path, extra):
        runs = [train(blobs_config(tmp_path, head, head=head, epochs=0,
                                   **extra))
                for head in ("softmax", "l1svm", "l2svm")]
        scores = {run.network.scores(run.prepared.test.inputs).tobytes()
                  for run in runs}
        assert len(scores) == 1
        columns = ("test_error_pct", "avg_xent", "hinge_sq_sum",
                   "hinge_sq_mean")
        rows = [[run.metrics[0][c] for c in columns] for run in runs]
        assert rows[0] == rows[1] == rows[2]


class TestArtifacts:
    def test_metrics_csv_round_trip(self, l2svm_run, tmp_path):
        rows = read_metrics_csv(l2svm_run.csv_path)
        assert len(rows) == len(l2svm_run.metrics)
        for got, want in zip(rows, l2svm_run.metrics):
            assert got["epoch"] == want["epoch"]
            assert got["updates"] == want["updates"]
            assert type(got["epoch"]) is int and type(got["updates"]) is int
            for col in CSV_COLUMNS[2:]:
                assert got[col] == pytest.approx(want[col], rel=1e-8)
        # rewriting what was read reproduces the file byte for byte
        second = str(tmp_path / "again.csv")
        write_metrics_csv(second, rows)
        with open(l2svm_run.csv_path, "rb") as f:
            original = f.read()
        with open(second, "rb") as f:
            rewritten = f.read()
        assert original == rewritten

    def test_runmeta_echoes_config_with_sources(self, l2svm_run):
        with open(os.path.join(l2svm_run.out_dir, "runmeta.json")) as f:
            meta = json.load(f)
        echo = meta["config"]
        assert echo["head"] == {
            "value": "l2svm", "source": "config", "default_origin": "artifact",
        }
        assert echo["momentum"]["source"] == "config"
        assert meta["head"]["kind"] == "l2svm"
        assert set(meta) == {"config", "head", "arch", "warm_start",
                             "updates", "final"}
        assert meta["warm_start"] is None

    def test_model_manifest_names_head_and_config(self, l2svm_run):
        with open(os.path.join(l2svm_run.model_dir, "manifest.json")) as f:
            manifest = json.load(f)
        names = [t["name"] for t in manifest["tensors"]]
        assert "head.weights" in names
        assert manifest["meta"]["head"]["kind"] == "l2svm"
        assert manifest["meta"]["config"]["svm_c"]["value"] == 0.1

    def test_saved_model_reproduces_predictions(self, l2svm_run):
        model = load_model(l2svm_run.model_dir)
        raw = np.random.default_rng(0).normal(
            size=(12, 2)
        ) * 30  # raw-space inputs, standardizer applied by transform
        direct = l2svm_run.network.predict(
            model.transform(raw)
        )
        npt.assert_array_equal(model.network.predict(model.transform(raw)),
                               direct)
        npt.assert_array_equal(
            model.network.head_weights, l2svm_run.network.head_weights
        )

    def test_loaded_arch_is_the_saved_arch(self, l2svm_run, tmp_path):
        # init_std included, so a loaded network re-saves the same arch.
        conv_dir = str(tmp_path / "conv")
        conv = build_convnet((1, 8, 8), [2], 3, 5, 0.2, HeadSpec("l2svm", 3),
                             rng=np.random.default_rng(0), init_std=0.3)
        save_model(conv_dir, conv)
        for model_dir, init_std in ((l2svm_run.model_dir, 0.01), (conv_dir, 0.3)):
            model = load_model(model_dir)
            assert model.meta["arch"]["init_std"] == init_std
            assert model.network.arch == model.meta["arch"]
            resaved = str(tmp_path / "resaved")
            save_model(resaved, model.network)
            assert read_manifest(resaved)["meta"]["arch"] == model.meta["arch"]

    @pytest.mark.parametrize("edit, error", [
        ("name", "missing tensor 'layer0.weights'"),
        ("shape", "'layer0.weights': stored shape (16, 2) vs model shape (2, 16)"),
    ])
    def test_shape_mismatch_names_tensor(self, l2svm_run, tmp_path, edit, error):
        model_dir = str(tmp_path / "model")
        shutil.copytree(l2svm_run.model_dir, model_dir)
        path = os.path.join(model_dir, "manifest.json")
        with open(path) as f:
            manifest = json.load(f)
        entry = manifest["tensors"][0]
        assert (entry["name"], entry["shape"]) == ("layer0.weights", [2, 16])
        if edit == "name":
            entry["name"] = "layer0.w"
        else:
            entry["shape"] = [16, 2]
        with open(path, "w") as f:
            json.dump(manifest, f)
        with pytest.raises(ShapeError, match=re.escape(error)):
            load_model(model_dir)


def fresh_state(cfg):
    """The state ``train`` builds for ``cfg`` before its first epoch."""
    _, init_rng, train_rng = seed_streams(cfg.seed)
    prepared = prepare_data(cfg)
    net = build_network(cfg, prepared.shape, head_spec_from_config(cfg),
                        init_rng)
    return TrainState(net, SgdMomentum([net.param], cfg.momentum), train_rng,
                      prepared, [], 0, 0, cfg.out_dir, "", "")


class TestRunEpochs:
    def test_epoch_0_row_first_then_one_row_per_epoch(self, tmp_path):
        cfg = blobs_config(tmp_path, "rows", epochs=3)
        state = fresh_state(cfg)
        rows = list(run_epochs(cfg, state))
        assert [row["epoch"] for row in rows] == [0, 1, 2, 3]
        assert rows == state.metrics == train(cfg).metrics

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_a_consumer_that_stops_after_row_k_leaves_epoch_k(self, tmp_path, k):
        cfg = blobs_config(tmp_path, "stop", epochs=3)
        state = fresh_state(cfg)
        for row in run_epochs(cfg, state):
            if row["epoch"] == k:
                break
        per_epoch = num_batches(cfg.blobs_train_n, cfg.batch_size)
        assert (state.epoch, state.updates) == (k, k * per_epoch)
        assert len(state.metrics) == k + 1
        # The stopped state carries everything the rest of the run needs:
        # resuming it yields the remaining rows of the uninterrupted run.
        assert [row["epoch"] for row in run_epochs(cfg, state)] == list(
            range(k + 1, 4))
        assert state.metrics == train(cfg).metrics


def test_no_gradient_outlives_its_step(tmp_path, monkeypatch):
    # Every gradient buffer a step consumed is gone by the epoch's
    # evaluation, and with it the views that dense, conv and head
    # gradients were.
    text = """
blobs_classes = 3
blobs_dim = 64
blobs_train_n = 30
blobs_test_n = 10
arch = conv
conv_channels = 2
conv_kernel = 3
conv_dense = 8
epochs = 2
batch_size = 10
"""
    cfg = parse_config_text(text + f"out_dir = {tmp_path}/run\n")
    consumed, checked = [], []
    step, evaluate = SgdMomentum.step, harness_mod.evaluate_objectives

    def recording_step(self, grads, lr):
        step(self, grads, lr)
        consumed.extend(weakref.ref(g) for g in grads)

    def checking_evaluate(network, *args):
        checked.append(len(consumed))
        assert all(ref() is None for ref in consumed)
        return evaluate(network, *args)

    monkeypatch.setattr(SgdMomentum, "step", recording_step)
    monkeypatch.setattr(harness_mod, "evaluate_objectives", checking_evaluate)
    state = train(cfg)
    assert checked[-1] == len(consumed) == 6  # one flat buffer per step
    assert state.network.grad is None


class TestCrossObjectiveEval:
    def test_error_is_objective_independent(self, l2svm_run, tmp_path):
        # the raw test split: the saved model standardizes it itself
        model = load_model(l2svm_run.model_dir)
        cfg = blobs_config(tmp_path, "raw", head="l2svm", svm_c=0.1)
        raw_test = load_split(cfg, "test")
        rep = cross_objective_eval(model, raw_test)
        assert rep.n == raw_test.n
        assert rep.error_pct == l2svm_run.metrics[-1]["test_error_pct"]

    def test_empty_split_rejected(self, l2svm_run):
        rng = np.random.default_rng(1)
        net = l2svm_run.network
        with pytest.raises(DomainError):
            evaluate_objectives(net, np.zeros((0, 2)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_reported_objectives_are_the_losses_each_head_trains_on(self, kind):
        # one convention: each family's reported value is, bit for bit,
        # the loss a head of that family takes its gradients from
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=(50, 6)), rng.integers(0, 3, size=50)
        spec = HeadSpec(kind, 3, c=0.1, weight_decay=0.01)
        net = build_mlp(6, [8], spec, rng=rng, init_std=0.5)
        rep = evaluate_objectives(net, x, y)
        for other, value in (("softmax", rep.avg_xent), ("l1svm", rep.hinge_sum),
                             ("l2svm", rep.hinge_sq_sum)):
            as_other = copy.copy(net)
            as_other.head_spec = replace(spec, kind=other)
            assert value == as_other.head_output(x, y).loss
        assert rep.own_loss(kind) == net.head_output(x, y).loss


class TestWarmStart:
    def test_zero_epoch_warm_start_predicts_like_the_source(
        self, l2svm_run, tmp_path
    ):
        cfg = blobs_config(tmp_path, "warm0", head="softmax", epochs=0,
                           source_model=l2svm_run.model_dir)
        res = train(cfg)
        x = l2svm_run.prepared.test.inputs
        npt.assert_array_equal(
            res.network.predict(x), l2svm_run.network.predict(x)
        )

    def test_warm_start_tagged_in_runmeta(self, l2svm_run, tmp_path):
        cfg = blobs_config(tmp_path, "warmtag", head="softmax", epochs=1,
                           source_model=l2svm_run.model_dir)
        res = train(cfg)
        with open(os.path.join(res.out_dir, "runmeta.json")) as f:
            meta = json.load(f)
        assert meta["warm_start"] == {"source": l2svm_run.model_dir,
                                      "source_head": "l2svm"}
        assert meta["config"]["source_model"] == {
            "value": l2svm_run.model_dir, "source": "config",
            "default_origin": "artifact",
        }

    def test_source_is_dropped_before_the_first_evaluation(
        self, l2svm_run, tmp_path, monkeypatch
    ):
        # Once its parameters are copied, nothing holds the source model:
        # its store would otherwise sit beside the run's through every step.
        sources, alive = [], []
        load, evaluate = harness_mod.load_model, harness_mod.evaluate_objectives

        def recording_load(model_dir):
            model = load(model_dir)
            sources.append(weakref.ref(model.network))
            return model

        def checking_evaluate(*args):
            alive.append(sources[0]() is not None)
            return evaluate(*args)

        monkeypatch.setattr(harness_mod, "load_model", recording_load)
        monkeypatch.setattr(harness_mod, "evaluate_objectives", checking_evaluate)
        res = train(blobs_config(tmp_path, "warmfree", head="softmax", epochs=1,
                                 source_model=l2svm_run.model_dir))
        assert len(sources) == 1 and alive == [False] * 4
        with open(os.path.join(res.out_dir, "runmeta.json")) as f:
            assert json.load(f)["warm_start"]["source_head"] == "l2svm"

    def test_architecture_mismatch_is_a_config_error(
        self, l2svm_run, tmp_path
    ):
        cfg = blobs_config(tmp_path, "warmbad", hidden_dims="8, 8",
                           source_model=l2svm_run.model_dir)
        with pytest.raises(ConfigError):
            train(cfg)
        # A deeper source holds every tensor of a shallower target, with
        # the same shapes (the head's included); both directions fail.
        deep = train(blobs_config(tmp_path, "deep", hidden_dims="16, 16", epochs=0))
        with pytest.raises(ConfigError, match="architecture mismatch"):
            train(blobs_config(tmp_path, "warmshallow",
                               source_model=deep.model_dir))
        with pytest.raises(ConfigError, match="architecture mismatch"):
            train(blobs_config(tmp_path, "warmdeep", hidden_dims="16, 16",
                               source_model=l2svm_run.model_dir))

    @pytest.mark.parametrize("source_keys, run_keys, saved, asked", [
        ({}, {"standardize": "false"}, "standardize = true, pca_dims = 0",
         "standardize = false, pca_dims = 0"),
        ({"pca_dims": 3}, {"pca_dims": 4}, "standardize = true, pca_dims = 3",
         "standardize = true, pca_dims = 4"),
        ({"pca_dims": 3}, {}, "standardize = true, pca_dims = 3",
         "standardize = true, pca_dims = 0"),
    ])
    def test_preprocessing_mismatch_is_a_config_error(
        self, tmp_path, source_keys, run_keys, saved, asked
    ):
        # A 4-class l2svm source on standardized 5-d blobs; a 0-epoch
        # softmax run with the same widths but other preprocessing would
        # start from a different function than the source computes.
        data = {"blobs_classes": 4, "blobs_dim": 5, "blobs_separation": 2}
        source = train(blobs_config(tmp_path, "source", head="l2svm", epochs=1,
                                    **data, **source_keys))
        cfg = blobs_config(tmp_path, "warm", head="softmax", epochs=0,
                           source_model=source.model_dir, **data, **run_keys)
        with pytest.raises(ConfigError) as exc:
            train(cfg)
        msg = str(exc.value)
        assert f"trained with {saved};" in msg
        assert msg.endswith(f"this run has {asked}")
        assert not (tmp_path / "warm").exists()

    def test_continued_training_moves_the_weights(self, l2svm_run, tmp_path):
        cfg = blobs_config(tmp_path, "warmgo", head="softmax", epochs=2,
                           source_model=l2svm_run.model_dir)
        res = train(cfg)
        assert not np.array_equal(
            res.network.head_weights, l2svm_run.network.head_weights
        )


class TestEnsemble:
    @staticmethod
    def _members(kind, count, seed0=0):
        # same blobs sample for every member; only the init seed varies
        rng = np.random.default_rng(999)
        ds = make_blobs(120, 3, 2, 20.0, rng)
        members = []
        for s in range(count):
            spec = HeadSpec(kind, 3, c=0.1, weight_decay=0.001)
            net = build_mlp(2, [8], spec,
                            rng=np.random.default_rng(seed0 + s),
                            init_std=0.1)
            members.append(LoadedModel(net, None, None, {}))
        return ds, members

    def test_singleton_matches_plain_predict(self):
        ds, (net,) = self._members("l2svm", 1)
        npt.assert_array_equal(
            ensemble_predict([net], ds.inputs), net.network.predict(ds.inputs)
        )

    def test_duplicated_member_changes_nothing(self):
        ds, (net,) = self._members("softmax", 1)
        npt.assert_array_equal(
            ensemble_predict([net, net], ds.inputs),
            ensemble_predict([net], ds.inputs),
        )

    def test_mixed_head_kinds_rejected(self):
        ds, members = self._members("l2svm", 1)
        _, soft = self._members("softmax", 1)
        with pytest.raises(DomainError):
            ensemble_predict([members[0], soft[0]], ds.inputs)

    def test_vote_over_member_scores_is_ensemble_predict(self):
        ds, members = self._members("l1svm", 3)
        scores = member_scores(members, ds.inputs)
        assert [s.tobytes() for s in scores] == [
            m.network.scores(ds.inputs).tobytes() for m in members
        ]
        npt.assert_array_equal(ensemble_vote(members, scores),
                               ensemble_predict(members, ds.inputs))

    def test_empty_ensemble_rejected(self):
        ds, _ = self._members("l2svm", 1)
        with pytest.raises(DomainError):
            ensemble_predict([], ds.inputs)



def write_idx_splits(data_dir, sizes, side, seed=0):
    """Seeded random ``side`` x ``side`` IDX images and 3-class labels for
    each (split, n) of ``sizes`` under ``data_dir``; returns the config
    text that reads them and each split's (images, labels)."""
    rng = np.random.default_rng(seed)
    written = {}
    for split, n in sizes:
        images = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
        labels = rng.integers(0, 3, size=n)
        write_idx(f"{data_dir}/{split}-images", f"{data_dir}/{split}-labels",
                  images, labels)
        written[split] = images, labels
    text = (f"dataset = idx\ndata_dir = {data_dir}\n"
            "train_images = train-images\ntrain_labels = train-labels\n"
            "test_images = test-images\ntest_labels = test-labels\n")
    return text, written


@pytest.fixture(scope="module")
def mixed_ensemble(tmp_path_factory):
    """Saved models on one set of 28x28 IDX images, and the test split:
    members 0, 1, 2 and 5 share a standardizer and a PCA mean (1 and 0
    differ in ``pca_dims``, 2 has 0's basis, 5 is a convnet on 4x4
    projections), 3 fits its own on fewer rows and 4 has no PCA."""
    tmp = tmp_path_factory.mktemp("mixed_ensemble")
    text, _ = write_idx_splits(tmp, (("train", 60), ("test", 1100)), 28)
    members = (
        "pca_dims = 6\nhead = l2svm\nseed = 1",
        "pca_dims = 10\nhead = l2svm\nseed = 2",
        "pca_dims = 6\nhead = l1svm\nseed = 3",
        "pca_dims = 6\nhead = l2svm\ntrain_subset = 30\nseed = 4",
        "head = l2svm\nseed = 5",
        "pca_dims = 16\nhead = l2svm\narch = conv\nconv_channels = 2, 2\n"
        "conv_kernel = 3\nconv_dense = 8\nseed = 6",
    )
    models = []
    for i, keys in enumerate(members):
        cfg = parse_config_text(text + keys + f"""
standardize = true
hidden_dims = 8
epochs = 0
out_dir = {tmp}/member{i}
""")
        models.append(load_model(train(cfg).model_dir))
    return models, load_split(cfg, "test")


class TestSharedPreprocessing:
    def test_member_scores_are_each_members_own(self, mixed_ensemble):
        models, test = mixed_ensemble
        shared = [m.standardizer.mean.tobytes() == models[0].standardizer.mean.tobytes()
                  for m in models]
        assert shared == [True, True, True, False, True, True]
        assert models[2].pca.components.tobytes() == models[0].pca.components.tobytes()
        got = member_scores(models, test.inputs)
        want = [m.network.scores(*m.scoring_rows(test.inputs)) for m in models]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_one_scaling_pass_per_block_per_group(self, mixed_ensemble, monkeypatch):
        # two groups (members 0, 1, 2, 5 and member 3), each scaled in
        # its two row blocks; member 4 scales its chunks on another path
        models, test = mixed_ensemble
        scaled, real = [], preprocess_mod.to_float

        def to_float(x, out=None):
            scaled.append(len(x))
            return real(x, out)

        monkeypatch.setattr(preprocess_mod, "to_float", to_float)
        member_scores(models, test.inputs)
        assert scaled == [528, 572, 528, 572]


class TestPixelsStayBytes:
    def test_conv_minibatches_are_the_scaled_standardized_rows(
            self, tmp_path, monkeypatch):
        # without a PCA the prepared splits keep the file's bytes, and
        # every minibatch the run trains on is the gathered rows scaled,
        # standardized and reshaped, byte for byte
        text, written = write_idx_splits(tmp_path, (("train", 60), ("test", 20)), 8)
        cfg = parse_config_text(text + f"""
arch = conv
conv_channels = 2, 2
conv_kernel = 3
conv_dense = 8
standardize = true
head = l2svm
epochs = 2
batch_size = 16
lr_start = 0.01
out_dir = {tmp_path}/run
""")
        batches, consumed = [], []
        plan, backprop = harness_mod.minibatches, Network.backprop

        def recording_minibatches(*args):
            epoch = plan(*args)
            batches.extend(epoch)
            return epoch

        def recording_backprop(self, x, labels, **kwargs):
            consumed.append(x.copy())
            return backprop(self, x, labels, **kwargs)

        monkeypatch.setattr(harness_mod, "minibatches", recording_minibatches)
        monkeypatch.setattr(Network, "backprop", recording_backprop)
        state = train(cfg)
        prepared = state.prepared
        for split, data in (("train", prepared.train), ("test", prepared.test)):
            images = written[split][0]
            assert data.inputs.dtype == np.uint8
            assert data.inputs.tobytes() == images.reshape(len(images), 64).tobytes()

        def reference(images):
            rows = images.reshape(len(images), 64).astype(np.float64) / 255
            return ((rows - mean) / std).reshape(-1, 1, 8, 8)

        train_rows = written["train"][0].reshape(60, 64).astype(np.float64) / 255
        mean = train_rows.mean(axis=0)
        std = np.maximum(train_rows.std(axis=0), STD_FLOOR)
        assert len(consumed) == len(batches) == 8
        for idx, x in zip(batches, consumed):
            want = reference(written["train"][0][idx])
            assert x.shape == want.shape and x.tobytes() == want.tobytes()
        # each evaluation chunk is transformed alike: the last row's test
        # columns are those of the whole transformed split
        test_images, test_labels = written["test"]
        rep = evaluate_objectives(state.network, reference(test_images), test_labels)
        final = state.metrics[-1]
        assert (final["test_error_pct"], final["avg_xent"], final["hinge_sq_sum"]) == (
            rep.error_pct, rep.avg_xent, rep.hinge_sq_sum)

    @pytest.mark.parametrize("standardize, pca_dims",
                             [(False, 0), (True, 0), (False, 6), (True, 6)])
    def test_saved_transform_of_pixels_is_the_prepared_inputs(
            self, tmp_path, standardize, pca_dims):
        # a saved model takes the raw bytes to exactly the inputs the run
        # scored: projected once with a PCA, per gathered row without
        text, _ = write_idx_splits(tmp_path, (("train", 40), ("test", 30)), 4)
        cfg = parse_config_text(text + f"""
standardize = {str(standardize).lower()}
pca_dims = {pca_dims}
hidden_dims = 8
epochs = 0
out_dir = {tmp_path}/run
""")
        res = train(cfg)
        model = load_model(res.model_dir)
        raw = load_splits(cfg, ("train", "test"))
        for split, prepared in zip(raw, (res.prepared.train, res.prepared.test)):
            assert split.inputs.dtype == np.uint8
            assert prepared.inputs.dtype == (np.uint8 if not pca_dims else np.float64)
            want = res.prepared.network_inputs(prepared.inputs)
            assert want.dtype == np.float64 and want.shape[1:] == (pca_dims or 16,)
            assert model.transform(split.inputs).tobytes() == want.tobytes()

    def test_saved_model_scores_pixels_a_chunk_at_a_time(self, tmp_path):
        # without a PCA, cross-objective evaluation and ensemble members
        # transform each scoring chunk, with the bytes of transforming the
        # whole split first, and never hold a float copy of the split
        text, _ = write_idx_splits(tmp_path, (("train", 50), ("test", 6000)), 28)
        cfg = parse_config_text(text + f"""
standardize = true
hidden_dims = 8
epochs = 0
out_dir = {tmp_path}/run
""")
        model = load_model(train(cfg).model_dir)
        test = load_split(cfg, "test")
        whole = model.transform(test.inputs)
        want = evaluate_objectives(model.network, whole, test.labels)
        want_scores = model.network.scores(whole).tobytes()
        del whole
        tracemalloc.start()
        try:
            got = cross_objective_eval(model, test)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert member_scores([model], test.inputs)[0].tobytes() == want_scores
        assert peak < test.inputs.size * np.dtype(np.float64).itemsize

    def test_standardized_cifar_preparation_peaks_below_one_float_copy(self, tmp_path):
        rng = np.random.default_rng(7)
        for name, n in (("train", 2000), ("test", 200)):
            raw = rng.integers(0, 256, size=(n, 3073), dtype=np.uint8)
            raw[:, 0] %= 10
            raw.tofile(str(tmp_path / f"{name}.bin"))
        cfg = parse_config_text(f"""
dataset = cifar10
data_dir = {tmp_path}
cifar_train_batches = train.bin
cifar_test_batches = test.bin
standardize = true
arch = conv
conv_channels = 2, 2
conv_kernel = 3
conv_dense = 8
epochs = 1
batch_size = 50
out_dir = {tmp_path}/run
""")
        tracemalloc.start()
        try:
            prepared = prepare_data(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prepared.train.inputs.dtype == np.uint8
        assert prepared.shape == (3, 32, 32)
        assert peak < 2000 * 3072 * np.dtype(np.float64).itemsize


def test_blobs_are_drawn_once_per_preparation(tmp_path, monkeypatch):
    draws = []
    make = harness_mod.make_blobs

    def counting_make_blobs(n, *args, **kwargs):
        draws.append(n)
        return make(n, *args, **kwargs)

    monkeypatch.setattr(harness_mod, "make_blobs", counting_make_blobs)
    cfg = blobs_config(tmp_path, "once", epochs=0, standardize="false")
    prepared = prepare_data(cfg)
    assert draws == [120]
    # the splits are the one draw's first 80 and last 40 rows
    full = make(120, 3, 2, 20.0, seed_streams(3)[0])
    assert prepared.train.inputs.tobytes() == full.inputs[:80].tobytes()
    assert prepared.test.inputs.tobytes() == full.inputs[80:].tobytes()
    npt.assert_array_equal(prepared.test.labels, full.labels[80:])
