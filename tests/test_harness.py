import json
import math
import os

import numpy as np
import numpy.testing as npt
import pytest

from marginnet.config import ConfigError, parse_config_text
from marginnet.data import make_blobs, write_idx
from marginnet.harness import (
    CSV_COLUMNS,
    TrainingDivergedError,
    cross_objective_eval,
    ensemble_predict,
    ensemble_vote,
    evaluate_objectives,
    load_model,
    load_splits,
    member_scores,
    read_metrics_csv,
    seed_streams,
    train,
    warm_start,
    write_metrics_csv,
)
from marginnet.heads import HeadSpec
from marginnet.network import build_mlp
from marginnet.tensor import DomainError

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
        data_rng, _, _ = seed_streams(cfg.seed)
        raw_train, _ = load_splits(cfg, data_rng)
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
        raw = load_splits(cfg, seed_streams(cfg.seed)[0])
        for split, prepared in zip(raw, (res.prepared.train, res.prepared.test)):
            assert split.inputs.shape[1:] == (64,)
            assert prepared.inputs.shape[1:] == (1, 4, 4)
            assert model.transform(split.inputs).tobytes() == prepared.inputs.tobytes()
            npt.assert_array_equal(split.labels, prepared.labels)

    def test_fused_transform_of_raw_rows_is_the_prepared_data(self, tmp_path):
        # the saved model standardizes and projects raw rows in one pass;
        # the prepared training split was standardized, then projected
        cfg = blobs_config(tmp_path, "fused", blobs_dim=40, epochs=0, pca_dims=6)
        res = train(cfg)
        model = load_model(res.model_dir)
        raw = load_splits(cfg, seed_streams(cfg.seed)[0])
        for split, prepared in zip(raw, (res.prepared.train, res.prepared.test)):
            assert prepared.inputs.shape[1:] == (6,)
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
        assert meta["command"] == "train"
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


class TestCrossObjectiveEval:
    def test_error_is_objective_independent(self, l2svm_run):
        model = load_model(l2svm_run.model_dir)
        test_set = l2svm_run.prepared.test
        rep = cross_objective_eval(model, test_set)
        # one scores matrix feeds every objective column, so changing
        # the loss constants cannot move the error
        rep2 = cross_objective_eval(model, test_set, c=1.0, weight_decay=1.0)
        assert rep.error_pct == rep2.error_pct
        assert rep.n == test_set.n

    def test_rival_constants_default_to_the_models_own(self, l2svm_run):
        model = load_model(l2svm_run.model_dir)
        test_set = l2svm_run.prepared.test
        rep_default = cross_objective_eval(model, test_set)
        rep_explicit = cross_objective_eval(model, test_set, c=0.1)
        assert rep_default.hinge_sq_sum == rep_explicit.hinge_sq_sum

    def test_empty_split_rejected(self, l2svm_run):
        rng = np.random.default_rng(1)
        net = l2svm_run.network
        with pytest.raises(DomainError):
            evaluate_objectives(net, np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestWarmStart:
    def test_zero_epoch_warm_start_predicts_like_the_source(
        self, l2svm_run, tmp_path
    ):
        cfg = blobs_config(tmp_path, "warm0", head="softmax", epochs=0)
        res = warm_start(l2svm_run.model_dir, cfg)
        x = l2svm_run.prepared.test.inputs
        npt.assert_array_equal(
            res.network.predict(x), l2svm_run.network.predict(x)
        )

    def test_warm_start_tagged_in_runmeta(self, l2svm_run, tmp_path):
        cfg = blobs_config(tmp_path, "warmtag", head="softmax", epochs=1)
        res = warm_start(l2svm_run.model_dir, cfg)
        with open(os.path.join(res.out_dir, "runmeta.json")) as f:
            meta = json.load(f)
        assert meta["warm_start"]["source_head"] == "l2svm"
        assert meta["command"] == "warmstart"

    def test_architecture_mismatch_is_a_config_error(
        self, l2svm_run, tmp_path
    ):
        cfg = blobs_config(tmp_path, "warmbad", hidden_dims="8, 8")
        with pytest.raises(ConfigError):
            warm_start(l2svm_run.model_dir, cfg)
        # A deeper source holds every tensor of a shallower target, with
        # the same shapes (the head's included); both directions fail.
        deep = train(blobs_config(tmp_path, "deep", hidden_dims="16, 16", epochs=0))
        with pytest.raises(ConfigError, match="architecture mismatch"):
            warm_start(deep.model_dir, blobs_config(tmp_path, "warmshallow"))
        with pytest.raises(ConfigError, match="architecture mismatch"):
            warm_start(l2svm_run.model_dir,
                       blobs_config(tmp_path, "warmdeep", hidden_dims="16, 16"))

    def test_continued_training_moves_the_weights(self, l2svm_run, tmp_path):
        cfg = blobs_config(tmp_path, "warmgo", head="softmax", epochs=2)
        res = warm_start(l2svm_run.model_dir, cfg)
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
            members.append(net)
        return ds, members

    def test_singleton_matches_plain_predict(self):
        ds, (net,) = self._members("l2svm", 1)
        npt.assert_array_equal(
            ensemble_predict([net], ds.inputs), net.predict(ds.inputs)
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
            m.scores(ds.inputs).tobytes() for m in members
        ]
        npt.assert_array_equal(ensemble_vote(members, scores),
                               ensemble_predict(members, ds.inputs))

    def test_empty_ensemble_rejected(self):
        ds, _ = self._members("l2svm", 1)
        with pytest.raises(DomainError):
            ensemble_predict([], ds.inputs)

