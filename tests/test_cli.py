import json
import shutil
import subprocess

import numpy as np
import pytest

from marginnet import harness, serialize
from marginnet.cli import main
from marginnet.config import parse_config
from marginnet.network import Network

TINY_BLOBS = """
dataset = blobs
blobs_train_n = 60
blobs_test_n = 30
blobs_classes = 2
standardize = true
hidden_dims = 8
head = l2svm
svm_c = 0.1
epochs = 5
batch_size = 20
lr_start = 0.02
seed = 1
"""


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def trained_model(tmp_path):
    cfg = write_cfg(tmp_path, "train.cfg",
                    TINY_BLOBS + f"out_dir = {tmp_path}/src\n")
    assert main(["train", "--config", cfg]) == 0
    return f"{tmp_path}/src/model"


class TestTrain:
    def test_writes_artifacts_and_reports_final_row(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "t.cfg",
                        TINY_BLOBS + f"out_dir = {tmp_path}/run\n")
        rc = main(["train", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        assert "epoch=5" in out
        assert "wrote" in out
        assert (tmp_path / "run" / "metrics.csv").exists()
        assert (tmp_path / "run" / "model" / "manifest.json").exists()

    def test_flag_overrides_are_tagged_cli(self, tmp_path):
        cfg = write_cfg(tmp_path, "t.cfg",
                        TINY_BLOBS + f"out_dir = {tmp_path}/a\n")
        rc = main(["train", "--config", cfg, "--seed", "7",
                   "--out-dir", str(tmp_path / "b")])
        assert rc == 0
        with open(tmp_path / "b" / "runmeta.json") as f:
            echo = json.load(f)["config"]
        assert echo["seed"] == {
            "value": 7, "source": "cli", "default_origin": "artifact",
        }
        assert echo["out_dir"]["source"] == "cli"

    def test_config_errors_exit_2_with_message(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "bad.cfg", "epochz = 3\n")
        assert main(["train", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["head = softmax\nsvm_c = -1",
                                     "weight_decay = inf",
                                     "blobs_separation = inf",
                                     "max_jitter = -1",
                                     "noise_start = inf"])
    def test_bad_constant_exits_2_before_any_data(self, tmp_path, capsys, bad):
        cfg = write_cfg(tmp_path, "t.cfg", TINY_BLOBS + bad + "\n"
                        + f"out_dir = {tmp_path}/run\n")
        assert main(["train", "--config", cfg]) == 2
        assert "must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_negative_init_std_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "bad.cfg", TINY_BLOBS + "init_std = -1\n"
                        f"out_dir = {tmp_path}/run\n")
        assert main(["train", "--config", cfg]) == 2
        assert "init_std" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_negative_lr_end_exits_2_before_training(self, tmp_path, capsys):
        # The schedule would only cross zero partway through training.
        cfg = write_cfg(tmp_path, "bad.cfg", TINY_BLOBS + "lr_start = 0.01\n"
                        f"lr_end = -0.01\nout_dir = {tmp_path}/run\n")
        assert main(["train", "--config", cfg]) == 2
        assert "lr_end" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "no.cfg")]) == 2
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_writes_eval_json(self, tmp_path, trained_model, capsys):
        cfg = write_cfg(
            tmp_path, "eval.cfg",
            TINY_BLOBS + f"model = {trained_model}\n"
            f"out_dir = {tmp_path}/eval\n",
        )
        rc = main(["eval", "--config", cfg])
        assert rc == 0
        with open(tmp_path / "eval" / "eval.json") as f:
            report = json.load(f)
        assert report["split"] == "test"
        assert report["head"] == "l2svm"
        assert {"error_pct", "avg_xent", "hinge_sum", "hinge_sq_sum"} <= set(
            report
        )
        out = capsys.readouterr().out
        assert "error_pct=" in out

    def test_model_dir_without_manifest_exits_2(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        cfg = write_cfg(
            tmp_path, "eval.cfg",
            TINY_BLOBS + f"model = {tmp_path}/empty\n"
            f"out_dir = {tmp_path}/eval\n",
        )
        assert main(["eval", "--config", cfg]) == 2
        assert "manifest.json" in capsys.readouterr().err

    def test_eval_needs_a_model(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "eval.cfg",
                        TINY_BLOBS + f"out_dir = {tmp_path}/eval\n")
        assert main(["eval", "--config", cfg]) == 2
        assert "model" in capsys.readouterr().err


# A convnet over 8x8 blobs images, whose fitted preprocessing runs on
# flat rows before they become images.
CONV_BLOBS = """
dataset = blobs
blobs_classes = 3
blobs_dim = 64
blobs_train_n = 60
blobs_test_n = 30
arch = conv
conv_channels = 2, 2
conv_kernel = 3
conv_dense = 8
head = l2svm
epochs = 1
batch_size = 30
lr_start = 0.001
"""


@pytest.mark.parametrize("preprocess", ["standardize = true", "pca_dims = 16"],
                         ids=["standardize", "pca"])
def test_conv_model_evaluates_under_its_training_config(tmp_path, capsys,
                                                         preprocess):
    text = CONV_BLOBS + preprocess + "\n"
    cfg = write_cfg(tmp_path, "t.cfg", text + f"out_dir = {tmp_path}/run\n")
    assert main(["train", "--config", cfg]) == 0
    model = f"{tmp_path}/run/model"
    cfg = write_cfg(tmp_path, "e.cfg", text + f"model = {model}\n"
                    f"out_dir = {tmp_path}/eval\n")
    assert main(["eval", "--config", cfg]) == 0
    cfg = write_cfg(tmp_path, "n.cfg", text + f"models = {model}, {model}\n"
                    f"out_dir = {tmp_path}/ens\n")
    assert main(["ensemble", "--config", cfg]) == 0
    capsys.readouterr()
    with open(tmp_path / "eval" / "eval.json") as f:
        report = json.load(f)
    last = harness.read_metrics_csv(tmp_path / "run" / "metrics.csv")[-1]
    for col in ("error_pct", "avg_xent", "hinge_sq_sum", "hinge_sq_mean"):
        logged = last["test_error_pct" if col == "error_pct" else col]
        assert harness.format_float(report[col]) == harness.format_float(logged)


class TestGradcheck:
    def test_reports_all_checks(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "gc.cfg", "hidden_dims = 8, 8\n")
        rc = main(["gradcheck", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        assert "30/30 gradient checks passed" in out
        assert "l2svm.d_w" in out


class TestWarmstart:
    def test_swaps_objective_over_saved_stack(self, tmp_path, trained_model,
                                              capsys):
        cfg = write_cfg(
            tmp_path, "warm.cfg",
            TINY_BLOBS.replace("head = l2svm", "head = softmax")
            + f"source_model = {trained_model}\n"
            f"out_dir = {tmp_path}/warm\n",
        )
        rc = main(["warmstart", "--config", cfg])
        assert rc == 0
        with open(tmp_path / "warm" / "runmeta.json") as f:
            meta = json.load(f)
        assert meta["warm_start"]["source_head"] == "l2svm"
        assert meta["head"]["kind"] == "softmax"

    def test_needs_source_model(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "warm.cfg",
                        TINY_BLOBS + f"out_dir = {tmp_path}/warm\n")
        assert main(["warmstart", "--config", cfg]) == 2
        assert "source_model" in capsys.readouterr().err


def train_members(tmp_path, extra=""):
    """Train two TINY_BLOBS members at seeds 1 and 2 and write the
    config of their ensemble; returns its path and the model dirs."""
    model_dirs = []
    for seed in (1, 2):
        cfg = write_cfg(
            tmp_path, f"m{seed}.cfg",
            TINY_BLOBS.replace("seed = 1", f"seed = {seed}") + extra
            + f"out_dir = {tmp_path}/m{seed}\n",
        )
        assert main(["train", "--config", cfg]) == 0
        model_dirs.append(f"{tmp_path}/m{seed}/model")
    cfg = write_cfg(
        tmp_path, "ens.cfg",
        TINY_BLOBS + f"models = {model_dirs[0]}, {model_dirs[1]}\n"
        f"out_dir = {tmp_path}/ens\n",
    )
    return cfg, model_dirs


class TestEnsemble:
    def test_averages_members_and_writes_report(self, tmp_path, capsys):
        cfg, _ = train_members(tmp_path)
        rc = main(["ensemble", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        with open(tmp_path / "ens" / "ensemble.json") as f:
            report = json.load(f)
        assert len(report["models"]) == 2
        assert len(report["member_error_pct"]) == 2
        assert "ensemble_error_pct" in report
        assert "member" in out

    def test_each_member_is_transformed_and_forwarded_once(self, tmp_path,
                                                           capsys, monkeypatch):
        cfg, model_dirs = train_members(tmp_path, "pca_dims = 2\n")
        calls = {"transform": 0, "forward": 0}
        for owner, name in ((harness.LoadedModel, "transform"),
                            (Network, "forward")):
            def counted(*args, _original=getattr(owner, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        assert main(["ensemble", "--config", cfg]) == 0
        assert calls == {"transform": 2, "forward": 2}
        monkeypatch.undo()
        # the member errors and the vote are those of the per-model entry points
        with open(tmp_path / "ens" / "ensemble.json") as f:
            report = json.load(f)
        models = [harness.load_model(d) for d in model_dirs]
        parsed = parse_config(cfg)
        split = harness.load_splits(parsed, harness.seed_streams(parsed.seed)[0])[1]
        assert report["member_error_pct"] == [
            harness.cross_objective_eval(m, split).error_pct for m in models
        ]
        pred = harness.ensemble_predict(models, split.inputs)
        assert report["ensemble_error_pct"] == 100.0 * float(np.mean(pred != split.labels))

    def test_needs_member_list(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "ens.cfg",
                        TINY_BLOBS + f"out_dir = {tmp_path}/ens\n")
        assert main(["ensemble", "--config", cfg]) == 2
        assert "models" in capsys.readouterr().err


def test_every_artifact_is_written_atomically(tmp_path, capsys, monkeypatch):
    written = []
    replace = serialize._replace_file
    monkeypatch.setattr(serialize, "_replace_file",
                        lambda path, write: written.append(path) or replace(path, write))
    cfg, model_dirs = train_members(tmp_path)
    assert main(["ensemble", "--config", cfg]) == 0
    cfg = write_cfg(tmp_path, "eval.cfg", TINY_BLOBS + f"model = {model_dirs[0]}\n"
                    f"out_dir = {tmp_path}/eval\n")
    assert main(["eval", "--config", cfg]) == 0
    artifacts = [str(p) for p in tmp_path.rglob("*")
                 if p.is_file() and p.suffix != ".cfg"]
    assert len(artifacts) == 10
    assert sorted(written) == sorted(artifacts)


@pytest.mark.skipif(shutil.which("marginnet") is None,
                    reason="console script not on PATH")
def test_console_script_wiring(tmp_path):
    cfg = write_cfg(tmp_path, "t.cfg",
                    TINY_BLOBS + f"out_dir = {tmp_path}/cli\n")
    proc = subprocess.run(
        ["marginnet", "train", "--config", cfg],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "wrote" in proc.stdout
