import contextlib
import gzip
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginnet import harness, serialize
from marginnet.cli import main
from marginnet.config import SCHEMA, parse_config
from marginnet.data import write_idx
from marginnet.network import Network
from marginnet.recipes import BLOBS

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


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(argv):
    """``main(argv)`` in-process: its exit code and stderr text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def train_model(tmp_path, text):
    """Train ``text`` into ``tmp_path/src``; returns its model dir."""
    cfg = write_cfg(tmp_path, "train.cfg", text + f"out_dir = {tmp_path}/src\n")
    assert main(["train", "--config", cfg]) == 0
    return f"{tmp_path}/src/model"


@pytest.fixture
def trained_model(tmp_path):
    return train_model(tmp_path, TINY_BLOBS)


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
                                     "noise_start = inf",
                                     "hidden_dims = 8, 0",
                                     "arch = conv\nconv_channels = 0, 2",
                                     "arch = conv\nconv_channels = -1, 2",
                                     "arch = conv\nconv_channels =",
                                     "arch = conv\nconv_dense = -5",
                                     "arch = conv\nconv_dense = 0",
                                     "arch = conv\nconv_kernel = 4",
                                     "seed = -1",
                                     "pca_dims = -1",
                                     "blobs_classes = 1",
                                     "blobs_dim = 0"])
    def test_bad_constant_exits_2_before_any_data(self, tmp_path, capsys, bad):
        cfg = write_cfg(tmp_path, "t.cfg", TINY_BLOBS + bad + "\n"
                        + f"out_dir = {tmp_path}/run\n")
        assert main(["train", "--config", cfg]) == 2
        assert "must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_seed_flag_is_checked_like_a_config_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "t.cfg",
                        TINY_BLOBS + f"out_dir = {tmp_path}/run\n")
        assert main(["train", "--config", cfg, "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--seed" in err and "Traceback" not in err
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

    def test_truncated_gzip_idx_exits_2(self, tmp_path, capsys):
        images = np.zeros((4, 2, 2), dtype=np.uint8)
        write_idx(str(tmp_path / "img"), str(tmp_path / "lab"), images,
                  np.arange(4) % 2)
        for name in ("img", "lab"):
            packed = gzip.compress((tmp_path / name).read_bytes(), mtime=0)
            (tmp_path / (name + ".gz")).write_bytes(packed)
        packed = (tmp_path / "img.gz").read_bytes()
        (tmp_path / "img.gz").write_bytes(packed[: len(packed) // 2])
        cfg = write_cfg(tmp_path, "idx.cfg", (
            f"dataset = idx\ndata_dir = {tmp_path}\n"
            "train_images = img.gz\ntrain_labels = lab.gz\n"
            "test_images = img.gz\ntest_labels = lab.gz\n"
            f"hidden_dims = 4\nout_dir = {tmp_path}/run\n"))
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "img.gz" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_idx_with_a_trailing_byte_exits_2(self, tmp_path, capsys):
        write_idx(str(tmp_path / "img"), str(tmp_path / "lab"),
                  np.zeros((4, 2, 2), dtype=np.uint8), np.arange(4) % 2)
        with open(tmp_path / "img", "ab") as f:
            f.write(b"\x00")
        cfg = write_cfg(tmp_path, "idx.cfg", (
            f"dataset = idx\ndata_dir = {tmp_path}\n"
            "train_images = img\ntrain_labels = lab\n"
            "test_images = img\ntest_labels = lab\n"
            f"hidden_dims = 4\nout_dir = {tmp_path}/run\n"))
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "img: bytes follow" in err
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

    @pytest.mark.parametrize("base, corrupt", [
        (TINY_BLOBS, lambda m: m.pop("tensors")),
        (TINY_BLOBS, lambda m: m["meta"].pop("arch")),
        (TINY_BLOBS, lambda m: m["meta"].pop("head")),
        (TINY_BLOBS, lambda m: m["tensors"][0].update(shape=["x"])),
        (TINY_BLOBS, lambda m: m["tensors"][0].update(shape=[-1, 2])),
        (TINY_BLOBS, lambda m: m.update(dtype="float32")),
        # a model saved without PCA whose manifest claims one
        (TINY_BLOBS, lambda m: m["meta"]["preprocess"].update(pca=True)),
        # a standardizing model whose standardizer tensors are gone
        (TINY_BLOBS, lambda m: [e.update(name="x" + e["name"])
                                for e in m["tensors"]
                                if e["name"].startswith("standardizer.")]),
        (TINY_BLOBS, lambda m: m["meta"].update(preprocess=None)),
        (TINY_BLOBS, lambda m: m["meta"].update(preprocess=[])),
        (TINY_BLOBS, lambda m: m["meta"].update(preprocess="pca")),
        (TINY_BLOBS, lambda m: m["meta"].update(arch=[])),
        # an l2svm head's weight decay is unused in training but
        # evaluation reports cross-entropy with it
        (TINY_BLOBS, lambda m: m["meta"]["head"].update(weight_decay="x")),
        # likewise a softmax head's C, and either constant must be finite
        (TINY_BLOBS.replace("head = l2svm", "head = softmax"),
         lambda m: m["meta"]["head"].update(c=-1.0)),
        (TINY_BLOBS, lambda m: m["meta"]["head"].update(c=float("inf"))),
        (CONV_BLOBS, lambda m: m["meta"]["arch"].update(input_shape=[1, 8])),
    ], ids=["no-tensors", "no-arch", "no-head", "shape-x", "shape-negative",
            "float32", "pca-without-tensors", "standardize-without-tensors",
            "preprocess-null", "preprocess-list", "preprocess-string",
            "arch-list", "weight-decay-string", "softmax-c-negative",
            "c-infinite", "conv-input-shape-2d"])
    def test_corrupt_manifest_exits_2(self, tmp_path, capsys, base, corrupt):
        model = train_model(tmp_path, base)
        path = f"{model}/{serialize.MANIFEST_NAME}"
        with open(path) as f:
            manifest = json.load(f)
        corrupt(manifest)
        with open(path, "w") as f:
            json.dump(manifest, f)
        cfg = write_cfg(tmp_path, "eval.cfg", base
                        + f"model = {model}\nout_dir = {tmp_path}/eval\n")
        capsys.readouterr()
        assert main(["eval", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_conv_model_on_rows_of_another_width_exits_2(self, tmp_path,
                                                          capsys):
        model = train_model(tmp_path, CONV_BLOBS)
        cfg = write_cfg(tmp_path, "eval.cfg", CONV_BLOBS.replace(
            "blobs_dim = 64", "blobs_dim = 16") + f"model = {model}\n"
            f"out_dir = {tmp_path}/eval\n")
        capsys.readouterr()
        assert main(["eval", "--config", cfg]) == 2
        assert "not [1, 8, 8] inputs" in capsys.readouterr().err

    def test_eval_needs_a_model(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "eval.cfg",
                        TINY_BLOBS + f"out_dir = {tmp_path}/eval\n")
        assert main(["eval", "--config", cfg]) == 2
        assert "model" in capsys.readouterr().err


# What a corrupted manifest entry may become.  Dimensions stay small:
# building a network from meta.arch allocates before any shape check.
MANIFEST_VALUES = st.one_of(
    st.sampled_from([None, True, -1, 0, 2.5, "x", [], {}]),
    st.integers(1, 64),
)


def key_paths(node, path=()):
    """Every key path in a JSON tree, the root's () included; the config
    echo under meta.config, which loading never reads, counts as one leaf."""
    yield path
    if path == ("meta", "config"):
        return
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from key_paths(child, path + (key,))


@pytest.fixture(scope="module")
def pca_model(tmp_path_factory):
    """A tiny standardizing, PCA-projecting model, trained once."""
    return train_model(tmp_path_factory.mktemp("pca_model"),
                       TINY_BLOBS + "pca_dims = 2\n")


def read_saved(model):
    """A saved model's manifest (parsed) and blob bytes."""
    with open(f"{model}/{serialize.MANIFEST_NAME}") as f:
        manifest = json.load(f)
    with open(f"{model}/{serialize.BLOB_NAME}", "rb") as f:
        return manifest, f.read()


def eval_copy(model, manifest, blob):
    """Save ``manifest`` and ``blob`` as a copy of ``model``, run
    ``marginnet eval`` on it in-process and return its exit code.  An
    exit code of 2 must come with an error line and no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        copied = f"{tmp}/model"
        shutil.copytree(model, copied)
        with open(f"{copied}/{serialize.MANIFEST_NAME}", "w") as f:
            json.dump(manifest, f)
        with open(f"{copied}/{serialize.BLOB_NAME}", "wb") as f:
            f.write(blob)
        cfg = f"{tmp}/eval.cfg"
        with open(cfg, "w") as f:
            f.write(TINY_BLOBS + f"pca_dims = 2\nmodel = {copied}\n"
                    f"out_dir = {tmp}/eval\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["eval", "--config", cfg])
    if rc == 2:
        assert err.getvalue().startswith("error: ")
        assert "Traceback" not in err.getvalue()
    return rc


@settings(deadline=None, derandomize=True, max_examples=80)
@given(data=st.data())
def test_any_corrupted_manifest_exits_0_or_2(pca_model, data):
    manifest, blob = read_saved(pca_model)
    # Half the draws go to meta, whose few paths the tensor entries
    # would otherwise outnumber.
    paths = list(key_paths(manifest))
    path = data.draw(st.one_of(
        st.sampled_from([p for p in paths if p[:1] == ("meta",)]),
        st.sampled_from([p for p in paths if p[:1] != ("meta",)]),
    ), label="key path")
    delete = bool(path) and data.draw(st.booleans(), label="delete")
    value = None if delete else data.draw(MANIFEST_VALUES, label="value")
    if not path:
        manifest = value
    else:
        parent = manifest
        for key in path[:-1]:
            parent = parent[key]
        if delete:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    assert eval_copy(pca_model, manifest, blob) in (0, 2)


@settings(deadline=None, derandomize=True, max_examples=20)
@given(data=st.data())
def test_a_truncated_or_extended_blob_exits_2(pca_model, data):
    manifest, blob = read_saved(pca_model)
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        blob += data.draw(st.binary(min_size=1, max_size=16), label="appended")
    assert eval_copy(pca_model, manifest, blob) == 2


def test_a_basis_one_row_short_exits_2(pca_model, tmp_path):
    model = harness.load_model(pca_model)
    model.pca.components = model.pca.components[:-1]
    short = str(tmp_path / "short")
    harness.save_model(short, model.network,
                       harness.PreparedData(None, None, model.pca, model.standardizer))
    manifest, blob = read_saved(short)
    assert eval_copy(short, manifest, blob) == 2


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


def write_image_files(data_dir, train_n, test_n, seed=0):
    """Seeded synthetic 8x8 IDX files and CIFAR-10 batches for both
    splits under ``data_dir``; returns each dataset's config text."""
    rng = np.random.default_rng(seed)
    for split, n in (("train", train_n), ("test", test_n)):
        write_idx(f"{data_dir}/{split}-images", f"{data_dir}/{split}-labels",
                  rng.integers(0, 256, size=(n, 8, 8)), rng.integers(0, 10, size=n))
        raw = rng.integers(0, 256, size=(n, 3073), dtype=np.uint8)
        raw[:, 0] %= 10
        raw.tofile(f"{data_dir}/{split}.bin")
    return {
        "idx": f"dataset = idx\ndata_dir = {data_dir}\n"
               "train_images = train-images\ntrain_labels = train-labels\n"
               "test_images = test-images\ntest_labels = test-labels\n",
        "cifar10": f"dataset = cifar10\ndata_dir = {data_dir}\n"
                   "cifar_train_batches = train.bin\ncifar_test_batches = test.bin\n",
    }


@pytest.fixture(scope="module")
def image_files(tmp_path_factory):
    return write_image_files(tmp_path_factory.mktemp("images"), 200, 100)


# One epoch of a small model on any of the datasets above.
SHORT_RUN = """
head = l2svm
epochs = 1
batch_size = 50
lr_start = 0.001
conv_channels = 2, 2
conv_kernel = 3
conv_dense = 8
hidden_dims = 8
"""


def eval_reproduces_final_error(tmp_path, text):
    """Whether ``marginnet eval`` of the model trained by ``text`` under
    ``tmp_path/run``, under that same config, reports the run's final
    test error exactly."""
    with open(tmp_path / "run" / "runmeta.json") as f:
        final = json.load(f)["final"]["test_error_pct"]
    cfg = write_cfg(tmp_path, "eval.cfg", text + f"model = {tmp_path}/run/model\n"
                    f"out_dir = {tmp_path}/eval\n")
    assert run_cli(["eval", "--config", cfg])[0] == 0
    with open(tmp_path / "eval" / "eval.json") as f:
        return json.load(f)["error_pct"] == final


CIFAR_MODELS = {
    "standardized-conv": "arch = conv\nstandardize = true\n",
    "pca-mlp": "pca_dims = 16\n",
    "standardized-pca-mlp": "standardize = true\npca_dims = 16\n",
}


@pytest.mark.parametrize("model", CIFAR_MODELS.values(), ids=CIFAR_MODELS)
def test_cifar_model_evaluates_to_its_final_error(tmp_path, image_files, model):
    # standardize, PCA and the MLP take flat rows of the [N, 3, 32, 32]
    # images; a convnet without PCA takes the images as loaded
    text = image_files["cifar10"] + SHORT_RUN + model
    cfg = write_cfg(tmp_path, "t.cfg", text + f"out_dir = {tmp_path}/run\n")
    assert run_cli(["train", "--config", cfg]) == (0, "")
    assert eval_reproduces_final_error(tmp_path, text)


@settings(deadline=None, derandomize=True, max_examples=20)
@given(dataset=st.sampled_from(["blobs", "idx", "cifar10"]),
       arch=st.sampled_from(["mlp", "conv"]),
       standardize=st.booleans(),
       pca_dims=st.sampled_from([0, 3, 16, 20]),
       augment=st.booleans(),
       blobs_dim=st.sampled_from([1, 4, 16, 20, 64]),
       conv_channels=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       conv_kernel=st.sampled_from([1, 3, 5]),
       max_jitter=st.integers(0, 3))
def test_any_drawn_input_shape_trains_or_exits_2(image_files, dataset, arch,
                                                 standardize, pca_dims,
                                                 augment, blobs_dim,
                                                 conv_channels, conv_kernel,
                                                 max_jitter):
    # 1-3 conv blocks send tensor names at stack positions 0, 3, 6 and
    # the dense layer's after them through save and load.
    text = (image_files.get(dataset, "blobs_train_n = 60\nblobs_test_n = 30\n")
            + SHORT_RUN + f"arch = {arch}\nstandardize = {standardize}\n"
            f"pca_dims = {pca_dims}\naugment = {augment}\nblobs_dim = {blobs_dim}\n"
            f"conv_channels = {', '.join(map(str, conv_channels))}\n"
            f"conv_kernel = {conv_kernel}\nmax_jitter = {max_jitter}\n")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        cfg = write_cfg(tmp, "t.cfg", text + f"out_dir = {tmp}/run\n")
        code, err = run_cli(["train", "--config", cfg])
        assert code in (0, 2) and "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ")
        else:
            assert eval_reproduces_final_error(tmp, text)


@pytest.mark.parametrize("split", ["train", "test"])
def test_eval_and_ensemble_read_only_the_eval_split(tmp_path, split):
    text = (write_image_files(tmp_path, 20, 10)["idx"] + SHORT_RUN
            + f"standardize = true\nbatch_size = 10\neval_split = {split}\n")
    cfg = write_cfg(tmp_path, "t.cfg", text + f"out_dir = {tmp_path}/run\n")
    assert run_cli(["train", "--config", cfg])[0] == 0
    other = "test" if split == "train" else "train"
    for kind in ("images", "labels"):
        (tmp_path / f"{other}-{kind}").unlink()
    model = f"{tmp_path}/run/model"
    cfg = write_cfg(tmp_path, "e.cfg", text + f"model = {model}\n"
                    f"models = {model}, {model}\nout_dir = {tmp_path}/out\n")
    assert run_cli(["eval", "--config", cfg]) == (0, "")
    assert run_cli(["ensemble", "--config", cfg]) == (0, "")


@pytest.mark.parametrize("arch", ["mlp", "conv"])
def test_empty_idx_test_split_exits_2(tmp_path, capsys, arch):
    text = write_image_files(tmp_path, 8, 0)["idx"] + SHORT_RUN
    cfg = write_cfg(tmp_path, "t.cfg", text + f"arch = {arch}\nbatch_size = 4\n"
                    f"out_dir = {tmp_path}/run\n")
    assert main(["train", "--config", cfg]) == 2
    assert "cannot evaluate on an empty split" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_conv_on_a_non_square_width_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "t.cfg", CONV_BLOBS.replace(
        "blobs_dim = 64", "blobs_dim = 20") + f"out_dir = {tmp_path}/run\n")
    assert main(["train", "--config", cfg]) == 2
    assert "width 20 into square images" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text, message", [
    (TINY_BLOBS.replace("blobs_train_n = 60", "blobs_train_n = 200")
     .replace("batch_size = 20", "batch_size = 500"),
     "batch_size 500 exceeds dataset size 200"),
    (CONV_BLOBS.replace("blobs_dim = 64", "blobs_dim = 16")
     + "augment = true\nmax_jitter = 4\n",
     "max_jitter 4 too large for 4x4 images"),
], ids=["batch-size", "max-jitter"])
def test_too_large_for_the_training_split_exits_2_before_evaluation(
        tmp_path, capsys, monkeypatch, text, message):
    monkeypatch.setattr(harness, "evaluate_objectives", lambda *a: pytest.fail(
        "evaluated before the check"))
    cfg = write_cfg(tmp_path, "t.cfg", text + f"out_dir = {tmp_path}/run\n")
    assert main(["train", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_augment_under_an_mlp_exits_2_before_any_data(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.setattr(harness, "load_splits", lambda cfg, splits: pytest.fail(
        "data loaded before the augment check"))
    cfg = write_cfg(tmp_path, "t.cfg", TINY_BLOBS + "augment = true\n"
                    f"out_dir = {tmp_path}/run\n")
    assert main(["train", "--config", cfg]) == 2
    assert "augment requires arch = conv" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


class TestFileErrors:
    """An input path that names the wrong kind of file is exit code 2
    with one error line, like a missing file."""

    def test_train_images_left_empty(self, tmp_path, capsys):
        # data_dir joined with "" names the directory itself
        text = write_image_files(tmp_path, 4, 4)["idx"]
        cfg = write_cfg(tmp_path, "t.cfg", text + "train_images =\n"
                        f"hidden_dims = 4\nbatch_size = 4\nout_dir = {tmp_path}/run\n")
        assert main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "run").exists()

    def test_out_dir_under_a_regular_file(self, tmp_path, capsys, monkeypatch):
        # The directory is made after the epoch-0 row, before any update.
        monkeypatch.setattr(Network, "backprop", lambda *a, **k: pytest.fail(
            "trained before making the output directory"))
        (tmp_path / "file").write_text("")
        cfg = write_cfg(tmp_path, "t.cfg",
                        TINY_BLOBS + f"out_dir = {tmp_path}/file/run\n")
        assert main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command, key", [("eval", "model"),
                                              ("ensemble", "models")])
    def test_model_that_is_a_regular_file(self, tmp_path, capsys, command, key):
        (tmp_path / "file").write_text("")
        cfg = write_cfg(tmp_path, "t.cfg", TINY_BLOBS + f"{key} = {tmp_path}/file\n"
                        f"out_dir = {tmp_path}/out\n")
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()


class TestGradcheck:
    def test_reports_all_checks(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "gc.cfg", "hidden_dims = 8, 8\n")
        rc = main(["gradcheck", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        assert "30/30 gradient checks passed" in out
        assert "l2svm.d_w" in out

    def test_runs_on_a_shipped_recipe(self, tmp_path, capsys):
        # BLOBS has 32-wide hidden layers; the suite checks its own 8-8 mlp
        cfg = write_cfg(tmp_path, "blobs.cfg", BLOBS)
        assert main(["gradcheck", "--config", cfg]) == 0
        assert "30/30 gradient checks passed" in capsys.readouterr().out


class TestWarmstart:
    def test_swaps_objective_over_saved_stack(self, tmp_path, trained_model,
                                              capsys):
        cfg = write_cfg(
            tmp_path, "warm.cfg",
            TINY_BLOBS.replace("head = l2svm", "head = softmax")
            + f"source_model = {trained_model}\n"
            f"out_dir = {tmp_path}/warm\n",
        )
        rc = main(["train", "--config", cfg])
        assert rc == 0
        with open(tmp_path / "warm" / "runmeta.json") as f:
            meta = json.load(f)
        assert meta["warm_start"] == {"source": trained_model,
                                      "source_head": "l2svm"}
        assert meta["config"]["source_model"]["value"] == trained_model
        assert meta["head"]["kind"] == "softmax"

    def test_zero_epochs_keep_the_source_parameters(self, tmp_path,
                                                    trained_model, capsys):
        cfg = write_cfg(
            tmp_path, "warm.cfg",
            TINY_BLOBS.replace("head = l2svm", "head = softmax")
            .replace("epochs = 5", "epochs = 0")
            + f"source_model = {trained_model}\n"
            f"out_dir = {tmp_path}/warm\n",
        )
        assert main(["train", "--config", cfg]) == 0
        blob = serialize.BLOB_NAME
        assert ((tmp_path / "warm" / "model" / blob).read_bytes()
                == open(f"{trained_model}/{blob}", "rb").read())

    def test_missing_source_model_exits_2_before_any_output(self, tmp_path,
                                                            capsys,
                                                            monkeypatch):
        monkeypatch.setattr(harness, "prepare_data", lambda cfg: pytest.fail(
            "data loaded before the source model"))
        cfg = write_cfg(tmp_path, "warm.cfg", TINY_BLOBS
                        + f"source_model = {tmp_path}/nowhere\n"
                        f"out_dir = {tmp_path}/warm\n")
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nowhere" in err
        assert not (tmp_path / "warm").exists()

    def test_warmstart_is_not_a_subcommand(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "warm.cfg", TINY_BLOBS)
        with pytest.raises(SystemExit) as exit_info:
            main(["warmstart", "--config", cfg])
        assert exit_info.value.code == 2
        assert "invalid choice: 'warmstart'" in capsys.readouterr().err


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
        # a PCA member is projected by harness.pca_transform, alone or in
        # a pass shared with members of the same saved preprocessing, so
        # each basis a call projects counts as one member transformed
        cfg, model_dirs = train_members(tmp_path, "pca_dims = 2\n")
        calls = {"transform": 0, "forward": 0}

        def projected(bases, *args, _original=harness.pca_transform, **kwargs):
            calls["transform"] += len(bases) if isinstance(bases, list) else 1
            return _original(bases, *args, **kwargs)

        def forward(*args, _original=Network.forward, **kwargs):
            calls["forward"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, "pca_transform", projected)
        monkeypatch.setattr(Network, "forward", forward)
        assert main(["ensemble", "--config", cfg]) == 0
        assert calls == {"transform": 2, "forward": 2}
        monkeypatch.undo()
        # the member errors and the vote are those of the per-model entry points
        with open(tmp_path / "ens" / "ensemble.json") as f:
            report = json.load(f)
        models = [harness.load_model(d) for d in model_dirs]
        split = harness.load_split(parse_config(cfg), "test")
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


SRC = str(pathlib.Path(__file__).parent.parent / "src")


@pytest.mark.parametrize("separation, code", [
    (1e-200, 0), (5e-324, 0), (1e300, 0), (1e308, 2),
])
def test_any_blobs_separation_trains_or_exits_2_in_bounded_time(
        tmp_path, separation, code):
    # In a child process with a wall-clock limit, so a hang fails the
    # test.  The centre draw compared squared distances, which underflow
    # to 0 below a separation of about 1e-160, and rejected every
    # candidate forever; 1e308 put the centres in a box wider than the
    # largest float.
    cfg = write_cfg(tmp_path, "t.cfg", TINY_BLOBS + f"blobs_separation = {separation!r}\n"
                    f"epochs = 1\nout_dir = {tmp_path}/run\n")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from marginnet.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "train", "--config", cfg],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


# Edge values of every SCHEMA key, as config text: bounds, just past
# them, subnormals, huge and non-finite floats, and bad names.  {data}
# is a directory of seeded image files, {source} a model trained on the
# base config below, and {tmp} the directory the draws run in, which
# holds a regular file named "file".  Every run the draws start is
# small: 60 rows at most, and layers a few units wide.
FLOAT_EDGES = ("0", "5e-324", "1e-200", "0.5", "1", "1e300", "-1", "nan")
CONFIG_EDGES = {
    "dataset": ("blobs", "idx", "cifar10", "mnist"),
    "data_dir": ("{data}", "{tmp}/nowhere", "{tmp}/file", ""),
    "train_images": ("train-images", "test-images", "train-labels", "missing"),
    "train_labels": ("train-labels", "test-labels", "train-images"),
    "test_images": ("test-images", "train-images", "missing"),
    "test_labels": ("test-labels", "train-labels", "test-images"),
    "cifar_train_batches": ("train.bin", "train.bin, test.bin", "", "missing.bin"),
    "cifar_test_batches": ("test.bin", "train.bin", ""),
    "train_subset": ("0", "1", "2", "7", "1000000", "-1"),
    "blobs_train_n": ("1", "2", "7", "60", "0"),
    "blobs_test_n": ("1", "2", "30", "0"),
    "blobs_classes": ("2", "3", "10", "1"),
    "blobs_dim": ("1", "2", "16", "64", "0"),
    "blobs_separation": FLOAT_EDGES + ("1e308",),
    "pca_dims": ("0", "1", "3", "16", "1000000"),
    "standardize": ("true", "false", "maybe"),
    "augment": ("true", "false"),
    "max_jitter": ("0", "1", "3", "100", "-1"),
    "mirror": ("true", "false"),
    "arch": ("mlp", "conv", "rnn"),
    "hidden_dims": ("8", "", "1", "4, 4", "0"),
    "conv_channels": ("2, 2", "1", "3, 3, 3", "", "0"),
    "conv_kernel": ("1", "3", "5", "2", "0"),
    "conv_dense": ("1", "8", "0"),
    "conv_dropout": ("0", "0.5", "0.999", "1", "nan"),
    "init_std": FLOAT_EDGES,
    "head": ("softmax", "l1svm", "l2svm", "svm"),
    "svm_c": FLOAT_EDGES,
    "weight_decay": FLOAT_EDGES,
    "lower_weight_decay": FLOAT_EDGES,
    "epochs": ("0", "1", "2", "-1"),
    "batch_size": ("1", "7", "50", "1000000", "0"),
    "momentum": ("0", "0.5", "0.999", "1", "nan"),
    "lr_start": FLOAT_EDGES,
    "lr_end": FLOAT_EDGES,
    "noise_start": FLOAT_EDGES,
    "noise_end": FLOAT_EDGES,
    "seed": ("0", "1", "4294967296", "-1"),
    "out_dir": ("{tmp}/run", "{tmp}/a/b", "{tmp}/file"),
    "eval_split": ("train", "test", "val"),
    "model": ("", "{tmp}/nowhere"),
    "source_model": ("", "{source}", "{tmp}/nowhere", "{tmp}/file"),
    "models": ("", "{source}, {source}"),
}

# A tiny blobs run; the image keys point at the files in {data}, so a
# drawn dataset finds them.
DRAWN_BASE = """
dataset = blobs
blobs_train_n = 60
blobs_test_n = 30
blobs_classes = 3
blobs_dim = 16
data_dir = {data}
train_images = train-images
train_labels = train-labels
test_images = test-images
test_labels = test-labels
cifar_train_batches = train.bin
cifar_test_batches = test.bin
hidden_dims = 8
conv_channels = 2, 2
conv_kernel = 3
conv_dense = 8
head = l2svm
epochs = 1
batch_size = 20
lr_start = 0.01
out_dir = {tmp}/run
"""

# Runs each argv read from stdin through main in turn, in-process, with
# every warning shown, and prints one JSON line as each draw starts and
# one as it ends, so the lines up to a hang name the draw that hung.
DRAW_RUNNER = """
import contextlib, io, json, sys, traceback, warnings
from marginnet.cli import main
warnings.simplefilter("always")
for i, argv in enumerate(json.load(sys.stdin)):
    print(json.dumps({"start": i}), flush=True)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:
        code = traceback.format_exc()
    print(json.dumps({"done": i, "code": code, "err": err.getvalue()}), flush=True)
"""


def run_draws(argvs, texts, timeout=90):
    """Run each argv through ``main`` in one child process with a
    wall-clock limit.  Each must exit 0, or 2 with exactly one stderr
    line, an ``error: `` line; ``texts[i]`` describes draw i in a
    failure."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    try:
        proc = subprocess.run([sys.executable, "-c", DRAW_RUNNER], input=json.dumps(argvs),
                              capture_output=True, text=True, timeout=timeout, env=env)
        out, ended = proc.stdout, f"ended the runner ({proc.returncode}): {proc.stderr}"
    except subprocess.TimeoutExpired as expired:
        out, ended = (expired.stdout or b"").decode(), "did not end in time"
    # a kill can cut the last line short
    events = [json.loads(line) for line in out.splitlines(keepends=True)
              if line.endswith("\n")]
    done = [e for e in events if "done" in e]
    if len(done) < len(argvs):
        started = events[-1].get("start", len(done)) if events else 0
        pytest.fail(f"draw {started} {ended}\n{texts[started]}")
    for e in done:
        code, err = e["code"], e["err"]
        assert code in (0, 2) and "Traceback" not in err, (texts[e["done"]], code, err)
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (texts[e["done"]], err)


def test_every_drawn_config_trains_or_exits_2_in_bounded_time(tmp_path):
    # Each draw sets 1-5 keys to edge values; the first draws cover every
    # key.  All draws run in one child process with a wall-clock limit, so
    # a hang fails the test instead of stalling the suite.
    assert set(CONFIG_EDGES) == set(SCHEMA)
    data, tmp = tmp_path / "data", tmp_path / "draws"
    data.mkdir()
    tmp.mkdir()
    write_image_files(data, 40, 20)
    (tmp / "file").write_text("not a directory\n")
    fill = dict(data=data, tmp=tmp, source=tmp_path / "source" / "model")
    base = DRAWN_BASE.format(**fill)
    source_cfg = write_cfg(tmp_path, "source.cfg",
                           base + f"out_dir = {tmp_path}/source\n")
    assert main(["train", "--config", source_cfg]) == 0
    rng = np.random.default_rng(24)
    keys = sorted(CONFIG_EDGES)
    texts, argvs = [], []
    for i in range(1000):
        drawn = list(rng.choice(keys, size=rng.integers(1, 6), replace=False))
        if i < len(keys):
            drawn[0] = keys[i]
        lines = [f"{key} = {rng.choice(CONFIG_EDGES[key])}\n".format(**fill)
                 for key in dict.fromkeys(drawn)]
        texts.append(base + "".join(lines))
        argvs.append(["train", "--config", write_cfg(tmp_path, f"draw{i}.cfg", texts[-1])])
    run_draws(argvs, texts)


# What a drawn manifest leaf becomes.  Dimensions stay small: building a
# network from meta.arch allocates before any shape check.
MANIFEST_LEAVES = (None, True, False, -1, 0, 1, 2, 3, 64, 2.5, "x", "", [], {})

# Per dataset: model keys, and the test files that eval and ensemble read.
ARTIFACT_RUNS = {
    "idx": ("standardize = true\npca_dims = 3\nhidden_dims = 4\n",
            ("test-images", "test-labels")),
    "cifar10": ("standardize = true\narch = conv\nconv_channels = 2\nconv_kernel = 3\n"
                "conv_dense = 4\n", ("test.bin",)),
}


def drawn_bytes(blob, rng):
    """``blob`` with a few bytes replaced (half of them in a 16-byte
    header), cut short, or extended."""
    how = rng.integers(3)
    if how == 0 and blob:
        blob = bytearray(blob)
        for _ in range(rng.integers(1, 5)):
            end = min(len(blob), 16) if rng.integers(2) else len(blob)
            blob[rng.integers(end)] = rng.integers(256)
        return bytes(blob)
    if how == 1 and blob:
        return blob[: rng.integers(len(blob))]
    return blob + rng.bytes(int(rng.integers(1, 17)))


def test_every_drawn_artifact_evaluates_or_exits_2_in_bounded_time(tmp_path):
    # Each draw corrupts one artifact, a saved model's manifest leaf or
    # params.bin or an IDX or CIFAR-10 test file, and runs eval or
    # ensemble on it; an ensemble's other member is intact.  All draws run
    # in one child process with a wall-clock limit.
    data = tmp_path / "data"
    data.mkdir()
    dataset_texts = write_image_files(data, 40, 20)
    models = {}
    for dataset, (keys, _) in ARTIFACT_RUNS.items():
        cfg = write_cfg(tmp_path, f"{dataset}.cfg", dataset_texts[dataset] + keys
                        + f"epochs = 1\nbatch_size = 20\nout_dir = {tmp_path}/{dataset}\n")
        assert main(["train", "--config", cfg]) == 0
        models[dataset] = tmp_path / dataset / "model"
    rng = np.random.default_rng(33)
    texts, argvs = [], []
    for i in range(240):
        dataset = ("idx", "cifar10")[i % 2]
        target = ("manifest", "params.bin", "data")[i // 2 % 3]
        keys, test_files = ARTIFACT_RUNS[dataset]
        draw = tmp_path / f"draw{i}"
        model, data_dir = models[dataset], data
        if target == "data":
            data_dir = draw / "data"
            data_dir.mkdir(parents=True)
            name = rng.choice(test_files)
            for f in test_files:
                shutil.copy(data / f, data_dir / f)
            blob = (data / name).read_bytes()
            (data_dir / name).write_bytes(drawn_bytes(blob, rng))
            what = f"{name} of {len(blob)} bytes"
        else:
            model = draw / "model"
            shutil.copytree(models[dataset], model)
            if target == "params.bin":
                blob = (model / serialize.BLOB_NAME).read_bytes()
                (model / serialize.BLOB_NAME).write_bytes(drawn_bytes(blob, rng))
                what = f"params.bin of {len(blob)} bytes"
            else:
                manifest = json.loads((model / serialize.MANIFEST_NAME).read_text())
                paths = [p for p in key_paths(manifest) if p]
                path = paths[rng.integers(len(paths))]
                parent = manifest
                for key in path[:-1]:
                    parent = parent[key]
                if rng.integers(4) == 0:
                    del parent[path[-1]]
                    what = f"manifest without {path}"
                else:
                    parent[path[-1]] = MANIFEST_LEAVES[rng.integers(len(MANIFEST_LEAVES))]
                    what = f"manifest with {path} = {parent[path[-1]]!r}"
                (model / serialize.MANIFEST_NAME).write_text(json.dumps(manifest))
        command = ("eval", "ensemble")[rng.integers(2)]
        text = (dataset_texts[dataset].replace(str(data), str(data_dir)) + keys
                + f"out_dir = {draw}/out\n"
                + (f"model = {model}\n" if command == "eval"
                   else f"models = {model}, {models[dataset]}\n"))
        texts.append(f"{command} with {what}:\n{text}")
        argvs.append([command, "--config", write_cfg(tmp_path, f"draw{i}.cfg", text)])
    run_draws(argvs, texts)


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
