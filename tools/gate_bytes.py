"""Train the byte-identity gate configs and print their artifact
hashes, then hash the gradient-check report.

    python3 tools/gate_bytes.py
    python3 tools/gate_bytes.py --against REF

With ``--against``, ``REF`` names a git revision of this repository:
its ``src`` and ``tools`` are extracted (``git archive``) into a
temporary directory, and its own gate tool runs there while this one
runs here, both at 1 BLAS thread.  Every line whose hashes differ is
printed with both values; the exit status is 1 if any differs, and 2
if ``git archive`` or a gate run fails.

A refactor counts as "same behaviour" when every gate config still
writes a byte-identical ``metrics.csv`` and ``model/params.bin``.  Each
config trains in its own temporary directory with the library from the
``src/`` beside this directory; one line per config gives the first 16
hex digits of the SHA-256 of ``metrics.csv``, of ``params.bin`` and of
the optimizer's velocities after the run, concatenated in named-tensor
order: the state an exact resume must restore beside the parameters.
Gates 1-4 and 6-8 train from scratch; gate 5 warm-starts a 2-epoch
softmax run from gate 1's model through ``source_model``.  Gate 6 is a
convnet at MNIST's geometry (1x28x28 inputs, k = 5, pooled to 14x14
and 7x7) whose 37-row batches end in a partial block of images.  Gates
1-6 train on blobs; gates 7 and 8 read seeded 12x12 IDX files, written
with ``data.write_idx``, through the image loader: gate 7 is a
standardized, PCA-projected MLP, gate 8 a convnet with augment and no
standardization, which scales each minibatch's bytes as it is drawn.
A next line gives the
same digits of ``marginnet gradcheck``'s stdout for each of the configs
``seed = 0``, ``42`` and ``123``.  The last line, ``names``, gives them
for the tensor lists of every gate model's manifest (names and shapes,
in order, gate by gate), so a renamed tensor shows even where its bytes
do not change.  A last line, ``ensemble``, gives them for the
``member_scores`` bytes and the ``ensemble.json`` of three members on
gate 7's data: gate 7's model, one at another ``pca_dims`` (same
standardizer and PCA mean) and one under L1-SVM (same basis).

The bytes depend on the OpenBLAS kernel the CPU gets, so the hashes are
compared between two checkouts on one machine, not against constants
in a test.  The BLAS thread count is pinned to 1 before numpy loads:
the conv GEMMs round differently at other thread counts.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tarfile
import tempfile

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from marginnet.cli import main as cli_main  # noqa: E402
from marginnet.config import parse_config_text  # noqa: E402
from marginnet.data import write_idx  # noqa: E402
from marginnet.harness import load_model, load_split, member_scores, train  # noqa: E402
from marginnet.serialize import read_manifest  # noqa: E402

# Blobs, standardized and PCA-projected, under a 256-256 MLP.
MLP = """
blobs_classes = 10
blobs_dim = 70
blobs_train_n = 2000
blobs_test_n = 1000
standardize = true
pca_dims = 40
hidden_dims = 256, 256
init_std = 0.1
svm_c = 0.001
noise_start = 0.3
noise_end = 0.3
epochs = 3
lr_start = 0.01
"""

# Blobs as 1x8x8 images under a small convnet with dropout and augment.
CONV = """
blobs_classes = 4
blobs_dim = 64
blobs_train_n = 400
blobs_test_n = 200
arch = conv
conv_channels = 2, 4
conv_kernel = 3
conv_dense = 16
conv_dropout = 0.2
augment = true
max_jitter = 1
head = l2svm
svm_c = 0.01
init_std = 0.1
lower_weight_decay = 0.01
epochs = 3
batch_size = 50
lr_start = 0.01
"""

# Blobs as 1x28x28 images: MNIST's conv geometry at a few channels.
CONV_MNIST = """
blobs_classes = 4
blobs_dim = 784
blobs_train_n = 300
blobs_test_n = 100
arch = conv
conv_channels = 4, 8
conv_kernel = 5
conv_dense = 32
conv_dropout = 0.2
augment = true
max_jitter = 2
head = l2svm
svm_c = 0.01
init_std = 0.1
epochs = 2
batch_size = 37
lr_start = 0.01
"""

# The IDX files write_idx_files puts under {tmp}/idx.
IDX = """
dataset = idx
data_dir = {tmp}/idx
train_images = train-images
train_labels = train-labels
test_images = test-images
test_labels = test-labels
"""

IDX_MLP = IDX + """
standardize = true
pca_dims = 16
hidden_dims = 32, 32
init_std = 0.1
head = l2svm
svm_c = 0.01
noise_start = 0.1
noise_end = 0.1
epochs = 2
batch_size = 48
lr_start = 0.001
"""

# 1x12x12 images, pooled to 6x6 and 3x3; 300 rows end in a short batch.
IDX_CONV = IDX + """
arch = conv
conv_channels = 2, 4
conv_kernel = 3
conv_dense = 16
conv_dropout = 0.2
augment = true
max_jitter = 1
head = l2svm
svm_c = 0.01
init_std = 0.1
epochs = 2
batch_size = 64
lr_start = 0.01
"""

GATES = (
    MLP + "head = l2svm\n",
    MLP + "head = softmax\nlower_weight_decay = 0.01\n",
    MLP + "head = l1svm\nlower_weight_decay = 0.05\n",
    CONV,
    # {tmp} is the directory the gates train under: gate 1 wrote {tmp}/1.
    MLP.replace("epochs = 3", "epochs = 2")
    + "head = softmax\nsource_model = {tmp}/1/model\n",
    CONV_MNIST,
    IDX_MLP,
    IDX_CONV,
)

GRADCHECK_SEEDS = (0, 42, 123)

# Gate 7's config with one change each: beside gate 7's model, two widths
# that share a standardizer and a PCA mean, and two heads that share one
# basis.
ENSEMBLE_MEMBERS = (
    IDX_MLP.replace("pca_dims = 16", "pca_dims = 25"),
    IDX_MLP.replace("head = l2svm", "head = l1svm"),
)


def sha16(data):
    return hashlib.sha256(data).hexdigest()[:16]


def file_sha16(path):
    with open(path, "rb") as f:
        return sha16(f.read())


def gradcheck_sha16(config_path):
    """sha16 of what ``marginnet gradcheck --config config_path`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main(["gradcheck", "--config", config_path])
    return sha16(out.getvalue().encode())


def ensemble_sha16s(tmp):
    """sha16 of the ``member_scores`` bytes of gate 7's model and the
    ``ENSEMBLE_MEMBERS`` on gate 7's test split, and of the
    ``ensemble.json`` that ``marginnet ensemble`` writes for them, run
    from ``tmp`` with the model paths relative to it."""
    dirs = ["7/model"]
    for i, text in enumerate(ENSEMBLE_MEMBERS):
        train(parse_config_text(text.replace("{tmp}", tmp)
                                + f"out_dir = {tmp}/ensemble{i}\n"))
        dirs.append(f"ensemble{i}/model")
    text = IDX.replace("{tmp}", tmp) + f"models = {', '.join(dirs)}\nout_dir = ensemble\n"
    models = [load_model(os.path.join(tmp, d)) for d in dirs]
    scores = member_scores(models, load_split(parse_config_text(text), "test").inputs)
    path = os.path.join(tmp, "ensemble.cfg")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    here = os.getcwd()
    os.chdir(tmp)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["ensemble", "--config", path])
    finally:
        os.chdir(here)
    return (sha16(b"".join(s.tobytes() for s in scores)) + "/"
            + file_sha16(os.path.join(tmp, "ensemble", "ensemble.json")))


def write_idx_files(directory):
    """Seeded 12x12 IDX images of 4 classes for both splits: random bytes
    inside a zero border, as MNIST has, with 20 repeated images, so the
    PCA's row order meets constant columns and tied rows."""
    os.makedirs(directory)
    rng = np.random.default_rng(7)
    for split, n in (("train", 300), ("test", 100)):
        images = np.zeros((n, 12, 12), dtype=np.uint8)
        images[:, 1:-1, 1:-1] = rng.integers(0, 256, size=(n, 10, 10))
        images[n // 2 : n // 2 + 20] = images[:20]
        write_idx(os.path.join(directory, f"{split}-images"),
                  os.path.join(directory, f"{split}-labels"),
                  images, rng.integers(0, 4, size=n))


def against(ref):
    """Run the gates of ``ref`` and of this checkout side by side and
    print the lines that differ; returns the exit status."""
    with tempfile.TemporaryDirectory(prefix="gate_bytes_ref_") as tmp:
        git = subprocess.run(["git", "-C", ROOT, "archive", ref, "src", "tools"],
                             stdout=subprocess.PIPE)
        if git.returncode:
            return 2
        with tarfile.open(fileobj=io.BytesIO(git.stdout)) as tar:
            tar.extractall(tmp)
        runs = [subprocess.Popen(
            [sys.executable, os.path.join(root, "tools", "gate_bytes.py")],
            stdout=subprocess.PIPE, text=True) for root in (tmp, ROOT)]
        outputs = [run.communicate()[0].splitlines() for run in runs]
    if any(run.returncode for run in runs):
        print("a gate run failed")
        return 2
    differ = [(theirs, ours) for theirs, ours
              in itertools.zip_longest(*outputs, fillvalue="(no line)")
              if theirs != ours]
    for theirs, ours in differ:
        print(f"{ref}: {theirs}\nhere: {ours}")
    print(f"{'differs from' if differ else 'same bytes as'} {ref}")
    return int(bool(differ))


def main():
    parser = argparse.ArgumentParser(description="print the gate hashes")
    parser.add_argument("--against", metavar="REF",
                        help="compare with the gates of git revision REF")
    ref = parser.parse_args().against
    if ref is not None:
        sys.exit(against(ref))
    with tempfile.TemporaryDirectory(prefix="gate_bytes_") as tmp:
        write_idx_files(os.path.join(tmp, "idx"))
        tensor_lists = []
        for i, text in enumerate(GATES, start=1):
            state = train(parse_config_text(
                text.replace("{tmp}", tmp)
                + f"out_dir = {os.path.join(tmp, str(i))}\n"))
            velocities = b"".join(v.tobytes() for v in state.optimizer.velocities)
            print(f"{i} {file_sha16(state.csv_path)}/"
                  f"{file_sha16(os.path.join(state.model_dir, 'params.bin'))}/"
                  f"{sha16(velocities)}")
            tensor_lists.append(read_manifest(state.model_dir)["tensors"])
        digests = []
        for seed in GRADCHECK_SEEDS:
            path = os.path.join(tmp, f"gradcheck_{seed}.cfg")
            with open(path, "w", encoding="utf-8") as f:
                f.write(f"seed = {seed}\n")
            digests.append(gradcheck_sha16(path))
        print("gradcheck " + "/".join(digests))
        print("names " + sha16(json.dumps(tensor_lists).encode()))
        print("ensemble " + ensemble_sha16s(tmp))


if __name__ == "__main__":
    main()
