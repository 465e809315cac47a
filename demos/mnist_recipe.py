"""The headline experiment: softmax vs L2-SVM output layers on MNIST.

With the official IDX files on disk this runs the desk-scale recipe,
``marginnet.recipes.DESK`` (PCA-70, two 256-unit hidden layers, 60
epochs, five seeds per head, roughly 15-20 minutes of CPU), and prints
the per-seed test errors, the head-to-head mean gap, and a
cross-objective table.  The files are looked up by
``recipes.find_mnist``: $MNIST_DIR first, then data/mnist/.  Without
them it prints download instructions and runs the same recipe, shrunk
by one block of overrides, on a small synthetic stand-in so every step
is still shown working.

Run: python3 demos/mnist_recipe.py
Pass --full to run the full-scale recipe, ``recipes.FULL``, instead
(hours of CPU; needs the official files).
"""

import os
import sys
import tempfile

import numpy as np

from marginnet.config import parse_config_text
from marginnet.data import load_idx, make_blobs, write_idx
from marginnet.harness import cross_objective_eval, load_model, train
from marginnet.recipes import (
    DESK,
    FULL,
    MNIST_FILES,
    MNIST_HELP,
    find_mnist,
    mnist_data,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def synthetic_stand_in():
    """28x28 uint8 images of well-separated 784-dim blobs."""
    print(MNIST_HELP)
    print("\nRunning the identical pipeline on a synthetic stand-in instead.\n")
    ds = make_blobs(1200, 10, 784, 40.0, np.random.default_rng(0))
    x = ds.inputs
    x = (x - x.min()) / (x.max() - x.min()) * 255.0
    images = x.astype(np.uint8).reshape(-1, 28, 28)
    labels = ds.labels.astype(np.uint8)
    root = tempfile.mkdtemp(prefix="standin_mnist_")
    names = {k: v[1] for k, v in MNIST_FILES.items()}
    write_idx(os.path.join(root, names["train_images"]),
              os.path.join(root, names["train_labels"]),
              images[:1000], labels[:1000])
    write_idx(os.path.join(root, names["test_images"]),
              os.path.join(root, names["test_labels"]),
              images[1000:], labels[1000:])
    return root, names


found = find_mnist(os.path.join(REPO_ROOT, "data", "mnist"))
real = found is not None
root, names = found if real else synthetic_stand_in()
workdir = tempfile.mkdtemp(prefix="mnist_demo_")

# the synthetic stand-in shrinks (and cools: the full learning rate
# diverges on its very different pixel statistics) the desk-scale
# recipe down to seconds by overriding five of its keys
STAND_IN = "" if real else """
train_subset = 0
pca_dims = 20
hidden_dims = 64
epochs = 15
lr_start = 0.02
"""
seeds = (0, 1, 2, 3, 4) if real else (0, 1)


def recipe(head, seed, out_dir, full=False):
    return (mnist_data(root, names) + (FULL if full else DESK + STAND_IN)
            + f"head = {head}\nseed = {seed}\nout_dir = {out_dir}\n")


if "--full" in sys.argv:
    if not real:
        sys.exit("--full needs the official files (see above)")
    print("running the FULL recipe; this takes hours of CPU...")
    for head in ("softmax", "l2svm"):
        cfg = parse_config_text(recipe(head, 0, f"{workdir}/full_{head}",
                                       full=True))
        res = train(cfg)
        print(f"{head}: final test error "
              f"{res.metrics[-1]['test_error_pct']:.2f}%")
    sys.exit(0)

scale = "desk-scale" if real else "stand-in"
print(f"=== {scale} recipe: {len(seeds)} seeds per head ===")
runs = {}
for head in ("softmax", "l2svm"):
    errs = []
    for seed in seeds:
        cfg = parse_config_text(recipe(head, seed, f"{workdir}/{head}_{seed}"))
        runs[head, seed] = train(cfg)
        err = runs[head, seed].metrics[-1]["test_error_pct"]
        errs.append(err)
        print(f"  {head} seed {seed}: test error {err:.2f}%")
    print(f"  {head} mean: {float(np.mean(errs)):.3f}%\n")

soft_mean = float(np.mean(
    [runs['softmax', s].metrics[-1]['test_error_pct'] for s in seeds]))
svm_mean = float(np.mean(
    [runs['l2svm', s].metrics[-1]['test_error_pct'] for s in seeds]))
print(f"mean gap (softmax - l2svm): {soft_mean - svm_mean:+.3f} points")

print("\n=== cross-objective view, seed 0 pair ===")
raw_test = load_idx(os.path.join(root, names["test_images"]),
                    os.path.join(root, names["test_labels"]), split="test")
print(f"{'model':>8} | {'err%':>6} | {'avg xent':>9} | {'sq hinge sum':>12}")
for head in ("softmax", "l2svm"):
    model = load_model(runs[head, 0].model_dir)
    rep = cross_objective_eval(model, raw_test)
    print(f"{head:>8} | {rep.error_pct:6.2f} | {rep.avg_xent:9.4f} | "
          f"{rep.hinge_sq_sum:12.2f}")
print("""
Each head wins its own game: the softmax model has lower cross-entropy,
the margin model lower squared hinge.  That the margin model still
tends to win on ERROR is the point of the whole exercise: optimizing
margins rather than likelihoods changes which mistakes training cares
about, not just by how much.""")

print("""
the same experiments from the command line:
  marginnet train     --config desk_l2svm.cfg
  marginnet train     --config desk_soft.cfg    # + source_model = <run>/model
  marginnet eval      --config desk_l2svm.cfg   # + model = <run>/model
  marginnet ensemble  --config desk_l2svm.cfg   # + models = <run1>/model, <run2>/model
  marginnet gradcheck --config desk_l2svm.cfg""")
print(f"\n(run artifacts left in {workdir} for inspection)")
