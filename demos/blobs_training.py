"""End-to-end training on synthetic blobs: both objectives, a warm
start, and an ensemble, all in a few seconds of CPU.

Everything a full experiment produces is shown: the metrics table, the
run artifacts on disk, cross-objective evaluation of the saved models,
an objective swap that provably changes nothing at step 0, and score
averaging across seeds.

Run: python3 demos/blobs_training.py
"""

import os
import tempfile

import numpy as np

from marginnet.config import parse_config_text
from marginnet.data import load_idx, make_blobs, write_idx
from marginnet.harness import (
    cross_objective_eval,
    ensemble_predict,
    load_model,
    load_split,
    train,
)
from marginnet.recipes import BLOBS, mnist_data

workdir = tempfile.mkdtemp(prefix="blobs_demo_")

BASE = BLOBS + "blobs_classes = 4\n"


def run(base, head, seed, tag, epochs=None):
    text = base + f"head = {head}\nseed = {seed}\nout_dir = {workdir}/{tag}\n"
    if epochs is not None:
        text += f"epochs = {epochs}\n"
    cfg = parse_config_text(text)
    return train(cfg)


print("=== train the same task under both objectives ===")
results = {}
for head in ("softmax", "l2svm"):
    res = run(BASE, head, seed=0, tag=head)
    results[head] = res
    first, last = res.metrics[0], res.metrics[-1]
    print(f"\n{head}: {res.updates} updates")
    print(f"  epoch   0: train_loss {first['train_loss']:.4f}  "
          f"test_error {first['test_error_pct']:.1f}%")
    print(f"  epoch {last['epoch']:3d}: train_loss {last['train_loss']:.4f}  "
          f"test_error {last['test_error_pct']:.1f}%")

print("\nartifacts written for the l2svm run:")
for name in sorted(os.listdir(results["l2svm"].out_dir)):
    print("  ", name)

print("\n=== cross-objective evaluation of the saved models ===")
# reload the splits the seed-0 runs trained on (BASE's default seed is 0)
# but without the fitted preprocessing: each saved model applies its own
raw_test = load_split(parse_config_text(BASE), "test")
print(f"{'model':>8} | {'err%':>5} | {'avg xent':>9} | {'sq hinge sum':>12}")
for head in ("softmax", "l2svm"):
    model = load_model(results[head].model_dir)
    rep = cross_objective_eval(model, raw_test)
    print(f"{head:>8} | {rep.error_pct:5.1f} | {rep.avg_xent:9.4f} | "
          f"{rep.hinge_sq_sum:12.4f}")
print("(each model is best at the objective it trained on)")

print("\n=== warm start: swap the objective, keep the network ===")
# same seed as the source run, so the data stream is identical and the
# only thing that changes is the objective; source_model names the saved
# model whose parameters the run starts from
WARM = (BASE + "head = softmax\nseed = 0\n"
        f"source_model = {results['l2svm'].model_dir}\n")
src = load_model(results["l2svm"].model_dir)
swapped = train(
    parse_config_text(WARM + f"epochs = 0\nout_dir = {workdir}/swap0\n"))
test_inputs = swapped.prepared.network_inputs(swapped.prepared.test.inputs)
same = np.array_equal(
    swapped.network.predict(test_inputs), src.network.predict(test_inputs)
)
print("epochs=0 softmax warm start of the l2svm model predicts "
      f"identically to its source: {same}")

cont = train(
    parse_config_text(WARM + f"epochs = 20\nout_dir = {workdir}/swap20\n"))
print(f"after 20 softmax epochs from that start: test_error "
      f"{cont.metrics[-1]['test_error_pct']:.1f}%  "
      f"(training resumed under the new objective, nothing was reset)")

print("\n=== ensemble: average scores across differently-seeded runs ===")
# ensemble members must see the SAME data while differing in their
# initialization, so freeze one blob sample into IDX files first
# (quantizing the coordinates to uint8 pixels).  Modest separation
# plus deliberately short member training leaves each member with its
# own mistakes, so averaging has something to average away.
sample = make_blobs(300, 10, 2, 4.0, np.random.default_rng(99))
coords = sample.inputs
lo, hi = coords.min(), coords.max()
pixels = np.clip((coords - lo) / (hi - lo) * 255.0, 0, 255)
pixels = pixels.astype(np.uint8).reshape(-1, 1, 2)
labels = sample.labels.astype(np.uint8)
idx_dir = os.path.join(workdir, "frozen")
os.makedirs(idx_dir)
write_idx(os.path.join(idx_dir, "train-img"),
          os.path.join(idx_dir, "train-lab"), pixels[:200], labels[:200])
write_idx(os.path.join(idx_dir, "test-img"),
          os.path.join(idx_dir, "test-lab"), pixels[200:], labels[200:])

FROZEN = BLOBS + mnist_data(idx_dir, {
    "train_images": "train-img", "train_labels": "train-lab",
    "test_images": "test-img", "test_labels": "test-lab",
})

members = [
    load_model(run(FROZEN, "l2svm", seed=s, tag=f"member{s}",
                   epochs=15).model_dir)
    for s in (1, 2, 3)
]
test = load_idx(os.path.join(idx_dir, "test-img"),
                os.path.join(idx_dir, "test-lab"), split="test")
member_errs = [
    100.0 * np.mean(m.network.predict(m.transform(test.inputs)) != test.labels)
    for m in members
]
ens_pred = ensemble_predict(members, test.inputs)
ens_err = 100.0 * np.mean(ens_pred != test.labels)
print("member test errors:", [f"{e:.1f}%" for e in member_errs])
print(f"ensemble test error: {ens_err:.1f}%")
print(f"\n(run artifacts left in {workdir} for inspection)")
