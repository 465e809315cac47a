"""What changes when you swap the output objective, and what doesn't.

Three heads share one prediction rule (argmax of the same linear
scores); they differ only in the loss attached to those scores and in
the gradient that loss sends back.  This script walks one tiny batch
through all three and prints every number that matters.

Run: python3 demos/objective_heads.py
"""

import numpy as np

from marginnet.heads import (
    HeadSpec,
    apply_head,
    encode_targets,
    head_scores,
    predict,
    softmax_probs,
)


def section(title):
    print(f"\n=== {title} ===")


rng = np.random.default_rng(7)

# a 4-example batch of 3-dim penultimate activations, 3 classes
h = rng.normal(size=(4, 3)).round(2)
labels = np.array([0, 2, 1, 2])
w = rng.normal(scale=0.5, size=(4, 3)).round(2)  # rows: 3 dims + bias

section("shared scores")
scores = head_scores(w, h)
print("penultimate activations h:\n", h)
print("head weights w (last row is the bias, one column per class):\n", w)
print("scores = [h, 1] @ w:\n", scores.round(4))
print("argmax predictions:", predict(scores), " true labels:", labels)

section("softmax head: mean cross-entropy")
one_hot = encode_targets(labels, 3)
soft = apply_head(HeadSpec("softmax", 3, weight_decay=0.001), w, h, labels)
probs = softmax_probs(scores)
print("probabilities:\n", probs.round(4))
print("loss (mean xent + 0.5*wd*||w_nobias||^2):", round(soft.loss, 6))
print("d_scores rows sum to ~0 (prob mass shifts between classes):")
print(" ", ((probs - one_hot) / len(labels)).sum(axis=1).round(12))

section("margin heads: one-vs-rest hinge on the same scores")
sign = 2.0 * one_hot - 1.0
print("sign targets (+1 own class, -1 the rest):\n", sign)
margins = scores * sign
print("margins score*sign (want every entry >= 1):\n", margins.round(4))
l1 = apply_head(HeadSpec("l1svm", 3, c=0.1), w, h, labels)
l2 = apply_head(HeadSpec("l2svm", 3, c=0.1), w, h, labels)
print("L1 loss  0.5*||w_nb||^2 + C*sum max(1-m,0)  :", round(l1.loss, 6))
print("L2 loss  0.5*||w_nb||^2 + C*sum max(1-m,0)^2:", round(l2.loss, 6))

section("the gradient each head sends to the stack")
print("softmax d_h row 0:", soft.d_h[0].round(4))
print("l1svm   d_h row 0:", l1.d_h[0].round(4))
print("l2svm   d_h row 0:", l2.d_h[0].round(4))
print("""
The L1 gradient is piecewise constant in the margin (a violated margin
pulls with fixed force C); the L2 gradient grows linearly with the
violation, so badly-wrong examples pull harder and exactly-satisfied
margins pull not at all.""")

section("what the regularizer touches")
bias_only = np.zeros_like(w)
bias_only[-1] = np.array([5.0, -3.0, 2.0])
with_wd = apply_head(HeadSpec("softmax", 3, weight_decay=1.0), bias_only, h, labels)
no_wd = apply_head(HeadSpec("softmax", 3, weight_decay=0.0), bias_only, h, labels)
print("bias-only weights, wd=1 vs wd=0 loss:",
      round(with_wd.loss, 9), "vs", round(no_wd.loss, 9),
      "(identical: the bias row is never decayed)")

section("predictions are objective-independent")
same = np.array_equal(predict(soft.scores), predict(l2.scores))
print("same weights, same scores, same argmax under every head:", same)
print("""
Swapping the head therefore changes how a network trains, never how a
trained score matrix is read out.""")
