"""Output objectives: softmax cross-entropy and linear-SVM margin heads.

:func:`apply_head` is the one way to evaluate a head: a :class:`HeadSpec`
names the objective and its constants, and the call takes integer labels.
All three heads score a batch of penultimate activations h [N, D] with a
single weight matrix W [(D+1), K] whose last row is the bias (inputs are
augmented with a constant 1), and they differ only in the loss applied
to those scores.  Multiclass margin heads are one-vs-rest: class k's
machine sees target +1 on rows of class k and -1 elsewhere, and all K
machines share the augmented-input convention.  Prediction is always
the argmax of the raw scores, so heads are drop-in interchangeable at
inference time.

Losses over a minibatch of size N, writing W_k for column k of W with
its bias entry excluded from regularization, s = augment(h) @ W, Y the
one-hot targets, T = 2Y - 1 the sign targets and margins M = s * T:

    softmax:  mean_n [ -log p_{y_n} ]  +  0.5 * weight_decay * ||W_nobias||^2
    l1svm:    0.5 * ||W_nobias||^2  +  C * sum_{n,k} max(1 - M_{nk}, 0)
    l2svm:    0.5 * ||W_nobias||^2  +  C * sum_{n,k} max(1 - M_{nk}, 0)^2

The margin sums are summed over the minibatch (not averaged), matching
the gradients below; the softmax data term is a per-example mean.
:func:`objective_values` is the one place these conventions (each
family's regularizer weight, sum or mean) are written: the loss SGD
minimizes and every reported objective are read from it, and
``OWN_OBJECTIVE`` names each head's own value.

Gradients with respect to the scores, used for both d_W and the
backpropagated d_h:

    softmax:  (p - Y) / N
    l1svm:    -C * T * 1{M < 1}          (0 exactly at M == 1)
    l2svm:    -2 * C * T * max(1 - M, 0)

The l2svm gradient approaches 0 as a margin approaches 1 from either
side, so that loss is differentiable everywhere.  Every gradient here is
validated against central finite differences in the test suite.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import DTYPE, DomainError, ShapeError, argmax

# Head kind -> the :func:`objective_values` entry that head trains on.
OWN_OBJECTIVE = {"softmax": "avg_xent", "l1svm": "hinge_sum", "l2svm": "hinge_sq_sum"}
HEAD_KINDS = tuple(OWN_OBJECTIVE)

# The head constants' rules, (text, predicate) pairs as config.SCHEMA
# writes them: HeadSpec and the schema both check c and weight_decay here.
FINITE_POSITIVE = ("finite and > 0", lambda v: 0 < v < np.inf)
FINITE_NON_NEGATIVE = ("finite and >= 0", lambda v: 0 <= v < np.inf)


@dataclass
class HeadOutput:
    """Loss and exact gradients from one head evaluation.

    loss    scalar objective value (data term plus regularizer)
    scores  [N, K] raw scores, argmax of which is the prediction
    d_w     [(D+1), K] gradient w.r.t. the head weights (bias row included)
    d_h     [N, D] gradient w.r.t. the penultimate activations
    """

    loss: float
    scores: np.ndarray
    d_w: np.ndarray
    d_h: np.ndarray


@dataclass
class HeadSpec:
    """Which objective sits on top of the network, plus its constants.

    ``c`` (the margin-violation weight) and ``weight_decay`` (the
    softmax L2 weight cost) are held to the rules above under every
    kind: :func:`objective_values` reports every family.
    """

    kind: str
    num_classes: int
    c: float = 0.01
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.kind not in HEAD_KINDS:
            raise DomainError(
                f"head kind must be one of {HEAD_KINDS}, got {self.kind!r}"
            )
        if self.num_classes < 2:
            raise DomainError(
                f"need at least 2 classes, got {self.num_classes}"
            )
        for name, value, (text, holds) in (
            ("margin penalty C", self.c, FINITE_POSITIVE),
            ("weight decay", self.weight_decay, FINITE_NON_NEGATIVE),
        ):
            if not holds(value):
                raise DomainError(f"{name} must be {text}, got {value}")


def augment_ones(h):
    """Append a constant-1 column so the bias lives in the weight matrix."""
    h = np.asarray(h, dtype=DTYPE)
    if h.ndim != 2:
        raise ShapeError(f"activations must be [N, D], got shape {h.shape}")
    return np.hstack([h, np.ones((h.shape[0], 1), dtype=DTYPE)])


def head_scores(w, h, out=None, augmented=False):
    """Raw class scores augment(h) @ w for w [(D+1), K], h [N, D],
    written into ``out`` [N, K] when given.  With ``augmented``, ``h``
    is augment(h) [N, D+1] itself, and is multiplied with no copy."""
    w = np.asarray(w, dtype=DTYPE)
    ha = np.asarray(h, dtype=DTYPE) if augmented else augment_ones(h)
    if w.ndim != 2 or w.shape[0] != ha.shape[1]:
        raise ShapeError(
            f"head weights {w.shape} do not match augmented activations "
            f"{ha.shape}: need [{ha.shape[1]}, K]"
        )
    return np.matmul(ha, w, out=out)


def softmax_probs(scores):
    """Row-wise softmax, stabilized by subtracting each row's max."""
    scores = np.asarray(scores, dtype=DTYPE)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def encode_targets(labels, num_classes):
    """Encode integer labels [N] as one-hot {0,1} targets [N, num_classes].

    The margin heads' sign targets are ``2 * one_hot - 1``.  Labels
    outside [0, num_classes) are rejected.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be a vector, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise DomainError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    one_hot = np.zeros((labels.shape[0], num_classes), dtype=DTYPE)
    one_hot[np.arange(labels.shape[0]), labels] = 1.0
    return one_hot


def head_penalty(w):
    """0.5 * ||W_nobias||^2 and its gradient W_nobias: the bias row
    carries no penalty."""
    w_nb = np.array(w, dtype=DTYPE)
    w_nb[-1] = 0.0
    return 0.5 * float(np.sum(w_nb * w_nb)), w_nb


def cross_entropy(scores, targets_one_hot):
    """Mean over rows of -log softmax(scores) at the target class."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return -float(np.sum(targets_one_hot * log_probs)) / scores.shape[0]


def hinge_terms(scores, targets_sign):
    """max(1 - margin, 0) per score, with margins M = scores * T."""
    return np.maximum(1.0 - scores * targets_sign, 0.0)


def objective_values(spec, w, scores, one_hot):
    """Every objective family's value on ``scores`` [N, K] with one-hot
    targets, under head weights ``w`` and ``spec``'s constants: the
    losses of the module docstring, each with its regularizer, plus the
    two ``*_mean`` values, whose violation sums are divided by N."""
    n = scores.shape[0]
    reg, _ = head_penalty(w)
    hinge = hinge_terms(scores, 2.0 * one_hot - 1.0)
    h1, h2 = float(np.sum(hinge)), float(np.sum(hinge * hinge))
    return {
        "avg_xent": cross_entropy(scores, one_hot) + spec.weight_decay * reg,
        "hinge_sum": reg + spec.c * h1,
        "hinge_mean": reg + spec.c * h1 / n,
        "hinge_sq_sum": reg + spec.c * h2,
        "hinge_sq_mean": reg + spec.c * h2 / n,
    }


def apply_head(spec, w, h, labels):
    """Evaluate ``spec``'s head on integer labels [N]: its own loss (see
    ``OWN_OBJECTIVE``), the scores and the module docstring's gradients."""
    one_hot = encode_targets(labels, spec.num_classes)
    ha = augment_ones(h)
    w = np.asarray(w, dtype=DTYPE)
    scores = head_scores(w, ha, augmented=True)
    n = scores.shape[0]
    if one_hot.shape != scores.shape:
        raise ShapeError(
            f"{one_hot.shape[0]} labels over {spec.num_classes} classes do "
            f"not match scores {scores.shape}"
        )
    if n == 0:
        raise DomainError("a head over an empty batch is undefined")
    loss = objective_values(spec, w, scores, one_hot)[OWN_OBJECTIVE[spec.kind]]
    _, w_nb = head_penalty(w)
    if spec.kind == "softmax":
        d_scores = (softmax_probs(scores) - one_hot) / n
        d_w_penalty = spec.weight_decay * w_nb
    else:
        sign = 2.0 * one_hot - 1.0
        hinge = hinge_terms(scores, sign)
        if spec.kind == "l2svm":
            d_scores = -2.0 * spec.c * sign * hinge
        else:
            # Subgradient choice: exactly-at-margin examples (M == 1) get 0.
            d_scores = -spec.c * sign * (hinge > 0.0)
        d_w_penalty = w_nb
    # Chain d_scores back through scores = augment(h) @ w.
    d_w = ha.T @ d_scores + d_w_penalty
    d_h = (d_scores @ w.T)[:, :-1]
    return HeadOutput(loss, scores, d_w, d_h)


def predict(scores):
    """Argmax class per row; ties go to the lowest class index."""
    scores = np.asarray(scores, dtype=DTYPE)
    if scores.ndim != 2:
        raise ShapeError(f"scores must be [N, K], got shape {scores.shape}")
    return argmax(scores, axis=1)


def error_rate_pct(scores, labels):
    """Percent of rows whose argmax score disagrees with the label."""
    labels = np.asarray(labels)
    pred = predict(scores)
    if pred.shape != labels.shape:
        raise ShapeError(
            f"predictions {pred.shape} vs labels {labels.shape}"
        )
    if labels.size == 0:
        raise DomainError("error rate over an empty batch is undefined")
    return 100.0 * float(np.mean(pred != labels))
