"""marginnet: neural network training with interchangeable output
objectives (softmax cross-entropy, L1-SVM hinge, L2-SVM squared hinge).

The public surface re-exported here covers the everyday path: build a
network, pick a head, train it, compare objectives.  Submodules hold
the rest (layers, preprocess, data, optim, gradcheck, serialize,
recipes).
"""

from .config import ConfigError, parse_config, parse_config_text
from .data import Dataset, load_cifar10, load_idx, make_blobs, minibatches
from .gradcheck import GradCheckResult, check_gradient, fd_gradient, gradcheck_suite
from .harness import (
    ObjectiveReport,
    TrainingDivergedError,
    cross_objective_eval,
    ensemble_predict,
    evaluate_objectives,
    load_model,
    train,
)
from .heads import (
    HeadOutput,
    HeadSpec,
    apply_head,
    encode_targets,
    head_scores,
    predict,
    softmax_probs,
)
from .network import Network, build_convnet, build_mlp
from .optim import LinearSchedule, SgdMomentum
from .preprocess import (
    PcaModel,
    PixelStandardizer,
    augment,
    pca_fit,
    pca_transform,
)
from .tensor import DomainError, ShapeError

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Dataset",
    "DomainError",
    "GradCheckResult",
    "HeadOutput",
    "HeadSpec",
    "LinearSchedule",
    "Network",
    "ObjectiveReport",
    "PcaModel",
    "PixelStandardizer",
    "SgdMomentum",
    "ShapeError",
    "TrainingDivergedError",
    "apply_head",
    "augment",
    "build_convnet",
    "build_mlp",
    "check_gradient",
    "cross_objective_eval",
    "encode_targets",
    "ensemble_predict",
    "evaluate_objectives",
    "fd_gradient",
    "gradcheck_suite",
    "head_scores",
    "load_cifar10",
    "load_idx",
    "load_model",
    "make_blobs",
    "minibatches",
    "parse_config",
    "parse_config_text",
    "pca_fit",
    "pca_transform",
    "predict",
    "softmax_probs",
    "train",
]
