"""The experiment recipes, each written once as config text.

A recipe holds no per-run keys.  A caller appends ``head``, ``seed``,
``out_dir`` and any overrides as extra lines; when a key repeats, the
parser keeps its last value::

    text = mnist_data(root, names) + DESK + "head = l2svm\\nseed = 0\\n"
    cfg = parse_config_text(text + "out_dir = runs/desk_l2svm\\n")

``BLOBS`` is the synthetic stand-in the separable-oracle criterion
trains on; ``DESK`` and ``FULL`` are the desk-scale and full-scale MNIST
recipes, whose data keys come from :func:`mnist_data` over the files
:func:`find_mnist` located.
"""

import os

BLOBS = """
dataset = blobs
blobs_train_n = 100
blobs_test_n = 100
blobs_dim = 2
blobs_separation = 20.0
standardize = true
hidden_dims = 32
weight_decay = 0.001
svm_c = 0.1
epochs = 200
batch_size = 25
momentum = 0.9
lr_start = 0.02
lr_end = 0.0
"""

DESK = """
train_subset = 10000
pca_dims = 70
hidden_dims = 256, 256
init_std = 0.1
svm_c = 0.01
weight_decay = 0.001
epochs = 60
batch_size = 200
momentum = 0.9
lr_start = 0.1
lr_end = 0.0
noise_start = 0.3
noise_end = 0.0
"""

FULL = DESK + """train_subset = 0
hidden_dims = 512, 512
epochs = 400
noise_start = 1.0
"""

# config key -> accepted file names, gzipped first
MNIST_FILES = {
    "train_images": ("train-images-idx3-ubyte.gz", "train-images-idx3-ubyte"),
    "train_labels": ("train-labels-idx1-ubyte.gz", "train-labels-idx1-ubyte"),
    "test_images": ("t10k-images-idx3-ubyte.gz", "t10k-images-idx3-ubyte"),
    "test_labels": ("t10k-labels-idx1-ubyte.gz", "t10k-labels-idx1-ubyte"),
}

MNIST_HELP = (
    "official MNIST files not found; place train-images-idx3-ubyte.gz, "
    "train-labels-idx1-ubyte.gz, t10k-images-idx3-ubyte.gz, "
    "t10k-labels-idx1-ubyte.gz (gzipped or not) in $MNIST_DIR or "
    "<repo>/data/mnist. They are mirrored at "
    "https://storage.googleapis.com/cvdf-datasets/mnist/ and "
    "https://ossci-datasets.s3.amazonaws.com/mnist/"
)


def find_mnist(default_root):
    """Return ``(root, {key: file name})`` for the four MNIST files, or
    None.  ``$MNIST_DIR`` is searched first, then ``default_root``; a
    root counts only when it holds all four files."""
    roots = [os.environ["MNIST_DIR"]] if os.environ.get("MNIST_DIR") else []
    roots.append(default_root)
    for root in roots:
        found = {}
        for key, names in MNIST_FILES.items():
            for name in names:
                if os.path.isfile(os.path.join(root, name)):
                    found[key] = name
                    break
        if len(found) == len(MNIST_FILES):
            return root, found
    return None


def mnist_data(root, names):
    """The ``dataset = idx`` data keys for the files ``names`` (config
    key -> file name) under ``root``."""
    return f"\ndataset = idx\ndata_dir = {root}\n" + "".join(
        f"{key} = {names[key]}\n" for key in MNIST_FILES
    )
