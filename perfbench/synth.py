"""Seeded synthetic stand-ins for the MNIST files.

The benchmark cannot read the official MNIST files, so every workload
trains and scores on images generated here.  Ten Gaussian classes live
in a 20-dimensional latent space with centres about ``separation``
apart; a fixed random projection maps each latent point to 28x28
pixels, which are quantised to bytes and written as gzipped IDX pairs
that ``marginnet.data.load_idx`` reads like the real files.  Plain
high-dimensional blobs separate perfectly; this generator leaves a
test error of a few percent, so the objectives have work to do.
"""

import gzip
import os

import numpy as np

from marginnet.data import IMAGES_MAGIC, LABELS_MAGIC

SIDE = 28
CLASSES = 10
LATENT = 20


def make_images(seed, counts, separation=5.0):
    """One labelled image set per entry of ``counts``, all drawn from the
    same class layout.  Returns [(images uint8 [N, 28, 28], labels [N])]."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(CLASSES, LATENT)) * (separation / np.sqrt(2 * LATENT))
    projection = rng.normal(size=(LATENT, SIDE * SIDE)) / np.sqrt(LATENT)
    out = []
    for n in counts:
        labels = rng.integers(0, CLASSES, size=n)
        latent = centres[labels] + rng.normal(size=(n, LATENT))
        pixels = np.clip(np.rint(128.0 + 40.0 * (latent @ projection)), 0, 255)
        out.append((pixels.astype(np.uint8).reshape(n, SIDE, SIDE), labels))
    return out


def write_idx_gz(data_dir, stem, images, labels):
    """Write ``<stem>-images.gz`` and ``<stem>-labels.gz`` (gzipped IDX:
    big-endian magic and sizes, then raw bytes) under data_dir and
    return their file names.  The library's ``write_idx`` writes only
    uncompressed files, and compressing those afterwards would double
    the set-up I/O."""
    n, h, w = images.shape
    parts = (
        ("images", (IMAGES_MAGIC, n, h, w), images),
        ("labels", (LABELS_MAGIC, n), labels),
    )
    names = []
    for part, header, payload in parts:
        name = f"{stem}-{part}.gz"
        with gzip.open(os.path.join(data_dir, name), "wb", compresslevel=1) as f:
            f.write(b"".join(int(v).to_bytes(4, "big") for v in header))
            f.write(np.ascontiguousarray(payload, dtype=np.uint8).tobytes())
        names.append(name)
    return names


def idx_config_lines(data_dir, train_names, test_names):
    """The config keys that point ``dataset = idx`` at written files."""
    return [
        "dataset = idx",
        f"data_dir = {data_dir}",
        f"train_images = {train_names[0]}",
        f"train_labels = {train_names[1]}",
        f"test_images = {test_names[0]}",
        f"test_labels = {test_names[1]}",
    ]
