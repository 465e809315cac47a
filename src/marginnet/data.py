"""Dataset loading and batching.

Supported sources:
    - IDX image/label file pairs (the classic big-endian binary layout:
      a 4-byte magic, big-endian u32 dimension sizes, then raw unsigned
      bytes).  Gzipped files are detected by their 1f 8b prefix and
      decompressed transparently; a truncated or corrupt gzip stream,
      or a byte after the payload its header declares, is an
      :class:`IdxFormatError`.
    - CIFAR-10 binary batches (per record: 1 label byte then 3072 pixel
      bytes, channel-major 3x32x32).
    - Synthetic Gaussian blobs with well-separated, balanced classes.

Both image loaders return the file's uint8 pixel bytes, 1/8 the size of
float64; :func:`marginnet.preprocess.to_float` scales them to [0, 1]
where rows enter the network.  Blobs are float64.

No loader fetches anything over the network; callers point at files on
disk.
"""

import contextlib
import gzip
import io
import zlib
from dataclasses import dataclass

import numpy as np

from .tensor import DTYPE, PIXELS, DomainError, ShapeError

IMAGES_MAGIC = 2051
LABELS_MAGIC = 2049

SPLITS = ("train", "val", "test")

# Classes of every IDX (MNIST digits) and CIFAR-10 dataset.
IMAGE_CLASSES = 10


class IdxFormatError(ValueError):
    """Base for malformed IDX input."""


class IdxMagicError(IdxFormatError):
    """Magic number is not the expected images/labels constant."""


class IdxTruncatedError(IdxFormatError):
    """File ends before the header-declared payload."""


class IdxCountMismatchError(IdxFormatError):
    """Image count and label count disagree."""


@dataclass
class Dataset:
    """A split of examples: inputs plus integer labels.

    inputs is [N, D] (flat features) or [N, C, H, W] (images), as
    float64 values or as uint8 pixel bytes; labels is [N] with values
    in [0, num_classes).
    """

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int
    split: str = "train"

    def __post_init__(self):
        if self.split not in SPLITS:
            raise DomainError(f"split must be one of {SPLITS}, got {self.split!r}")
        if self.labels.ndim != 1 or self.inputs.shape[0] != self.labels.shape[0]:
            raise ShapeError(
                f"inputs {self.inputs.shape} vs labels {self.labels.shape}"
            )
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise DomainError(
                f"labels must lie in [0, {self.num_classes}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )

    @property
    def n(self):
        return self.inputs.shape[0]

    def subset(self, indices, split=None):
        return Dataset(
            self.inputs[indices],
            self.labels[indices],
            self.num_classes,
            split or self.split,
        )


@contextlib.contextmanager
def _payload(path):
    """``path`` opened as a binary stream of its bytes, gunzipped when
    they start with 1f 8b; a truncated or corrupt gzip stream met while
    reading it is an :class:`IdxFormatError` naming ``path``."""
    with open(path, "rb") as f:
        gzipped = f.read(2) == b"\x1f\x8b"
        f.seek(0)
        if not gzipped:
            yield f
            return
        try:
            with gzip.open(f) as g:
                yield g
        except (EOFError, gzip.BadGzipFile, zlib.error) as e:
            raise IdxFormatError(f"{path}: corrupt gzip stream: {e}") from None


# Bytes per read into a loader's array: a gzip stream's read builds a
# bytes object of this size before copying it in.
READ_PIECE = 1 << 20


def _fill(f, out):
    """Read stream ``f`` into the contiguous uint8 array ``out``, piece by
    piece; returns the bytes read, fewer than ``out.size`` at its end."""
    view, got = memoryview(out.reshape(-1)), 0
    while got < len(view) and (read := f.readinto(view[got : got + READ_PIECE])):
        got += read
    return got


def _read_idx(path, expected_magic, expected_ndim):
    """The payload of the IDX file ``path`` (see :func:`_payload`), read
    into one read-only uint8 array shaped by its header's dimensions.
    The file must end where that payload does."""
    header_len = 4 + 4 * expected_ndim
    with _payload(path) as f:
        header = f.read(header_len)
        if len(header) < 4:
            raise IdxTruncatedError(f"{path}: shorter than a magic number")
        magic = int.from_bytes(header[0:4], "big")
        if magic != expected_magic:
            raise IdxMagicError(f"{path}: magic {magic}, expected {expected_magic}")
        if len(header) < header_len:
            raise IdxTruncatedError(f"{path}: header cut short")
        dims = [int.from_bytes(header[4 + 4 * i : 8 + 4 * i], "big")
                for i in range(expected_ndim)]
        try:
            data = np.empty(dims, dtype=PIXELS)
        except (MemoryError, ValueError):
            raise IdxTruncatedError(f"{path}: header declares {dims}, "
                                    "more than can be held") from None
        got = _fill(f, data)
        # One byte at most past the payload; at the end of a gzip stream
        # this read also checks the stream's CRC.
        extra = f.read(1)
    if got < data.size:
        raise IdxTruncatedError(
            f"{path}: payload holds {got} bytes, header declares {data.size}"
        )
    if extra:
        raise IdxFormatError(f"{path}: bytes follow its {data.size}-byte payload")
    data.flags.writeable = False
    return data


def load_idx(images_path, labels_path, split="train"):
    """Load an images/labels IDX pair into an :data:`IMAGE_CLASSES`-class
    Dataset (the MNIST digits).

    Images come out flat [N, rows*cols] as the file's uint8 bytes: the
    one read-only array, sized from the header, that the payload is read
    into.  Distinct errors separate a wrong magic, a truncated payload,
    and an image/label count mismatch.
    """
    images = _read_idx(images_path, IMAGES_MAGIC, 3)
    labels = _read_idx(labels_path, LABELS_MAGIC, 1)
    n, rows, cols = images.shape
    if len(labels) != n:
        raise IdxCountMismatchError(
            f"{images_path} holds {n} images but {labels_path} holds "
            f"{len(labels)} labels"
        )
    return Dataset(images.reshape(n, rows * cols), labels.astype(np.int64),
                   IMAGE_CLASSES, split)


def write_idx(images_path, labels_path, images_u8, labels):
    """Write an IDX pair (images [N, H, W] uint8, labels [N]); the exact
    inverse of :func:`load_idx` up to the flattening of each image."""
    images_u8 = np.asarray(images_u8, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    if images_u8.ndim != 3:
        raise ShapeError(f"images must be [N, H, W], got {images_u8.shape}")
    if labels.shape != (images_u8.shape[0],):
        raise ShapeError(
            f"labels {labels.shape} vs {images_u8.shape[0]} images"
        )
    n, h, w = images_u8.shape
    with open(images_path, "wb") as f:
        f.write(IMAGES_MAGIC.to_bytes(4, "big"))
        for d in (n, h, w):
            f.write(int(d).to_bytes(4, "big"))
        f.write(images_u8.tobytes())
    with open(labels_path, "wb") as f:
        f.write(LABELS_MAGIC.to_bytes(4, "big"))
        f.write(int(n).to_bytes(4, "big"))
        f.write(labels.tobytes())


CIFAR_RECORD = 1 + 3 * 32 * 32


def load_cifar10(batch_paths, split="train"):
    """Load CIFAR-10 binary batches into a Dataset of [N, 3, 32, 32]
    uint8 images, the file's bytes.

    Every batch is read straight into one [N, 1 + 3072] array of
    records, whose size a first pass over the files finds, and the
    images are a view of its pixel columns: the file bytes are held
    once at the peak.
    """
    if not batch_paths:
        raise DomainError("need at least one batch file")
    sizes = []
    for path in batch_paths:
        with _payload(path) as f:
            size = f.seek(0, io.SEEK_END)
        if size == 0 or size % CIFAR_RECORD:
            raise IdxFormatError(
                f"{path}: {size} bytes is not a whole number of "
                f"{CIFAR_RECORD}-byte records"
            )
        sizes.append(size)
    records = np.empty((sum(sizes) // CIFAR_RECORD, CIFAR_RECORD), dtype=PIXELS)
    start = 0
    for path, size in zip(batch_paths, sizes):
        with _payload(path) as f:
            got = _fill(f, records.reshape(-1)[start : start + size])
        if got != size:
            raise IdxTruncatedError(f"{path}: changed size while being read")
        start += size
    images = records[:, 1:].reshape(-1, 3, 32, 32)
    return Dataset(images, records[:, 0].astype(np.int64), IMAGE_CLASSES, split)


def make_blobs(n, num_classes, dim, separation, rng, split="train"):
    """Balanced Gaussian blobs with pairwise-separated centers.

    Centers are rejection-sampled in a box until every pair is at least
    ``separation`` apart; each class then gets unit-variance Gaussian
    points around its center.  Class sizes differ by at most one.
    """
    if num_classes < 2:
        raise DomainError(f"need at least 2 classes, got {num_classes}")
    if n < num_classes:
        raise DomainError(f"need at least {num_classes} points, got {n}")
    if dim < 1:
        raise DomainError(f"dim must be positive, got {dim}")
    if separation <= 0:
        raise DomainError(f"separation must be positive, got {separation}")
    half_width = separation * num_classes
    centers = np.empty((num_classes, dim), dtype=DTYPE)
    placed = 0
    while placed < num_classes:
        cand = rng.uniform(-half_width, half_width, size=dim)
        if placed and np.min(
            np.linalg.norm(centers[:placed] - cand, axis=1)
        ) < separation:
            continue
        centers[placed] = cand
        placed += 1
    labels = np.arange(n, dtype=np.int64) % num_classes
    # centers[labels] + noise, added in place: addition commutes.
    inputs = rng.normal(size=(n, dim))
    for k in range(num_classes):
        inputs[k::num_classes] += centers[k]
    return Dataset(inputs, labels, num_classes, split)


def minibatches(n, batch_size, rng):
    """One epoch of minibatch index arrays over ``n`` rows, cut from one
    fresh permutation drawn from ``rng``.

    All batches have ``batch_size`` rows except a shorter final batch
    when batch_size does not divide n.  batch_size > n is rejected
    rather than silently shrunk.
    """
    check_batch_size(n, batch_size)
    permutation = rng.permutation(n)
    return [permutation[start : start + batch_size]
            for start in range(0, n, batch_size)]


def check_batch_size(n, batch_size):
    """Raise :class:`DomainError` unless 1 <= batch_size <= n."""
    if batch_size < 1:
        raise DomainError(f"batch_size must be positive, got {batch_size}")
    if batch_size > n:
        raise DomainError(f"batch_size {batch_size} exceeds dataset size {n}")


def num_batches(n, batch_size):
    return -(-n // batch_size)

