"""Input preprocessing: pixel scaling, PCA, per-pixel standardization,
and train-time augmentation.

Loaded pixels are uint8 bytes; :func:`to_float` is the one conversion
to float64 values, and ``PixelStandardizer.apply`` is the one place the
standardizing formula is written.  ``PixelStandardizer.fit`` and
:func:`pca_transform` convert byte rows a block at a time, and
:func:`pca_fit` converts only the copy it gathers, so no other float
copy of a byte split is made; each gives the bytes of the same call on
``to_float`` of the rows.  :func:`pca_fit` sums its rows in
lexicographic order, found by one numpy sort of the rows as given.

Everything here is deterministic given its inputs (and the rng handed
to :func:`augment`); fitted transforms are plain dataclasses of arrays
so they serialize alongside model weights.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .tensor import DTYPE, PIXELS, DomainError, ShapeError, reject_pixels

# Rank threshold, relative to the largest eigenvalue.
_RANK_RTOL = 1e-12


def to_float(x, out=None):
    """``x`` as float64 values: uint8 pixels divided by 255, any other
    array converted unchanged (float rows pass through without a copy
    when ``out`` is None).  With ``out`` the result is written there.

    The route depends only on the dtype; the scaled bytes equal those
    of ``x.astype(float64) / 255``.
    """
    x = np.asarray(x)
    if x.dtype == PIXELS:
        return np.divide(x, 255.0, out=out, dtype=DTYPE)
    if out is None:
        return np.asarray(x, dtype=DTYPE)
    out[...] = x
    return out


def _rows(x):
    """``x`` as an array kept as uint8 pixels, otherwise as float64."""
    x = np.asarray(x)
    return x if x.dtype == PIXELS else np.asarray(x, dtype=DTYPE)


@dataclass
class PcaModel:
    """Fitted PCA basis: data mean [D], components [D, d] (one column
    per component, unit norm, descending variance), and the per-
    component explained variances [d]."""

    mean: np.ndarray
    components: np.ndarray
    explained_variances: np.ndarray


def pca_fit(x, num_components, standardizer=None):
    """Fit PCA by eigendecomposition of the population covariance.

    ``x`` is float rows or uint8 pixels (see :func:`to_float`); with a
    fitted ``standardizer`` the fit is that of ``standardizer.apply`` of
    the rows, which is the standardized PCA :func:`pca_transform`
    replays.  Deterministic and exactly invariant to row order: rows are
    put into lexicographic order (column 0 first, equal rows kept in
    input order) before any accumulation, so permuting the input permutes
    nothing downstream.  The order is that of the rows as given: uint8
    pixels by one stable sort of each row's bytes, viewed as one
    ``np.void`` item, and float rows by ``np.lexsort``.  Scaling and
    standardizing are strictly increasing in each byte, so for pixels
    this is also the order of the scaled and standardized rows.  The only
    full-size float64 array built is the ordered, scaled and standardized
    copy.
    Data holding a NaN or an infinity is rejected with
    :class:`DomainError`.  Each component's sign is fixed by making its
    largest-magnitude entry positive (lowest index on magnitude ties).
    If the data has rank below ``num_components`` the trailing
    components span an arbitrary null-space basis; a warning is issued
    and their variances are ~0.
    """
    x = _rows(x)
    if x.ndim != 2:
        raise ShapeError(f"pca expects [N, D] data, got shape {x.shape}")
    n, d = x.shape
    if not 1 <= num_components <= d:
        raise DomainError(
            f"num_components must be in [1, {d}], got {num_components}"
        )
    if n <= num_components:
        raise DomainError(
            f"need more rows than components, got {n} rows for "
            f"{num_components} components"
        )
    # Float summation is order-sensitive, so the rows are summed in
    # lexicographic order to make the fit permutation-invariant bit for
    # bit.  A row of unsigned bytes, compared as raw memory, sorts in
    # that order; one void item per row makes it one stable sort.  The
    # gather makes a fresh copy, which is scaled, standardized and
    # centered in place.
    if x.dtype == PIXELS:
        x = np.ascontiguousarray(x)
        order = np.argsort(x.view(np.dtype((np.void, d))).ravel(), kind="stable")
    else:
        order = np.lexsort(x.T[::-1])
    xs = to_float(x[order])
    if standardizer is not None:
        standardizer.apply(xs, out=xs)
    if not np.isfinite(xs).all():
        raise DomainError("pca input holds a NaN or an infinity")
    mean = xs.mean(axis=0)
    xs -= mean
    cov = (xs.T @ xs) / n
    evals, evecs = np.linalg.eigh(cov)
    evals = evals[::-1][:num_components]
    comps = evecs[:, ::-1][:, :num_components].copy()
    for j in range(num_components):
        lead = np.argmax(np.abs(comps[:, j]))
        if comps[lead, j] < 0:
            comps[:, j] = -comps[:, j]
    rank = int(np.sum(evals > _RANK_RTOL * max(evals[0], 0.0)))
    if evals[0] > 0 and rank < num_components:
        warnings.warn(
            f"data rank {rank} is below the {num_components} requested "
            "components; trailing components carry ~zero variance",
            stacklevel=2,
        )
    return PcaModel(mean, comps, np.maximum(evals, 0.0))


# Rows per block of :func:`pca_transform`: at least ``ROW_BLOCK``, and
# enough that a block's product has at least ``BLOCK_MIN_MULADDS``
# multiply-adds, rounded up to a multiple of ``ROW_ALIGN``.  With OpenBLAS
# 0.3.31 (SkylakeX kernels, 1 thread) a GEMM over a row block reproduces
# the matching rows of the one-GEMM product bit for bit only when both take
# the same path: products of at most 10^6 multiply-adds take the
# small-matrix kernel, so plain 512-row blocks differed at 2 to 4
# components, where the whole product did not.  Above 192 components the
# kernel also walks the rows in fixed groups and ends a block on a shorter
# group that rounds differently: at D = 784, 512-row blocks differed in
# the last 8 rows of each block for every width from 193 to 784 that is
# not a multiple of 8.  Blocks a multiple of 24 rows long start each group
# where the whole product does, and matched at every width from 1 to 784.
# With one component numpy takes the gemv path, whose row blocks differ,
# so that case stays one block.  A remainder of fewer than ``ROW_ALIGN``
# rows or ``BLOCK_MIN_MULADDS`` multiply-adds would be a small product
# itself, so the block before it absorbs it; a longer one is a block of
# its own, which keeps the reused buffer at one block.
ROW_BLOCK = 512
BLOCK_MIN_MULADDS = 2**21
ROW_ALIGN = 24


def _row_blocks(n, k, d):
    """Slices covering ``n`` rows in the blocks :func:`pca_transform`
    projects one GEMM at a time (see ``ROW_BLOCK``)."""
    block = max(ROW_BLOCK, -(-BLOCK_MIN_MULADDS // (k * d)))
    block = -(-block // ROW_ALIGN) * ROW_ALIGN
    cuts = list(range(block, n, block)) if k > 1 else []
    if cuts and (n - cuts[-1] < ROW_ALIGN or (n - cuts[-1]) * k * d < BLOCK_MIN_MULADDS):
        cuts.pop()
    bounds = [0] + cuts + [n]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def pca_transform(model, x, standardizer=None):
    """Project rows onto the fitted basis: (x - mean) @ components.

    ``x`` is float rows or uint8 pixels, which are scaled by
    :func:`to_float` a block at a time.  With a fitted ``standardizer``
    the rows are standardized first, so the result is
    ``(standardizer.apply(to_float(x)) - mean) @ components`` without
    the scaled or standardized copy of ``x``.  Rows go through in blocks
    (see ``ROW_BLOCK``): each block is scaled, standardized and centered
    in one reused buffer and projected straight into the [N, k] result,
    which is the only full-size array allocated.  At a fixed BLAS thread
    count the bytes equal those of the unblocked formula.

    ``model`` may also be a list of ``(PcaModel, standardizer)`` pairs;
    the result is then a list with each pair's projection, in order.
    Pairs whose standardizer (or its absence), PCA mean and row partition
    (``_row_blocks``) are byte-equal form a group, and each block is
    scaled, standardized and centered once for the group, then projected
    onto each of its bases.  Each projection has the bytes of its own
    single-pair call.
    """
    if not isinstance(model, list):
        return pca_transform([(model, standardizer)], x)[0]
    x = _rows(x)
    groups = {}
    for i, (pca, s) in enumerate(model):
        d = pca.mean.shape[0]
        if s is not None:
            s.check_shape(x.shape)
        if x.ndim != 2 or x.shape[1] != d:
            raise ShapeError(
                f"pca transform expects [N, {d}] data, got shape {x.shape}"
            )
        blocks = _row_blocks(x.shape[0], pca.components.shape[1], d)
        key = (None if s is None else (s.mean.tobytes(), s.std.tobytes()),
               pca.mean.tobytes(), tuple((b.start, b.stop) for b in blocks))
        groups.setdefault(key, (s, pca.mean, blocks, []))[3].append(i)
    outs = [np.empty((x.shape[0], pca.components.shape[1]), dtype=DTYPE)
            for pca, _ in model]
    for s, mean, blocks, members in groups.values():
        buf = np.empty((max(b.stop - b.start for b in blocks), x.shape[1]), dtype=DTYPE)
        for rows in blocks:
            b = to_float(x[rows], out=buf[: rows.stop - rows.start])
            if s is not None:
                s.apply(b, out=b)
            b -= mean
            for i in members:
                np.matmul(b, model[i][0].components, out=outs[i][rows])
    return outs


# Floor of a fitted per-column std: constant pixels map to exactly 0
# instead of NaN.
STD_FLOOR = 1e-8


class PixelStandardizer:
    """Per-column mean/std standardization fitted on training data.

    Uses the population std (divide by N), floored at ``STD_FLOOR``.
    ``mean`` and ``std`` are the fitted state: None until :meth:`fit`,
    or given, as a saved model's are when it is loaded.
    """

    def __init__(self, mean=None, std=None):
        self.mean = mean
        self.std = std

    def fit(self, x):
        """Fit the column means and stds of ``x`` [N, D], float rows or
        uint8 pixels (see :func:`to_float`).

        The bytes are those of ``to_float(x).mean(axis=0)`` and
        ``.std(axis=0)``, without that float copy: rows are scaled one
        ``ROW_BLOCK`` at a time into a reused buffer.  numpy sums a
        C-contiguous [N, D] array over axis 0 row by row when D > 1, so
        each block's sum starts from the running sum, carried in as the
        buffer's first row.  A single column numpy sums pairwise, so a
        [N, 1] ``x`` is one block.
        """
        x = _rows(x)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ShapeError(
                f"standardizer expects non-empty [N, D] data, got {x.shape}"
            )
        n, d = x.shape
        block = n if d == 1 else ROW_BLOCK
        buf = np.empty((min(block, n) + 1, d), dtype=DTYPE)

        def column_sums(scaled):
            # scaled(rows, out) writes the float rows whose sum is taken.
            total = None
            for start in range(0, n, block):
                rows = x[start : start + block]
                head = 0 if total is None else 1
                b = buf[: head + len(rows)]
                if head:
                    b[0] = total
                scaled(rows, b[head:])
                total = b.sum(axis=0)
            return total

        def squared_deviations(rows, out):
            to_float(rows, out)
            out -= mean
            np.square(out, out=out)

        mean = column_sums(to_float) / n
        std = np.sqrt(column_sums(squared_deviations) / n)
        self.mean, self.std = mean, np.maximum(std, STD_FLOOR)
        return self

    def check_shape(self, shape):
        """Raise unless fitted, and ``shape`` is [N, D] of the fitted D."""
        if self.mean is None:
            raise DomainError("standardizer must be fitted before apply")
        if len(shape) != 2 or shape[1] != self.mean.shape[0]:
            raise ShapeError(
                f"standardizer fitted on {self.mean.shape[0]} columns, "
                f"got shape {tuple(shape)}"
            )

    def apply(self, x, out=None):
        """``(x - mean) / std`` of float64 [N, D] rows, into ``out`` when
        given (``out=x`` works in place).  uint8 pixels are a
        :class:`DomainError`: scale them with :func:`to_float` first."""
        reject_pixels(x, "PixelStandardizer")
        x = np.asarray(x, dtype=DTYPE)
        self.check_shape(x.shape)
        out = np.subtract(x, self.mean, out=out)
        out /= self.std
        return out


def check_jitter(max_jitter, h, w):
    """Raise :class:`DomainError` unless 0 <= max_jitter < min(h, w)."""
    if max_jitter < 0:
        raise DomainError(f"max_jitter must be non-negative, got {max_jitter}")
    if max_jitter >= min(h, w):
        raise DomainError(f"max_jitter {max_jitter} too large for {h}x{w} images")


def augment(x, rng, max_jitter=2, mirror=True):
    """Random horizontal mirror plus integer translation, per image.

    x is NCHW.  Each image is independently mirrored with probability
    0.5 (when ``mirror``) and shifted by (dy, dx) drawn uniformly from
    [-max_jitter, +max_jitter]^2, vacated pixels zero-filled.  Draw
    order is fixed (all mirror coins, then all offsets) so results are
    reproducible for a given rng state.
    """
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim != 4:
        raise ShapeError(f"augment expects NCHW input, got shape {x.shape}")
    n, _, h, w = x.shape
    check_jitter(max_jitter, h, w)
    out = x.copy()
    if mirror:
        flips = rng.random(n) < 0.5
        out[flips] = out[flips][..., ::-1]
    if max_jitter > 0:
        offsets = rng.integers(-max_jitter, max_jitter + 1, size=(n, 2))
        shifted = np.zeros_like(out)
        for i in range(n):
            dy, dx = int(offsets[i, 0]), int(offsets[i, 1])
            y0, y1 = max(dy, 0), h + min(dy, 0)
            x0, x1 = max(dx, 0), w + min(dx, 0)
            shifted[i, :, y0:y1, x0:x1] = out[i, :, y0 - dy : y1 - dy,
                                              x0 - dx : x1 - dx]
        out = shifted
    return out
