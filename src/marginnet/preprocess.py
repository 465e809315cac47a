"""Input preprocessing: pixel scaling, PCA, per-pixel standardization,
and train-time augmentation.

Loaded pixels are uint8 bytes; :func:`to_float` is the one conversion
to float64 values.  ``PixelStandardizer.fit`` and :func:`pca_transform`
convert byte rows a block at a time, and :func:`pca_fit` converts only
the copy it gathers, so no other float copy of a byte split is made;
each gives the bytes of the same call on ``to_float`` of the rows.

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
    put into lexicographic order of their scaled and standardized values
    (column 0 first, equal rows kept in input order) before any
    accumulation, so permuting the input permutes nothing downstream.
    The order is found one column at a time, so the only full-size
    float64 array built is the ordered, scaled and standardized copy.
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
    if standardizer is not None:
        standardizer.check_shape(x.shape)

    def key(col, values):
        # Elementwise, so a column's keys are the bytes the whole
        # transform gives in that column.
        values = to_float(values)
        if standardizer is None:
            return values
        return (values - standardizer.mean[col]) / standardizer.std[col]

    # Float summation is order-sensitive, so the rows are summed in
    # lexicographic order to make the fit permutation-invariant bit for
    # bit.  The gather makes a fresh copy, which is transformed and
    # centered in place.
    xs = to_float(x[_lexicographic_row_order(x, key)])
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


def _lexicographic_row_order(x, key=None):
    """Permutation that sorts the rows of ``x`` [N, D] lexicographically,
    column 0 first, with equal rows kept in input order: the permutation
    ``np.lexsort(x.T[::-1])`` returns, for data without NaN.  With
    ``key``, column ``col`` of the rows sorts by ``key(col, values)``
    instead: the permutation for the elementwise map of ``x`` that
    ``key`` computes one column at a time.  Columns on which ``x`` is
    constant are skipped, so ``key`` must map equal values to equal keys.

    Column by column, only the rows still tied with a neighbour are
    re-sorted, and only within their tie group; a row that a column
    separates from its group never moves again.  A column on which no
    tie group differs costs one gather and one neighbour comparison.
    Stable sorts keep every tie group in input order, which is where
    lexsort leaves equal rows.  Ties are tested with ``==``, which puts
    -0.0 with 0.0 as the sort does but never matches two NaNs.
    """
    n = x.shape[0]
    order = np.empty(n, dtype=np.intp)
    # The rows still tied, in their current order: their slots in
    # ``order``, their row ids, and for each neighbouring pair whether
    # both sit in one tie group.
    slots = np.arange(n)
    rows = np.arange(n)
    same = np.ones(max(n - 1, 0), dtype=bool)
    # A column on which all rows agree orders nothing.  Its max equals
    # its min then; comparing the reductions needs no [N, D] temporary.
    varying = np.flatnonzero(x.max(axis=0) != x.min(axis=0)) if n > 1 else []
    for col in varying:
        if rows.size < 2:
            break
        values = x[rows, col]
        keys = values if key is None else key(col, values)
        if not np.any(same & (keys[1:] != keys[:-1])):
            continue
        group = np.concatenate(([0], np.cumsum(~same)))
        perm = np.lexsort((keys, group))
        keys = keys[perm]
        rows = rows[perm]
        starts = np.ones(rows.size + 1, dtype=bool)
        starts[1:-1] = ~same | (keys[1:] != keys[:-1])
        alone = starts[:-1] & starts[1:]
        order[slots[alone]] = rows[alone]
        tied = ~alone
        slots, rows = slots[tied], rows[tied]
        same = ~starts[:-1][tied][1:]
    order[slots] = rows
    return order


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

    ``model`` may also be a list of PcaModels that share one mean and
    one row partition (``_row_blocks``); the result is then a list with
    each model's projection, in order, and each block is scaled,
    standardized and centered once for all of them.  Models whose
    components are byte-equal share one product, and one result array.
    Each projection has the bytes of its own single-model call.
    """
    models = model if isinstance(model, list) else [model]
    first = models[0]
    d = first.mean.shape[0]
    x = _rows(x)
    if standardizer is not None:
        standardizer.check_shape(x.shape)
    if x.ndim != 2 or x.shape[1] != d:
        raise ShapeError(
            f"pca transform expects [N, {d}] data, got shape {x.shape}"
        )
    n, mean = x.shape[0], first.mean.tobytes()
    blocks = _row_blocks(n, first.components.shape[1], d)
    products, outs = {}, []
    for m in models:
        if m.mean.tobytes() != mean or _row_blocks(n, m.components.shape[1], d) != blocks:
            raise DomainError("bases projected in one pass must share one "
                              "mean and one row partition")
        key = m.components.tobytes()
        if key not in products:
            out = np.empty((n, m.components.shape[1]), dtype=DTYPE)
            products[key] = (m.components, out)
        outs.append(products[key][1])
    buf = np.empty((max(b.stop - b.start for b in blocks), d), dtype=DTYPE)
    shift = first.mean if standardizer is None else standardizer.mean
    for rows in blocks:
        b = buf[: rows.stop - rows.start]
        if x.dtype == PIXELS:
            to_float(x[rows], out=b)
            b -= shift
        else:
            np.subtract(x[rows], shift, out=b)
        if standardizer is not None:
            b /= standardizer.std
            b -= first.mean
        for components, out in products.values():
            np.matmul(b, components, out=out[rows])
    return outs if isinstance(model, list) else outs[0]


# Floor of a fitted per-column std: constant pixels map to exactly 0
# instead of NaN.
STD_FLOOR = 1e-8


class PixelStandardizer:
    """Per-column mean/std standardization fitted on training data.

    Uses the population std (divide by N), floored at ``STD_FLOOR``.
    """

    def __init__(self):
        self.mean = None
        self.std = None

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

    def check(self, x):
        """``x`` as float64 [N, D] rows this fitted standardizer takes;
        uint8 pixels are a :class:`DomainError` (scale them with
        :func:`to_float` first)."""
        reject_pixels(x, "PixelStandardizer")
        x = np.asarray(x, dtype=DTYPE)
        self.check_shape(x.shape)
        return x

    def apply(self, x, out=None):
        """``(x - mean) / std``, into ``out`` when given (``out=x`` works
        in place)."""
        x = self.check(x)
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
