import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from marginnet.preprocess import (
    ROW_ALIGN,
    ROW_BLOCK,
    STD_FLOOR,
    PcaModel,
    PixelStandardizer,
    _lexicographic_row_order,
    _row_blocks,
    augment,
    pca_fit,
    pca_transform,
    to_float,
)
from marginnet.tensor import DomainError, ShapeError

# Few distinct values, signed zeros and infinities, so that rows tie on
# long prefixes and the two zeros must sort as equal.
TIE_VALUES = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf]


@st.composite
def tie_heavy_rows(draw):
    """[n, d] data whose rows repeat and whose columns are often constant."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    distinct = draw(st.integers(1, n))
    values = st.sampled_from(TIE_VALUES)
    base = draw(arrays(np.float64, (distinct, d), elements=values))
    x = base[draw(arrays(np.intp, n, elements=st.integers(0, distinct - 1)))]
    constant = draw(arrays(np.bool_, d))
    x[:, constant] = draw(values)
    return x


def reference_pca_fit(x, num_components):
    """Reference fit: the canonical order from one np.lexsort over every
    column, and an out-of-place centered copy."""
    n = x.shape[0]
    xs = x[np.lexsort(x.T[::-1])]
    mean = xs.mean(axis=0)
    centered = xs - mean
    cov = (centered.T @ centered) / n
    evals, evecs = np.linalg.eigh(cov)
    evals = evals[::-1][:num_components]
    comps = evecs[:, ::-1][:, :num_components].copy()
    for j in range(num_components):
        lead = np.argmax(np.abs(comps[:, j]))
        if comps[lead, j] < 0:
            comps[:, j] = -comps[:, j]
    return mean, comps, np.maximum(evals, 0.0)


def assert_same_bytes(a, b):
    assert a.shape == b.shape
    npt.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(deadline=None, derandomize=True, max_examples=400)
@given(x=tie_heavy_rows())
@example(x=np.ones((1, 5)))
@example(x=np.array([[2.0], [1.0], [2.0], [1.0]]))
@example(x=np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -1.0], [-0.0, -1.0]]))
def test_row_order_equals_lexsort(x):
    npt.assert_array_equal(_lexicographic_row_order(x), np.lexsort(x.T[::-1]))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(x=tie_heavy_rows(), scale=st.sampled_from([-2.0, 0.5, 3.0]))
def test_keyed_row_order_is_the_order_of_the_mapped_rows(x, scale):
    # a column-dependent map that sends +-inf to +-inf (or swaps them)
    # and both zeros to one zero, so equal values keep equal keys
    offsets = np.arange(x.shape[1], dtype=np.float64)

    def key(col, values):
        return values * (scale * (col + 1)) + offsets[col]

    mapped = x * (scale * (offsets + 1)) + offsets
    npt.assert_array_equal(_lexicographic_row_order(x, key),
                           np.lexsort(mapped.T[::-1]))


class TestPcaFit:
    def test_line_data_has_one_real_component(self):
        t = np.linspace(-3, 3, 50)
        x = np.stack([t, t], axis=1)  # exactly the y = x line
        with pytest.warns(UserWarning):
            model = pca_fit(x, 2)  # rank 1 < 2 requested
        npt.assert_allclose(model.components[:, 0], [2**-0.5, 2**-0.5],
                            rtol=0, atol=1e-12)
        assert model.explained_variances[1] < 1e-20

    def test_identity_covariance_variances_near_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10_000, 5))
        model = pca_fit(x, 5)
        assert np.all(model.explained_variances >= 0.9)
        assert np.all(model.explained_variances <= 1.1)

    def test_variances_sorted_descending(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 6)) * np.array([1, 5, 2, 8, 3, 1.0])
        model = pca_fit(x, 6)
        v = model.explained_variances
        assert np.all(v[:-1] >= v[1:])

    def test_components_orthonormal(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(300, 8)) @ rng.normal(size=(8, 8))
        model = pca_fit(x, 8)
        gram = model.components.T @ model.components
        npt.assert_allclose(gram, np.eye(8), rtol=0, atol=1e-9)

    def test_full_rank_round_trip(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(64, 7)) @ rng.normal(size=(7, 7)) + rng.normal(size=7)
        model = pca_fit(x, 7)
        z = pca_transform(model, x)
        back = z @ model.components.T + model.mean
        npt.assert_allclose(back, x, rtol=0, atol=1e-8)
        # rigid map: pairwise distances survive the projection
        d_orig = np.linalg.norm(x[:, None] - x[None, :], axis=-1)
        d_proj = np.linalg.norm(z[:, None] - z[None, :], axis=-1)
        npt.assert_allclose(d_proj, d_orig, rtol=0, atol=1e-8)

    def test_transform_of_mean_is_origin(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 5)) + 7.0
        model = pca_fit(x, 3)
        z = pca_transform(model, x.mean(axis=0, keepdims=True))
        npt.assert_allclose(z, np.zeros((1, 3)), rtol=0, atol=1e-12)

    def test_transformed_train_covariance_is_diagonal_of_variances(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(500, 6)) * np.array([1, 4, 2, 9, 3, 0.5])
        model = pca_fit(x, 4)
        z = pca_transform(model, x)
        cov = (z - z.mean(0)).T @ (z - z.mean(0)) / z.shape[0]
        npt.assert_allclose(cov, np.diag(model.explained_variances[:4]),
                            rtol=1e-6, atol=1e-9)

    def test_exact_permutation_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(50, 4))
        model_a = pca_fit(x, 3)
        model_b = pca_fit(x[rng.permutation(50)], 3)
        npt.assert_array_equal(model_a.mean, model_b.mean)
        npt.assert_array_equal(model_a.components, model_b.components)
        npt.assert_array_equal(
            model_a.explained_variances, model_b.explained_variances
        )

    def test_bytes_match_full_lexsort_fit_on_pixels(self):
        # MNIST-like bytes: mostly-zero pixels and repeated rows, so the
        # canonical order has long ties to refine
        rng = np.random.default_rng(18)
        pixels = rng.integers(0, 256, size=(2000, 784), dtype=np.uint8)
        pixels[rng.random((2000, 784)) < 0.8] = 0
        pixels[1000:1300] = pixels[rng.integers(0, 1000, 300)]
        x = pixels / 255.0
        model = pca_fit(x, 70)
        mean, comps, evals = reference_pca_fit(x, 70)
        assert_same_bytes(model.mean, mean)
        assert_same_bytes(model.components, comps)
        assert_same_bytes(model.explained_variances, evals)

    @pytest.mark.parametrize("standardize", [False, True])
    def test_fit_on_pixels_is_the_fit_on_their_scaled_rows(self, standardize):
        # ordering and gathering the bytes, then scaling and standardizing
        # the gathered copy, gives the bytes of the fit on the float rows
        # standardized up front; repeated rows and mostly-zero columns
        # make long ties in the order
        rng = np.random.default_rng(31)
        pixels = rng.integers(0, 256, size=(1500, 196), dtype=np.uint8)
        pixels[rng.random((1500, 196)) < 0.7] = 0
        pixels[900:1100] = pixels[rng.integers(0, 900, 200)]
        pixels[:, :5] = 0
        s = PixelStandardizer().fit(pixels) if standardize else None
        rows = to_float(pixels)
        model = pca_fit(pixels, 30, s)
        ref = pca_fit(rows if s is None else s.apply(rows), 30)
        for got, want in ((model.mean, ref.mean), (model.components, ref.components),
                          (model.explained_variances, ref.explained_variances)):
            assert_same_bytes(got, want)

    def test_standardized_fit_of_float_rows_is_the_fit_of_standardized_rows(self):
        rng = np.random.default_rng(32)
        x = np.round(rng.normal(size=(400, 12)), 1) * np.arange(1, 13)
        x[200:260] = x[:60]
        s = PixelStandardizer().fit(x)
        model = pca_fit(x, 5, s)
        ref = pca_fit(s.apply(x), 5)
        assert_same_bytes(model.mean, ref.mean)
        assert_same_bytes(model.components, ref.components)

    def test_fit_on_pixels_builds_one_float_copy(self):
        rng = np.random.default_rng(33)
        pixels = rng.integers(0, 256, size=(4000, 784), dtype=np.uint8)
        s = PixelStandardizer().fit(pixels)
        tracemalloc.start()
        try:
            pca_fit(pixels, 20, s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the gathered float rows are 8x the bytes; the gathered bytes
        # and the [D, D] covariance and eigenvectors come on top
        assert peak < 8 * pixels.nbytes + 2 * pixels.nbytes + 3 * 784 * 784 * 8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        x = np.random.default_rng(19).normal(size=(20, 4))
        x[7, 2] = bad
        with pytest.raises(DomainError):
            pca_fit(x, 2)

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(80, 5)) * np.array([10, 1, 1, 1, 1.0])
        model = pca_fit(x, 5)
        for j in range(5):
            col = model.components[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_component_count_bounds(self):
        x = np.random.default_rng(8).normal(size=(10, 4))
        with pytest.raises(DomainError):
            pca_fit(x, 0)
        with pytest.raises(DomainError):
            pca_fit(x, 5)  # more than D
        with pytest.raises(DomainError):
            pca_fit(x[:3], 3)  # N must exceed requested components

    def test_transform_shape_checked(self):
        x = np.random.default_rng(9).normal(size=(20, 4))
        model = pca_fit(x, 2)
        with pytest.raises(ShapeError):
            pca_transform(model, np.zeros((3, 5)))


# Shapes on which the row-blocked transform must reproduce the one-GEMM
# formula: input widths, component counts, and row counts around the
# 528-row block, its multiples and the remainders it leaves.  At width
# 3072 the rows stop at 3000, which already spans several blocks and a
# remainder at every component count; 10000 rows there would hold 245 MB
# per copy.  Above 192 components 512-row blocks ended on a kernel path
# the whole product does not take, at every width that is not a multiple
# of 8.
TRANSFORM_DIMS = (70, 784, 3072)
TRANSFORM_COMPONENTS = (1, 2, 3, 4, 5, 8, 16, 40, 70)
WIDE_COMPONENTS = {784: (256, 260, 300)}
TRANSFORM_ROWS = (0, 1, 17, 511, 512, 513, 528, 553, 1023, 1024, 1025, 1057,
                  2000, 3000, 10000)
WIDE_ROWS_CAP = 3000


def transform_both_ways(dims=TRANSFORM_DIMS):
    """Yield ((d, k, n, standardized), reference, fused) over the grid,
    where reference is the unblocked formula and fused is
    :func:`pca_transform` with the standardizer passed through."""
    for d in dims:
        rng = np.random.default_rng(d)
        rows = [n for n in TRANSFORM_ROWS if d < 3072 or n <= WIDE_ROWS_CAP]
        raw = rng.normal(3.0, 2.0, size=(max(rows), d))
        standardizer = PixelStandardizer().fit(raw[:500])
        for k in TRANSFORM_COMPONENTS + WIDE_COMPONENTS.get(d, ()):
            comps = np.linalg.qr(rng.normal(size=(d, k)))[0].copy()
            pca = PcaModel(rng.normal(size=d) * 0.1, comps, np.ones(k))
            for n in rows:
                x = raw[:n]
                for s in (None, standardizer):
                    ref = ((x if s is None else s.apply(x)) - pca.mean) @ pca.components
                    yield (d, k, n, s is not None), ref, pca_transform(pca, x, s)


class TestRowBlockedTransform:
    def test_bytes_match_unblocked_formula_at_one_blas_thread(self):
        # BLAS results are only reproducible at a fixed thread count, and
        # the thread count is fixed when numpy loads, hence a child process.
        here = os.path.dirname(os.path.abspath(__file__))
        path = os.environ.get("PYTHONPATH")
        src = os.path.join(os.path.dirname(here), "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=src if not path else src + os.pathsep + path)
        code = (
            "import json, sys\n"
            f"sys.path.insert(0, {here!r})\n"
            "import test_preprocess as t\n"
            "bad = [case for case, ref, got in t.transform_both_ways()\n"
            "       if ref.shape != got.shape or ref.tobytes() != got.tobytes()]\n"
            "print(json.dumps(bad))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout) == []

    def test_matches_unblocked_formula_at_default_threads(self):
        for case, ref, got in transform_both_ways(TRANSFORM_DIMS[:2]):
            assert got.shape == ref.shape, case
            npt.assert_allclose(got, ref, rtol=1e-12, atol=1e-12, err_msg=str(case))

    @pytest.mark.parametrize("n", [0, 1, 553, 1023, 1024, 1025, 10000])
    @pytest.mark.parametrize("k,d", [(1, 784), (2, 70), (3, 784), (70, 784), (300, 784)])
    def test_blocks_cover_rows_in_order(self, n, k, d):
        blocks = _row_blocks(n, k, d)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        for a, b in zip(blocks, blocks[1:]):
            assert a.stop == b.start
        sizes = [b.stop - b.start for b in blocks]
        if k == 1:
            assert len(blocks) == 1
        # every block but the last has one size and starts on a multiple
        # of ROW_ALIGN; the last is the remainder, or absorbs one that
        # would be a small product, so no block of several is one
        assert len(set(sizes[:-1])) <= 1
        assert all(b.start % ROW_ALIGN == 0 for b in blocks)
        if len(blocks) > 1:
            assert all(s >= ROW_ALIGN and s * k * d > 10**6 for s in sizes)

    @pytest.mark.parametrize("n", [0, 1, 700, 2600])
    @pytest.mark.parametrize("k", [1, 3, 40])
    def test_pixels_project_as_their_scaled_rows(self, n, k):
        rng = np.random.default_rng(n + k)
        pixels = rng.integers(0, 256, size=(n, 196), dtype=np.uint8)
        rows = to_float(pixels)
        fit_rows = rng.integers(0, 256, size=(300, 196), dtype=np.uint8)
        standardizer = PixelStandardizer().fit(fit_rows)
        comps = np.linalg.qr(rng.normal(size=(196, k)))[0].copy()
        pca = PcaModel(rng.normal(size=196) * 0.1, comps, np.ones(k))
        for s in (None, standardizer):
            assert_same_bytes(pca_transform(pca, pixels, s), pca_transform(pca, rows, s))

    def test_peak_memory_is_a_fraction_of_the_input(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(10000, 784))
        standardizer = PixelStandardizer().fit(x[:1000])
        comps = np.linalg.qr(rng.normal(size=(784, 70)))[0].copy()
        pca = PcaModel(np.zeros(784), comps, np.ones(70))
        tracemalloc.start()
        try:
            pca_transform(pca, x, standardizer)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * x.nbytes

    @pytest.mark.parametrize("n", [0, 700, 2600])
    def test_bases_sharing_a_mean_project_in_one_pass(self, n):
        # each basis gets the bytes of its own call; byte-equal bases
        # share one product
        rng = np.random.default_rng(n)
        pixels = rng.integers(0, 256, size=(n, 196), dtype=np.uint8)
        standardizer = PixelStandardizer().fit(rng.integers(0, 256, size=(300, 196)))
        mean = rng.normal(size=196) * 0.1
        bases = [PcaModel(mean, np.linalg.qr(rng.normal(size=(196, k)))[0].copy(),
                          np.ones(k)) for k in (30, 40)]
        bases.append(PcaModel(mean.copy(), bases[0].components.copy(), np.ones(30)))
        for s in (None, standardizer):
            got = pca_transform(bases, pixels, s)
            assert [g.tobytes() for g in got] == [
                pca_transform(b, pixels, s).tobytes() for b in bases]
            assert got[2] is got[0]

    def test_bases_in_one_pass_must_share_mean_and_partition(self):
        rng = np.random.default_rng(5)
        base = PcaModel(np.zeros(70), np.eye(70)[:, :8], np.ones(8))
        x = rng.normal(size=(8000, 70))  # two blocks of 8 components, one of 1
        for other in (PcaModel(np.ones(70), base.components, np.ones(8)),
                      PcaModel(np.zeros(70), np.eye(70)[:, :1], np.ones(1))):
            with pytest.raises(DomainError):
                pca_transform([base, other], x)

    def test_standardizer_checked_before_projection(self):
        pca = pca_fit(np.random.default_rng(4).normal(size=(20, 4)), 2)
        with pytest.raises(DomainError):
            pca_transform(pca, np.zeros((3, 4)), PixelStandardizer())
        standardizer = PixelStandardizer().fit(np.ones((5, 5)))
        with pytest.raises(ShapeError):
            pca_transform(pca, np.zeros((3, 4)), standardizer)


class TestPixelStandardizer:
    def test_population_statistics(self):
        s = PixelStandardizer()
        s.fit(np.array([[0.0], [2.0]]))
        npt.assert_array_equal(s.apply(np.array([[0.0], [2.0]])),
                               [[-1.0], [1.0]])  # population std, not sample

    def test_constant_column_maps_to_zero(self):
        s = PixelStandardizer()
        train = np.array([[1.0, 5.0], [3.0, 5.0]])
        s.fit(train)
        out = s.apply(train)
        npt.assert_array_equal(out[:, 1], [0.0, 0.0])

    def test_tiny_std_is_floored(self):
        s = PixelStandardizer().fit(np.array([[0.0], [2e-12]]))
        npt.assert_array_equal(s.std, [1e-8])

    def test_train_moments_after_transform(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(200, 6)) * 3 + 5
        s = PixelStandardizer()
        s.fit(x)
        z = s.apply(x)
        assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
        npt.assert_allclose(z.std(axis=0), np.ones(6), rtol=1e-9)

    def test_apply_is_bitwise_the_plain_expression(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(300, 9)) * 4 + 2
        s = PixelStandardizer().fit(x[:200])
        assert_same_bytes(s.apply(x), (x - s.mean) / s.std)

    def test_apply_before_fit_rejected(self):
        with pytest.raises(DomainError):
            PixelStandardizer().apply(np.zeros((2, 2)))

    def test_unscaled_pixels_rejected(self):
        # bytes taken as 0-255 values would standardize silently wrong
        pixels = np.arange(12, dtype=np.uint8).reshape(4, 3)
        s = PixelStandardizer().fit(pixels)
        for entry in (s.check, s.apply):
            with pytest.raises(DomainError, match="uint8 pixels"):
                entry(pixels)
        assert_same_bytes(s.apply(to_float(pixels)),
                          (to_float(pixels) - s.mean) / s.std)

    def test_apply_into_out(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(50, 4))
        s = PixelStandardizer().fit(x)
        expected = s.apply(x)
        assert s.apply(x, out=x) is x
        assert_same_bytes(x, expected)

    @pytest.mark.parametrize("n, d", [
        (1, 256), (ROW_BLOCK, 256), (2 * ROW_BLOCK + 37, 256), (3 * ROW_BLOCK, 3),
        (ROW_BLOCK + 1, 2), (2000, 1), (1, 1), (700, 784)])
    def test_blocked_fit_gives_the_float_fits_bytes(self, n, d):
        # every byte value occurs in a column whenever n >= 256; row
        # counts at, across and between block edges; a single row; one
        # column, which numpy sums pairwise
        rng = np.random.default_rng(n * d)
        pixels = rng.integers(0, 256, size=(n, d), dtype=np.uint8)
        if n >= 256:
            pixels[:256] = np.arange(256, dtype=np.uint8)[:, None]
            pixels = pixels[rng.permutation(n)]
        floats = pixels.astype(np.float64) / 255.0
        for x in (pixels, floats):
            s = PixelStandardizer().fit(x)
            assert_same_bytes(s.mean, floats.mean(axis=0))
            assert_same_bytes(s.std, np.maximum(floats.std(axis=0), STD_FLOOR))

    def test_fit_on_pixels_makes_no_float_copy(self):
        pixels = np.random.default_rng(23).integers(
            0, 256, size=(20000, 784), dtype=np.uint8)
        tracemalloc.start()
        try:
            PixelStandardizer().fit(pixels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one float64 copy would be 8x the bytes
        assert peak < pixels.nbytes


class TestToFloat:
    def test_float_rows_pass_through_unchanged(self):
        x = np.random.default_rng(24).normal(size=(5, 3))
        assert to_float(x) is x
        out = np.empty_like(x)
        assert to_float(x, out=out) is out
        assert_same_bytes(out, x)

    def test_other_dtypes_convert_without_scaling(self):
        npt.assert_array_equal(to_float(np.array([[0, 255, 300]])), [[0.0, 255.0, 300.0]])
        npt.assert_array_equal(to_float(np.array([[0, 255]], dtype=np.uint16)),
                               [[0.0, 255.0]])


class TestAugment:
    def test_no_jitter_no_mirror_is_identity(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 1, 6, 6))
        out = augment(x, rng, max_jitter=0, mirror=False)
        npt.assert_array_equal(out, x)

    def test_every_output_is_a_flip_then_shift(self):
        # distinct pixel values make the (flip, dy, dx) decomposition unique
        base = np.arange(2 * 5 * 5, dtype=float).reshape(1, 2, 5, 5) + 1.0
        rng = np.random.default_rng(13)
        candidates = []
        for flip in (False, True):
            img = base[0, :, :, ::-1] if flip else base[0]
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    shifted = np.zeros_like(img)
                    ys = slice(max(dy, 0), 5 + min(dy, 0))
                    xs = slice(max(dx, 0), 5 + min(dx, 0))
                    ys_src = slice(max(-dy, 0), 5 + min(-dy, 0))
                    xs_src = slice(max(-dx, 0), 5 + min(-dx, 0))
                    shifted[:, ys, xs] = img[:, ys_src, xs_src]
                    candidates.append(shifted)
        for _ in range(25):
            out = augment(base, rng, max_jitter=1, mirror=True)[0]
            assert any(np.array_equal(out, c) for c in candidates)

    def test_mirror_only_preserves_pixel_multiset(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(8, 1, 4, 4))
        out = augment(x, rng, max_jitter=0, mirror=True)
        for i in range(8):
            npt.assert_array_equal(np.sort(out[i].ravel()),
                                   np.sort(x[i].ravel()))

    def test_mirror_is_an_involution(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(6, 1, 4, 4))
        out = augment(x, rng, max_jitter=0, mirror=True)
        for i in range(6):
            flipped_back = out[i, :, :, ::-1]
            same = np.array_equal(out[i], x[i])
            undone = np.array_equal(flipped_back, x[i])
            assert same or undone  # each image: kept, or one flip away

    def test_excessive_jitter_rejected(self):
        rng = np.random.default_rng(16)
        with pytest.raises(DomainError):
            augment(np.zeros((1, 1, 4, 4)), rng, max_jitter=4)

    def test_requires_nchw(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ShapeError):
            augment(np.zeros((4, 16)), rng)
