import gzip
import os
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from marginnet.data import (
    Dataset,
    IdxCountMismatchError,
    IdxFormatError,
    IdxMagicError,
    IdxTruncatedError,
    load_cifar10,
    load_idx,
    make_blobs,
    minibatches,
    num_batches,
    write_idx,
)
from marginnet.preprocess import to_float
from marginnet.tensor import DomainError, ShapeError


def assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(7, 2, 2), dtype=np.uint8)
    labels = rng.integers(0, 10, size=7).astype(np.uint8)
    ip = str(tmp_path / "images-idx3-ubyte")
    lp = str(tmp_path / "labels-idx1-ubyte")
    write_idx(ip, lp, images, labels)
    return ip, lp, images, labels


class TestIdx:
    def test_round_trip_exact(self, idx_pair):
        ip, lp, images, labels = idx_pair
        ds = load_idx(ip, lp)
        assert ds.inputs.shape == (7, 4)
        assert not ds.inputs.flags.writeable
        assert ds.num_classes == 10
        npt.assert_array_equal(ds.labels, labels)
        # the file's bytes are stored; the one conversion gives the
        # float64 bytes the loader once returned
        assert_same_bytes(ds.inputs, images.reshape(7, 4))
        npt.assert_array_equal(to_float(ds.inputs).view(np.uint64),
                               (images.reshape(7, 4) / 255.0).view(np.uint64))

    def test_gzip_transparent(self, idx_pair, tmp_path):
        ip, lp, images, labels = idx_pair
        gz_ip, gz_lp = str(tmp_path / "i.gz"), str(tmp_path / "l.gz")
        for src, dst in ((ip, gz_ip), (lp, gz_lp)):
            with open(src, "rb") as f, gzip.open(dst, "wb") as g:
                g.write(f.read())
        ds_plain = load_idx(ip, lp)
        ds_gz = load_idx(gz_ip, gz_lp)
        npt.assert_array_equal(ds_gz.inputs, ds_plain.inputs)
        npt.assert_array_equal(ds_gz.labels, ds_plain.labels)

    @pytest.mark.parametrize("corrupt", ["truncated", "crc-flipped", "bad-block"])
    def test_corrupt_gzip_is_a_format_error(self, idx_pair, tmp_path, corrupt):
        ip, lp, _, _ = idx_pair
        with open(ip, "rb") as f:
            raw = bytearray(gzip.compress(f.read(), mtime=0))
        if corrupt == "truncated":
            raw = raw[: len(raw) // 2]
        elif corrupt == "crc-flipped":
            raw[-8] ^= 0xFF  # the trailer's CRC-32 starts 8 bytes from the end
        else:
            raw[10] = 0xFF  # the first deflate block: reserved block type 3
        bad = tmp_path / "bad-images.gz"
        bad.write_bytes(bytes(raw))
        with pytest.raises(IdxFormatError, match="bad-images.gz"):
            load_idx(str(bad), lp)

    @pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
    def test_bytes_after_the_payload_are_a_format_error(self, idx_pair,
                                                         tmp_path, packed):
        ip, lp, _, _ = idx_pair
        with open(ip, "rb") as f:
            raw = f.read() + b"\x00"
        long = tmp_path / "long-images"
        long.write_bytes(gzip.compress(raw, mtime=0) if packed else raw)
        with pytest.raises(IdxFormatError, match="long-images: bytes follow"):
            load_idx(str(long), lp)

    def test_swapped_files_hit_magic_error(self, idx_pair):
        ip, lp, _, _ = idx_pair
        with pytest.raises(IdxMagicError):
            load_idx(lp, ip)

    def test_truncated_payload_detected(self, idx_pair, tmp_path):
        ip, lp, _, _ = idx_pair
        with open(ip, "rb") as f:
            raw = f.read()
        short = str(tmp_path / "short")
        with open(short, "wb") as f:
            f.write(raw[:-3])
        with pytest.raises(IdxTruncatedError):
            load_idx(short, lp)

    def test_header_too_large_to_hold_is_a_truncation(self, tmp_path):
        path = tmp_path / "huge"
        path.write_bytes((2051).to_bytes(4, "big") + b"\xff" * 12 + b"\x00" * 8)
        with pytest.raises(IdxTruncatedError, match="huge"):
            load_idx(str(path), str(path))

    def test_gzipped_images_are_held_once_at_the_peak(self, tmp_path):
        # perfbench's 10,000 x 784 gzipped images.  Decompressing the
        # whole stream into bytes and then into the array would peak at
        # twice the pixels.
        rng = np.random.default_rng(8)
        images = np.zeros((10_000, 28, 28), dtype=np.uint8)
        images[:, 4:24, 4:24] = rng.integers(0, 256, size=(10_000, 20, 20))
        ip, lp = str(tmp_path / "images"), str(tmp_path / "labels")
        write_idx(ip, lp, images, rng.integers(0, 10, size=10_000))
        with open(ip, "rb") as f, gzip.open(ip + ".gz", "wb", compresslevel=1) as g:
            g.write(f.read())
        tracemalloc.start()
        try:
            ds = load_idx(ip + ".gz", lp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_same_bytes(ds.inputs, images.reshape(10_000, 784))
        assert peak < 1.2 * ds.inputs.nbytes

    def test_image_label_count_mismatch_detected(self, idx_pair, tmp_path):
        ip, lp, images, labels = idx_pair
        lp6 = str(tmp_path / "six-labels")
        ip6 = str(tmp_path / "six-images")
        write_idx(ip6, lp6, images[:6], labels[:6])
        with pytest.raises(IdxCountMismatchError):
            load_idx(ip, lp6)

    def test_error_hierarchy(self):
        assert issubclass(IdxMagicError, IdxFormatError)
        assert issubclass(IdxTruncatedError, IdxFormatError)
        assert issubclass(IdxCountMismatchError, IdxFormatError)

    def test_scaling_is_bitwise_the_plain_division(self, tmp_path):
        # every byte value once: the stored bytes, and the one conversion
        # (into a fresh array or into a buffer) giving the same doubles
        # as the out-of-place division
        images = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
        labels = np.arange(4, dtype=np.uint8)
        ip = str(tmp_path / "images-idx3-ubyte")
        lp = str(tmp_path / "labels-idx1-ubyte")
        write_idx(ip, lp, images, labels)
        inputs = load_idx(ip, lp).inputs
        assert_same_bytes(inputs, images.reshape(4, 64))
        expected = images.astype(np.float64).reshape(4, 64) / 255.0
        npt.assert_array_equal(to_float(inputs).view(np.uint64),
                               expected.view(np.uint64))
        buf = np.full((4, 64), np.nan)
        assert to_float(inputs, out=buf) is buf
        npt.assert_array_equal(buf.view(np.uint64), expected.view(np.uint64))

    def test_pixels_scaled_to_unit_range(self, idx_pair):
        ip, lp, _, _ = idx_pair
        scaled = to_float(load_idx(ip, lp).inputs)
        assert scaled.dtype == np.float64
        assert scaled.min() >= 0.0
        assert scaled.max() <= 1.0


class TestCifar10:
    def test_binary_batch_parsing(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 5
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
        pixels = rng.integers(0, 256, size=(n, 3072), dtype=np.uint8)
        path = str(tmp_path / "data_batch_1.bin")
        with open(path, "wb") as f:
            for i in range(n):
                f.write(bytes([labels[i]]))
                f.write(pixels[i].tobytes())
        ds = load_cifar10([path])
        assert ds.inputs.shape == (n, 3, 32, 32)
        npt.assert_array_equal(ds.labels, labels)
        npt.assert_array_equal(ds.inputs.reshape(n, 3072), pixels)
        npt.assert_array_equal(
            to_float(ds.inputs).reshape(n, 3072), pixels / 255.0
        )

    @staticmethod
    def _write_batches(tmp_path, count, records):
        rng = np.random.default_rng(21)
        paths = []
        for i in range(count):
            raw = rng.integers(0, 256, size=(records, 3073), dtype=np.uint8)
            raw[:, 0] %= 10
            raw[:256, 1] = np.arange(256)  # every byte value occurs
            path = str(tmp_path / f"data_batch_{i + 1}.bin")
            raw.tofile(path)
            paths.append(path)
        return paths

    def test_bytes_match_the_per_batch_expression(self, tmp_path):
        paths = self._write_batches(tmp_path, 2, 300)
        ds = load_cifar10(paths)
        records = [np.fromfile(p, dtype=np.uint8).reshape(-1, 3073) for p in paths]
        pixels = np.concatenate([r[:, 1:].reshape(-1, 3, 32, 32) for r in records])
        expected = np.concatenate([
            r[:, 1:].astype(np.float64).reshape(-1, 3, 32, 32) / 255.0
            for r in records
        ])
        assert ds.inputs.dtype == np.uint8
        npt.assert_array_equal(ds.inputs, pixels)
        scaled = to_float(ds.inputs)
        assert scaled.dtype == np.float64
        npt.assert_array_equal(scaled.view(np.uint64), expected.view(np.uint64))
        npt.assert_array_equal(
            ds.labels, np.concatenate([r[:, 0] for r in records]).astype(np.int64)
        )

    def test_images_are_held_once_at_the_peak(self, tmp_path):
        # Two batches of 1000 records make a 6 MB result; holding each
        # batch's file bytes while the records are gathered into one
        # array would peak near twice that.
        paths = self._write_batches(tmp_path, 2, 1000)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            ds = load_cifar10(paths)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * ds.inputs.nbytes

    def test_gzipped_batches_read_the_same_records(self, tmp_path):
        # a gzipped batch is sized by a first decompressing pass, then
        # read into its slice of the records in bounded pieces
        paths = self._write_batches(tmp_path, 2, 300)
        gz = str(tmp_path / "data_batch_2.bin.gz")
        with open(paths[1], "rb") as f, gzip.open(gz, "wb") as g:
            g.write(f.read())
        plain, mixed = load_cifar10(paths), load_cifar10([paths[0], gz])
        assert_same_bytes(mixed.inputs, plain.inputs)
        npt.assert_array_equal(mixed.labels, plain.labels)
        with open(gz, "rb") as f:
            raw = f.read()
        bad = tmp_path / "bad.bin.gz"
        bad.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(IdxFormatError, match="bad.bin.gz"):
            load_cifar10([paths[0], str(bad)])

    def test_ragged_file_rejected(self, tmp_path):
        path = str(tmp_path / "bad.bin")
        with open(path, "wb") as f:
            f.write(bytes(3073 + 17))  # one record plus junk
        with pytest.raises(IdxFormatError):
            load_cifar10([path])


class TestMakeBlobs:
    def test_exact_class_balance(self):
        rng = np.random.default_rng(2)
        ds = make_blobs(100, 4, 2, 20.0, rng)
        counts = np.bincount(ds.labels, minlength=4)
        npt.assert_array_equal(counts, [25, 25, 25, 25])

    def test_same_seed_same_data(self):
        a = make_blobs(50, 3, 2, 10.0, np.random.default_rng(3))
        b = make_blobs(50, 3, 2, 10.0, np.random.default_rng(3))
        npt.assert_array_equal(a.inputs, b.inputs)
        npt.assert_array_equal(a.labels, b.labels)

    def test_two_classes_linearly_separable(self):
        # perceptron oracle: wide separation must yield zero mistakes
        # within a few sweeps
        rng = np.random.default_rng(4)
        ds = make_blobs(80, 2, 2, 20.0, rng)
        y = np.where(ds.labels == 1, 1.0, -1.0)
        x = np.hstack([ds.inputs, np.ones((ds.n, 1))])
        w = np.zeros(3)
        for _ in range(50):
            mistakes = 0
            for i in range(ds.n):
                if y[i] * (x[i] @ w) <= 0:
                    w += y[i] * x[i]
                    mistakes += 1
            if mistakes == 0:
                break
        assert mistakes == 0

    def test_holds_one_full_size_array(self):
        # Building centers[labels] beside the noise draw held two.
        tracemalloc.start()
        try:
            ds = make_blobs(12_000, 10, 784, 5.0, np.random.default_rng(6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * ds.inputs.nbytes

    def test_validation(self):
        rng = np.random.default_rng(5)
        with pytest.raises(DomainError):
            make_blobs(10, 1, 2, 5.0, rng)
        with pytest.raises(DomainError):
            make_blobs(10, 2, 2, 0.0, rng)


class TestDataset:
    def test_label_range_enforced(self):
        with pytest.raises(DomainError):
            Dataset(np.zeros((2, 3)), np.array([0, 5]), num_classes=3)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            Dataset(np.zeros((2, 3)), np.array([0]), num_classes=2)

    def test_subset_keeps_metadata(self):
        ds = Dataset(np.arange(12.0).reshape(4, 3), np.array([0, 1, 0, 1]),
                     num_classes=2, split="train")
        sub = ds.subset(np.array([2, 0]), split="val")
        assert sub.n == 2
        assert sub.split == "val"
        assert sub.num_classes == 2
        npt.assert_array_equal(sub.labels, [0, 0])


class TestMinibatches:
    def test_sizes_with_short_final_batch(self):
        batches = minibatches(10, 3, np.random.default_rng(6))
        assert [len(b) for b in batches] == [3, 3, 3, 1]

    def test_batches_partition_the_index_range(self):
        batches = minibatches(23, 5, np.random.default_rng(7))
        seen = np.concatenate(batches)
        npt.assert_array_equal(np.sort(seen), np.arange(23))

    def test_oversized_batch_rejected(self):
        with pytest.raises(DomainError):
            minibatches(5, 6, np.random.default_rng(9))
        with pytest.raises(DomainError):
            minibatches(5, 0, np.random.default_rng(9))

    def test_fresh_permutation_per_epoch(self):
        rng = np.random.default_rng(10)
        first = np.concatenate(minibatches(64, 8, rng))
        second = np.concatenate(minibatches(64, 8, rng))
        assert not np.array_equal(first, second)

    def test_batches_cut_the_permutation_drawn_at_call_time(self):
        batches = minibatches(11, 4, np.random.default_rng(12))
        permutation = np.random.default_rng(12).permutation(11)
        npt.assert_array_equal(np.concatenate(batches), permutation)

    def test_num_batches_is_ceiling(self):
        assert num_batches(10, 3) == 4
        assert num_batches(9, 3) == 3
        assert num_batches(1, 1) == 1

