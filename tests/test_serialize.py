import json
import os
import pathlib
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from marginnet.harness import load_model, save_model
from marginnet.serialize import (
    BLOB_NAME,
    MANIFEST_NAME,
    ManifestError,
    load_tensors,
    read_manifest,
    save_tensors,
)
from marginnet.tensor import ShapeError


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "layer0.weights": rng.normal(size=(3, 4)),
            "layer0.bias": rng.normal(size=4),
            "head.weights": rng.normal(size=(5, 2)),
        }
        save_tensors(str(tmp_path), tensors, meta={"head": {"kind": "l2svm"}})
        loaded, meta = load_tensors(str(tmp_path))
        assert list(loaded) == list(tensors)  # order preserved
        for name in tensors:
            npt.assert_array_equal(loaded[name], tensors[name])
        assert meta == {"head": {"kind": "l2svm"}}

    def test_manifest_is_readable_json(self, tmp_path):
        save_tensors(str(tmp_path), {"w": np.zeros((2, 2))})
        with open(tmp_path / MANIFEST_NAME) as f:
            manifest = json.load(f)
        assert manifest["tensors"] == [{"name": "w", "shape": [2, 2]}]
        assert manifest["dtype"] == "float64"


class TestWrite:
    def test_blob_is_the_tensor_bytes_in_order(self, tmp_path):
        rng = np.random.default_rng(1)
        tensors = {
            "a": rng.normal(size=(3, 4)),
            "b": rng.normal(size=(4, 3)).T,  # not C-contiguous
            "c": np.arange(5),               # not float64
            "d": np.float64(2.5),            # 0-d
        }
        save_tensors(str(tmp_path), tensors)
        want = b"".join(
            np.ascontiguousarray(t, dtype="<f8").tobytes() for t in tensors.values()
        )
        assert (tmp_path / BLOB_NAME).read_bytes() == want
        shapes = [e["shape"] for e in json.loads((tmp_path / MANIFEST_NAME).read_text())["tensors"]]
        assert shapes == [[3, 4], [3, 4], [5], [1]]

    def test_overwrite_replaces_both_files_and_leaves_no_temporaries(self, tmp_path):
        save_tensors(str(tmp_path), {"w": np.zeros(3)}, meta={"n": 1})
        save_tensors(str(tmp_path), {"v": np.ones(2)}, meta={"n": 2})
        assert sorted(os.listdir(tmp_path)) == sorted([BLOB_NAME, MANIFEST_NAME])
        loaded, meta = load_tensors(str(tmp_path))
        assert list(loaded) == ["v"] and meta == {"n": 2}

    def test_writes_without_copying_the_blob(self, tmp_path):
        # Joining per-tensor byte copies would peak at twice the blob.
        rng = np.random.default_rng(2)
        tensors = {f"t{i}": rng.normal(size=(500, 1000)) for i in range(4)}
        blob_bytes = sum(t.nbytes for t in tensors.values())  # 16 MB
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            save_tensors(str(tmp_path), tensors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < blob_bytes / 4
        assert os.path.getsize(tmp_path / BLOB_NAME) == blob_bytes


class TestRead:
    def test_loaded_tensors_hold_the_blob_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        tensors = {
            "a": rng.normal(size=(3, 4)),
            "b": np.float64(2.5),
            "empty": np.zeros((0, 3)),
            "c": rng.normal(size=7),
        }
        save_tensors(str(tmp_path), tensors)
        loaded, _ = load_tensors(str(tmp_path))
        blob = (tmp_path / BLOB_NAME).read_bytes()
        assert b"".join(t.tobytes() for t in loaded.values()) == blob
        assert [t.shape for t in loaded.values()] == [(3, 4), (1,), (0, 3), (7,)]
        for t in loaded.values():
            assert t.dtype == np.float64
            assert t.flags.c_contiguous and t.flags.writeable

    def test_loads_without_holding_the_blob_twice(self, tmp_path):
        # Reading the blob whole and copying each tensor out of it would
        # peak at twice the blob.
        rng = np.random.default_rng(4)
        tensors = {f"t{i}": rng.normal(size=(500, 1000)) for i in range(4)}
        blob_bytes = sum(t.nbytes for t in tensors.values())  # 16 MB
        save_tensors(str(tmp_path), tensors)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            loaded, _ = load_tensors(str(tmp_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * blob_bytes
        for name, t in tensors.items():
            assert loaded[name].tobytes() == t.tobytes()


class TestValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestError):
            load_tensors(str(tmp_path))

    def test_trailing_blob_bytes_detected(self, tmp_path):
        save_tensors(str(tmp_path), {"w": np.zeros(3)})
        with open(tmp_path / BLOB_NAME, "ab") as f:
            f.write(b"\x00" * 8)
        with pytest.raises(ManifestError):
            load_tensors(str(tmp_path))

    def test_short_blob_detected(self, tmp_path):
        save_tensors(str(tmp_path), {"w": np.zeros(3)})
        blob = (tmp_path / BLOB_NAME).read_bytes()
        (tmp_path / BLOB_NAME).write_bytes(blob[:-8])
        with pytest.raises(ManifestError):
            load_tensors(str(tmp_path))

    def test_repeated_tensor_name_detected(self, tmp_path):
        # Two copies of "a": a reader would fill ``into`` from one and
        # return the other.
        save_tensors(str(tmp_path), {"a": np.zeros(2), "b": np.ones(2)})
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["tensors"][1]["name"] = "a"
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="'a' more than once"):
            load_tensors(str(tmp_path), {"a": np.zeros(2)})

    def test_wrong_format_tag(self, tmp_path):
        save_tensors(str(tmp_path), {"w": np.zeros(1)})
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["format"] = "something-else"
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ManifestError):
            load_tensors(str(tmp_path))


class TestReadInto:
    def test_named_tensors_are_read_in_place(self, tmp_path):
        rng = np.random.default_rng(5)
        tensors = {"a": rng.normal(size=(2, 2)), "b": rng.normal(size=3),
                   "c": rng.normal(size=2)}
        save_tensors(str(tmp_path), tensors)
        store = np.zeros(7)
        into = {"b": store[4:], "a": store[:4].reshape(2, 2)}
        loaded, _ = load_tensors(str(tmp_path), into)
        assert list(loaded) == ["a", "b", "c"]
        assert loaded["a"] is into["a"] and loaded["b"] is into["b"]
        assert store.tobytes() == tensors["a"].tobytes() + tensors["b"].tobytes()
        assert not np.shares_memory(loaded["c"], store)
        npt.assert_array_equal(loaded["c"], tensors["c"])

    def test_shape_mismatch_names_tensor(self, tmp_path):
        save_tensors(str(tmp_path), {"w": np.zeros((2, 3)), "b": np.zeros(3)})
        with pytest.raises(ShapeError, match="'w': stored shape"):
            load_tensors(str(tmp_path), {"w": np.zeros((3, 2))})
        with pytest.raises(ShapeError, match="missing tensor 'head.weights'"):
            load_tensors(str(tmp_path), {"head.weights": np.zeros((2, 3))})


# Models saved by an earlier version of the library; see their README.
SAVED_MODELS = pathlib.Path(__file__).parent / "saved_models"


@pytest.mark.parametrize("name", ["conv2", "mlp_pca"])
def test_saved_models_load_and_resave_byte_for_byte(tmp_path, name):
    saved = SAVED_MODELS / name
    model = load_model(str(saved))
    stored = [(t["name"], tuple(t["shape"]))
              for t in read_manifest(str(saved))["tensors"]]
    table = [(slot.name, slot.shape) for slot in model.network.table]
    assert stored[: len(table)] == table
    save_model(str(tmp_path), model.network, model, model.meta.get("config"))
    for file in (MANIFEST_NAME, BLOB_NAME):
        assert (tmp_path / file).read_bytes() == (saved / file).read_bytes()
