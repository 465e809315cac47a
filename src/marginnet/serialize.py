"""Model persistence: a JSON manifest plus one little-endian float64 blob.

A saved directory holds:
    manifest.json   format tag, tensor names/shapes in blob order, and a
                    free-form "meta" object (architecture, head, config
                    echo, ...)
    params.bin      every tensor's raw bytes, concatenated in manifest
                    order

Round-trips are exact: float64 bytes in, identical float64 bytes out.
Each file is written under a temporary name in the same directory and
moved into place with ``os.replace``, so a reader never sees a partly
written file.
"""

import json
import math
import os

import numpy as np

from .tensor import DTYPE, ShapeError

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.bin"
FORMAT_TAG = "marginnet-tensors"
FORMAT_VERSION = 1


class ManifestError(ValueError):
    """Manifest missing, malformed, or inconsistent with the blob."""


def save_tensors(dir_path, tensors, meta=None):
    """Write named tensors and metadata to ``dir_path`` (created if
    needed).  Blob order is the dict's insertion order."""
    os.makedirs(dir_path, exist_ok=True)
    # Views, not copies, for the C-contiguous float64 arrays models hold.
    arrays = {
        name: np.ascontiguousarray(arr, dtype="<f8")
        for name, arr in tensors.items()
    }
    manifest = {
        "format": FORMAT_TAG,
        "version": FORMAT_VERSION,
        "dtype": "float64",
        "byte_order": "little",
        "tensors": [
            {"name": name, "shape": list(arr.shape)} for name, arr in arrays.items()
        ],
        "meta": meta or {},
    }

    def write_blob(f):
        for arr in arrays.values():
            f.write(arr.data)  # straight from the array's buffer, no bytes copy

    def write_manifest(f):
        f.write(json.dumps(manifest, indent=2).encode() + b"\n")

    _replace_file(os.path.join(dir_path, BLOB_NAME), write_blob)
    _replace_file(os.path.join(dir_path, MANIFEST_NAME), write_manifest)


def _replace_file(path, write):
    """Call ``write`` on a binary file at a temporary path next to
    ``path``, then move it over ``path``."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_tensors(dir_path):
    """Read a saved directory back as (tensors dict, meta dict)."""
    manifest_path = os.path.join(dir_path, MANIFEST_NAME)
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
    except FileNotFoundError:
        raise ManifestError(f"no {MANIFEST_NAME} in {dir_path}") from None
    except json.JSONDecodeError as e:
        raise ManifestError(f"{manifest_path}: invalid JSON ({e})") from None
    if manifest.get("format") != FORMAT_TAG:
        raise ManifestError(
            f"{manifest_path}: format {manifest.get('format')!r}, "
            f"expected {FORMAT_TAG!r}"
        )
    tensors = {}
    offset = 0
    with open(os.path.join(dir_path, BLOB_NAME), "rb") as f:
        size = os.fstat(f.fileno()).st_size
        for entry in manifest["tensors"]:
            shape = tuple(entry["shape"])
            nbytes = math.prod(shape) * 8
            if offset + nbytes > size:
                raise ManifestError(
                    f"{BLOB_NAME} holds {size} bytes; tensor "
                    f"{entry['name']!r} needs bytes up to {offset + nbytes}"
                )
            # Straight into the tensor's own array: the blob is never held whole.
            arr = np.empty(shape, dtype="<f8")
            f.readinto(arr.reshape(-1).view(np.uint8))
            tensors[entry["name"]] = arr.astype(DTYPE, copy=False)
            offset += nbytes
    if offset != size:
        raise ManifestError(f"{BLOB_NAME} has {size - offset} trailing bytes")
    return tensors, manifest.get("meta", {})


def assign_tensor(target, source, name):
    """Copy ``source`` into ``target`` in place, shapes checked."""
    if target.shape != source.shape:
        raise ShapeError(
            f"tensor {name!r}: stored shape {source.shape} vs "
            f"model shape {target.shape}"
        )
    target[...] = source
