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
written file; :func:`write_text` gives the other run artifacts
(``metrics.csv``, ``runmeta.json``, ``eval.json``, ``ensemble.json``)
the same guarantee.
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
# The manifest fields every reader checks, with the one value each may hold.
HEADER = {
    "format": FORMAT_TAG,
    "version": FORMAT_VERSION,
    "dtype": "float64",
    "byte_order": "little",
}


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
        **HEADER,
        "tensors": [
            {"name": name, "shape": list(arr.shape)} for name, arr in arrays.items()
        ],
        "meta": meta or {},
    }

    def write_blob(f):
        for arr in arrays.values():
            f.write(arr.data)  # straight from the array's buffer, no bytes copy

    _replace_file(os.path.join(dir_path, BLOB_NAME), write_blob)
    write_text(os.path.join(dir_path, MANIFEST_NAME), json_text(manifest))


def json_text(obj):
    """The JSON text of every JSON artifact: indented by 2, with a
    trailing newline; numpy scalars are written as Python numbers."""
    return json.dumps(obj, indent=2, default=_json_default) + "\n"


def _json_default(value):
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value)}")


def write_text(path, text):
    """Write ``text`` to ``path`` atomically, as UTF-8."""
    _replace_file(path, lambda f: f.write(text.encode()))


def _replace_file(path, write):
    """Call ``write`` on a binary file at a temporary path next to
    ``path``, then move it over ``path``.  Every file a run writes goes
    through here."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_manifest(dir_path):
    """The checked manifest of the saved directory ``dir_path``."""
    path = os.path.join(dir_path, MANIFEST_NAME)
    try:
        with open(path) as f:
            manifest = json.load(f)
    except FileNotFoundError:
        raise ManifestError(f"no {MANIFEST_NAME} in {dir_path}") from None
    except json.JSONDecodeError as e:
        raise ManifestError(f"{path}: invalid JSON ({e})") from None
    _check_manifest(manifest, path)
    return manifest


def load_tensors(dir_path, into=None):
    """Read a saved directory back as (tensors dict, meta dict), each
    tensor straight into its own array or the C-contiguous float64 one
    ``into`` maps its name to.  A name of ``into`` stored at another
    shape, or not at all, raises :class:`ShapeError`."""
    manifest = read_manifest(dir_path)
    targets = dict(into or {})
    tensors = {}
    offset = 0
    with open(os.path.join(dir_path, BLOB_NAME), "rb") as f:
        size = os.fstat(f.fileno()).st_size
        for entry in manifest["tensors"]:
            name, shape = entry["name"], tuple(entry["shape"])
            nbytes = math.prod(shape) * 8
            if offset + nbytes > size:
                raise ManifestError(
                    f"{BLOB_NAME} holds {size} bytes; tensor "
                    f"{name!r} needs bytes up to {offset + nbytes}"
                )
            arr = targets.pop(name, None)
            if arr is None:
                arr = np.empty(shape, dtype=DTYPE)
            elif arr.shape != shape:
                raise ShapeError(f"tensor {name!r}: stored shape {shape} vs "
                                 f"model shape {arr.shape}")
            f.readinto(arr.reshape(-1).view(np.uint8))
            if not np.little_endian:
                arr.byteswap(inplace=True)
            tensors[name] = arr
            offset += nbytes
    if offset != size:
        raise ManifestError(f"{BLOB_NAME} has {size - offset} trailing bytes")
    if targets:
        raise ShapeError(f"missing tensor {next(iter(targets))!r}")
    return tensors, manifest.get("meta", {})


def _check_manifest(manifest, path):
    """Raise :class:`ManifestError` unless ``manifest`` has the header
    :func:`save_tensors` writes and a list of tensor entries, each a
    string name and a list of non-negative integer dimensions."""
    if not isinstance(manifest, dict):
        raise ManifestError(f"{path}: not a JSON object")
    for key, expected in HEADER.items():
        if manifest.get(key) != expected:
            raise ManifestError(
                f"{path}: {key} {manifest.get(key)!r}, expected {expected!r}"
            )
    entries = manifest.get("tensors")
    if not isinstance(entries, list):
        raise ManifestError(f"{path}: tensors {entries!r}, expected a list")
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in entry["shape"])):
            raise ManifestError(
                f"{path}: tensor entry {entry!r} needs a string name and a "
                f"list of non-negative integer dimensions"
            )
