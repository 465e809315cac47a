"""Dense float64 arrays and the primitives the rest of the library builds on.

The tensor type of this library is a plain ``numpy.ndarray`` with dtype
float64 (row-major, batch dimension first).  This module pins that
convention and wraps the handful of primitives whose error behavior the
rest of the library relies on: shape mismatches raise :class:`ShapeError`
naming both shapes, and argmax resolves ties to the lowest index.

Loaded image pixels are the one exception: the IDX and CIFAR-10 loaders
keep the file's ``PIXELS`` bytes, which become float64 only through
:func:`marginnet.preprocess.to_float`.  A float-only entry point takes
them as a :class:`DomainError` (:func:`reject_pixels`), never as 0-255
values.

All operations are deterministic: identical inputs produce bit-identical
outputs call after call.
"""

import numpy as np

DTYPE = np.float64
PIXELS = np.uint8


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """An argument is outside the operation's domain."""


def reject_pixels(x, where):
    """Raise :class:`DomainError` if ``x`` holds unscaled ``PIXELS``."""
    if np.asarray(x).dtype == PIXELS:
        raise DomainError(
            f"{where} takes float64 values, got uint8 pixels; scale them "
            "with marginnet.preprocess.to_float first"
        )


def matmul(a, b):
    """Matrix product of two rank-2 tensors.

    Raises:
        ShapeError: if either operand is not rank-2 or the inner
            dimensions disagree.  The message names both shapes.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    return a @ b


def argmax(a, axis=-1):
    """Index of the maximum along ``axis``; ties go to the LOWEST index."""
    a = np.asarray(a)
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"axis {axis} out of range for shape {a.shape}")
    if a.shape[axis] == 0:
        raise DomainError("argmax over an empty axis")
    # np.argmax returns the first occurrence, which is the lowest index.
    return np.argmax(a, axis=axis)
