"""Minibatch SGD with classical momentum, and linear schedules.

Update rule per parameter array:

    v <- momentum * v - lr * grad
    p <- p + v

The optimizer binds its parameter arrays when built and gives each a
zero velocity; a step takes their gradients in the same order and
updates the bound arrays in place.  Training binds one array, a
network's flat parameter buffer ``Network.param``, and steps it with
the flat gradient buffer ``Network.grad``, so its one velocity is laid
out like both.

A step runs over each array in flat blocks of ``STEP_BLOCK`` elements,
with ``lr * grad`` written into one reused scratch buffer, so no
parameter-sized temporary is built.  Every operation is elementwise, so
the bytes equal those of the whole-array update.
"""

import numpy as np

from .tensor import DTYPE, DomainError, ShapeError

# Elements per block of a step: 512 KB of float64, which stays in cache
# between the block's four passes.
STEP_BLOCK = 1 << 16


class LinearSchedule:
    """Linear interpolation from start to end over total_steps updates,
    clamped at end afterwards.  value(0) == start, value(total_steps)
    and beyond == end.  Stateless; callers pass the update counter."""

    def __init__(self, start, end, total_steps):
        if total_steps < 1:
            raise DomainError(
                f"schedule needs at least 1 step, got {total_steps}"
            )
        self.start = float(start)
        self.end = float(end)
        self.total_steps = int(total_steps)

    def value(self, step):
        if step < 0:
            raise DomainError(f"schedule step must be non-negative, got {step}")
        frac = min(step / self.total_steps, 1.0)
        return self.start + (self.end - self.start) * frac


class SgdMomentum:
    def __init__(self, params, momentum=0.9):
        if not 0.0 <= momentum < 1.0:
            raise DomainError(
                f"momentum must be in [0, 1), got {momentum}"
            )
        self.momentum = momentum
        self.params = list(params)
        for p in self.params:
            if not p.flags.c_contiguous:
                raise ShapeError("parameter arrays must be C-contiguous")
        # np.zeros leaves the pages unwritten until the first step: unlike
        # zeros_like, it adds nothing to a one-update run's backprop peak.
        self.velocities = [np.zeros(p.shape, dtype=DTYPE) for p in self.params]

    def step(self, grads, lr):
        """One in-place update of every bound parameter array.

        lr may vary between calls (schedules); velocities persist.
        """
        if lr < 0:
            raise DomainError(f"learning rate must be non-negative, got {lr}")
        if len(grads) != len(self.params):
            raise ShapeError(
                f"optimizer tracks {len(self.params)} params, got {len(grads)} grads"
            )
        grads = [np.asarray(g, dtype=DTYPE) for g in grads]
        for p, g in zip(self.params, grads):
            if p.shape != g.shape:
                raise ShapeError(f"param {p.shape} and grad {g.shape} disagree")
        largest = max((p.size for p in self.params), default=0)
        scratch = np.empty(min(largest, STEP_BLOCK), dtype=DTYPE)
        for p, g, v in zip(self.params, grads, self.velocities):
            p, g, v = p.reshape(-1), g.reshape(-1), v.reshape(-1)
            for start in range(0, p.size, STEP_BLOCK):
                block = slice(start, start + STEP_BLOCK)
                vb = v[block]
                lr_g = np.multiply(g[block], lr, out=scratch[: vb.size])
                vb *= self.momentum
                vb -= lr_g
                p[block] += vb
