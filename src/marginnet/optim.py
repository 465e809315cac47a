"""Minibatch SGD with classical momentum, and linear schedules.

Update rule per parameter array:

    v <- momentum * v - lr * grad
    p <- p + v

Velocities start at zero and are matched to parameters by list
position, so the caller must pass the same parameter list (same order,
same array objects) on every step.  Parameters are updated in place.
"""

import numpy as np

from .tensor import DTYPE, DomainError, ShapeError


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
    def __init__(self, momentum=0.9):
        if not 0.0 <= momentum < 1.0:
            raise DomainError(
                f"momentum must be in [0, 1), got {momentum}"
            )
        self.momentum = momentum
        self.velocities = None

    def step(self, params, grads, lr):
        """One in-place update of every parameter array.

        lr may vary between calls (schedules); velocities persist.
        """
        if lr < 0:
            raise DomainError(f"learning rate must be non-negative, got {lr}")
        if len(params) != len(grads):
            raise ShapeError(
                f"{len(params)} params vs {len(grads)} grads"
            )
        if self.velocities is None:
            self.velocities = [np.zeros_like(p, dtype=DTYPE) for p in params]
        if len(self.velocities) != len(params):
            raise ShapeError(
                f"optimizer tracks {len(self.velocities)} params, got {len(params)}"
            )
        for p, g, v in zip(params, grads, self.velocities):
            g = np.asarray(g, dtype=DTYPE)
            if p.shape != g.shape or p.shape != v.shape:
                raise ShapeError(
                    f"param {p.shape}, grad {g.shape}, velocity {v.shape} disagree"
                )
            v *= self.momentum
            v -= lr * g
            p += v
