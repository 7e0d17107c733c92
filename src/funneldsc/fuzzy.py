"""The normalized Gaussian radial basis of the case studies.

The grid produces a probability-vector basis (components nonnegative,
summing to one), so the linear expansion ``basis . theta`` is a bounded
universal approximator and the regressor energy ``|basis|^2`` lies in
[1/m, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GaussianGrid", "AdaptiveWeights"]


class GaussianGrid:
    """The 11-rule grid over a scalar input: centers at -20, -16, ..., 20,
    membership 10*exp(-(y - center)^2 / 10)."""

    centers = np.arange(-20.0, 20.5, 4.0)
    m = centers.size
    # exp(-(y-c)^2/10) as exp(-0.5*((y-c)/sqrt(5))^2): the scale is the float
    # 0.09999999999999998, and 0.1 in its place would change the runs' floats
    _scale = 0.5 / np.sqrt(5.0) ** 2

    @classmethod
    def reference_grid(cls, dim: int = 1) -> "GaussianGrid":
        """The grid; ``dim`` is accepted only as 1, the grid's one input."""
        if dim != 1:
            raise ValueError(f"the reference grid has one input dimension, got dim={dim!r}")
        return cls()

    def buffers(self, k: int) -> tuple:
        """Arrays for :meth:`basis` to fill for a batch of k inputs: its
        rows, a work array of their shape and the row sums."""
        return np.empty((k, self.m)), np.empty((k, self.m)), np.empty(k)

    def basis(self, y, buffers=None) -> np.ndarray:
        """Normalized basis at input y: shape ``(m,)`` for a scalar,
        ``(k, m)`` for a 1-D batch of k inputs, computed in ``buffers``
        (:meth:`buffers` of k, or of 1 for a scalar; new ones if None) and
        returned in its rows.  This is the only place the rule activations
        are computed."""
        y = np.asarray(y, dtype=float)
        out, work, total = self.buffers(y.size) if buffers is None else buffers
        # each ufunc takes whole (k, m) arrays: numpy buffers a broadcast
        # operand, 64 kB per operand and call, and np.copyto does not
        np.copyto(work, y.reshape(-1, 1))
        np.copyto(out, self.centers)
        np.subtract(work, out, out=work)
        with np.errstate(over="ignore"):  # a square past the floats is inf, a dead row
            np.multiply(work, work, out=work)
        work *= self._scale
        np.exp(np.negative(work, out=work), out=out)
        out *= 10.0
        np.add.reduce(out, axis=1, out=total)
        dead = total == 0.0
        if dead.any():
            # input far outside the grid: fall back to the nearest rule so the
            # probability-vector invariant survives underflow; clipped to the
            # grid, so that an input past every center is nearest its end
            near = np.abs(y.reshape(-1)[dead].clip(self.centers[0], self.centers[-1])[:, None] - self.centers)
            out[dead] = 0.0
            out[np.flatnonzero(dead), near.argmin(axis=1)] = 1.0
            total[dead] = 1.0
        np.copyto(work, total.reshape(-1, 1))
        np.divide(out, work, out=out)
        return out if y.ndim else out[0]


@dataclass
class AdaptiveWeights:
    """Online estimate of the optimal expansion weights for one stage."""

    theta_hat: np.ndarray
