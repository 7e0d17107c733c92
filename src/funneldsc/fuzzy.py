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

    def basis(self, y) -> np.ndarray:
        """Normalized basis at input y: shape ``(m,)`` for a scalar,
        ``(k, m)`` for a 1-D batch of k inputs.  This is the only place
        the rule activations are computed."""
        y = np.asarray(y, dtype=float)
        diff = y.reshape(-1, 1) - self.centers
        # in place where the float is the same: fewer (k, m) temporaries
        exponent = diff * diff
        exponent *= self._scale
        activation = np.exp(-exponent)
        activation *= 10.0
        total = activation.sum(axis=1)
        dead = total == 0.0
        if dead.any():
            # input far outside the grid: fall back to the nearest rule so the
            # probability-vector invariant survives underflow
            nearest = exponent[dead].argmin(axis=1)
            activation[dead] = 0.0
            activation[np.flatnonzero(dead), nearest] = 1.0
            total[dead] = 1.0
        out = activation / total[:, None]
        return out if y.ndim else out[0]


@dataclass
class AdaptiveWeights:
    """Online estimate of the optimal expansion weights for one stage."""

    theta_hat: np.ndarray
