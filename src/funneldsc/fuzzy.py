"""Normalized Gaussian radial-basis approximators.

A rule grid produces a probability-vector basis (components nonnegative,
summing to one), so the linear expansion ``basis . theta`` is a bounded
universal approximator and the regressor energy ``|basis|^2`` lies in
[1/m, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GaussianGrid", "AdaptiveWeights"]


@dataclass(frozen=True)
class GaussianGrid:
    """Grid of m Gaussian rules over a d-dimensional input.

    Each rule j has center ``centers[j]`` (shape (d,)), a shared width
    ``widths[j]`` across input dimensions and amplitude ``amplitudes[j]``.
    """

    centers: np.ndarray
    widths: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        widths = np.asarray(self.widths, dtype=float)
        amplitudes = np.asarray(self.amplitudes, dtype=float)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "amplitudes", amplitudes)
        m = centers.shape[0]
        if m < 1:
            raise ValueError("grid needs at least one rule")
        if widths.shape != (m,) or amplitudes.shape != (m,):
            raise ValueError("widths and amplitudes must have one entry per rule")
        if not (np.all(widths > 0.0) and np.all(amplitudes > 0.0)):
            raise ValueError("widths and amplitudes must be strictly positive")

    @property
    def m(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @classmethod
    def reference_grid(cls, dim: int = 1) -> "GaussianGrid":
        """The 11-rule grid used by the case studies.

        Centers at -20, -16, ..., 20 repeated on every input dimension,
        membership 10*exp(-(y - center)^2 / 10) per dimension.
        """
        c = np.arange(-20.0, 20.5, 4.0)
        centers = np.tile(c[:, None], (1, dim))
        # exp(-(y-c)^2/10) == exp(-0.5*((y-c)/sqrt(5))^2)
        widths = np.full(11, np.sqrt(5.0))
        amplitudes = np.full(11, 10.0)
        return cls(centers=centers, widths=widths, amplitudes=amplitudes)

    def basis(self, x) -> np.ndarray:
        """Normalized basis at input x.

        ``x`` is a scalar or a length-``dim`` vector, giving shape ``(m,)``,
        or a batch of shape ``(k, dim)``, giving shape ``(k, m)``.  This is
        the only place the rule activations are computed.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim <= 1
        batch = x.reshape(1, -1) if single else x
        if batch.ndim != 2 or batch.shape[1] != self.dim:
            raise ValueError(f"input shape {x.shape} does not match grid dimension {self.dim}")
        diff = batch[:, None, :] - self.centers[None, :, :]
        exponent = (diff * diff).sum(axis=2) * (0.5 / self.widths**2)
        activation = self.amplitudes**self.dim * np.exp(-exponent)
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
        return out[0] if single else out

    def regressor_energy(self, x) -> float:
        """Squared basis norm |basis(x)|^2, always within [1/m, 1]."""
        phi = self.basis(x)
        return float(phi @ phi)


@dataclass
class AdaptiveWeights:
    """Online estimate of the optimal expansion weights for one stage."""

    theta_hat: np.ndarray

    def __post_init__(self):
        self.theta_hat = np.asarray(self.theta_hat, dtype=float)

    @classmethod
    def zeros(cls, m: int) -> "AdaptiveWeights":
        return cls(np.zeros(m))
