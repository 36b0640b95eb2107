"""Oracles and reproducible random streams.

Streams are identified by (seed, key-path) through numpy's SeedSequence, so a
trial can hand independent child streams to the protocol, the oracle noise,
and each adversary without any coordination between workers.  Every oracle's
randomness is drawn here: sign flips, and the Gaussian first-order oracle's
gradient noise.  The oracles take the optimizer x*, not an objective.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream: same (seed, key) -> same draws."""

    seed: int
    key: tuple[int, ...] = field(default=())

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.key))

    def child(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.key + (index,))


def sign_oracle(x_star: float, x: float) -> int:
    """Exact sign of the subgradient of |x - x*| at x; a zero subgradient reports +1."""
    return 1 if x >= x_star else -1


def noisy_sign_oracle(
    x_star: float, x: float, p: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """size sign responses at x as one int64 array, each correct with
    probability p and flipped otherwise; one call of size m draws what m calls
    of size 1 draw from the same generator state."""
    if not 0.5 < p < 1.0:
        raise ParameterError(f"p must lie in (0.5, 1), got {p}")
    s = sign_oracle(x_star, x)
    return np.where(rng.random(size) >= p, -s, s)


def gradient_noise(gen: np.random.Generator, sigma: float, n: int) -> list[float]:
    """Gradient noise of n Gaussian first-order oracle responses, N(0, sigma^2).

    Drawn as one (n, 2) block in the oracle's (value, gradient) order; only the
    gradient column is used.  sigma = 0 draws nothing.
    """
    if sigma > 0.0:
        return gen.normal(0.0, sigma, size=(n, 2))[:, 1].tolist()
    return [0.0] * n
