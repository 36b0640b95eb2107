"""Sign oracles and reproducible random streams.

Streams are identified by (seed, key-path) through numpy's SeedSequence, so a
trial can hand independent child streams to the protocol, the oracle noise,
and each adversary without any coordination between workers.  The Gaussian
first-order oracle's noise is drawn in one block by the protocol.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .functions import FunctionInstance


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream: same (seed, key) -> same draws."""

    seed: int
    key: tuple[int, ...] = field(default=())

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.key))

    def child(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.key + (index,))


def sign_oracle(f: FunctionInstance, x: float) -> int:
    """Exact sign of the subgradient at x; a zero subgradient reports +1."""
    return 1 if float(f.subgrad(x)) >= 0.0 else -1


def noisy_sign_oracle(
    f: FunctionInstance, x: float, p: float, rng: np.random.Generator, size: int | None = None
) -> int | np.ndarray:
    """Sign oracle that is correct with probability p, flipped otherwise.

    size None (the default) gives one sign, an int; an integer m gives m
    independent responses at x as one int64 array, equal to m calls with
    size=None from the same generator state, because the generator draws the
    same uniforms one at a time or as a block.
    """
    if not 0.5 < p < 1.0:
        raise ParameterError(f"p must lie in (0.5, 1), got {p}")
    s = sign_oracle(f, x)
    if size is None:
        return -s if rng.random() >= p else s
    return np.where(rng.random(size) >= p, -s, s)
