"""Stochastic oracles and reproducible random streams.

Streams are identified by (seed, key-path) through numpy's SeedSequence, so a
trial can hand independent child streams to the protocol, the oracle noise,
and each adversary without any coordination between workers.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

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


@dataclass(frozen=True)
class OracleResponse:
    kind: str  # "sign" or "first_order"
    sign: int | None = None
    value: float | None = None
    gradient: Any = None


def sign_oracle(f: FunctionInstance, x: float) -> OracleResponse:
    """Exact sign of the subgradient at x; a zero subgradient reports +1."""
    if f.dim != 1:
        raise ParameterError("sign oracle is defined for 1-d instances only")
    g = float(f.subgrad(x))
    return OracleResponse(kind="sign", sign=1 if g >= 0.0 else -1)


def noisy_sign_oracle(
    f: FunctionInstance, x: float, p: float, rng: np.random.Generator
) -> OracleResponse:
    """Sign oracle that is correct with probability p, flipped otherwise."""
    if not 0.5 < p < 1.0:
        raise ParameterError(f"p must lie in (0.5, 1), got {p}")
    s = sign_oracle(f, x).sign
    if rng.random() >= p:
        s = -s
    return OracleResponse(kind="sign", sign=s)


def gaussian_first_order(
    f: FunctionInstance, x: Any, sigma: float, rng: np.random.Generator
) -> OracleResponse:
    """Noisy value and gradient: (f(x) + Z1, g(x) + Z2), all noise N(0, sigma^2).

    Draw order is fixed (value noise first, then the gradient coordinates) so
    that sequences replay exactly for a given stream.  sigma = 0 is exact.
    """
    if sigma < 0.0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    y1 = float(f.value(x)) + (rng.normal(0.0, sigma) if sigma > 0.0 else 0.0)
    g = f.subgrad(x)
    if f.dim == 1:
        y2 = float(g) + (rng.normal(0.0, sigma) if sigma > 0.0 else 0.0)
    else:
        noise = rng.normal(0.0, sigma, size=f.dim) if sigma > 0.0 else 0.0
        y2 = np.asarray(g, dtype=float) + noise
    return OracleResponse(kind="first_order", value=y1, gradient=y2)
