"""Estimators an eavesdropper can run on the public query stream.

Each strategy consumes only the ordered query points (the public view of a
transcript) plus its own randomness, and returns a point estimate of the
optimizer.  Success downstream means landing within eps_adv of the truth.

The query stream is a 1-d numpy array or a transcript's PublicView.  A
strategy reads it only through len(), single queries and the last-phase slice
queries[-S:], so a PublicView never has its K*S points built.

Every strategy takes size: None (the default) gives one guess, a float; an
integer k gives k guesses as one array, equal to k calls with size=None from
the same generator state, because the generator draws the same numbers one
at a time or as a block.  Guessing k points at once needs an array stream.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import PackingError, ParameterError

_OFFSET_TOL = 1e-9

ADVERSARY_ORDER = ("proportional", "packing_ball", "posterior_interval", "uniform_naive")


@dataclass(frozen=True)
class AdversaryEstimate:
    """One guess (a float), or an array of guesses with fell_back True when
    any of them fell back."""

    point: float | np.ndarray
    fell_back: bool = False


def _check_queries(queries: Any) -> int:
    """Number of queries in a non-empty 1-d stream."""
    if getattr(queries, "ndim", 1) != 1 or len(queries) == 0:
        raise ParameterError("adversary needs a non-empty 1-d query stream")
    return len(queries)


def _pick(queries: Any, index: Any) -> float | np.ndarray:
    """queries[index] as a float, or as an array for an array of indices."""
    if isinstance(index, np.ndarray):
        return np.asarray(queries, dtype=float)[index]
    return float(queries[index])


def proportional_sample(
    queries: Any, rng: np.random.Generator, size: int | None = None
) -> AdversaryEstimate:
    """Guess a query point uniformly at random: heavily queried regions win."""
    n = _check_queries(queries)
    return AdversaryEstimate(point=_pick(queries, rng.integers(n, size=size)))


def packing_ball_sample(
    queries: Any,
    radius: float,
    centers: np.ndarray,
    rng: np.random.Generator,
    size: int | None = None,
) -> AdversaryEstimate:
    """Guess the packing center whose ball absorbed the sampled query.

    Centers must be pairwise >= 2*radius apart; each center is returned with
    probability (#queries within radius of it)/T, and the residual mass falls
    back to proportional sampling among the out-of-ball queries.
    """
    n = _check_queries(queries)
    if not radius > 0.0:
        raise ParameterError(f"radius must be positive, got {radius}")
    cen = np.sort(np.asarray(centers, dtype=float))
    if cen.size == 0:
        raise PackingError("no packing centers supplied")
    if cen.size > 1 and np.min(np.diff(cen)) < 2.0 * radius - 1e-12:
        raise PackingError(
            f"centers are not a 2r-packing: min gap {np.min(np.diff(cen)):.6g} < {2 * radius:.6g}"
        )
    x = _pick(queries, rng.integers(n, size=size))
    # nearest center to each guess; argmin takes the first of two equally near
    nearest = cen[abs(np.subtract.outer(x, cen)).argmin(axis=-1)]
    inside = abs(nearest - x) <= radius
    if size is None:
        return AdversaryEstimate(point=float(nearest) if inside else x, fell_back=not inside)
    return AdversaryEstimate(point=np.where(inside, nearest, x), fell_back=not inside.all())


def posterior_interval_adversary(
    queries: Any, s_count: int, rng: np.random.Generator, size: int | None = None
) -> AdversaryEstimate:
    """Exploit the final replicated phase: its S clusters carry all posterior mass.

    The last S queries are one offset mirrored across the S subintervals; the
    posterior over the optimizer is then uniform over the clusters, so one
    cluster center is returned uniformly at random.  A last phase that is not
    such a mirror (fewer than S queries, or unequal gaps, as in the plain
    control) falls back to proportional sampling.
    """
    n = _check_queries(queries)
    if s_count < 2:
        raise ParameterError(f"s_count must be >= 2, got {s_count}")
    if n >= s_count:
        last = np.sort(queries[-s_count:])
        if float(np.ptp(np.diff(last))) <= _OFFSET_TOL:
            return AdversaryEstimate(point=_pick(last, rng.integers(s_count, size=size)))
    return AdversaryEstimate(point=_pick(queries, rng.integers(n, size=size)), fell_back=True)


def uniform_naive(rng: np.random.Generator, size: int | None = None) -> AdversaryEstimate:
    """Ignore the transcript entirely; guess uniformly on [0, 1]."""
    return AdversaryEstimate(point=rng.uniform(0.0, 1.0, size))


def default_packing_centers(eps_adv: float) -> np.ndarray:
    """Touching-ball packing of [0, 1]: centers eps_adv, 3*eps_adv, ..."""
    return np.arange(eps_adv, 1.0, 2.0 * eps_adv)


def adversary_guesses(
    queries: Any, s_count: int, eps_adv: float, rngs: Sequence[np.random.Generator],
    size: int | None = None,
) -> dict[str, AdversaryEstimate]:
    """Each strategy's guess, in ADVERSARY_ORDER; strategy i draws from rngs[i]."""
    proportional, packing, posterior, naive = rngs
    return {
        "proportional": proportional_sample(queries, proportional, size),
        "packing_ball": packing_ball_sample(
            queries, eps_adv, default_packing_centers(eps_adv), packing, size
        ),
        "posterior_interval": posterior_interval_adversary(queries, s_count, posterior, size),
        "uniform_naive": uniform_naive(naive, size),
    }
