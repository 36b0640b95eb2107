"""Epoch-doubling projected subgradient descent with a propose/feed interface.

The solver runs in epochs whose lengths double while the step size shrinks by
2^(-kappa/(2*kappa-2)) per epoch.  Inside an epoch each fed gradient applies a
projected step onto domain  intersect  [anchor - R_e, anchor + R_e]; at an epoch
boundary the next anchor is the average of the epoch's first T_e iterates.  The
state is resumable: propose() says where the next gradient is wanted and feed()
consumes it.  epoch_gd_drive(), which the protocols use, runs the same steps
as one loop per epoch; it and propose() share the one epoch-boundary helper.
"""
from __future__ import annotations

import math
import numbers
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Any

import numpy as np

from .errors import DomainError, ParameterError, ProtocolOrderError

_OVERRIDE_KEYS = ("C0", "C1", "C2")


def default_constants(
    kappa: float, lam: float, w: float, delta: float, t_budget: int
) -> dict[str, float]:
    """Schedule constants from the problem parameters.

    C0 = 288 * ln(floor(log2(T) + 1) / delta)   (inner log base 2, outer natural)
    C1 = W^((2-kappa)/(kappa-1)) * 2^(kappa / (2*(kappa-1)^2)) / lam^(1/(kappa-1))
    C2 = 2^(kappa/(2*kappa-2)) * W^2
    """
    epochs_cap = math.floor(math.log2(t_budget) + 1.0)
    c0 = 288.0 * math.log(epochs_cap / delta)
    c1 = (
        w ** ((2.0 - kappa) / (kappa - 1.0))
        * 2.0 ** (kappa / (2.0 * (kappa - 1.0) ** 2))
        / lam ** (1.0 / (kappa - 1.0))
    )
    c2 = 2.0 ** (kappa / (2.0 * kappa - 2.0)) * w * w
    return {"C0": c0, "C1": c1, "C2": c2}


def check_overrides(overrides: object) -> None:
    """Reject schedule-constant overrides other than a map from C0/C1/C2 to
    finite positive numbers; None means no overrides."""
    if overrides is None:
        return
    if not isinstance(overrides, dict):
        raise ParameterError(f"overrides must be a map, got {overrides!r}")
    unknown = set(overrides) - set(_OVERRIDE_KEYS)
    if unknown:
        raise ParameterError(f"unknown constant overrides: {sorted(unknown)}")
    for key, value in overrides.items():
        is_number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (is_number and math.isfinite(value) and value > 0.0):
            raise ParameterError(f"constant override {key}={value!r} must be a finite number > 0")


@dataclass(slots=True)
class EpochGdState:
    kappa: float
    lam: float
    t_budget: int
    domain: tuple[float, float]
    constants: dict[str, float]
    shrink: float
    epoch: int = 1
    epoch_len: int = 0
    eta: float = 0.0
    radius: float = 0.0
    anchor: float = 0.0
    iterate: float = 0.0
    epoch_sum: float = 0.0
    fed_in_epoch: int = 0
    planned: int = 0          # sum of T_i over epochs started so far
    total_fed: int = 0
    done: bool = False
    _proposed: bool = field(default=False, repr=False)


def epoch_gd_init(
    kappa: float,
    lam: float,
    delta: float,
    w: float,
    t_budget: int,
    x_init: float,
    overrides: dict[str, float] | None = None,
    domain: tuple[float, float] = (0.0, 1.0),
) -> EpochGdState:
    """Fresh solver state: T_1 = ceil(2*C0), eta_1 = C1 * shrink, R_1 from C2."""
    if not kappa >= 2.0:
        raise ParameterError(f"kappa must be >= 2, got {kappa}")
    if not lam > 0.0 or not w > 0.0:
        raise ParameterError(f"lam and W must be positive, got lam={lam}, W={w}")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    if not (isinstance(t_budget, (int, np.integer)) and t_budget >= 1):
        raise ParameterError(f"t_budget must be a positive integer, got {t_budget}")
    lo, hi = domain
    if not lo <= x_init <= hi:
        raise DomainError(f"x_init {x_init} outside domain {domain}")

    check_overrides(overrides)
    constants = default_constants(kappa, lam, w, delta, int(t_budget))
    if overrides:
        constants.update({k: float(v) for k, v in overrides.items()})

    shrink = 2.0 ** (-kappa / (2.0 * kappa - 2.0))
    eta1 = constants["C1"] * shrink
    state = EpochGdState(
        kappa=kappa, lam=lam, t_budget=int(t_budget),
        domain=domain, constants=constants, shrink=shrink,
        epoch_len=math.ceil(2.0 * constants["C0"]),
        eta=eta1,
        radius=(constants["C2"] * eta1 / lam) ** (1.0 / kappa),
        anchor=float(x_init), iterate=float(x_init),
    )
    state.planned = state.epoch_len
    if state.planned > state.t_budget:
        state.done = True
    return state


def _start_next_epoch(state: EpochGdState) -> None:
    """Epoch boundary: anchor at the average of the epoch's first T_e iterates,
    double T_e, shrink eta and R; done once the budget cannot cover the new epoch."""
    lo, hi = state.domain
    new_anchor = min(max(state.epoch_sum / state.epoch_len, lo), hi)
    state.epoch += 1
    state.epoch_len *= 2
    state.eta *= state.shrink
    state.radius = (state.constants["C2"] * state.eta / state.lam) ** (1.0 / state.kappa)
    state.anchor = new_anchor
    state.iterate = new_anchor
    state.epoch_sum = 0.0
    state.fed_in_epoch = 0
    state.planned += state.epoch_len
    if state.planned > state.t_budget:
        state.done = True


def epoch_gd_propose(state: EpochGdState) -> float:
    """Next query point: the current iterate, or the epoch average at a boundary.

    Idempotent until the next feed.  Once the budget cannot cover another
    epoch the state is done and the final anchor is returned unchanged.
    """
    if not state.done and state.fed_in_epoch == state.epoch_len:
        _start_next_epoch(state)
    if state.done:
        return state.anchor
    state._proposed = True
    return state.iterate


def epoch_gd_feed(state: EpochGdState, g: float) -> None:
    """Consume the gradient observed at the last proposed point."""
    if state.done:
        raise ProtocolOrderError("solver already completed; no further gradients expected")
    if not state._proposed:
        raise ProtocolOrderError("feed called before propose")
    state.epoch_sum += state.iterate
    lo = max(state.domain[0], state.anchor - state.radius)
    hi = min(state.domain[1], state.anchor + state.radius)
    state.iterate = min(max(state.iterate - state.eta * float(g), lo), hi)
    state.fed_in_epoch += 1
    state.total_fed += 1
    state._proposed = False


def epoch_gd_estimate(state: EpochGdState) -> float:
    """Current estimate: the anchor of the epoch in progress (or the final one)."""
    return state.anchor


def epoch_gd_drive(
    state: EpochGdState, subgrad: Callable[[float], Any], grad_noise: Sequence[float]
) -> tuple[np.ndarray, int]:
    """Run the solver for one step per noise entry.

    Step k proposes a point and, while the solver is not done, feeds
    subgrad(point) + grad_noise[k].  Once done, the remaining steps propose
    the frozen final anchor.  Returns the proposals and the gradients fed.

    Each epoch runs as one loop over locals doing the float operations of
    propose + feed in the same order, so the results are bit-identical to
    stepping through that pair.
    """
    proposals = array("d")
    append = proposals.append
    noise = iter(grad_noise)
    n = len(grad_noise)
    fed = 0
    while fed < n and not state.done:
        if state.fed_in_epoch == state.epoch_len:
            _start_next_epoch(state)
            continue
        steps = min(state.epoch_len - state.fed_in_epoch, n - fed)
        eta = state.eta
        lo = max(state.domain[0], state.anchor - state.radius)
        hi = min(state.domain[1], state.anchor + state.radius)
        x = state.iterate
        s = state.epoch_sum
        for z in islice(noise, steps):
            append(x)
            s += x
            x -= eta * (float(subgrad(x)) + z)
            if x < lo:
                x = lo
            elif x > hi:
                x = hi
        state.iterate = x
        state.epoch_sum = s
        state.fed_in_epoch += steps
        state.total_fed += steps
        state._proposed = False
        fed += steps
    proposals.extend(repeat(state.anchor, n - fed))
    return np.frombuffer(proposals), fed
