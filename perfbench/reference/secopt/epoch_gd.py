"""Epoch-doubling projected subgradient descent with a propose/feed interface.

The solver runs in epochs whose lengths double while the step size shrinks by
2^(-kappa/(2*kappa-2)) per epoch.  Inside an epoch each fed gradient applies a
projected step onto domain  intersect  [anchor - R_e, anchor + R_e]; at an epoch
boundary the next anchor is the average of the epoch's first T_e iterates.  The
state is resumable so a driving protocol can interleave its own bookkeeping
between propose() (where the next gradient is wanted) and feed() (the gradient).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError, ProtocolOrderError
from .functions import FunctionInstance
from .oracles import RngStream

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


@dataclass(slots=True)
class EpochGdState:
    kappa: float
    lam: float
    delta: float
    w: float
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
    t: int = 1
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

    constants = default_constants(kappa, lam, w, delta, int(t_budget))
    if overrides:
        unknown = set(overrides) - set(_OVERRIDE_KEYS)
        if unknown:
            raise ParameterError(f"unknown constant overrides: {sorted(unknown)}")
        constants.update({k: float(v) for k, v in overrides.items()})

    shrink = 2.0 ** (-kappa / (2.0 * kappa - 2.0))
    eta1 = constants["C1"] * shrink
    state = EpochGdState(
        kappa=kappa, lam=lam, delta=delta, w=w, t_budget=int(t_budget),
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


def epoch_gd_propose(state: EpochGdState) -> float:
    """Next query point: the current iterate, or the epoch average at a boundary.

    Idempotent until the next feed.  Once the budget cannot cover another
    epoch the state is done and the final anchor is returned unchanged.
    """
    if state.done:
        return state.anchor
    if state.fed_in_epoch == state.epoch_len:
        # epoch boundary: average of the epoch's first T_e iterates
        new_anchor = state.epoch_sum / state.epoch_len
        lo, hi = state.domain
        new_anchor = min(max(new_anchor, lo), hi)
        state.epoch += 1
        state.epoch_len *= 2
        state.eta *= state.shrink
        state.radius = (state.constants["C2"] * state.eta / state.lam) ** (1.0 / state.kappa)
        state.anchor = new_anchor
        state.iterate = new_anchor
        state.t = 1
        state.epoch_sum = 0.0
        state.fed_in_epoch = 0
        state.planned += state.epoch_len
        if state.planned > state.t_budget:
            state.done = True
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
    state.t += 1
    state.fed_in_epoch += 1
    state.total_fed += 1
    state._proposed = False


def epoch_gd_estimate(state: EpochGdState) -> float:
    """Current estimate: the anchor of the epoch in progress (or the final one)."""
    return state.anchor


def run_epoch_gd(
    f: FunctionInstance,
    sigma: float,
    t_budget: int,
    delta: float,
    w: float,
    rng: RngStream,
    overrides: dict[str, float] | None = None,
    x_init: float | None = None,
) -> float:
    """Drive a full solver run against the Gaussian first-order oracle.

    Value noise is drawn alongside gradient noise (the oracle returns a pair)
    even though only the gradient is consumed.  Returns the final estimate.
    """
    if f.dim != 1:
        raise ParameterError("the epoch solver runs on 1-d instances")
    gen = rng.generator()
    if x_init is None:
        x_init = float(gen.uniform(f.domain[0], f.domain[1]))
    state = epoch_gd_init(
        float(f.kappa), f.lam, delta, w, t_budget, x_init,
        overrides=overrides, domain=f.domain,
    )
    noise = gen.normal(0.0, sigma, size=(t_budget, 2)) if sigma > 0.0 else np.zeros((t_budget, 2))
    noise_g = noise[:, 1].tolist()
    subgrad = f.subgrad
    for k in range(t_budget):
        if state.done:
            break
        x = epoch_gd_propose(state)
        if state.done:
            break
        epoch_gd_feed(state, float(subgrad(x)) + noise_g[k])
    return epoch_gd_estimate(state)
