"""Epoch-doubling projected subgradient descent on [0, 1].

The solver runs in epochs whose lengths double while the step size shrinks by
2^(-kappa/(2*kappa-2)) per epoch.  Inside an epoch each gradient applies a
projected step onto [0, 1]  intersect  [anchor - R_e, anchor + R_e]; the next
anchor is the average of the epoch's first T_e iterates.  The epoch lengths,
step sizes and radii depend only on the problem parameters and the budget, so
epoch_schedule() lists them as plain data and epoch_gd_solve() runs them on
the uniformly convex objective, whose gradient it computes inline.
"""
from __future__ import annotations

import math
import numbers
import sys
from array import array
from collections.abc import Sequence
from itertools import islice, repeat

import numpy as np

from .errors import DomainError, ParameterError

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
        if not (is_number and 0.0 < value <= sys.float_info.max):
            raise ParameterError(f"constant override {key}={value!r} must be a finite number > 0")


def epoch_schedule(
    kappa: float,
    lam: float,
    delta: float,
    w: float,
    t_budget: int,
    overrides: dict[str, float] | None = None,
) -> list[tuple[int, float, float]]:
    """Every epoch (T_e, eta_e, R_e) whose end fits in the budget.

    T_1 = ceil(2*C0) and T_{e+1} = 2*T_e; eta_1 = C1 * shrink and eta is
    multiplied by shrink = 2^(-kappa/(2*kappa-2)) once per epoch;
    R_e = (C2 * eta_e / lam)^(1/kappa).  The list stops before the first epoch
    that would take the total length past t_budget, so it may be empty.
    """
    if not kappa >= 2.0:
        raise ParameterError(f"kappa must be >= 2, got {kappa}")
    if not lam > 0.0 or not w > 0.0:
        raise ParameterError(f"lam and W must be positive, got lam={lam}, W={w}")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    if not (isinstance(t_budget, (int, np.integer)) and t_budget >= 1):
        raise ParameterError(f"t_budget must be a positive integer, got {t_budget}")

    check_overrides(overrides)
    constants = default_constants(kappa, lam, w, delta, int(t_budget))
    if overrides:
        constants.update({k: float(v) for k, v in overrides.items()})

    # ceil(2*C0) <= t_budget exactly when 2*C0 <= t_budget; testing first keeps
    # math.ceil off the infinite 2*C0 of a C0 near the float maximum
    if 2.0 * constants["C0"] > t_budget:
        return []
    shrink = 2.0 ** (-kappa / (2.0 * kappa - 2.0))
    epoch_len = math.ceil(2.0 * constants["C0"])
    eta = constants["C1"] * shrink
    schedule = []
    planned = epoch_len
    while planned <= t_budget:
        schedule.append((epoch_len, eta, (constants["C2"] * eta / lam) ** (1.0 / kappa)))
        epoch_len *= 2
        eta *= shrink
        planned += epoch_len
    return schedule


def epoch_gd_solve(
    schedule: Sequence[tuple[int, float, float]],
    x_init: float,
    grad_noise: Sequence[float],
    *,
    kappa: float,
    lam: float,
    x_star: float,
) -> tuple[np.ndarray, int, float]:
    """Run the schedule from x_init on f(x) = (lam/2) * |x - x_star|^kappa,
    one step per noise entry.

    Step k proposes a point and, while the schedule lasts, feeds the gradient
    of f there plus grad_noise[k].  The gradient is computed inline, as
    make_uniformly_convex's subgrad computes it on the same floats: lam * d at
    kappa = 2, else (lam*kappa/2) * |d|^(kappa-2) * d, with d = point - x_star;
    lam = 0 feeds the noise alone.  Each epoch starts at its anchor and ends
    with anchor = clamp(sum of its proposals / T_e).  Steps past the schedule
    propose that final anchor, which is also the estimate.  Returns the
    proposals, the gradients fed (the schedule's total length) and the
    estimate.
    """
    if not 0.0 <= x_init <= 1.0:
        raise DomainError(f"x_init {x_init} outside [0, 1]")
    n = len(grad_noise)
    fed = sum(epoch_len for epoch_len, _, _ in schedule)
    if n < fed:
        raise ParameterError(f"{n} noise entries cannot cover the schedule's {fed} steps")
    proposals = array("d")
    append = proposals.append
    noise = iter(grad_noise)
    anchor = float(x_init)
    quadratic = kappa == 2.0
    # the left-to-right products of the closure's 0.5 * lam * kappa * |d|**(kappa-2) * d
    scale = 0.5 * lam * kappa
    power = kappa - 2.0
    for epoch_len, eta, radius in schedule:
        lo = max(0.0, anchor - radius)
        hi = min(1.0, anchor + radius)
        x = anchor
        s = 0.0
        for z in islice(noise, epoch_len):
            append(x)
            s += x
            d = x - x_star
            x -= eta * ((lam * d if quadratic else scale * abs(d) ** power * d) + z)
            if x < lo:
                x = lo
            elif x > hi:
                x = hi
        anchor = min(max(s / epoch_len, 0.0), 1.0)
    proposals.extend(repeat(anchor, n - fed))
    return np.frombuffer(proposals), fed, anchor
