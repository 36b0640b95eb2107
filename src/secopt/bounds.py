"""Query-complexity bounds and the Gaussian-oracle KL divergence.

Lower bounds are order statements; the constant c is exposed so callers can
compare against measurements without pretending the analysis pins it down.
`secopt bounds` prints them beside the matching upper rates.
"""
from __future__ import annotations

import math
import warnings

from .errors import ParameterError
from .functions import HardPair


def binary_entropy(delta: float) -> float:
    """Natural-log binary entropy; 0 by continuity at the endpoints."""
    if not 0.0 <= delta <= 1.0:
        raise ParameterError(f"delta must lie in [0, 1], got {delta}")
    if delta in (0.0, 1.0):
        return 0.0
    return -delta * math.log(delta) - (1.0 - delta) * math.log(1.0 - delta)


def _check_probability(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ParameterError(f"{name} must lie in (0, 1), got {value}")


def lower_bound_binary(
    eps: float, eps_adv: float, delta: float, delta_adv: float, c: float = 1.0
) -> float:
    """Secure query complexity floor for exact binary search:
    c * (1-delta)/delta_adv * ln(eps_adv/eps)."""
    if not eps > 0.0 or not eps_adv > 0.0:
        raise ParameterError("eps and eps_adv must be positive")
    if not 0.0 <= delta < 1.0:
        raise ParameterError(f"delta must lie in [0, 1), got {delta}")
    _check_probability("delta_adv", delta_adv)
    if not (2.0 * eps <= eps_adv <= delta_adv / 2.0):
        warnings.warn(
            f"outside the regime 2*eps <= eps_adv <= delta_adv/2 "
            f"(eps={eps}, eps_adv={eps_adv}, delta_adv={delta_adv}); "
            "the bound may be vacuous",
            stacklevel=2,
        )
    return c * (1.0 - delta) / delta_adv * math.log(eps_adv / eps)


def c_of_p(p: float) -> float:
    """Per-query information constant of the p-correct sign oracle:
    (2p-1) * ln(p/(1-p)).  Tends to 0 as p -> 1/2."""
    if not 0.5 < p < 1.0:
        raise ParameterError(f"p must lie in (0.5, 1), got {p}")
    return (2.0 * p - 1.0) * math.log(p / (1.0 - p))


def lower_bound_noisy(
    eps: float, eps_adv: float, delta: float, delta_adv: float, p: float, c: float = 1.0
) -> float:
    """Noisy-sign floor: the exact-oracle bound inflated by 1/c(p)."""
    return lower_bound_binary(eps, eps_adv, delta, delta_adv, c) / c_of_p(p)


def lower_bound_convex(
    eps: float,
    delta: float,
    delta_adv: float,
    kappa: float,
    sigma: float,
    error_kind: str = "function",
    c: float = 1.0,
    eps_adv: float | None = None,
) -> float:
    """Gaussian first-order floor: c * sigma^2 * (ln 2 - h2(delta)) / (delta_adv * eps^q)
    with q = (2*kappa-2)/kappa for function error and 2*kappa-2 for point error."""
    if not eps > 0.0:
        raise ParameterError(f"eps must be positive, got {eps}")
    _check_probability("delta_adv", delta_adv)
    if not kappa > 1.0:
        raise ParameterError(f"kappa must exceed 1, got {kappa}")
    if not sigma > 0.0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    if error_kind not in ("function", "point"):
        raise ParameterError(f"error_kind must be 'function' or 'point', got {error_kind!r}")
    if not 0.0 <= delta < 0.5:
        raise ParameterError(
            f"delta must lie in [0, 1/2) so ln2 - h2(delta) stays positive, got {delta}"
        )
    if eps_adv is not None and not 2.0 * eps <= eps_adv <= delta_adv:
        warnings.warn(
            f"outside the regime 2*eps <= eps_adv <= delta_adv "
            f"(eps={eps}, eps_adv={eps_adv}, delta_adv={delta_adv})",
            stacklevel=2,
        )
    q = (2.0 * kappa - 2.0) / kappa if error_kind == "function" else 2.0 * kappa - 2.0
    scale = delta_adv * eps ** q
    if scale == 0.0:
        raise ParameterError(f"delta_adv * eps^q underflows to 0 (eps={eps}, q={q})")
    return c * sigma * sigma * (math.log(2.0) - binary_entropy(delta)) / scale


def kl_gaussian_pair(pair: HardPair, x, sigma: float) -> float:
    """KL divergence between the Gaussian first-order responses of the two
    pair members at x: ((f1-f2)^2 + (g1-g2)^2) / (2*sigma^2).

    Symmetric in the pair, and exactly 0 wherever the members coincide.
    sigma = 0 returns +inf at any distinguishing point (0 where they agree).
    """
    if sigma < 0.0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    df = float(pair.f1.value(x)) - float(pair.f2.value(x))
    dg = float(pair.f1.subgrad(x)) - float(pair.f2.subgrad(x))
    gap = df * df + dg * dg
    if sigma == 0.0:
        return 0.0 if gap == 0.0 else math.inf
    return gap / (2.0 * sigma * sigma)
