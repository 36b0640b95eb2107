"""Convex problem instances on an interval.

Three families: the absolute-value family, kappa-uniformly-convex power
functions f(x) = (lam/2) * |x - x*|^kappa, and indistinguishable hard pairs
(f1, f2) = (max(f0, h1), max(f0, h2)) built from a shared base bowl f0 and two
shifted bowls h1, h2.  Instances expose exact values and subgradients; all
randomness lives in the oracles, not here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConstructionError, DomainError, ParameterError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Ball:
    """Closed interval [center - radius, center + radius]."""

    center: float
    radius: float


@dataclass(frozen=True)
class FunctionInstance:
    """A convex objective on an interval with exact value/subgradient access.

    value and subgrad accept scalars and vectorized arrays of query points.
    kappa is the uniform-convexity degree, or the string "abs" for the
    absolute-value family.
    """

    x_star: float
    f_star: float
    kappa: float | str
    lam: float
    domain: tuple[float, float]
    value: Callable[[float], float]
    subgrad: Callable[[float], float]


def _check_in_domain(x_star: float, domain: tuple[float, float]) -> None:
    lo, hi = domain
    if not (hi > lo):
        raise ParameterError(f"empty domain {domain}")
    if not lo <= x_star <= hi:
        raise DomainError(f"x_star {x_star} outside domain {domain}")


def make_abs(x_star: float, domain: tuple[float, float] = (0.0, 1.0)) -> FunctionInstance:
    """f(x) = |x - x*| on an interval; subgradient is sign(x - x*), 0 at x*."""
    _check_in_domain(x_star, domain)
    xs = float(x_star)

    def value(x):
        return np.abs(x - xs)

    def subgrad(x):
        return np.sign(x - xs)

    return FunctionInstance(
        x_star=xs, f_star=0.0, kappa="abs", lam=1.0,
        domain=domain, value=value, subgrad=subgrad,
    )


def make_uniformly_convex(
    kappa: float,
    lam: float,
    x_star: float,
    domain: tuple[float, float] = (0.0, 1.0),
) -> FunctionInstance:
    """f(x) = (lam/2) * |x - x*|^kappa with kappa >= 2 (kappa=2: strongly convex).

    The gradient is (lam*kappa/2) * |x - x*|^(kappa-2) * (x - x*).
    """
    if not kappa >= 2.0:
        raise ParameterError(f"kappa must be >= 2, got {kappa}")
    if not lam > 0.0:
        raise ParameterError(f"lam must be positive, got {lam}")
    _check_in_domain(x_star, domain)
    xs = float(x_star)

    def value(x):
        return 0.5 * lam * np.abs(x - xs) ** kappa

    def subgrad(x):
        d = x - xs
        return 0.5 * lam * kappa * np.abs(d) ** (kappa - 2.0) * d if kappa != 2.0 \
            else lam * d

    return FunctionInstance(
        x_star=xs, f_star=0.0, kappa=float(kappa), lam=float(lam),
        domain=domain, value=value, subgrad=subgrad,
    )


@dataclass(frozen=True)
class HardPair:
    """Two objectives identical outside region_j but with split optimizers.

    f1 = max(f0, h1) and f2 = max(f0, h2) where f0 is a bowl of weight c0 at
    the shared center and h1/h2 are bowls of weight c1, offset c2, shifted to
    center -/+ eps.  Outside the interval region_j both equal f0.
    """

    f1: FunctionInstance
    f2: FunctionInstance
    region_j: Ball
    c0: float
    c1: float
    c2: float
    eps: float
    kappa: float
    degenerate: bool


def _crossing_radius(c0, c1, c2, eps, kappa) -> float | None:
    """Outermost |u| with c0|u|^k = c1|u-eps|^k + c2, or None."""
    if kappa == 2.0:
        a, b, c = c0 - c1, 2.0 * c1 * eps, -(c1 * eps * eps + c2)
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            return None
        root = math.sqrt(disc)
        return max(abs((-b + root) / (2.0 * a)), abs((-b - root) / (2.0 * a)))

    def q(u):
        return c0 * abs(u) ** kappa - c1 * abs(u - eps) ** kappa - c2

    # q -> +inf on both sides since c0 > c1; scan for the outermost sign changes
    span = 10.0 * (1.0 + eps + (max(c2, 0.0) / (c0 - c1)) ** (1.0 / kappa))
    grid = np.linspace(-span, span, 8193)
    vals = np.array([q(u) for u in grid])
    neg = np.nonzero(vals < 0.0)[0]
    if neg.size == 0:
        return None
    left = _bisect(q, grid[neg[0] - 1], grid[neg[0]])
    right = _bisect(q, grid[neg[-1]], grid[neg[-1] + 1])
    return max(abs(left), abs(right))


def _bisect(q: Callable[[float], float], lo: float, hi: float) -> float:
    """A root of q within 1e-14, given q(lo) and q(hi) of opposite signs; stops
    early when the bracket is two adjacent floats."""
    lo_negative = q(lo) < 0.0
    mid = 0.5 * (lo + hi)
    while hi - lo > 1e-14 and lo < mid < hi:
        if (q(mid) < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return float(mid)


def _golden_argmin(f: Callable[[float], float], lo: float, hi: float) -> float:
    # golden-section on a convex function; robust to the max kinks
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-13 * max(1.0, abs(a), abs(b)):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def make_hard_pair(
    c0: float,
    c1: float,
    c2: float,
    eps: float,
    center: float,
    kappa: float = 2.0,
    eps_adv: float | None = None,
    domain: tuple[float, float] | None = None,
    require_crossing: bool = True,
) -> HardPair:
    """Build the indistinguishable pair (f1, f2) around a shared center.

    Requires c0 > c1 > 0.  The radius of region_j is the outermost solution of
    f0 = h2; when eps_adv is given the radius must be at least eps_adv.  If
    the bowls never cross, the pair collapses to f0 everywhere: that raises
    ConstructionError unless require_crossing=False, in which case a
    degenerate pair with an empty region is returned.
    """
    if not (c0 > c1 > 0.0):
        raise ParameterError(f"need c0 > c1 > 0, got c0={c0}, c1={c1}")
    if not eps > 0.0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if not kappa >= 2.0:
        raise ParameterError(f"kappa must be >= 2, got {kappa}")
    c_f0 = float(center)

    radius = _crossing_radius(c0, c1, c2, eps, kappa)
    degenerate = radius is None
    if degenerate:
        if require_crossing:
            raise ConstructionError(
                f"f0 and h2 never cross for c2={c2}; pass require_crossing=False "
                "to build the collapsed pair"
            )
        radius = 0.0
    if eps_adv is not None and radius < eps_adv:
        raise ConstructionError(
            f"crossing radius {radius:.6g} is below the required eps_adv={eps_adv}"
        )

    if domain is None:
        pad = radius + max(1.0, eps)
        domain = (c_f0 - pad, c_f0 + pad)

    def _make_member(c_h: float, sgn: float) -> FunctionInstance:
        def value(x):
            return np.maximum(c0 * np.abs(x - c_f0) ** kappa,
                              c1 * np.abs(x - c_h) ** kappa + c2)

        def subgrad(x):
            f0v = c0 * np.abs(x - c_f0) ** kappa
            hv = c1 * np.abs(x - c_h) ** kappa + c2
            g0 = c0 * kappa * np.abs(x - c_f0) ** (kappa - 2.0) * (x - c_f0)
            gh = c1 * kappa * np.abs(x - c_h) ** (kappa - 2.0) * (x - c_h)
            # ties resolve to the f0 branch, including on the crossing set
            return np.where(f0v >= hv, g0, gh)

        # optimizer at center + u_star
        if degenerate:
            u_star = 0.0
        elif c2 >= c0 * eps ** kappa:
            u_star = sgn * eps  # the shifted bowl dominates at its own vertex
        elif c2 <= -c1 * eps ** kappa:
            u_star = 0.0  # the shifted bowl never rises above zero at the center
        else:
            def f_shifted(u):
                return max(c0 * abs(u) ** kappa, c1 * abs(u - sgn * eps) ** kappa + c2)

            u_star = _golden_argmin(f_shifted, -radius - 1e-9, radius + 1e-9)

        x_star = c_f0 + u_star
        return FunctionInstance(
            x_star=x_star, f_star=float(value(x_star)), kappa=float(kappa), lam=2.0 * c0,
            domain=domain, value=value, subgrad=subgrad,
        )

    return HardPair(
        f1=_make_member(c_f0 - eps, -1.0), f2=_make_member(c_f0 + eps, 1.0),
        region_j=Ball(center=c_f0, radius=float(radius)),
        c0=float(c0), c1=float(c1), c2=float(c2), eps=float(eps),
        kappa=float(kappa), degenerate=degenerate,
    )
