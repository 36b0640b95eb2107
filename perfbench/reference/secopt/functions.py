"""Convex problem instances on a hypercube domain.

Three families: the 1-d absolute-value family, kappa-uniformly-convex power
functions f(x) = (lam/2) * ||x - x*||^kappa, and indistinguishable hard pairs
(f1, f2) = (max(f0, h1), max(f0, h2)) built from a shared base bowl f0 and two
shifted bowls h1, h2.  Instances expose exact values and subgradients; all
randomness lives in the oracles, not here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ConstructionError, DomainError, ParameterError

Point = Any  # float for dim 1, ndarray of shape (d,) otherwise

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Ball:
    """Closed euclidean ball; for dim 1 the center is a float."""

    center: Point
    radius: float

    def contains(self, x: Point) -> bool:
        return bool(np.linalg.norm(np.asarray(x, dtype=float) - self.center) <= self.radius)


@dataclass(frozen=True)
class FunctionInstance:
    """A convex objective with exact value/subgradient access.

    value and subgrad accept scalars (and, for dim 1, vectorized arrays of
    query points); for dim > 1 they take a single point of shape (dim,).
    kappa is the uniform-convexity degree, or the string "abs" for the
    absolute-value family.  lipschitz bounds ||subgrad|| over the domain.
    """

    dim: int
    x_star: Point
    f_star: float
    kappa: float | str
    lam: float
    lipschitz: float
    domain: tuple[float, float]
    value: Callable[[Point], float]
    subgrad: Callable[[Point], Point]


def _check_in_domain(x_star: Point, domain: tuple[float, float]) -> None:
    lo, hi = domain
    if not (hi > lo):
        raise ParameterError(f"empty domain {domain}")
    arr = np.atleast_1d(np.asarray(x_star, dtype=float))
    if np.any(arr < lo) or np.any(arr > hi):
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
        dim=1, x_star=xs, f_star=0.0, kappa="abs", lam=1.0,
        lipschitz=1.0, domain=domain, value=value, subgrad=subgrad,
    )


def _corner_dist(center: np.ndarray, domain: tuple[float, float]) -> float:
    # farthest hypercube corner; per coordinate the max of the two edge gaps
    lo, hi = domain
    return float(np.linalg.norm(np.maximum(center - lo, hi - center)))


def make_uniformly_convex(
    kappa: float,
    lam: float,
    x_star: Point,
    domain: tuple[float, float] = (0.0, 1.0),
) -> FunctionInstance:
    """f(x) = (lam/2) * ||x - x*||^kappa with kappa >= 2 (kappa=2: strongly convex).

    The gradient is (lam*kappa/2) * ||x - x*||^(kappa-2) * (x - x*); the
    Lipschitz constant is its norm at the farthest corner of the domain.
    """
    if not kappa >= 2.0:
        raise ParameterError(f"kappa must be >= 2, got {kappa}")
    if not lam > 0.0:
        raise ParameterError(f"lam must be positive, got {lam}")
    _check_in_domain(x_star, domain)

    star_arr = np.atleast_1d(np.asarray(x_star, dtype=float))
    dim = star_arr.size
    lipschitz = 0.5 * lam * kappa * _corner_dist(star_arr, domain) ** (kappa - 1.0)

    if dim == 1:
        xs = float(star_arr[0])

        def value(x):
            return 0.5 * lam * np.abs(x - xs) ** kappa

        def subgrad(x):
            d = x - xs
            return 0.5 * lam * kappa * np.abs(d) ** (kappa - 2.0) * d if kappa != 2.0 \
                else lam * d

        x_star_out: Point = xs
    else:
        xs_vec = star_arr.copy()

        def value(x):
            return 0.5 * lam * float(np.linalg.norm(np.asarray(x, float) - xs_vec)) ** kappa

        def subgrad(x):
            d = np.asarray(x, float) - xs_vec
            r = float(np.linalg.norm(d))
            if r == 0.0:
                return np.zeros(dim)
            return 0.5 * lam * kappa * r ** (kappa - 2.0) * d

        x_star_out = xs_vec

    return FunctionInstance(
        dim=dim, x_star=x_star_out, f_star=0.0, kappa=float(kappa), lam=float(lam),
        lipschitz=lipschitz, domain=domain, value=value, subgrad=subgrad,
    )


@dataclass(frozen=True)
class HardPair:
    """Two objectives identical outside region_j but with split optimizers.

    f1 = max(f0, h1) and f2 = max(f0, h2) where f0 is a bowl of weight c0 at
    the shared center and h1/h2 are bowls of weight c1, offset c2, shifted to
    center -/+ (eps/sqrt(d)) * ones.  Outside the ball region_j both equal f0.
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


def _diag_crossing_radius(c0, c1, c2, eps, kappa) -> float | None:
    """Outermost |u| with c0|u|^k = c1|u-eps|^k + c2 along the diagonal, or None."""
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
    from scipy.optimize import brentq

    left = brentq(q, grid[neg[0] - 1], grid[neg[0]], xtol=1e-14)
    right = brentq(q, grid[neg[-1]], grid[neg[-1] + 1], xtol=1e-14)
    return max(abs(left), abs(right))


def _diag_argmin(fdiag: Callable[[float], float], lo: float, hi: float) -> float:
    # golden-section on a convex 1-d restriction; robust to the max kinks
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fdiag(c), fdiag(d)
    while b - a > 1e-13 * max(1.0, abs(a), abs(b)):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fdiag(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fdiag(d)
    return 0.5 * (a + b)


def make_hard_pair(
    c0: float,
    c1: float,
    c2: float,
    eps: float,
    center: Point,
    d: int = 1,
    kappa: float = 2.0,
    eps_adv: float | None = None,
    domain: tuple[float, float] | None = None,
    require_crossing: bool = True,
) -> HardPair:
    """Build the indistinguishable pair (f1, f2) around a shared center.

    Requires c0 > c1 > 0.  The radius of region_j is the outermost solution of
    f0 = h2 along the diagonal; when eps_adv is given the radius must be at
    least eps_adv.  If the bowls never cross, the pair collapses to f0
    everywhere: that raises ConstructionError unless require_crossing=False,
    in which case a degenerate pair with an empty region is returned.
    """
    if not (c0 > c1 > 0.0):
        raise ParameterError(f"need c0 > c1 > 0, got c0={c0}, c1={c1}")
    if not eps > 0.0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    if not kappa >= 2.0:
        raise ParameterError(f"kappa must be >= 2, got {kappa}")

    center_vec = np.full(d, float(center)) if np.isscalar(center) else np.asarray(center, float)
    if center_vec.shape != (d,):
        raise ParameterError(f"center shape {center_vec.shape} incompatible with d={d}")

    radius = _diag_crossing_radius(c0, c1, c2, eps, kappa)
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
        domain = (float(center_vec.min() - pad), float(center_vec.max() + pad))

    shift = eps / math.sqrt(d)
    center1 = center_vec - shift  # h1 bowl center, per coordinate
    center2 = center_vec + shift

    def _make_member(hc: np.ndarray, sgn: float) -> FunctionInstance:
        if d == 1:
            c_f0 = float(center_vec[0])
            c_h = float(hc[0])

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
        else:
            def value(x):
                x = np.asarray(x, float)
                r0 = float(np.linalg.norm(x - center_vec))
                rh = float(np.linalg.norm(x - hc))
                return max(c0 * r0 ** kappa, c1 * rh ** kappa + c2)

            def subgrad(x):
                x = np.asarray(x, float)
                d0 = x - center_vec
                dh = x - hc
                r0 = float(np.linalg.norm(d0))
                rh = float(np.linalg.norm(dh))
                if c0 * r0 ** kappa >= c1 * rh ** kappa + c2:
                    if r0 == 0.0:
                        return np.zeros(d)
                    return c0 * kappa * r0 ** (kappa - 2.0) * d0
                if rh == 0.0:
                    return np.zeros(d)
                return c1 * kappa * rh ** (kappa - 2.0) * dh

        # optimizer along the diagonal u -> center + (u/sqrt(d)) * ones
        if degenerate:
            u_star = 0.0
        elif c2 >= c0 * eps ** kappa:
            u_star = sgn * eps  # the shifted bowl dominates at its own vertex
        elif c2 <= -c1 * eps ** kappa:
            u_star = 0.0  # the shifted bowl never rises above zero at the center
        else:
            def fdiag(u):
                return max(c0 * abs(u) ** kappa, c1 * abs(u - sgn * eps) ** kappa + c2)

            u_star = _diag_argmin(fdiag, -radius - 1e-9, radius + 1e-9)

        star_vec = center_vec + (u_star / math.sqrt(d)) * np.ones(d)
        x_star: Point = float(star_vec[0]) if d == 1 else star_vec
        f_star = float(value(x_star))

        dist = _corner_dist(center_vec, domain)
        dist_h = _corner_dist(hc, domain)
        lip = max(c0 * kappa * dist ** (kappa - 1.0), c1 * kappa * dist_h ** (kappa - 1.0))

        return FunctionInstance(
            dim=d, x_star=x_star, f_star=f_star, kappa=float(kappa), lam=2.0 * c0,
            lipschitz=lip, domain=domain, value=value, subgrad=subgrad,
        )

    ball_center: Point = float(center_vec[0]) if d == 1 else center_vec.copy()
    return HardPair(
        f1=_make_member(center1, -1.0), f2=_make_member(center2, 1.0),
        region_j=Ball(center=ball_center, radius=float(radius)),
        c0=float(c0), c1=float(c1), c2=float(c2), eps=float(eps),
        kappa=float(kappa), degenerate=degenerate,
    )
