"""Problem-instance families: values, subgradients, hard-pair geometry."""
import numpy as np
import pytest

from secopt.errors import ConstructionError, DomainError, ParameterError
from secopt.functions import make_abs, make_hard_pair, make_uniformly_convex

# shared bowl center 3, member bowls at 3 -/+ 0.5; c2 sign decides crossing
PAIR_ARGS = dict(c0=0.5, c1=0.2, eps=0.5, center=3.0)


def test_abs_value_and_subgrad() -> None:
    f = make_abs(0.5)
    assert f.value(0.3) == pytest.approx(0.2, abs=0)
    assert f.subgrad(0.3) == -1.0
    assert f.subgrad(0.8) == 1.0
    assert f.subgrad(0.5) == 0.0  # 0 is in the subdifferential at the kink
    assert f.f_star == 0.0 and f.kappa == "abs"


def test_abs_vectorized_and_domain() -> None:
    f = make_abs(0.5)
    xs = np.array([0.0, 0.25, 0.5, 1.0])
    assert np.array_equal(f.value(xs), np.abs(xs - 0.5))
    with pytest.raises(DomainError):
        make_abs(1.5)


def test_uniformly_convex_values() -> None:
    f = make_uniformly_convex(2.0, 1.0, 0.5)
    assert f.value(0.7) == pytest.approx(0.02, rel=1e-15)
    assert f.subgrad(0.7) == pytest.approx(0.2, rel=1e-15)
    f4 = make_uniformly_convex(4.0, 1.0, 0.5)
    assert f4.value(0.7) == pytest.approx(0.0008, rel=1e-12)
    assert f4.subgrad(0.5) == 0.0


def test_uniformly_convex_validation() -> None:
    with pytest.raises(ParameterError):
        make_uniformly_convex(1.5, 1.0, 0.5)
    with pytest.raises(ParameterError):
        make_uniformly_convex(2.0, -1.0, 0.5)
    with pytest.raises(DomainError):
        make_uniformly_convex(2.0, 1.0, 2.0)


def test_hard_pair_no_crossing_raises_by_default() -> None:
    with pytest.raises(ConstructionError):
        make_hard_pair(c2=-1.6, **PAIR_ARGS)


def test_hard_pair_degenerate_caption_arithmetic() -> None:
    pair = make_hard_pair(c2=-1.6, require_crossing=False, **PAIR_ARGS)
    assert pair.degenerate and pair.region_j.radius == 0.0
    assert pair.f1.value(3.0) == 0.0
    assert pair.f1.value(2.5) == pytest.approx(0.125, rel=1e-15)
    assert pair.f2.value(2.5) == pytest.approx(0.125, rel=1e-15)
    # collapsed pair equals the shared bowl everywhere
    grid = np.linspace(0.0, 6.0, 301)
    assert np.array_equal(pair.f1.value(grid), 0.5 * (grid - 3.0) ** 2)
    assert np.array_equal(pair.f1.value(grid), pair.f2.value(grid))


def test_hard_pair_crossing_radius_matches_quadratic_roots() -> None:
    pair = make_hard_pair(c2=1.6, **PAIR_ARGS)
    # independent oracle: outermost root of (c0-c1) u^2 + 2 c1 eps u - (c1 eps^2 + c2)
    roots = np.roots([0.3, 0.2, -(0.2 * 0.25 + 1.6)])
    assert pair.region_j.radius == pytest.approx(float(np.max(np.abs(roots))), rel=1e-12)
    assert not pair.degenerate


def test_hard_pair_optimizers_split_by_two_eps() -> None:
    pair = make_hard_pair(c2=1.6, **PAIR_ARGS)
    assert pair.f1.x_star == 2.5  # c2 >= c0 eps^2 so the vertex is exact
    assert pair.f2.x_star == 3.5
    assert abs(pair.f1.x_star - pair.f2.x_star) == 2.0 * pair.eps
    assert pair.f1.f_star == pytest.approx(1.6, rel=1e-15)
    assert pair.f2.f_star == pytest.approx(1.6, rel=1e-15)


def test_hard_pair_members_agree_outside_region() -> None:
    pair = make_hard_pair(c2=1.6, **PAIR_ARGS)
    r = pair.region_j.radius
    lo, hi = pair.f1.domain
    grid = np.linspace(lo, hi, 1001)
    outside = np.abs(grid - 3.0) > r
    assert outside.sum() > 100
    assert np.array_equal(pair.f1.value(grid[outside]), pair.f2.value(grid[outside]))
    assert np.array_equal(pair.f1.subgrad(grid[outside]), pair.f2.subgrad(grid[outside]))
    inside = np.abs(grid - 3.0) < 0.9 * r
    assert np.any(pair.f1.value(grid[inside]) != pair.f2.value(grid[inside]))


def test_hard_pair_eps_adv_gate() -> None:
    with pytest.raises(ConstructionError):
        make_hard_pair(c2=1.6, eps_adv=3.0, **PAIR_ARGS)  # radius ~2.70 < 3
    pair = make_hard_pair(c2=1.6, eps_adv=2.0, **PAIR_ARGS)
    assert pair.region_j.radius >= 2.0


def test_hard_pair_parameter_checks() -> None:
    with pytest.raises(ParameterError):
        make_hard_pair(c0=0.2, c1=0.5, c2=1.6, eps=0.5, center=3.0)
    with pytest.raises(ParameterError):
        make_hard_pair(c0=0.5, c1=0.2, c2=1.6, eps=-0.5, center=3.0)
    with pytest.raises(ParameterError):
        make_hard_pair(c2=1.6, kappa=1.5, **PAIR_ARGS)


def test_hard_pair_numeric_kappa_path() -> None:
    pair = make_hard_pair(c2=1.6, kappa=3.0, **PAIR_ARGS)
    r = pair.region_j.radius

    def q(u: float) -> float:
        return 0.5 * abs(u) ** 3 - 0.2 * abs(u - 0.5) ** 3 - 1.6

    assert abs(q(r)) < 1e-9 or abs(q(-r)) < 1e-9
    assert q(r + 0.5) > 0.0 and q(-r - 0.5) > 0.0  # outermost crossing
    # vertex of the shifted bowl still dominates: c2 >= c0 eps^3
    assert pair.f1.x_star == pytest.approx(2.5, abs=1e-9)
