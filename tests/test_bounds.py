"""Bound formulas and the oracle-response KL divergence."""
import dataclasses
import math

import numpy as np
import pytest

from secopt.bounds import (
    binary_entropy,
    c_of_p,
    kl_gaussian_pair,
    lower_bound_binary,
    lower_bound_convex,
    lower_bound_noisy,
)
from secopt.errors import ParameterError
from secopt.functions import make_hard_pair, make_uniformly_convex

PAIR_ARGS = dict(c0=0.5, c1=0.2, c2=1.6, eps=0.5, center=3.0)


def test_binary_entropy_values() -> None:
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(math.log(2.0), rel=1e-12)
    assert binary_entropy(0.01) == pytest.approx(0.056001534354847345, rel=1e-9)
    assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7), rel=1e-12)
    with pytest.raises(ParameterError):
        binary_entropy(-0.1)
    with pytest.raises(ParameterError):
        binary_entropy(1.1)


def test_lower_bound_binary_worked_example() -> None:
    got = lower_bound_binary(eps=1e-3, eps_adv=0.02, delta=0.05, delta_adv=0.1)
    assert got == pytest.approx(28.45945659876291, rel=1e-9)


def test_lower_bound_binary_collapses_to_inverse_delta_adv() -> None:
    # delta = 0 and eps_adv = e*eps leave exactly 1/delta_adv
    got = lower_bound_binary(eps=1e-3, eps_adv=1e-3 * math.e, delta=0.0, delta_adv=0.1)
    assert got == pytest.approx(10.0, rel=1e-12)


def test_lower_bound_binary_scales_linearly_in_inverse_delta_adv() -> None:
    kw = dict(eps=1e-3, eps_adv=0.02, delta=0.05)
    assert lower_bound_binary(delta_adv=0.05, **kw) == pytest.approx(
        2.0 * lower_bound_binary(delta_adv=0.1, **kw), rel=1e-12
    )
    assert lower_bound_binary(delta_adv=0.1, **kw, c=3.0) == pytest.approx(
        3.0 * lower_bound_binary(delta_adv=0.1, **kw), rel=1e-12
    )


def test_lower_bound_binary_regime_warning_and_validation() -> None:
    with pytest.warns(UserWarning):
        lower_bound_binary(eps=1e-3, eps_adv=0.09, delta=0.05, delta_adv=0.1)
    with pytest.raises(ParameterError):
        lower_bound_binary(eps=0.0, eps_adv=0.02, delta=0.05, delta_adv=0.1)
    with pytest.raises(ParameterError):
        lower_bound_binary(eps=1e-3, eps_adv=0.02, delta=1.0, delta_adv=0.1)
    with pytest.raises(ParameterError):
        lower_bound_binary(eps=1e-3, eps_adv=0.02, delta=0.05, delta_adv=1.0)


def test_c_of_p_values_and_monotonicity() -> None:
    assert c_of_p(0.75) == pytest.approx(0.5493061443340549, rel=1e-6)
    assert c_of_p(0.99) == pytest.approx(4.503217453131898, rel=1e-6)
    grid = np.linspace(0.51, 0.99, 100)
    vals = [c_of_p(float(p)) for p in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    for bad in (0.5, 1.0, 0.2):
        with pytest.raises(ParameterError):
            c_of_p(bad)


def test_lower_bound_noisy_inflates_by_information_constant() -> None:
    kw = dict(eps=1e-3, eps_adv=0.02, delta=0.05, delta_adv=0.1)
    exact = lower_bound_binary(**kw)
    assert lower_bound_noisy(p=0.75, **kw) == pytest.approx(
        exact / c_of_p(0.75), rel=1e-12
    )
    assert lower_bound_noisy(p=0.9, **kw) < lower_bound_noisy(p=0.6, **kw)


def test_lower_bound_convex_worked_example() -> None:
    got = lower_bound_convex(
        eps=0.01, delta=0.01, delta_adv=0.1, kappa=2.0, sigma=0.1, error_kind="point"
    )
    assert got == pytest.approx(637.1456462050978, rel=1e-6)


def test_lower_bound_convex_delta_zero_closed_form() -> None:
    got = lower_bound_convex(
        eps=0.01, delta=0.0, delta_adv=0.1, kappa=2.0, sigma=0.1, error_kind="point"
    )
    assert got == pytest.approx(693.1471805599454, rel=1e-12)


def test_lower_bound_convex_error_kind_exponents() -> None:
    kw = dict(delta=0.0, delta_adv=0.1, kappa=2.0, sigma=0.1)
    pt = lower_bound_convex(eps=0.01, error_kind="point", **kw)
    fn = lower_bound_convex(eps=0.01, error_kind="function", **kw)
    assert pt / fn == pytest.approx(1.0 / 0.01, rel=1e-12)
    # kappa = 3: q = 4 for point error, 4/3 for function error
    kw3 = dict(delta=0.0, delta_adv=0.1, kappa=3.0, sigma=0.1)
    for kind, q in (("point", 4.0), ("function", 4.0 / 3.0)):
        ratio = lower_bound_convex(eps=1e-3, error_kind=kind, **kw3) / lower_bound_convex(
            eps=1e-2, error_kind=kind, **kw3
        )
        assert ratio == pytest.approx(10.0 ** q, rel=1e-9)


def test_lower_bound_convex_validation_and_regime() -> None:
    kw = dict(eps=1e-3, delta_adv=0.1, kappa=2.0, sigma=0.1)
    with pytest.raises(ParameterError):
        lower_bound_convex(delta=0.5, **kw)
    with pytest.raises(ParameterError):
        lower_bound_convex(delta=0.05, **dict(kw, kappa=1.0))
    with pytest.raises(ParameterError):
        lower_bound_convex(delta=0.05, **dict(kw, sigma=0.0))
    with pytest.raises(ParameterError):
        lower_bound_convex(delta=0.05, error_kind="both", **kw)
    with pytest.warns(UserWarning):
        lower_bound_convex(delta=0.05, eps_adv=0.2, **kw)  # eps_adv above delta_adv
    lower_bound_convex(delta=0.05, eps_adv=0.04, **kw)  # in regime: silent
    with pytest.raises(ParameterError, match="underflows"):
        # eps^q underflows to 0.0, which once raised ZeroDivisionError
        lower_bound_convex(delta=0.05, **dict(kw, eps=1e-300, kappa=100.0))


def test_kl_formula_on_synthetic_members() -> None:
    # members engineered so f1-f2 = 0.1 and g1-g2 = 0.2 at x = 0.7
    base = make_hard_pair(**PAIR_ARGS)
    pair = dataclasses.replace(
        base,
        f1=make_uniformly_convex(2.0, 1.0, 0.1),
        f2=make_uniformly_convex(2.0, 1.0, 0.3),
    )
    assert kl_gaussian_pair(pair, 0.7, 0.5) == pytest.approx(0.1, rel=1e-12)


def test_kl_on_hard_pair_golden_point() -> None:
    pair = make_hard_pair(**PAIR_ARGS)
    assert kl_gaussian_pair(pair, 2.5, 0.1) == pytest.approx(10.0, rel=1e-12)


def test_kl_symmetric_and_zero_outside_region() -> None:
    pair = make_hard_pair(**PAIR_ARGS)
    swapped = dataclasses.replace(pair, f1=pair.f2, f2=pair.f1)
    for x in (2.4, 2.5, 3.1, 3.6):
        assert abs(kl_gaussian_pair(pair, x, 0.1) - kl_gaussian_pair(swapped, x, 0.1)) <= 1e-12
    for x in (0.2, 5.8, 3.0 - 2.75, 3.0 + 2.75):
        assert kl_gaussian_pair(pair, x, 0.1) == 0.0


def test_kl_sigma_zero_sentinel() -> None:
    pair = make_hard_pair(**PAIR_ARGS)
    assert kl_gaussian_pair(pair, 2.5, 0.0) == math.inf
    assert kl_gaussian_pair(pair, 5.8, 0.0) == 0.0
    with pytest.raises(ParameterError):
        kl_gaussian_pair(pair, 2.5, -1.0)


def test_kl_matches_monte_carlo_log_likelihood_ratio() -> None:
    pair = make_hard_pair(**PAIR_ARGS)
    x, sigma = 2.6, 0.1
    m1 = np.array([float(pair.f1.value(x)), float(pair.f1.subgrad(x))])
    m2 = np.array([float(pair.f2.value(x)), float(pair.f2.subgrad(x))])
    gen = np.random.default_rng(101)
    y = m1 + sigma * gen.standard_normal((50_000, 2))
    log_ratio = (((y - m2) ** 2).sum(axis=1) - ((y - m1) ** 2).sum(axis=1)) / (2 * sigma**2)
    assert kl_gaussian_pair(pair, x, sigma) == pytest.approx(log_ratio.mean(), rel=0.1)
