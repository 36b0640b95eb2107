"""Epoch-doubling projected subgradient solver: schedule, stepping, convergence."""
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secopt import (
    DomainError,
    ParameterError,
    ProtocolOrderError,
    RngStream,
    default_constants,
    epoch_gd_drive,
    epoch_gd_estimate,
    epoch_gd_feed,
    epoch_gd_init,
    epoch_gd_propose,
    make_uniformly_convex,
)
from secopt.protocol import _gradient_noise


def _solve(f, sigma, budget, delta, w, stream, overrides=None) -> float:
    """One solver run against the Gaussian first-order oracle: a uniform start
    and the gradient noise both come from the one stream."""
    gen = stream.generator()
    x_init = float(gen.uniform(*f.domain))
    state = epoch_gd_init(
        float(f.kappa), f.lam, delta, w, budget, x_init, overrides=overrides, domain=f.domain
    )
    epoch_gd_drive(state, f.subgrad, _gradient_noise(gen, sigma, budget))
    return epoch_gd_estimate(state)


def test_c0_golden() -> None:
    # frozen: 288 * ln(floor(log2(1e5) + 1) / 0.01) with inner log base 2
    c = default_constants(2.0, 1.0, 2.0, 0.01, 10**5)
    assert c["C0"] == pytest.approx(2142.2544566527604, rel=1e-6)
    state = epoch_gd_init(2.0, 1.0, 0.01, 2.0, 10**5, 0.5)
    assert state.epoch_len == 4285  # ceil(2 * C0)


def test_canonical_constants_kappa_two() -> None:
    c = default_constants(2.0, 1.0, 2.0, 0.05, 10**4)
    assert c["C1"] == 2.0 and c["C2"] == 8.0
    state = epoch_gd_init(2.0, 1.0, 0.05, 2.0, 10**4, 0.5)
    assert state.eta == 1.0  # eta_1 = C1 * 2^(-1)
    assert state.radius == pytest.approx(math.sqrt(8.0), rel=1e-15)


def test_schedule_ratios_and_six_epochs() -> None:
    state = epoch_gd_init(2.0, 1.0, 0.05, 2.0, 1000, 0.4, overrides={"C0": 2.0})
    lens, etas = [state.epoch_len], [state.eta]
    while not state.done and state.epoch < 8:
        x = epoch_gd_propose(state)
        if state.done:
            break
        if state.epoch > len(lens):
            lens.append(state.epoch_len)
            etas.append(state.eta)
        epoch_gd_feed(state, x - 0.5)
    assert len(lens) >= 6
    assert all(b == 2 * a for a, b in zip(lens, lens[1:]))  # T_{e+1}/T_e = 2
    for a, b in zip(etas, etas[1:]):
        assert b == pytest.approx(0.5 * a, rel=1e-15)  # kappa=2 halving


def test_first_proposal_is_x_init_and_idempotent() -> None:
    state = epoch_gd_init(2.0, 1.0, 0.05, 2.0, 10**4, 0.4)
    assert epoch_gd_propose(state) == 0.4
    assert epoch_gd_propose(state) == 0.4  # no feed, no advance
    assert epoch_gd_estimate(state) == 0.4


def test_feed_requires_propose() -> None:
    state = epoch_gd_init(2.0, 1.0, 0.05, 2.0, 10**4, 0.4)
    with pytest.raises(ProtocolOrderError):
        epoch_gd_feed(state, 0.1)


def test_feed_after_done_rejected() -> None:
    # budget below the first epoch: done at init, estimate = x_init
    state = epoch_gd_init(2.0, 1.0, 0.05, 2.0, 10, 0.4)
    assert state.done and epoch_gd_estimate(state) == 0.4
    assert epoch_gd_propose(state) == 0.4
    with pytest.raises(ProtocolOrderError):
        epoch_gd_feed(state, 0.1)


@pytest.mark.parametrize(
    "iterate,eta,g,expected",
    [
        (0.9, 0.2, 1.0, 0.7),  # interior step
        (0.25, 0.2, 1.0, 0.2),  # clamped to anchor - R
        (0.7, 0.1, -2.0, 0.8),  # clamped to anchor + R
    ],
)
def test_projected_step_clamping(iterate, eta, g, expected) -> None:
    state = epoch_gd_init(2.0, 1.0, 0.05, 2.0, 10**4, 0.5)
    state.anchor = 0.5
    state.radius = 0.3
    state.eta = eta
    state.iterate = iterate
    epoch_gd_propose(state)
    epoch_gd_feed(state, g)
    assert state.iterate == pytest.approx(expected, rel=1e-15)


def test_epoch_average_includes_anchor_excludes_last() -> None:
    # T_1 = 4 with C0=2; zero gradients keep the iterate constant, so the
    # next anchor equals the initial point exactly
    state = epoch_gd_init(2.0, 1.0, 0.05, 2.0, 100, 0.625, overrides={"C0": 2.0})
    assert state.epoch_len == 4
    for _ in range(4):
        epoch_gd_propose(state)
        epoch_gd_feed(state, 0.0)
    epoch_gd_propose(state)  # crosses the epoch boundary
    assert state.epoch == 2
    assert state.anchor == 0.625


def test_epoch_average_arithmetic_exact() -> None:
    # eta=1 on the quadratic jumps straight to x* after the first step, so the
    # epoch-2 anchor is (x_init + 3 x*) / 4: anchor in, last iterate out
    xs, x0 = 0.25, 0.8125
    f = make_uniformly_convex(2.0, 1.0, xs)
    state = epoch_gd_init(2.0, 1.0, 0.05, 2.0, 100, x0, overrides={"C0": 2.0})
    assert state.eta == 1.0 and state.epoch_len == 4
    for _ in range(4):
        x = epoch_gd_propose(state)
        epoch_gd_feed(state, float(f.subgrad(x)))
    epoch_gd_propose(state)
    assert state.anchor == (x0 + 3.0 * xs) / 4.0


def test_budget_stops_after_last_full_epoch() -> None:
    state = epoch_gd_init(2.0, 1.0, 0.05, 2.0, 5, 0.3125, overrides={"C0": 2.0})
    # T_1 = 4 fits in 5; T_2 = 8 would need 12 total, so the solver stops there
    count = 0
    while not state.done:
        epoch_gd_propose(state)
        if state.done:
            break
        epoch_gd_feed(state, 0.0)
        count += 1
    assert count == 4 and state.total_fed == 4
    assert epoch_gd_estimate(state) == 0.3125


def test_init_validation() -> None:
    with pytest.raises(ParameterError):
        epoch_gd_init(1.5, 1.0, 0.05, 2.0, 100, 0.5)
    with pytest.raises(ParameterError):
        epoch_gd_init(2.0, 1.0, 1.5, 2.0, 100, 0.5)
    with pytest.raises(DomainError):
        epoch_gd_init(2.0, 1.0, 0.05, 2.0, 100, 1.5)
    with pytest.raises(ParameterError):
        epoch_gd_init(2.0, 1.0, 0.05, 2.0, 100, 0.5, overrides={"C9": 1.0})
    for bad in (0.0, -1.0, float("nan"), float("inf"), "2", True):
        with pytest.raises(ParameterError):
            epoch_gd_init(2.0, 1.0, 0.05, 2.0, 100, 0.5, overrides={"C0": bad})


def test_noiseless_convergence() -> None:
    f = make_uniformly_convex(2.0, 1.0, 0.5)
    est = _solve(
        f, 0.0, 10**4, 0.05, 1.0, RngStream(0, (7,)), overrides={"C0": 2.0}
    )
    assert abs(est - 0.5) <= 1e-2


def test_noisy_function_error_slope_in_band() -> None:
    # median function error vs budget on a log-log fit; target rate is ~1/T
    budgets = [2**e for e in range(12, 18)]
    f = make_uniformly_convex(2.0, 1.0, 0.35)
    medians = []
    for b_idx, budget in enumerate(budgets):
        errs = []
        for trial in range(40):
            est = _solve(
                f, 0.1, budget, 0.05, 2.0, RngStream(1234, (b_idx, trial))
            )
            errs.append(float(f.value(est)))
        medians.append(np.median(errs))
    slope = np.polyfit(np.log(budgets), np.log(medians), 1)[0]
    assert -1.3 <= slope <= -0.7, f"function-error slope {slope:.3f} out of band"


def test_noiseless_sweep_never_slower_than_noisy() -> None:
    budgets = [2**e for e in range(12, 16)]
    f = make_uniformly_convex(2.0, 1.0, 0.35)
    for b_idx, budget in enumerate(budgets):
        noisy, clean = [], []
        for trial in range(10):
            stream = RngStream(77, (b_idx, trial))
            noisy.append(abs(_solve(f, 0.1, budget, 0.05, 2.0, stream) - 0.35))
            clean.append(abs(_solve(f, 0.0, budget, 0.05, 2.0, stream) - 0.35))
        assert np.median(clean) <= np.median(noisy)


def _reference_drive(state, subgrad, grad_noise) -> tuple[np.ndarray, int]:
    """Per-step propose/feed loop that epoch_gd_drive must match bit for bit."""
    proposals, fed = [], 0
    for z in grad_noise:
        x = epoch_gd_propose(state)
        proposals.append(x)
        if not state.done:
            epoch_gd_feed(state, float(subgrad(x)) + z)
            fed += 1
    return np.array(proposals, dtype=np.float64), fed


def _state_repr(state) -> list[str]:
    # repr tells -0.0 from 0.0 and keeps every bit of a float
    return [f"{f.name}={getattr(state, f.name)!r}" for f in fields(state)]


_UNIT = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=150, deadline=None, database=None)
@given(
    kappa=st.one_of(st.sampled_from([2.0, 3.0]), st.floats(min_value=2.0, max_value=4.0)),
    lam=st.floats(min_value=0.25, max_value=4.0),
    c0=st.one_of(st.none(), st.floats(min_value=1.0, max_value=4.0)),
    budget=st.integers(1, 5000),
    n_noise=st.integers(0, 6000),
    x_init=st.one_of(st.sampled_from([0.0, 1.0]), _UNIT),
    x_star=st.one_of(st.sampled_from([0.0, 1.0]), _UNIT),
    sigma=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3)),
    seed=st.integers(0, 2**32 - 1),
    pre_propose=st.booleans(),
)
def test_drive_matches_per_step_loop(
    kappa, lam, c0, budget, n_noise, x_init, x_star, sigma, seed, pre_propose
) -> None:
    # noise length is drawn apart from the budget, so a run can end mid-epoch,
    # before the budget is spent, or long after the solver is done
    n_noise = min(n_noise, budget + 500)
    overrides = None if c0 is None else {"C0": c0}
    f = make_uniformly_convex(kappa, lam, x_star)
    noise = np.random.default_rng(seed).normal(0.0, sigma, n_noise).tolist()
    states = [
        epoch_gd_init(kappa, lam, 0.05, 2.0, budget, x_init, overrides=overrides)
        for _ in range(2)
    ]
    if pre_propose:  # a proposal left pending before the drive starts
        for state in states:
            epoch_gd_propose(state)
    got, got_fed = epoch_gd_drive(states[0], f.subgrad, noise)
    want, want_fed = _reference_drive(states[1], f.subgrad, noise)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert got_fed == want_fed
    assert _state_repr(states[0]) == _state_repr(states[1])
    # the public stepping API continues from the driven state as from the reference's
    tails = [_reference_drive(state, f.subgrad, noise[:50]) for state in states]
    assert tails[0][0].tobytes() == tails[1][0].tobytes() and tails[0][1] == tails[1][1]
    assert _state_repr(states[0]) == _state_repr(states[1])
