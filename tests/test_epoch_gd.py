"""Epoch-doubling projected subgradient solver: schedule, stepping, convergence."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secopt.epoch_gd import default_constants, epoch_gd_solve, epoch_schedule
from secopt.errors import DomainError, ParameterError
from secopt.functions import make_uniformly_convex
from secopt.oracles import RngStream, gradient_noise


def _solve(f, sigma, budget, delta, w, stream, overrides=None) -> float:
    """One solver run against the Gaussian first-order oracle: a uniform start
    and the gradient noise both come from the one stream."""
    gen = stream.generator()
    x_init = float(gen.uniform(*f.domain))
    schedule = epoch_schedule(float(f.kappa), f.lam, delta, w, budget, overrides)
    noise = gradient_noise(gen, sigma, budget)
    return epoch_gd_solve(schedule, x_init, noise, kappa=f.kappa, lam=f.lam, x_star=f.x_star)[2]


# lam = 0: the objective is flat, so every step feeds its noise entry alone
_FLAT = {"kappa": 2.0, "lam": 0.0, "x_star": 0.0}


def test_c0_golden() -> None:
    # frozen: 288 * ln(floor(log2(1e5) + 1) / 0.01) with inner log base 2
    c = default_constants(2.0, 1.0, 2.0, 0.01, 10**5)
    assert c["C0"] == pytest.approx(2142.2544566527604, rel=1e-6)
    assert epoch_schedule(2.0, 1.0, 0.01, 2.0, 10**5)[0][0] == 4285  # ceil(2 * C0)


def test_canonical_constants_kappa_two() -> None:
    c = default_constants(2.0, 1.0, 2.0, 0.05, 10**4)
    assert c["C1"] == 2.0 and c["C2"] == 8.0
    _, eta, radius = epoch_schedule(2.0, 1.0, 0.05, 2.0, 10**4)[0]
    assert eta == 1.0  # eta_1 = C1 * 2^(-1)
    assert radius == pytest.approx(math.sqrt(8.0), rel=1e-15)


def test_schedule_ratios_and_six_epochs() -> None:
    lens, etas, _ = zip(*epoch_schedule(2.0, 1.0, 0.05, 2.0, 1000, overrides={"C0": 2.0}))
    assert len(lens) >= 6
    assert all(b == 2 * a for a, b in zip(lens, lens[1:]))  # T_{e+1}/T_e = 2
    for a, b in zip(etas, etas[1:]):
        assert b == pytest.approx(0.5 * a, rel=1e-15)  # kappa=2 halving


def test_first_proposal_is_x_init_and_idempotent() -> None:
    schedule = epoch_schedule(2.0, 1.0, 0.05, 2.0, 10**4)
    noise = np.random.default_rng(4).normal(0.0, 0.1, 10**4).tolist()
    first, again = (
        epoch_gd_solve(schedule, 0.4, noise, kappa=2.0, lam=1.0, x_star=0.7) for _ in range(2)
    )
    assert first[0][0] == 0.4
    # the schedule is plain data: running it twice gives the same run
    assert first[0].tobytes() == again[0].tobytes() and first[1:] == again[1:]


def test_feed_requires_propose() -> None:
    # every gradient is taken at the point just proposed, and none after the
    # schedule ends: C0=2 gives epochs of 4, 8, 16 and 32 steps in a budget of 100.
    # The per-step reference records where it takes them; the solver must match it.
    f = make_uniformly_convex(2.0, 1.0, 0.3)
    seen = []

    def subgrad(x: float) -> float:
        seen.append(x)
        return f.subgrad(x)

    overrides = {"C0": 2.0}
    schedule = epoch_schedule(2.0, 1.0, 0.05, 2.0, 100, overrides)
    proposals, fed, _ = epoch_gd_solve(schedule, 0.9, [0.0] * 100, kappa=2.0, lam=1.0, x_star=0.3)
    want, want_fed, _ = _reference_solve(
        2.0, 1.0, 0.05, 2.0, 100, overrides, 0.9, subgrad, [0.0] * 100
    )
    assert fed == want_fed == 60 and seen == want[:fed].tolist()
    assert proposals.tobytes() == want.tobytes()


def test_feed_after_done_rejected() -> None:
    # budget below the first epoch: the schedule is empty, no gradient is
    # taken, and every step proposes x_init, which is the estimate
    def subgrad(x: float) -> float:
        raise AssertionError("gradient taken after the schedule ended")

    schedule = epoch_schedule(2.0, 1.0, 0.05, 2.0, 10)
    assert schedule == []
    proposals, fed, x_hat = epoch_gd_solve(
        schedule, 0.4, [0.1] * 10, kappa=2.0, lam=1.0, x_star=0.9
    )
    assert fed == 0 and x_hat == 0.4 and np.all(proposals == 0.4)
    want, want_fed, want_x_hat = _reference_solve(
        2.0, 1.0, 0.05, 2.0, 10, None, 0.4, subgrad, [0.1] * 10
    )
    assert proposals.tobytes() == want.tobytes() and (fed, x_hat) == (want_fed, want_x_hat)


@pytest.mark.parametrize(
    "iterate,eta,g,expected",
    [
        (0.75, 0.2, 1.0, 0.55),  # interior step
        (0.25, 0.2, 1.0, 0.2),  # clamped to anchor - R
        (0.7, 0.1, -2.0, 0.8),  # clamped to anchor + R
    ],
)
def test_projected_step_clamping(iterate, eta, g, expected) -> None:
    # one epoch anchored at 0.5 with R = 0.3; the noise carries the gradients:
    # the first step moves to `iterate`, the second applies g from there
    proposals, _, _ = epoch_gd_solve(
        [(3, eta, 0.3)], 0.5, [(0.5 - iterate) / eta, g, 0.0], **_FLAT
    )
    assert proposals[1] == pytest.approx(iterate, rel=1e-15)
    assert proposals[2] == pytest.approx(expected, rel=1e-15)


def test_epoch_average_includes_anchor_excludes_last() -> None:
    # zero gradients keep the iterate constant, so the epoch-2 anchor, its
    # first proposal, equals the initial point exactly
    proposals, _, x_hat = epoch_gd_solve(
        [(4, 1.0, 0.5), (8, 0.5, 0.3)], 0.625, [0.0] * 12, **_FLAT
    )
    assert proposals[4] == 0.625 and x_hat == 0.625


def test_epoch_average_arithmetic_exact() -> None:
    # eta=1 on the quadratic jumps straight to x* after the first step, so the
    # epoch-2 anchor is (x_init + 3 x*) / 4: anchor in, last iterate out
    xs, x0 = 0.25, 0.8125
    epoch_len, eta, _ = epoch_schedule(2.0, 1.0, 0.05, 2.0, 100, overrides={"C0": 2.0})[0]
    assert eta == 1.0 and epoch_len == 4
    _, fed, x_hat = epoch_gd_solve([(4, 1.0, 1.0)], x0, [0.0] * 4, kappa=2.0, lam=1.0, x_star=xs)
    assert fed == 4 and x_hat == (x0 + 3.0 * xs) / 4.0


def test_budget_stops_after_last_full_epoch() -> None:
    schedule = epoch_schedule(2.0, 1.0, 0.05, 2.0, 5, overrides={"C0": 2.0})
    # T_1 = 4 fits in 5; T_2 = 8 would need 12 total, so the solver stops there
    assert [epoch_len for epoch_len, _, _ in schedule] == [4]
    proposals, fed, x_hat = epoch_gd_solve(schedule, 0.3125, [0.0] * 5, **_FLAT)
    assert fed == 4 and x_hat == 0.3125 and proposals[4] == 0.3125


def test_init_validation() -> None:
    with pytest.raises(ParameterError):
        epoch_schedule(1.5, 1.0, 0.05, 2.0, 100)
    with pytest.raises(ParameterError):
        epoch_schedule(2.0, 1.0, 1.5, 2.0, 100)
    with pytest.raises(DomainError):
        epoch_gd_solve([], 1.5, [0.0], **_FLAT)
    with pytest.raises(ParameterError):
        epoch_schedule(2.0, 1.0, 0.05, 2.0, 100, overrides={"C9": 1.0})
    for bad in (0.0, -1.0, float("nan"), float("inf"), "2", True):
        with pytest.raises(ParameterError):
            epoch_schedule(2.0, 1.0, 0.05, 2.0, 100, overrides={"C0": bad})
    # noise that ends mid-schedule cannot be run: the schedule here is 60 steps
    schedule = epoch_schedule(2.0, 1.0, 0.05, 2.0, 100, overrides={"C0": 2.0})
    with pytest.raises(ParameterError, match="cannot cover"):
        epoch_gd_solve(schedule, 0.5, [0.0] * 59, **_FLAT)


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


def _reference_solve(kappa, lam, delta, w, budget, overrides, x_init, subgrad, grad_noise):
    """Per-step propose/feed solver that epoch_schedule + epoch_gd_solve must
    match bit for bit.  It works out the schedule one epoch boundary at a time,
    proposes once per noise entry and feeds while the budget covers the epoch
    in progress.  An epoch that ends on the last noise entry still sets the
    final anchor."""
    constants = default_constants(kappa, lam, w, delta, budget)
    constants.update(overrides or {})
    shrink = 2.0 ** (-kappa / (2.0 * kappa - 2.0))
    epoch_len = math.ceil(2.0 * constants["C0"])
    eta = constants["C1"] * shrink
    radius = (constants["C2"] * eta / lam) ** (1.0 / kappa)
    planned = epoch_len
    done = planned > budget
    anchor = iterate = float(x_init)
    epoch_sum, fed_in_epoch, fed = 0.0, 0, 0
    proposals = []
    for z in [*grad_noise, None]:  # None: past the last entry, only a boundary is crossed
        if not done and fed_in_epoch == epoch_len:
            anchor = iterate = min(max(epoch_sum / epoch_len, 0.0), 1.0)
            epoch_len *= 2
            eta *= shrink
            radius = (constants["C2"] * eta / lam) ** (1.0 / kappa)
            epoch_sum, fed_in_epoch = 0.0, 0
            planned += epoch_len
            done = planned > budget
        if z is None:
            break
        if done:
            proposals.append(anchor)
            continue
        proposals.append(iterate)
        epoch_sum += iterate
        lo = max(0.0, anchor - radius)
        hi = min(1.0, anchor + radius)
        iterate = min(max(iterate - eta * (float(subgrad(iterate)) + z), lo), hi)
        fed_in_epoch += 1
        fed += 1
    assert done
    return np.array(proposals, dtype=np.float64), fed, anchor


_UNIT = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=150, deadline=None, database=None)
@given(
    kappa=st.one_of(
        st.sampled_from([2.0, 2.5, 3.0, 4.0]), st.floats(min_value=2.0, max_value=4.0)
    ),
    lam=st.floats(min_value=0.25, max_value=4.0),
    c0=st.one_of(st.none(), st.floats(min_value=1.0, max_value=4.0)),
    budget=st.integers(1, 5000),
    slack=st.integers(0, 500),
    x_init=st.one_of(st.sampled_from([0.0, 1.0]), _UNIT),
    x_star=st.one_of(st.sampled_from([0.0, 1.0]), _UNIT),
    sigma=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_drive_matches_per_step_loop(
    kappa, lam, c0, budget, slack, x_init, x_star, sigma, seed
) -> None:
    # the noise covers the schedule plus a slack drawn apart from the budget,
    # so a run can end exactly on the last epoch or long after it.  The
    # reference steps with make_uniformly_convex's subgrad closure, so this
    # also pins the solver's inline gradient to the closure bit for bit.
    overrides = None if c0 is None else {"C0": c0}
    f = make_uniformly_convex(kappa, lam, x_star)
    schedule = epoch_schedule(kappa, lam, 0.05, 2.0, budget, overrides)
    n_noise = sum(epoch_len for epoch_len, _, _ in schedule) + slack
    noise = np.random.default_rng(seed).normal(0.0, sigma, n_noise).tolist()
    got, got_fed, got_x_hat = epoch_gd_solve(
        schedule, x_init, noise, kappa=f.kappa, lam=f.lam, x_star=f.x_star
    )
    want, want_fed, want_x_hat = _reference_solve(
        kappa, lam, 0.05, 2.0, budget, overrides, x_init, f.subgrad, noise
    )
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert got_fed == want_fed
    # repr tells -0.0 from 0.0 and keeps every bit of a float
    assert repr(got_x_hat) == repr(want_x_hat)
