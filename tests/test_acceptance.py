"""Acceptance checklist: one test per shipped guarantee, numbered.

`pytest tests/test_acceptance.py -v` yields one PASS/FAIL line per criterion;
add -s to also see the printed metric lines.  Fixed seeds throughout.
"""
import contextlib
import dataclasses
import math
import time

import numpy as np
import pytest

from secopt.adversary import (
    ADVERSARY_ORDER,
    default_packing_centers,
    packing_ball_sample,
    posterior_interval_adversary,
    proportional_sample,
    uniform_naive,
)
from secopt.bounds import c_of_p, kl_gaussian_pair, lower_bound_binary, lower_bound_convex
from secopt.epoch_gd import default_constants, epoch_schedule
from secopt.functions import make_hard_pair, make_uniformly_convex
from secopt.harness import export_csv, instance_for_trial, run_batch, sample_x_star, sweep_budget
from secopt.oracles import RngStream
from secopt.protocol import (
    ProtocolConfig,
    majority_repetitions,
    run_plain_convex,
    run_protocol,
    subinterval_index,
)

MASTER = 20260814


@contextlib.contextmanager
def criterion(n: int, label: str):
    t0 = time.perf_counter()
    note: dict = {}
    try:
        yield note
    except BaseException:
        print(f"FAIL criterion {n}: {label}", flush=True)
        raise
    extra = note.get("note", "")
    print(f"PASS criterion {n}: {label}{extra} [{time.perf_counter() - t0:.1f}s]", flush=True)


def test_criterion_1_replicated_schedule_structure() -> None:
    with criterion(1, "replicated schedule structure and epoch invariants") as note:
        t0 = time.perf_counter()
        config = ProtocolConfig(T=6000, overrides={"C0": 2.0})
        f = make_uniformly_convex(2.0, 1.0, 0.42)
        tr = run_protocol(config, f, RngStream(MASTER, (1,)))
        k, s = config.phases, config.subintervals
        rows = np.sort(tr.points.reshape(k, s), axis=1)
        lattice = rows[:, :1] + config.delta_adv * np.arange(s)
        assert np.max(np.abs(rows - lattice)) <= 1e-12  # one offset per phase
        assert np.all(np.bincount(tr.sub, minlength=s + 1)[1:] == k)
        assert np.all(tr.informative.reshape(k, s).sum(axis=1) == 1)
        inf_pts = tr.points[tr.informative]
        assert np.all(
            tr.sub[tr.informative]
            == [subinterval_index(float(x), config.delta_adv) for x in inf_pts]
        )

        schedule = epoch_schedule(2.0, 1.0, 0.05, 2.0, 1000, overrides={"C0": 2.0})
        lens, etas, radii = zip(*schedule)
        assert len(lens) >= 6
        assert all(b == 2 * a for a, b in zip(lens, lens[1:]))
        for a, b in zip(etas, etas[1:]):
            assert b == pytest.approx(0.5 * a, rel=1e-15)
        for eta, r in zip(etas, radii):
            assert r == pytest.approx(math.sqrt(8.0 * eta), rel=1e-12)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        note["note"] = f" ({len(lens)} epochs checked)"


def test_criterion_2_error_decay_slopes() -> None:
    with criterion(2, "log-log error decay slopes over budgets 2^12..2^17") as note:
        t0 = time.perf_counter()
        config = ProtocolConfig(
            kappa=2.0, sigma=0.1, lam=1.0, W=2.0, delta_adv=0.1, eps_adv=0.04
        )
        budgets = [k * 10 for k in (4096, 8192, 16384, 32768, 65536, 131072)]
        with pytest.warns(UserWarning):  # 32x effective span is under two decades
            result = sweep_budget(config, budgets, 100, master_seed=MASTER)
        sp, sfn = result.fit_point.slope, result.fit_function.slope
        assert -0.7 <= sp <= -0.3, f"point slope {sp}"
        assert -1.3 <= sfn <= -0.7, f"function slope {sfn}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0
        note["note"] = f" (point {sp:.3f}, function {sfn:.3f}, N=100)"


def test_criterion_3_adversary_success_capped() -> None:
    with criterion(3, "all adversaries held at delta_adv on the secure protocol") as note:
        config = ProtocolConfig(T=200_000)  # delta_adv 0.1, eps_adv 0.04, sigma 0.1
        n_trials, m_samples = 200, 50  # 10^4 (trial, sample) pairs per strategy
        centers = default_packing_centers(config.eps_adv)
        s_count = config.subintervals
        hits = {name: 0 for name in ADVERSARY_ORDER}
        for trial in range(n_trials):
            stream = RngStream(MASTER, (3, trial))
            x_star = sample_x_star(config, stream)
            f = instance_for_trial(config, x_star)
            public = run_protocol(config, f, stream.child(0)).public_view()
            gens = {n: stream.child(2 + i).generator() for i, n in enumerate(ADVERSARY_ORDER)}
            for _ in range(m_samples):
                ests = (
                    ("proportional", proportional_sample(public, gens["proportional"])),
                    ("packing_ball", packing_ball_sample(
                        public, config.eps_adv, centers, gens["packing_ball"])),
                    ("posterior_interval", posterior_interval_adversary(
                        public, s_count, gens["posterior_interval"])),
                    ("uniform_naive", uniform_naive(gens["uniform_naive"])),
                )
                for name, est in ests:
                    hits[name] += abs(est.point - x_star) <= config.eps_adv
        n_pairs = n_trials * m_samples
        se = math.sqrt(config.delta_adv * (1 - config.delta_adv) / n_pairs)
        rates = {name: hits[name] / n_pairs for name in ADVERSARY_ORDER}
        for name, rate in rates.items():
            assert rate <= config.delta_adv + 3 * se, f"{name} rate {rate:.4f}"

        # negative control: the non-replicated run leaks the trajectory
        ctrl = ProtocolConfig(T=20_000)
        ctrl_hits = 0
        for trial in range(50):
            stream = RngStream(MASTER, (33, trial))
            x_star = sample_x_star(ctrl, stream)
            f = instance_for_trial(ctrl, x_star)
            public = run_plain_convex(ctrl, f, stream.child(0)).public_view()
            gen = stream.child(2).generator()
            for _ in range(50):
                ctrl_hits += abs(proportional_sample(public, gen).point - x_star) <= ctrl.eps_adv
        ctrl_rate = ctrl_hits / 2500
        assert ctrl_rate > 3 * ctrl.delta_adv, f"control rate {ctrl_rate:.3f}"
        note["note"] = (
            " (" + ", ".join(f"{n} {rates[n]:.3f}" for n in ADVERSARY_ORDER)
            + f" vs cap {config.delta_adv + 3 * se:.3f}; leaky control {ctrl_rate:.3f})"
        )


def test_criterion_4_bisection_query_counts_near_lower_bound() -> None:
    with criterion(4, "bisection query counts exact and within 4x of the floor") as note:
        t0 = time.perf_counter()
        worst = 0.0
        cells = 0
        for delta_adv in (0.05, 0.1, 0.2):
            for frac in (0.25, 0.4):
                eps_adv = delta_adv * frac
                for eps in (1e-5, 1e-4, 1e-3):
                    config = ProtocolConfig(
                        T=20_000, mode="Bisection", delta_adv=delta_adv,
                        eps_adv=eps_adv, eps=eps, x_star=0.37,
                    )
                    tr = run_protocol(
                        config, instance_for_trial(config, 0.37),
                        RngStream(MASTER, (4, cells)),
                    )
                    s = config.subintervals
                    expected = s * math.ceil(math.log2(delta_adv / eps))
                    assert len(tr) == expected, (delta_adv, eps_adv, eps)
                    assert abs(tr.x_hat - 0.37) <= eps
                    floor_q = lower_bound_binary(eps, eps_adv, config.delta, delta_adv)
                    ratio = len(tr) / floor_q
                    assert 1.0 <= ratio <= 4.0, (delta_adv, eps_adv, eps, ratio)
                    worst = max(worst, ratio)
                    cells += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        note["note"] = f" ({cells} grid cells, worst ratio {worst:.2f})"


def test_criterion_5_noisy_bisection_reliability_and_scaling() -> None:
    with criterion(5, "noisy bisection failure rate and 1/c(p) query scaling") as note:
        config = ProtocolConfig(T=20_000, mode="NoisyBisection", p=0.75, eps=1e-3)
        n_trials = 400
        failures = 0
        for trial in range(n_trials):
            stream = RngStream(MASTER, (5, trial))
            x_star = sample_x_star(config, stream)
            f = instance_for_trial(config, x_star)
            tr = run_protocol(config.with_updates(x_star=x_star), f, stream.child(0))
            failures += abs(tr.x_hat - x_star) > config.eps
        delta_hat = failures / n_trials
        cap = config.delta + 3 * math.sqrt(config.delta * (1 - config.delta) / n_trials)
        assert delta_hat <= cap, f"delta_hat {delta_hat} > {cap:.4f}"

        scaled = {}
        for p in (0.6, 0.75, 0.9):
            cfg = config.with_updates(p=p, T=25_000 if p == 0.6 else 20_000, x_star=0.43)
            tr = run_protocol(cfg, instance_for_trial(cfg, 0.43), RngStream(MASTER, (55,)))
            reps = majority_repetitions(p, cfg.eps, cfg.delta, cfg.delta_adv)
            assert len(tr) == cfg.subintervals * 7 * reps  # 7 halvings at eps=1e-3
            scaled[p] = len(tr) * c_of_p(p)
        spread = max(scaled.values()) / min(scaled.values())
        assert spread <= 2.0, f"Q*c(p) spread {spread:.3f}"
        note["note"] = f" (delta_hat {delta_hat:.4f} <= {cap:.4f}, Q*c(p) spread {spread:.2f})"


def test_criterion_6_hard_pair_indistinguishable_outside_region() -> None:
    with criterion(6, "hard pair agrees outside J, KL matches Monte Carlo inside") as note:
        pair = make_hard_pair(c0=0.5, c1=0.2, c2=1.6, eps=0.5, center=3.0)
        r = pair.region_j.radius
        outside = np.concatenate([
            np.linspace(3.0 - 6.0, 3.0 - r - 1e-9, 500),
            np.linspace(3.0 + r + 1e-9, 3.0 + 6.0, 500),
        ])
        assert outside.size == 1000
        assert np.array_equal(pair.f1.value(outside), pair.f2.value(outside))
        assert np.array_equal(pair.f1.subgrad(outside), pair.f2.subgrad(outside))

        sigma = 0.1
        swapped = dataclasses.replace(pair, f1=pair.f2, f2=pair.f1)
        gen = np.random.default_rng(MASTER)
        worst_rel = 0.0
        for x in np.linspace(2.3, 3.7, 10):
            kl = kl_gaussian_pair(pair, float(x), sigma)
            m1 = np.array([float(pair.f1.value(x)), float(pair.f1.subgrad(x))])
            m2 = np.array([float(pair.f2.value(x)), float(pair.f2.subgrad(x))])
            assert abs(kl - ((m1 - m2) ** 2).sum() / (2 * sigma**2)) <= 1e-12
            # symmetric in the members for the shared-sigma Gaussian oracle
            assert abs(kl - kl_gaussian_pair(swapped, float(x), sigma)) <= 1e-12
            y = m1 + sigma * gen.standard_normal((100_000, 2))
            mc = float(np.mean(
                (((y - m2) ** 2).sum(axis=1) - ((y - m1) ** 2).sum(axis=1)) / (2 * sigma**2)
            ))
            rel = abs(mc - kl) / kl
            worst_rel = max(worst_rel, rel)
            assert rel <= 0.05, (float(x), kl, mc)
        note["note"] = f" (worst MC deviation {100 * worst_rel:.2f}%)"


def test_criterion_7_worker_count_does_not_change_results() -> None:
    with criterion(7, "identical CSV bytes from 1-worker and 8-worker batches") as note:
        config = ProtocolConfig(T=20_000)
        serial = run_batch(config, 16, master_seed=MASTER, workers=1)
        pooled = run_batch(config, 16, master_seed=MASTER, workers=8)
        assert export_csv(serial).encode() == export_csv(pooled).encode()
        note["note"] = " (16 trials, T=20000)"


def test_criterion_8_frozen_reference_values() -> None:
    with criterion(8, "frozen reference constants reproduced at 1e-6") as note:
        assert c_of_p(0.75) == pytest.approx(0.5493061443340549, rel=1e-6)
        thm = lower_bound_convex(
            eps=0.01, delta=0.01, delta_adv=0.1, kappa=2.0, sigma=0.1, error_kind="point"
        )
        assert thm == pytest.approx(637.1456462050978, rel=1e-6)
        consts = default_constants(2.0, 1.0, 2.0, 0.01, 10**5)
        assert consts["C0"] == pytest.approx(2142.2544566527604, rel=1e-6)
        assert epoch_schedule(2.0, 1.0, 0.01, 2.0, 10**5)[0][0] == 4285
        note["note"] = " (c(0.75), convex floor, C0, T1)"
