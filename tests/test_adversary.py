"""Adversary estimators: sampling laws, packing rules, mirror detection."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from secopt.adversary import (
    packing_ball_sample,
    posterior_interval_adversary,
    proportional_sample,
    uniform_naive,
)
from secopt.errors import PackingError, ParameterError
from secopt.functions import make_uniformly_convex
from secopt.oracles import RngStream
from secopt.protocol import ProtocolConfig, run_protocol, subinterval_index


def test_proportional_matches_query_frequencies() -> None:
    queries = np.tile([0.1, 0.5, 0.9], 10_000)
    gen = np.random.default_rng(11)
    draws = np.array([proportional_sample(queries, gen).point for _ in range(30_000)])
    counts = [np.sum(draws == v) for v in (0.1, 0.5, 0.9)]
    assert sum(counts) == 30_000
    assert stats.chisquare(counts).pvalue > 0.01


def test_proportional_single_query_is_deterministic() -> None:
    gen = np.random.default_rng(3)
    for _ in range(20):
        est = proportional_sample(np.array([0.4]), gen)
        assert est.point == 0.4
        assert not est.fell_back


def test_proportional_input_validation() -> None:
    gen = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        proportional_sample(np.array([]), gen)
    with pytest.raises(ParameterError):
        proportional_sample(np.zeros((3, 2)), gen)


def test_packing_hit_probability_is_ball_mass() -> None:
    # 2 of 4 queries inside the ball around 0.2: the center wins half the time
    queries = np.array([0.18, 0.22, 0.35, 0.65])
    centers = np.array([0.2, 0.5, 0.8])
    gen = np.random.default_rng(7)
    n = 20_000
    hits = 0
    for _ in range(n):
        est = packing_ball_sample(queries, 0.04, centers, gen)
        hits += est.point == 0.2 and not est.fell_back
    se = (0.5 * 0.5 / n) ** 0.5
    assert abs(hits / n - 0.5) <= 3 * se


def test_packing_all_queries_in_one_ball() -> None:
    queries = np.array([0.49, 0.5, 0.51, 0.515])
    gen = np.random.default_rng(8)
    for _ in range(50):
        est = packing_ball_sample(queries, 0.04, np.array([0.2, 0.5, 0.8]), gen)
        assert est.point == 0.5 and not est.fell_back


def test_packing_falls_back_outside_every_ball() -> None:
    queries = np.array([0.35, 0.65])
    gen = np.random.default_rng(9)
    est = packing_ball_sample(queries, 0.04, np.array([0.2, 0.5, 0.8]), gen)
    assert est.fell_back
    assert est.point in queries


def test_packing_rejects_bad_geometry() -> None:
    gen = np.random.default_rng(1)
    queries = np.array([0.3, 0.7])
    with pytest.raises(PackingError):
        packing_ball_sample(queries, 0.04, np.array([]), gen)
    with pytest.raises(PackingError):
        packing_ball_sample(queries, 0.04, np.array([0.5, 0.55]), gen)
    with pytest.raises(ParameterError):
        packing_ball_sample(queries, 0.0, np.array([0.5]), gen)


def _mirrored_last_phase(offset: float, s_count: int = 10) -> np.ndarray:
    width = 1.0 / s_count
    head = np.linspace(0.0, 0.99, 37)  # earlier traffic, ignored by the strategy
    last = offset + width * np.arange(s_count)
    return np.concatenate([head, last])


def test_posterior_uniform_over_intact_mirror() -> None:
    queries = _mirrored_last_phase(0.043)
    gen = np.random.default_rng(17)
    n = 10_000
    pts = np.empty(n)
    for i in range(n):
        est = posterior_interval_adversary(queries, 10, gen)
        assert not est.fell_back
        pts[i] = est.point
    clusters = 0.043 + 0.1 * np.arange(10)
    hit_true = np.abs(pts - clusters[4]) <= 1e-9
    se = (0.1 * 0.9 / n) ** 0.5
    assert abs(hit_true.mean() - 0.1) <= 3 * se
    # every estimate is one of the S cluster points
    assert np.all(np.min(np.abs(pts[:, None] - clusters[None, :]), axis=1) <= 1e-9)


def test_posterior_two_cluster_split() -> None:
    queries = np.array([0.11, 0.61, 0.23, 0.73])
    gen = np.random.default_rng(21)
    n = 40_000
    low = sum(posterior_interval_adversary(queries, 2, gen).point == 0.23 for _ in range(n))
    se = (0.25 / n) ** 0.5
    assert abs(low / n - 0.5) <= 3 * se


def test_posterior_fallback_paths() -> None:
    gen = np.random.default_rng(29)
    short = np.array([0.2, 0.8])
    est = posterior_interval_adversary(short, 10, gen)
    assert est.fell_back and est.point in short
    garbage = np.array([0.01, 0.12, 0.26, 0.33, 0.47, 0.52, 0.69, 0.71, 0.88, 0.95])
    est = posterior_interval_adversary(garbage, 10, gen)
    assert est.fell_back and est.point in garbage
    with pytest.raises(ParameterError):
        posterior_interval_adversary(garbage, 1, gen)


def test_uniform_naive_statistics() -> None:
    gen = np.random.default_rng(31)
    pts = np.array([uniform_naive(gen).point for _ in range(100_000)])
    assert abs(pts.mean() - 0.5) <= 0.005
    eps_adv = 0.04
    rate = np.mean(np.abs(pts - 0.37) <= eps_adv)
    se = (2 * eps_adv * (1 - 2 * eps_adv) / pts.size) ** 0.5
    assert abs(rate - 2 * eps_adv) <= 3 * se
    # boundary optimizer keeps only one side of the tolerance window
    edge = np.mean(np.abs(pts - 0.0) <= 0.05)
    se_edge = (0.05 * 0.95 / pts.size) ** 0.5
    assert abs(edge - 0.05) <= 3 * se_edge


def test_proportional_on_real_transcript_is_uniform_over_subintervals() -> None:
    config = ProtocolConfig(T=4000, overrides={"C0": 2.0})
    f = make_uniformly_convex(2.0, 1.0, 0.42)
    tr = run_protocol(config, f, RngStream(33, (0,)))
    public = tr.public_view()
    gen = np.random.default_rng(35)
    subs = [
        subinterval_index(proportional_sample(public, gen).point, config.delta_adv)
        for _ in range(20_000)
    ]
    counts = np.bincount(subs, minlength=11)[1:]
    assert stats.chisquare(counts).pvalue > 0.01


def _one_call_matches_single_draws(strategy, seed: int, k: int) -> None:
    """strategy(gen, size=k) against k calls of strategy(gen, None) from the
    same generator state: same points, same state after, fell_back = any."""
    gen = np.random.default_rng(seed)
    singles = [strategy(gen, None) for _ in range(k)]
    state = gen.bit_generator.state
    gen = np.random.default_rng(seed)
    block = strategy(gen, k)
    assert gen.bit_generator.state == state
    assert all(type(e.point) is float and type(e.fell_back) is bool for e in singles)
    assert type(block.fell_back) is bool
    assert block.fell_back == any(e.fell_back for e in singles)
    assert block.point.dtype == np.float64
    assert block.point.tobytes() == np.array([e.point for e in singles]).tobytes()


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    head=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    s_count=st.integers(2, 12),
    offset=st.floats(0.0, 1.0, exclude_max=True),
    last_phase=st.sampled_from(["none", "mirror", "broken"]),
    radius=st.sampled_from([0.01, 0.04, 0.1, 0.2]),
    k=st.integers(1, 60),
)
def test_one_call_of_size_k_equals_k_single_draws(
    seed, head, s_count, offset, last_phase, radius, k
) -> None:
    # numpy draws Generator.integers and .uniform one at a time or as a block
    # from the same bits; adversary-eval relies on it
    width = 1.0 / s_count
    last = (offset * width + width * np.arange(s_count))[::-1]
    if last_phase == "broken":
        last[s_count // 2] += 0.3 * width
    queries = np.array(head if last_phase == "none" else head + last.tolist())
    centers = np.arange(radius, 1.0, 2.0 * radius)
    strategies = [
        lambda gen, size: proportional_sample(queries, gen, size),
        lambda gen, size: packing_ball_sample(queries, radius, centers, gen, size),
        lambda gen, size: posterior_interval_adversary(queries, s_count, gen, size),
        lambda gen, size: uniform_naive(gen, size),
    ]
    for strategy in strategies:
        _one_call_matches_single_draws(strategy, seed, k)
    # the block path also takes a read-only transcript view
    queries.flags.writeable = False
    _one_call_matches_single_draws(strategies[0], seed, k)


def test_block_draws_need_an_array_stream() -> None:
    config = ProtocolConfig(T=400, overrides={"C0": 2.0})
    tr = run_protocol(config, make_uniformly_convex(2.0, 1.0, 0.42), RngStream(3, ()))
    with pytest.raises(TypeError):
        proportional_sample(tr.public_view(), np.random.default_rng(0), 5)
