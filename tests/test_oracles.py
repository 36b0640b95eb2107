"""Oracle models and the seeded stream discipline they rely on."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from secopt.errors import ParameterError
from secopt.functions import make_abs
from secopt.oracles import RngStream, gradient_noise, noisy_sign_oracle, sign_oracle


def test_stream_replay_and_child_independence() -> None:
    a = RngStream(7, (1, 2)).generator().normal(size=8)
    b = RngStream(7, (1, 2)).generator().normal(size=8)
    assert np.array_equal(a, b)
    c = RngStream(7, (1, 3)).generator().normal(size=8)
    assert not np.array_equal(a, c)
    assert RngStream(7, (1,)).child(2) == RngStream(7, (1, 2))


def test_block_draws_equal_sequential_draws() -> None:
    # the protocol pre-draws noise in blocks; this pins the equivalence
    block = RngStream(11, (0,)).generator().normal(0.0, 0.1, size=(5, 2))
    gen = RngStream(11, (0,)).generator()
    seq = np.array([[gen.normal(0.0, 0.1), gen.normal(0.0, 0.1)] for _ in range(5)])
    assert np.array_equal(block, seq)


def test_sign_oracle_cases() -> None:
    assert sign_oracle(0.5, 0.3) == -1
    assert sign_oracle(0.5, 0.8) == 1
    assert sign_oracle(0.5, 0.5) == 1  # tie convention


@settings(max_examples=300, deadline=None, database=None)
@given(
    x_star=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    x=st.one_of(st.sampled_from([0.0, 5e-324, 0.5, 1.0]), st.floats(0.0, 1.0)),
)
def test_sign_oracle_is_the_sign_of_the_abs_subgradient(x_star, x) -> None:
    # the oracle once read f.subgrad of make_abs(x_star); it must answer the same
    assert sign_oracle(x_star, x) == (1 if make_abs(x_star).subgrad(x) >= 0.0 else -1)
    assert sign_oracle(x_star, x_star) == 1


def test_noisy_sign_parameter_range() -> None:
    gen = RngStream(0, ()).generator()
    for bad in (0.5, 1.0, 0.2):
        with pytest.raises(ParameterError):
            noisy_sign_oracle(0.5, 0.3, bad, gen, 1)


def test_noisy_sign_frozen_replay() -> None:
    # frozen from the first run of this stream; any RNG-order change breaks it
    gen = RngStream(42, (0,)).generator()
    signs = [int(noisy_sign_oracle(0.5, 0.3, 0.75, gen, 1)[0]) for _ in range(5)]
    assert signs == [1, 1, 1, -1, 1]


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 300),
    p=st.floats(min_value=0.5, max_value=1.0, exclude_min=True, exclude_max=True),
    x_star=st.floats(0.0, 1.0),
    x=st.floats(0.0, 1.0),
)
def test_one_call_of_size_m_equals_m_single_calls(seed, m, p, x_star, x) -> None:
    # the protocol draws each majority round as one block; this pins that the
    # block gives the same signs as m calls of size 1 and leaves the generator
    # in the same state
    block_gen, single_gen = (RngStream(seed, (2,)).generator() for _ in range(2))
    block = noisy_sign_oracle(x_star, x, p, block_gen, m)
    singles = [noisy_sign_oracle(x_star, x, p, single_gen, 1) for _ in range(m)]
    assert block.dtype == np.int64 and block.shape == (m,)
    assert all(one.dtype == np.int64 and one.shape == (1,) for one in singles)
    assert block.tolist() == np.concatenate(singles).tolist()
    assert block_gen.bit_generator.state == single_gen.bit_generator.state


def test_noisy_sign_degenerate_p() -> None:
    gen = RngStream(3, ()).generator()
    p = 1.0 - 1e-12
    assert np.all(noisy_sign_oracle(0.5, 0.3, p, gen, 10_000) == -1)


def test_noisy_sign_flip_frequency() -> None:
    gen = RngStream(5, ()).generator()
    signs = noisy_sign_oracle(0.5, 0.3, 0.75, gen, 100_000)
    freq = float((signs == -1).mean())
    assert 0.745 <= freq <= 0.755


def test_gaussian_oracle_exact_when_sigma_zero() -> None:
    gen = RngStream(1, ()).generator()
    before = gen.bit_generator.state
    assert gradient_noise(gen, 0.0, 5) == [0.0] * 5
    assert gen.bit_generator.state == before  # sigma=0 consumes no draws


def test_gaussian_oracle_draw_order_pinned() -> None:
    # each response draws its value noise first, then its gradient noise
    noise = gradient_noise(RngStream(9, (4,)).generator(), 0.1, 3)
    ref = RngStream(9, (4,)).generator()
    expected = []
    for _ in range(3):
        ref.normal(0.0, 0.1)
        expected.append(ref.normal(0.0, 0.1))
    assert noise == expected


def test_gaussian_oracle_sample_statistics() -> None:
    n = 100_000
    z = np.array(gradient_noise(RngStream(12, ()).generator(), 0.1, n))
    assert abs(z.mean()) <= 1e-3
    assert 0.098 <= z.std() <= 0.102
    # noise really is Gaussian, not merely centered
    ks = stats.kstest(z[:2000] / 0.1, "norm")
    assert ks.pvalue > 0.01
