"""Replicated query protocol: schedule symmetry, determinism, bisection counts, text I/O."""
import io
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from secopt import (
    MODES,
    BudgetError,
    DomainError,
    ParameterError,
    ProtocolConfig,
    RngStream,
    Transcript,
    epoch_gd_solve,
    epoch_schedule,
    instance_for_trial,
    majority_repetitions,
    make_abs,
    make_hard_pair,
    make_uniformly_convex,
    run_plain_convex,
    run_protocol,
    subinterval_index,
)
from secopt.cli import load_config
from secopt.cli import main as cli_main
from secopt.protocol import PublicView


def test_subinterval_index_examples() -> None:
    assert subinterval_index(0.37, 0.1) == 4
    assert subinterval_index(0.0, 0.1) == 1
    assert subinterval_index(1.0, 0.1) == 10  # right-edge absorption
    assert subinterval_index(0.95, 0.15) == 6  # six subintervals of width 1/6
    with pytest.raises(DomainError):
        subinterval_index(-0.1, 0.1)
    with pytest.raises(DomainError):
        subinterval_index(1.1, 0.1)


def test_config_validation() -> None:
    with pytest.raises(ParameterError):
        ProtocolConfig(delta_adv=0.6).validate()  # S=1
    with pytest.raises(ParameterError):
        ProtocolConfig(eps_adv=0.06).validate()  # 2*eps_adv >= delta_adv
    with pytest.raises(ParameterError):
        ProtocolConfig(mode="Nope").validate()
    with pytest.raises(BudgetError):
        ProtocolConfig(T=5).validate()
    with pytest.raises(ParameterError):
        ProtocolConfig(mode="NoisyBisection", p=0.4).validate()
    with pytest.warns(UserWarning):
        ProtocolConfig(eps=0.03).validate()  # 2*eps > eps_adv
    for mode in MODES:  # every field is checked, whether the mode reads it or not
        for bad in (
            {"kappa": 1.0}, {"lam": 0.0}, {"W": -1.0}, {"sigma": -0.1}, {"p": 0.4},
            {"sigma": math.nan},
        ):
            with pytest.raises(ParameterError):
                ProtocolConfig(mode=mode, **bad).validate()
    for mode in ("Bisection", "ConvexEpochGD"):
        with pytest.raises(ParameterError, match="below delta_adv"):
            ProtocolConfig(mode=mode, eps=0.15).validate()  # eps >= delta_adv
    with pytest.raises(ParameterError, match="subinterval width"):
        # S = 9 and 1/S rounds below delta_adv: eps < delta_adv leaves no halving
        ProtocolConfig(
            mode="Bisection", delta_adv=0.11111111111111112, eps_adv=0.02, eps=1 / 9
        ).validate()


def test_non_finite_fields_rejected() -> None:
    # an infinite kappa or lam once ran to NaN errors, which --check counted as hits
    # an int too large for a float once raised OverflowError in the run
    for mode in MODES:
        for name in ("kappa", "lam", "W", "sigma"):
            for value in (math.inf, 10**400):
                with pytest.raises(ParameterError, match=f"{name} must be finite"):
                    ProtocolConfig(mode=mode, **{name: value}).validate()
    with pytest.raises(ParameterError, match="finite number"):
        ProtocolConfig(overrides={"C0": 10**400}).validate()


def test_config_hash_and_updates() -> None:
    a = ProtocolConfig(T=1000)
    b = a.with_updates(T=2000)
    assert a.T == 1000 and b.T == 2000
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() == ProtocolConfig(T=1000).config_hash()
    # frozen: the hash is written into every transcript header
    assert ProtocolConfig().config_hash() == "2d3f891018b7"
    assert ProtocolConfig(T=1000, overrides={"C0": 2.0, "C1": 0.02}).config_hash() == "73e3fb136295"
    assert ProtocolConfig(mode="NoisyBisection", x_star=0.43).config_hash() == "7f7834db9524"


def _convex_run(t: int = 6000, seed: int = 31) -> Transcript:
    config = ProtocolConfig(T=t, overrides={"C0": 2.0})
    f = make_uniformly_convex(2.0, 1.0, 0.42)
    return run_protocol(config, f, RngStream(seed, (0,)))


def test_phase_structure_and_mirror_symmetry() -> None:
    config = ProtocolConfig(T=6000, overrides={"C0": 2.0})
    tr = _convex_run()
    k, s = config.phases, config.subintervals
    assert len(tr) == k * s
    pts = tr.points.reshape(k, s)
    rows = np.sort(pts, axis=1)
    # each phase is one offset mirrored at spacing delta_adv across subintervals
    gaps = np.diff(rows, axis=1)
    assert np.max(np.abs(gaps - config.delta_adv)) <= 1e-12
    assert np.all(rows[:, 0] >= 0.0) and np.all(rows[:, 0] < config.delta_adv + 1e-12)
    # every subinterval is queried exactly K times
    counts = np.bincount(tr.sub, minlength=s + 1)[1:]
    assert np.all(counts == k)
    # exactly one informative response per phase
    assert np.all(tr.informative.reshape(k, s).sum(axis=1) == 1)
    # the informative point lies in its own home subinterval
    inf_pts = tr.points[tr.informative]
    inf_sub = tr.sub[tr.informative]
    assert np.all(inf_sub == [subinterval_index(float(x), 0.1) for x in inf_pts])


def test_transcript_matches_per_call_reference() -> None:
    # K = 60 phases fill the C0=2 schedule (4 + 8 + 16 + 32) exactly
    config = ProtocolConfig(T=600, overrides={"C0": 2.0})
    f = make_uniformly_convex(2.0, 1.0, 0.42)
    tr = run_protocol(config, f, RngStream(5, (9,)))

    s_count, n = config.subintervals, config.phases
    rng = RngStream(5, (9,))
    init_gen = rng.child(0).generator()
    perm_gen = rng.child(1).generator()
    noise_gen = rng.child(2).generator()
    x_init = float(init_gen.uniform(0.0, 1.0))
    # one oracle response per phase, drawn as its own (value, gradient) pair
    noise = [float(noise_gen.normal(0.0, config.sigma, size=2)[1]) for _ in range(n)]
    schedule = epoch_schedule(config.kappa, config.lam, config.delta, config.W, n, config.overrides)
    assert sum(epoch_len for epoch_len, _, _ in schedule) == n
    xbars, fed, x_hat = epoch_gd_solve(schedule, x_init, noise, kappa=2.0, lam=1.0, x_star=0.42)
    pts = []
    for xb in xbars:
        order = np.argsort(perm_gen.random(s_count))
        j = subinterval_index(float(xb), config.delta_adv)
        off = xb - (j - 1) * config.delta_adv
        pts.extend(order * config.delta_adv + off)
    assert np.array_equal(tr.points, np.array(pts))
    assert tr.effective_gradients == fed == n
    assert tr.x_hat == x_hat


def test_exact_fit_budget_estimates_from_last_epoch() -> None:
    # C0=2 gives epochs of 4, 8, 16 and 32 steps, which fill T=60 exactly.  The
    # estimate must be the epoch-4 average, as at T=61, not the epoch-4 start
    # anchor that T=59 (three epochs) also returns.
    f = make_uniformly_convex(2.0, 1.0, 0.3)
    x_hat = {
        t: run_plain_convex(
            ProtocolConfig(T=t, sigma=0.0, overrides={"C0": 2.0}), f, RngStream(3, (1,))
        ).x_hat
        for t in (59, 60, 61)
    }
    assert x_hat[60] == x_hat[61]
    assert x_hat[60] != x_hat[59]


def test_run_is_deterministic_per_stream() -> None:
    a, b = _convex_run(seed=8), _convex_run(seed=8)
    c = _convex_run(seed=9)
    assert np.array_equal(a.points, b.points) and a.x_hat == b.x_hat
    assert not np.array_equal(a.points, c.points)


def test_transcript_round_trip() -> None:
    tr = _convex_run(t=800)
    back = Transcript.from_text(tr.to_text(public=False))
    assert np.array_equal(back.points, tr.points)
    assert np.array_equal(back.phase, tr.phase)
    assert np.array_equal(back.sub, tr.sub)
    assert np.array_equal(back.informative, tr.informative)
    assert back.config_hash == tr.config_hash and back.mode == tr.mode
    pub = Transcript.from_text(tr.to_text(public=True))
    assert np.array_equal(pub.points, tr.points)
    assert pub.informative.sum() == 0
    with pytest.raises(ParameterError):
        Transcript.from_text("not a transcript\n1,2,3\n")


# bytes per row of one block that writing or parsing may hold besides the
# columns: a line, its row record and their copies (about 290 and 240 measured)
_BLOCK_ROW_BYTES = 500


@pytest.fixture(scope="module")
def big_run() -> Transcript:
    """A factored transcript of 100,000 rows, whose four query arrays would
    take 25 bytes a row (2.5 MB); the tests that use it never build them."""
    return _convex_run(t=100_000)


@pytest.fixture
def one_block(monkeypatch) -> int:
    """Blocks of 2,048 rows, so that one block is small beside the columns of
    big_run and the traced runs stay short; returns the bytes one block may hold."""
    from secopt import protocol

    monkeypatch.setattr(protocol, "_TEXT_BLOCK_ROWS", 2048)
    return 2048 * _BLOCK_ROW_BYTES


def _traced_peak(fn) -> int:
    """Peak bytes that fn allocates and tracemalloc sees (numpy's included)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class _Discard:
    def write(self, text: str) -> None:
        pass


def test_from_text_peak_is_the_columns_plus_one_block(big_run, one_block, tmp_path) -> None:
    # parsing fills preallocated columns: it never holds a second copy of them
    path = tmp_path / "t.txt"
    for public in (False, True):
        with open(path, "w") as fh:
            big_run.write_text(fh, public=public)
        with open(path) as fh:
            peak = _traced_peak(lambda: Transcript.from_text(fh))
        assert peak <= 25 * len(big_run) + one_block, public


def test_write_text_peak_is_one_block(big_run, one_block) -> None:
    peak = _traced_peak(lambda: big_run.write_text(_Discard()))
    assert peak <= one_block < 25 * len(big_run)  # below the query arrays alone
    assert isinstance(big_run.public_view(), PublicView)  # they are still unbuilt


def _reference_to_text(tr: Transcript, public: bool) -> str:
    """Row-at-a-time formatter that Transcript.to_text must match byte for byte."""
    head = (
        f"# secopt-transcript version=2 config={tr.config_hash} mode={tr.mode} "
        f"public={int(public)} rows={len(tr)} s={tr.s_count}"
    )
    if tr.eps_adv is not None:
        head += f" eps_adv={tr.eps_adv!r}"
    lines = [head]
    for t in range(tr.points.size):
        row = f"{t + 1},{float(tr.points[t])!r},{tr.phase[t]},{tr.sub[t]}"
        lines.append(row if public else f"{row},{int(tr.informative[t])}")
    return "\n".join(lines) + "\n"


_POINTS = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 1e-05, 0.30000000000000004]),
    st.floats(min_value=0.0, max_value=1.0),
)
_ROWS = st.lists(
    st.tuples(_POINTS, st.integers(0, 2**62), st.integers(1, 2**62), st.booleans()),
    max_size=40,
)


@settings(max_examples=300, deadline=None, database=None)
@given(rows=_ROWS, public=st.booleans())
def test_text_round_trip_property(rows, public) -> None:
    points, phase, sub, informative = zip(*rows) if rows else ([],) * 4
    tr = Transcript(
        points=np.array(points, dtype=np.float64), phase=np.array(phase, dtype=np.int64),
        sub=np.array(sub, dtype=np.int64), informative=np.array(informative, dtype=bool),
        x_hat=math.nan, effective_gradients=0, config_hash="abc123", mode="Bisection",
        s_count=max(sub, default=0),
    )
    text = tr.to_text(public=public)
    assert text == _reference_to_text(tr, public)
    back = Transcript.from_text(text)
    for name in ("points", "phase", "sub"):
        assert getattr(back, name).dtype == getattr(tr, name).dtype
        assert np.array_equal(getattr(back, name), getattr(tr, name))
    assert back.informative.dtype == np.bool_
    expected_inf = np.zeros(len(tr), dtype=bool) if public else tr.informative
    assert np.array_equal(back.informative, expected_inf)
    assert back.effective_gradients == int(expected_inf.sum())
    assert back.s_count == (max(sub) if rows else 0)
    assert (back.config_hash, back.mode) == ("abc123", "Bisection")


def _messy(text: str) -> str:
    """text with blank and whitespace-only lines around every row, CRLF endings."""
    head, *rows = text.splitlines()
    return "\n \n" + head + "\r\n\t\r\n" + "\r\n  \r\n".join(rows) + "\r\n\r\n"


def test_from_text_skips_blank_lines_and_crlf() -> None:
    tr = _convex_run(t=800)
    clean = Transcript.from_text(tr.to_text())
    back = Transcript.from_text(_messy(tr.to_text()))
    for name in ("points", "phase", "sub", "informative"):
        assert np.array_equal(getattr(back, name), getattr(clean, name))
    assert back.s_count == clean.s_count == 10


_HEADER_ONLY = [
    f"\n# secopt-transcript config=abc mode=Bisection public={public}\n  \n"
    for public in (0, 1)
]


def test_from_text_header_only_gives_empty_transcript() -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in _HEADER_ONLY:
            tr = Transcript.from_text(text)
            assert len(tr) == 0 and tr.s_count == 0 and tr.effective_gradients == 0
            assert (tr.points.dtype, tr.phase.dtype, tr.sub.dtype, tr.informative.dtype) == (
                np.float64, np.int64, np.int64, np.bool_,
            )


_PRIVATE = "# secopt-transcript config=abc mode=Bisection public=0\n"
_PUBLIC = "# secopt-transcript config=abc mode=Bisection public=1\n"
_MALFORMED_ROWS = [
    _PRIVATE + "1,abc,1,1,0\n",  # non-numeric point
    _PRIVATE + "1,0.5,1,1,0\n2,0.5,x,1,0\n",  # non-numeric phase in a later row
    _PRIVATE + "z,0.5,1,1,0\n",  # non-numeric index
    _PRIVATE + "1,0.5,1.5,1,0\n",  # fractional phase
    _PRIVATE + "1,0.5,1,1\n",  # too few columns
    _PRIVATE + "1,0.5,1,1,0\n2,0.5,1\n",
    _PRIVATE + "1,0.5,1,1,0,7\n",  # too many columns
    _PRIVATE + "1,0.5,1,1,0,\n",
    _PUBLIC + "1,0.5,1,1,0\n",  # private row under a public header
    "# secopt-transcript config=abc stray\n",  # header token without '='
    _PRIVATE + "1,0.5,1,1,0\x0c2,0.25,1,3,1\n",  # a form feed is no line break
    _PRIVATE + "1,0.5,1,1,0\u20282,0.25,1,3,1\n",
]
_BAD_INDEX_FLAGS_AND_HEADER = [
    _PRIVATE + "7,0.5,1,1,2\n7,0.25,1,3,-1\n",  # index not 1..n, flags not 0/1
    _PRIVATE + "1,0.5,1,1,0\n1,0.25,1,3,1\n",  # repeated index
    _PRIVATE + "2,0.5,1,1,0\n1,0.25,1,3,1\n",  # rows out of order
    _PRIVATE + "0,0.5,1,1,0\n",
    _PUBLIC + "1,0.5,1,1\n3,0.25,1,3\n",  # gap in a public file
    _PRIVATE + "1,0.5,1,1,2\n",  # informative flag 2
    _PRIVATE + "1,0.5,1,1,-1\n",
    "# secopt-transcript config=abc mode=Bisection public=yes\n1,0.5,1,1,0\n",
    "# secopt-transcript config=abc mode=Bisection public=\n",
    "# secopt-transcript config=abc mode=Bisection public=1 bogus=1\n",
    "# secopt-transcript config=abc mode=Bisection public=0 public=1\n",  # repeated key
    "",  # no header line
    " \n\t\n",
    "not a transcript\n1,2,3\n",
]


def test_from_text_rejects_malformed_rows() -> None:
    for text in _MALFORMED_ROWS:
        with pytest.raises(ParameterError):
            Transcript.from_text(text)


def test_from_text_rejects_bad_index_flags_and_header() -> None:
    for text in _BAD_INDEX_FLAGS_AND_HEADER:
        with pytest.raises(ParameterError):
            Transcript.from_text(text)
    ok = Transcript.from_text(_PRIVATE + "1,0.5,1,1,0\n2,0.25,1,3,1\n")
    assert ok.informative.tolist() == [False, True] and ok.effective_gradients == 1


def _parse_outcome(source) -> tuple:
    """The parsed arrays and header fields, or the ParameterError message."""
    try:
        tr = Transcript.from_text(source)
    except ParameterError as exc:
        return ("error", str(exc))
    arrays = tuple(
        (getattr(tr, name).dtype.str, getattr(tr, name).tobytes())
        for name in ("points", "phase", "sub", "informative")
    )
    return arrays, tr.config_hash, tr.mode, tr.s_count, tr.effective_gradients


def test_from_text_parses_a_file_like_the_str(tmp_path) -> None:
    ok = _PRIVATE + "1,0.5,1,1,0\n2,0.25,1,3,1\n"
    good = [_convex_run(t=800).to_text(public=public) for public in (False, True)]
    cases = [
        *good, *(_messy(text) for text in good), _messy(ok), ok, *_HEADER_ONLY,
        *_MALFORMED_ROWS, *_BAD_INDEX_FLAGS_AND_HEADER,
    ]
    path = tmp_path / "t.txt"
    for text in cases:
        path.write_bytes(text.encode())
        with open(path) as fh:  # read as adversary-eval reads it
            from_file = _parse_outcome(fh)
        assert from_file == _parse_outcome(text), text[:80]
    assert sum(_parse_outcome(text)[0] == "error" for text in cases) == (
        len(_MALFORMED_ROWS) + len(_BAD_INDEX_FLAGS_AND_HEADER)
    )


def _legacy(text: str) -> str:
    """text under a version 1 header: config, mode and public only."""
    head, _, rows = text.partition("\n")
    kept = [tok for tok in head.split()[2:] if tok.split("=")[0] in ("config", "mode", "public")]
    return " ".join(["# secopt-transcript", *kept]) + "\n" + rows


def test_header_carries_s_and_eps_adv() -> None:
    config = ProtocolConfig(T=200, eps_adv=0.03)
    plain = run_plain_convex(config, make_uniformly_convex(2.0, 1.0, 0.3), RngStream(3, ()))
    assert plain.sub.max() == 6 < config.subintervals  # S cannot be read off the rows
    back = Transcript.from_text(plain.to_text())
    assert (back.s_count, back.eps_adv) == (config.subintervals, 0.03)
    old = Transcript.from_text(_legacy(plain.to_text()))
    assert (old.s_count, old.eps_adv) == (6, None)
    assert old.points.tobytes() == back.points.tobytes() == plain.points.tobytes()


def test_from_text_without_a_row_count_grows_in_blocks(one_block) -> None:
    tr = _convex_run(t=6000)  # three blocks of 2,048 rows
    for public in (False, True):
        text = tr.to_text(public=public)
        no_count = text.replace(f" rows={len(tr)}", "", 1)
        assert no_count != text
        for source in (no_count, _legacy(text)):
            assert _parse_outcome(source)[0] == _parse_outcome(text)[0]  # the four arrays
        assert Transcript.from_text(_legacy(text)).s_count == 10  # the largest sub code


_V2 = "# secopt-transcript version=2 config=abc mode=Bisection public=0"
_BAD_V2 = [
    _V2 + " rows=3\n1,0.5,1,1,0\n2,0.25,1,3,1\n",  # fewer rows than the header says
    _V2 + " rows=1\n1,0.5,1,1,0\n2,0.25,1,3,1\n",  # more rows
    _V2 + " rows=2 s=2\n1,0.5,1,1,0\n2,0.25,1,3,1\n",  # sub 3 outside 1..s
    _V2 + " s=10\n1,0.5,1,0,0\n",  # sub 0
    _V2.replace("version=2", "version=3") + "\n",
    *(_V2 + f" rows={value}\n" for value in ("-1", "1.5", "", "+0", "x")),
    _V2 + " s=ten\n",
    _V2 + f" rows={10**15}\n",  # columns no address space holds: refused at once
    *(_V2 + f" eps_adv={value}\n" for value in ("0", "-0.1", "nan", "inf", "abc", "")),
]


def test_from_text_checks_the_version_2_fields(tmp_path) -> None:
    path = tmp_path / "t.txt"
    for text in _BAD_V2:
        path.write_bytes(text.encode())
        with open(path) as fh:
            assert _parse_outcome(fh)[0] == _parse_outcome(text)[0] == "error", text
    ok = Transcript.from_text(_V2 + " rows=2 s=3 eps_adv=0.025\n1,0.5,1,1,0\n2,0.25,1,3,1\n")
    assert (len(ok), ok.s_count, ok.eps_adv) == (2, 3, 0.025)


class _WriteRecorder:
    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> None:
        self.writes.append(text)


def test_write_text_streams_in_blocks_of_rows() -> None:
    from secopt import protocol

    block = protocol._TEXT_BLOCK_ROWS
    tr = _convex_run(t=2 * block + 5000)  # two full blocks and a partial one
    assert len(tr) > 2 * block
    for public in (False, True):
        sink = _WriteRecorder()
        tr.write_text(sink, public=public)
        assert len(sink.writes) == 1 + math.ceil(len(tr) / block)
        assert max(text.count("\n") for text in sink.writes) == block
        text = "".join(sink.writes)
        assert text == tr.to_text(public=public) == _reference_to_text(tr, public)


def test_public_view_is_read_only() -> None:
    tr = _convex_run(t=800)
    pub = tr.public_view()  # rebuilt row by row: no item assignment, no array
    with pytest.raises(TypeError):
        pub[0] = -99.0
    with pytest.raises(TypeError):
        np.asarray(pub)
    parsed = Transcript.from_text(tr.to_text())
    assert tr.points.size == len(tr)  # builds the arrays; write_text does not
    plain = run_plain_convex(ProtocolConfig(T=200), make_uniformly_convex(2.0, 1.0, 0.3),
                             RngStream(2, ()))
    for source in (tr, parsed, plain):  # arrays built, parsed or given: a view, not a copy
        pub = source.public_view()
        assert np.shares_memory(pub, source.points)
        with pytest.raises(ValueError):
            pub[0] = -99.0
        assert source.points[0] != -99.0
    text = tr.to_text(public=True)
    assert "informative" not in text
    assert all(line.count(",") == 3 for line in text.splitlines()[1:])


def _eager_replicated_transcript(config, orders, offsets, homes):
    """The query arrays as a replicated run built them before the transcript
    stored only what defines them: from the full (K, S) order matrix."""
    s_count = config.subintervals
    return {
        "points": (orders * config.cell_width + offsets[:, None]).ravel(),
        "phase": np.repeat(np.arange(1, len(offsets) + 1, dtype=np.int64), s_count),
        "sub": (orders + 1).astype(np.int64).ravel(),
        "informative": (orders == (homes - 1)[:, None]).ravel(),
    }


@settings(max_examples=60, deadline=None, database=None)
@given(
    mode=st.sampled_from(MODES),
    t=st.integers(0, 2000),
    delta_adv=st.one_of(st.sampled_from([0.1, 0.3, 0.07]), st.floats(0.02, 0.49)),
    seed=st.integers(0, 2**32 - 1),
    x_star=st.floats(0.0, 1.0),
)
def test_factored_transcript_matches_eager_reference(mode, t, delta_adv, seed, x_star) -> None:
    config = ProtocolConfig(
        mode=mode, delta_adv=delta_adv, eps_adv=delta_adv / 4, eps=delta_adv / 8,
        x_star=x_star, overrides={"C0": 2.0},
    )
    s = config.subintervals
    config = config.with_updates(T=t + s)
    f = make_uniformly_convex(2.0, 1.0, x_star) if mode == "ConvexEpochGD" else make_abs(x_star)
    tr = run_protocol(config, f, RngStream(seed, ()))
    k = tr.offsets.size
    assert len(tr) == k * s
    pub = tr.public_view()  # taken before the arrays are built
    orders = np.argsort(RngStream(seed, (1,)).generator().random((k, s)), axis=1)
    homes = np.broadcast_to(tr.homes, (k,))
    expected = _eager_replicated_transcript(config, orders, tr.offsets, homes)
    for name, want in expected.items():
        got = getattr(tr, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert len(pub) == len(tr)
    one_by_one = np.array([pub[i] for i in range(len(pub))])
    assert one_by_one.tobytes() == tr.points.tobytes()
    assert pub[-s:].tobytes() == tr.points[-s:].tobytes()
    assert pub[-1] == tr.points[-1] and pub[np.int64(k * s - s)] == tr.points[k * s - s]
    with pytest.raises(IndexError):
        pub[k * s]


def test_write_text_never_builds_the_query_arrays(monkeypatch) -> None:
    from secopt import protocol

    draws = []
    block_draw = protocol._draw_sub_orders

    def counting_draw(gen, n_phases, s_count):
        draws.append(n_phases)
        return block_draw(gen, n_phases, s_count)

    monkeypatch.setattr(protocol, "_draw_sub_orders", counting_draw)
    block = protocol._TEXT_BLOCK_ROWS
    config = ProtocolConfig(T=3 * block + 5000, overrides={"C0": 2.0})
    tr = _convex_run(t=config.T)
    k, s = config.phases, config.subintervals
    assert block % s and len(tr) > 3 * block  # blocks end inside phases
    orders = np.argsort(tr.order_stream.generator().random((k, s)), axis=1)
    eager = Transcript(
        **_eager_replicated_transcript(config, orders, tr.offsets, tr.homes),
        x_hat=tr.x_hat, effective_gradients=tr.effective_gradients,
        config_hash=tr.config_hash, mode=tr.mode, s_count=s, eps_adv=tr.eps_adv,
    )
    for public in (False, True):
        draws.clear()
        sink = _WriteRecorder()
        tr.write_text(sink, public=public)
        # one draw per block, of the phases it starts: every phase once
        assert len(draws) == math.ceil(len(tr) / block) and sum(draws) == k
        assert isinstance(tr.public_view(), PublicView)  # no K*S array was built
        assert "".join(sink.writes) == eager.to_text(public=public)
        assert tr.to_text(public=public) == _reference_to_text(eager, public)
    draws.clear()
    assert tr.points.tobytes() == eager.points.tobytes()  # built from the same blocks
    assert tr.to_text() == eager.to_text() and sum(draws) == k  # then cached


def _run_in(mode: str, t: int, delta_adv: float, seed: int, x_star: float = 0.37) -> Transcript:
    """A run in any mode, at T = t + S so that at least one phase fits."""
    config = ProtocolConfig(
        mode=mode, delta_adv=delta_adv, eps_adv=delta_adv / 4, eps=delta_adv / 8,
        x_star=x_star, overrides={"C0": 2.0},
    )
    config = config.with_updates(T=t + config.subintervals)
    f = make_uniformly_convex(2.0, 1.0, x_star) if mode == "ConvexEpochGD" else make_abs(x_star)
    return run_protocol(config, f, RngStream(seed, ()))


@settings(
    max_examples=40, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    mode=st.sampled_from(MODES),
    t=st.integers(0, 3000),
    delta_adv=st.one_of(st.sampled_from([0.1, 0.3, 0.07]), st.floats(0.02, 0.49)),
    public=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# S = 10 does not divide the 16,384-row block: four blocks, three of them end inside a phase
@example(mode="ConvexEpochGD", t=65_526, delta_adv=0.1, public=False, seed=5)
def test_whole_run_text_round_trip(tmp_path, mode, t, delta_adv, public, seed) -> None:
    tr = _run_in(mode, t, delta_adv, seed)
    sink = io.StringIO()
    tr.write_text(sink, public=public)  # streamed from the factored transcript
    text = sink.getvalue()
    assert text == _reference_to_text(tr, public)
    path = tmp_path / "t.txt"
    path.write_bytes(text.encode())
    with open(path) as fh:
        parsed = [Transcript.from_text(text), Transcript.from_text(fh)]
    for back in parsed:
        for name in ("points", "phase", "sub", "informative"):
            want = getattr(tr, name)
            if public and name == "informative":
                want = np.zeros(len(tr), dtype=bool)
            got = getattr(back, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert (back.s_count, back.eps_adv) == (tr.s_count, delta_adv / 4)
        assert (back.config_hash, back.mode) == (tr.config_hash, tr.mode)


def test_bisection_exact_query_counts() -> None:
    for delta_adv, eps, expected_b in ((0.1, 1e-4, 10), (0.05, 1e-4, 9)):
        config = ProtocolConfig(
            T=20000, mode="Bisection", delta_adv=delta_adv,
            eps_adv=delta_adv / 4, eps=eps, sigma=0.0, x_star=0.4321,
        )
        tr = run_protocol(config, make_abs(0.4321), RngStream(2, (0,)))
        s = config.subintervals
        assert expected_b == math.ceil(math.log2(delta_adv / eps))
        assert len(tr) == s * expected_b
        assert abs(tr.x_hat - 0.4321) <= eps
        counts = np.bincount(tr.sub, minlength=s + 1)[1:]
        assert np.all(counts == expected_b)


def test_bisection_interval_width_halves() -> None:
    config = ProtocolConfig(T=40, mode="Bisection", eps=1e-6, sigma=0.0, x_star=0.73)
    tr = run_protocol(config, make_abs(0.73), RngStream(4, (0,)))
    # only K=4 phases fit the budget: width 0.1 / 2^4, estimate inside it
    assert len(tr) == 40
    assert abs(tr.x_hat - 0.73) <= 0.1 / 2**4


@settings(max_examples=150, deadline=None, database=None)
@given(
    mode=st.sampled_from(["ConvexEpochGD", "Bisection", "NoisyBisection"]),
    delta_adv=st.one_of(st.sampled_from([0.1, 0.3, 0.15, 0.07]), st.floats(0.02, 0.49)),
    t=st.integers(1, 3000),
    x_star=st.one_of(st.sampled_from([0.0, 0.95, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_mirrored_copies_tile_the_unit_interval(mode, delta_adv, t, x_star, seed) -> None:
    # with S cells of width 1/S no proposal falls in an unmirrored remainder
    # of [0, 1], which would shift every copy one cell up and expose it
    config = ProtocolConfig(
        T=t, mode=mode, delta_adv=delta_adv, eps_adv=delta_adv / 4, eps=delta_adv / 8,
        x_star=x_star, overrides={"C0": 2.0},
    )
    s = config.subintervals
    config = config.with_updates(T=t + s)
    width = 1.0 / s
    f = make_uniformly_convex(2.0, 1.0, x_star) if mode == "ConvexEpochGD" else make_abs(x_star)
    tr = run_protocol(config, f, RngStream(seed, ()))
    k = len(tr) // s
    assert len(tr) == k * s and k >= 1
    rows = np.sort(tr.points.reshape(k, s), axis=1)
    assert np.max(np.abs(np.diff(rows, axis=1) - width)) <= 1e-12
    assert np.all(rows[:, 0] < width + 1e-12)
    assert np.all(tr.informative.reshape(k, s).sum(axis=1) == 1)
    inf_pts = tr.points[tr.informative]
    assert np.all(tr.sub[tr.informative] == [subinterval_index(x, delta_adv) for x in inf_pts])


@settings(max_examples=300, deadline=None, database=None)
@given(
    delta_adv=st.floats(0.02, 0.49),
    eps_fraction=st.floats(1e-4, 1.0, exclude_max=True),
    x_star=st.floats(0.0, 1.0),
    extra_budget=st.integers(0, 200),
)
# a rounded hi - lo once cost these an extra halving: 40 queries, not 20 or 30
@example(delta_adv=0.05, eps_fraction=0.5, x_star=0.075, extra_budget=40)
@example(delta_adv=0.1, eps_fraction=0.125, x_star=0.35, extra_budget=40)
@example(delta_adv=0.1, eps_fraction=0.9999999999999999, x_star=0.35, extra_budget=0)
def test_exact_bisection_count_is_s_times_halvings(
    delta_adv, eps_fraction, x_star, extra_budget
) -> None:
    s = math.floor(1.0 / delta_adv)
    eps = eps_fraction * min(delta_adv, 1.0 / s)
    # smallest k with 2^k >= width/eps, in exact rational arithmetic
    k = (math.ceil(Fraction(1.0 / s) / Fraction(eps)) - 1).bit_length()
    config = ProtocolConfig(
        T=s * k + extra_budget, mode="Bisection", delta_adv=delta_adv,
        eps_adv=delta_adv / 4, eps=eps, x_star=x_star,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 2*eps > eps_adv only weakens secrecy
        config.validate()
        tr = run_protocol(config, make_abs(x_star), RngStream(0, ()))
    assert len(tr) == s * k
    assert abs(tr.x_hat - x_star) <= eps


def test_majority_repetitions_sizing() -> None:
    m = majority_repetitions(0.75, 1e-3, 0.05, 0.1)
    assert m % 2 == 1
    # the union bound covers the 7 decisions the bisection makes: 0.1 / 2^7 <= 1e-3
    halvings = math.ceil(math.log2(0.1 / 1e-3))
    assert halvings == 7
    raw = math.ceil(math.log(2.0 * halvings / 0.05) / (2.0 * 0.25**2))
    assert m in (raw, raw + 1)
    assert m == 47
    assert majority_repetitions(0.9, 1e-3, 0.05, 0.1) < m  # easier oracle, fewer votes
    with pytest.raises(ParameterError):
        majority_repetitions(0.5, 1e-3, 0.05, 0.1)


def test_noisy_bisection_accuracy() -> None:
    config = ProtocolConfig(T=20000, mode="NoisyBisection", p=0.75, eps=1e-3)
    gen = RngStream(600, ()).generator()
    hits = 0
    for trial in range(50):
        x_star = float(gen.uniform(0.05, 0.95))
        tr = run_protocol(
            config.with_updates(x_star=x_star), make_abs(x_star),
            RngStream(601, (trial,)),
        )
        hits += abs(tr.x_hat - x_star) <= config.eps
    assert hits >= 46  # designed failure rate is well under delta = 0.05


def test_plain_control_leaks_every_query() -> None:
    config = ProtocolConfig(T=2000)
    f = make_uniformly_convex(2.0, 1.0, 0.42)
    tr = run_plain_convex(config, f, RngStream(21, (0,)))
    assert len(tr) == 2000
    assert tr.mode == "PlainEpochGD"
    assert tr.informative.all()


def test_mode_mismatch_rejected() -> None:
    # the config defines the objective; an f that disagrees with it must not run
    rng = RngStream(1, (0,))
    convex = ProtocolConfig(T=2000)
    bisection = ProtocolConfig(T=2000, mode="Bisection")
    # kappa and lam: the schedule would use the config's, the gradient f's
    with pytest.raises(ParameterError, match="not the ConvexEpochGD objective"):
        run_protocol(convex, make_uniformly_convex(3.0, 5.0, 0.4), rng)
    # a hard-pair member with the config's kappa, lam and domain is not the bowl
    pair = make_hard_pair(c0=0.5, c1=0.2, c2=0.001, eps=0.05, center=0.5, domain=(0.0, 1.0))
    member = pair.f1
    assert (member.kappa, member.lam, member.domain) == (2.0, 1.0, (0.0, 1.0))
    assert member.f_star > 0.0
    for run in (run_protocol, run_plain_convex):
        with pytest.raises(ParameterError, match="objective"):
            run(convex, member, rng)
    # a config.x_star that f does not share
    with pytest.raises(ParameterError, match="objective"):
        run_protocol(convex.with_updates(x_star=0.3), make_uniformly_convex(2.0, 1.0, 0.5), rng)
    with pytest.raises(ParameterError, match="objective"):
        run_protocol(bisection.with_updates(x_star=0.3), make_abs(0.5), rng)
    # the plain control runs the uniformly convex objective only
    for f in (make_uniformly_convex(2.0, 1.0, 0.5), make_abs(0.5)):
        with pytest.raises(ParameterError, match="ConvexEpochGD mode"):
            run_plain_convex(bisection, f, rng)
    # one mode's objective under the other mode
    with pytest.raises(ParameterError, match="not the Bisection objective"):
        run_protocol(bisection, make_uniformly_convex(2.0, 1.0, 0.5), rng)
    for run in (run_protocol, run_plain_convex):
        with pytest.raises(ParameterError, match="not the ConvexEpochGD objective"):
            run(convex, make_abs(0.5), rng)
    # the matching objective runs, with an int kappa and lam as the CLI parses them
    cli_config = ProtocolConfig(T=2000, kappa=2, lam=1, x_star=0.5)
    assert run_protocol(cli_config, make_uniformly_convex(2.0, 1.0, 0.5), rng).x_hat >= 0.0


def _cli_number(draw, low: float, high: float) -> str:
    """A --key=value number in [low, high] as a user types it: an int, which
    the CLI parses to int, or a float repr, which it parses to float."""
    return draw(st.one_of(
        st.integers(math.ceil(low), math.floor(high)).map(str),
        st.floats(low, high).map(repr),
    ))


@st.composite
def _accepted_cli_configs(draw) -> ProtocolConfig:
    delta_adv = draw(st.floats(0.02, 0.49))
    s_count = math.floor(1.0 / delta_adv)
    tokens = [
        f"--mode={draw(st.sampled_from(MODES))}",
        f"--T={draw(st.integers(s_count, 5000))}",
        f"--delta_adv={delta_adv!r}",
        f"--eps_adv={delta_adv * draw(st.floats(0.01, 0.49))!r}",
        f"--eps={min(delta_adv, 1.0 / s_count) * draw(st.floats(1e-4, 0.99))!r}",
        f"--delta={draw(st.floats(0.001, 0.5))!r}",
        f"--kappa={_cli_number(draw, 2, 50)}",
        f"--lam={_cli_number(draw, 1e-3, 1e3)}",
        f"--W={_cli_number(draw, 1e-3, 1e3)}",
        f"--sigma={_cli_number(draw, 0, 1)}",
        f"--p={draw(st.floats(0.55, 0.95))!r}",
    ]
    x_star = draw(st.one_of(st.none(), st.floats(0.0, 1.0)))
    if x_star is not None:
        tokens.append(f"--x_star={x_star!r}")
    c0 = draw(st.one_of(st.none(), st.sampled_from([2, 2.5, 40])))
    if c0 is not None:
        tokens.append(f"--overrides.C0={c0}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 2*eps > eps_adv only weakens secrecy
        return load_config(None, tokens)


@settings(max_examples=150, deadline=None, database=None)
@given(config=_accepted_cli_configs(), x=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_accepted_configs_run_in_every_mode(config, x, seed) -> None:
    x_star = x if config.x_star is None else config.x_star
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tr = run_protocol(config, instance_for_trial(config, x_star), RngStream(seed, (0,)))
    s = config.subintervals
    assert 0 < len(tr) <= config.T and len(tr) % s == 0
    assert 0.0 <= tr.x_hat <= 1.0
    assert tr.config_hash == config.config_hash() and tr.mode == config.mode


def test_export_transcript_matches_the_perfbench_round_trip_call(tmp_path) -> None:
    # the call shape of the benchmark's transcript_replay check: a trial-0
    # stream and the instance instance_for_trial builds for the config's x*
    path = tmp_path / "t.txt"
    argv = ["export-transcript", "--seed", "3", "--trial", "0", "--T=20000", "--x_star=0.4"]
    assert cli_main([*argv, "--out", str(path)]) == 0
    config = load_config(None, ["--T=20000", "--x_star=0.4"])
    original = run_protocol(
        config, instance_for_trial(config, 0.4), RngStream(3, (0,)).child(0)
    )
    with open(path) as fh:
        parsed = Transcript.from_text(fh)
    for name in ("points", "phase", "sub", "informative"):
        want, got = getattr(original, name), getattr(parsed, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
