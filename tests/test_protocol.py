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

from secopt.cli import load_config
from secopt.cli import main as cli_main
from secopt.epoch_gd import epoch_gd_solve, epoch_schedule
from secopt.errors import BudgetError, DomainError, ParameterError
from secopt.functions import make_abs, make_hard_pair, make_uniformly_convex
from secopt.harness import instance_for_trial
from secopt.oracles import RngStream
from secopt.protocol import (
    MODES,
    ProtocolConfig,
    PublicView,
    Transcript,
    majority_repetitions,
    run_plain_convex,
    run_protocol,
    subinterval_index,
)


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


# bytes per query of one block that writing or parsing may hold besides the
# columns: phase lines, their row records, the expanded block and their copies
# (about 55 and 60 measured; 290 and 240 when each query had its own line)
_BLOCK_ROW_BYTES = 150


@pytest.fixture(scope="module")
def big_run() -> Transcript:
    """A factored transcript of 100,000 queries, whose four query arrays would
    take 25 bytes a query (2.5 MB); the tests that use it never build them."""
    return _convex_run(t=100_000)


@pytest.fixture
def one_block(monkeypatch) -> int:
    """Blocks of about 2,048 queries, so that one block is small beside the
    columns of big_run and the traced runs stay short; returns the bytes one
    block may hold."""
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


def _reference_to_text(tr: Transcript, public: bool, sub: np.ndarray | None = None) -> str:
    """Phase-at-a-time formatter that Transcript.to_text must match byte for
    byte, from the run's query cells: tr.sub unless sub is given."""
    k, s = tr.offsets.size, tr.s_count
    cells = (tr.sub if sub is None else sub).reshape(k, s)
    homes = np.broadcast_to(tr.homes, (k,))
    config = "" if public else f" config={tr.config_hash}"
    lines = [
        f"# secopt-transcript version=3{config} mode={tr.mode} public={int(public)} "
        f"phases={k} s={s} eps_adv={float(tr.eps_adv)!r}"
    ]
    for i in range(k):
        row = f"{i + 1},{float(tr.offsets[i])!r}," + ",".join(str(c) for c in cells[i])
        lines.append(row if public else f"{row},{homes[i]}")
    return "\n".join(lines) + "\n"


_OFFSETS = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 1e-05, 0.30000000000000004]),
    st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=300, deadline=None, database=None)
@given(
    offsets=st.lists(_OFFSETS, max_size=40), s=st.integers(1, 12), public=st.booleans(),
    seed=st.integers(0, 2**32 - 1), data=st.data(),
)
def test_text_round_trip_property(offsets, s, public, seed, data) -> None:
    # any offsets, S and homes: one home per phase, or one for the whole run
    homes = data.draw(st.one_of(
        st.integers(1, s),
        st.lists(st.integers(1, s), min_size=len(offsets), max_size=len(offsets)),
    ))
    tr = Transcript(
        offsets=np.array(offsets, dtype=np.float64), homes=np.array(homes, dtype=np.int64),
        cell_width=1.0 / s, order_stream=RngStream(seed, ()), x_hat=math.nan,
        effective_gradients=0, config_hash="abc123", mode="Bisection", s_count=s,
        eps_adv=0.04,
    )
    text = tr.to_text(public=public)
    assert text == _reference_to_text(tr, public)
    back = Transcript.from_text(text)
    for name in ("points", "phase", "sub"):
        assert getattr(back, name).dtype == getattr(tr, name).dtype
        assert getattr(back, name).tobytes() == getattr(tr, name).tobytes()
    # query (k-1)*S + j is the point (c_j - 1) * (1.0 / s) + offset_k
    decoded = (back.sub - 1) * (1.0 / s) + np.repeat(tr.offsets, s)
    assert back.points.tobytes() == decoded.tobytes()
    assert back.informative.dtype == np.bool_
    expected_inf = np.zeros(len(tr), dtype=bool) if public else tr.informative
    assert np.array_equal(back.informative, expected_inf)
    assert back.effective_gradients == int(expected_inf.sum()) == (0 if public else len(offsets))
    assert (back.s_count, back.eps_adv, back.mode) == (s, 0.04, "Bisection")
    assert back.config_hash == ("" if public else "abc123")


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


_HEAD = "# secopt-transcript version=3{} mode=Bisection public={} phases={} s={} eps_adv=0.04\n"
_HEADER_ONLY = [f"\n{_HEAD.format('', public, 0, 10)}  \n" for public in (0, 1)]


def test_from_text_header_only_gives_empty_transcript() -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in _HEADER_ONLY:
            tr = Transcript.from_text(text)
            assert len(tr) == 0 and tr.s_count == 10 and tr.effective_gradients == 0
            assert (tr.points.dtype, tr.phase.dtype, tr.sub.dtype, tr.informative.dtype) == (
                np.float64, np.int64, np.int64, np.bool_,
            )


# two phases at S = 3: phase, offset, three cells and, in a private file, the home
_PRIVATE = _HEAD.format(" config=abc", 0, 2, 3)
_PUBLIC = _HEAD.format("", 1, 2, 3)
_OK = _PRIVATE + "1,0.25,3,1,2,1\n2,0.125,2,3,1,2\n"
_MALFORMED_ROWS = [
    _PRIVATE + "1,abc,3,1,2,1\n2,0.125,2,3,1,2\n",  # non-numeric offset
    _PRIVATE + "1,0.25,3,1,2,1\n2,0.125,x,3,1,2\n",  # non-numeric cell in a later row
    _PRIVATE + "z,0.25,3,1,2,1\n2,0.125,2,3,1,2\n",  # non-numeric phase
    _PRIVATE + "1,0.25,3,1.5,2,1\n2,0.125,2,3,1,2\n",  # fractional cell
    _PRIVATE + "1,0.25,3,1,2\n2,0.125,2,3,1\n",  # public rows under a private header
    _PRIVATE + "1,0.25,3,1,2,1\n2,0.125,2,3\n",  # too few columns
    _PRIVATE + "1,0.25,3,1,2,1,7\n2,0.125,2,3,1,2\n",  # too many columns
    _PRIVATE + "1,0.25,3,1,2,1,\n2,0.125,2,3,1,2\n",
    _PUBLIC + "1,0.25,3,1,2,1\n2,0.125,2,3,1,2\n",  # private rows under a public header
    "# secopt-transcript version=3 config=abc stray\n",  # header token without '='
    _PRIVATE + "1,0.25,3,1,2,1\x0c2,0.125,2,3,1,2\n",  # a form feed is no line break
    _PRIVATE + "1,0.25,3,1,2,1\u20282,0.125,2,3,1,2\n",
    # non-finite offsets: they once parsed into NaN and infinite query points
    *(_PRIVATE + f"1,{value},3,1,2,1\n2,0.125,2,3,1,2\n" for value in ("nan", "1e999", "-inf")),
]
_BAD_PHASES_CELLS_AND_HEADER = [
    _PRIVATE + "7,0.25,3,1,2,1\n7,0.125,2,3,1,2\n",  # phases not numbered 1..K
    _PRIVATE + "1,0.25,3,1,2,1\n1,0.125,2,3,1,2\n",  # repeated phase
    _PRIVATE + "2,0.25,3,1,2,1\n1,0.125,2,3,1,2\n",  # phases out of order
    _PRIVATE + "0,0.25,3,1,2,1\n1,0.125,2,3,1,2\n",
    _PUBLIC + "1,0.25,3,1,2\n3,0.125,2,3,1\n",  # gap in a public file
    _PRIVATE + "1,0.25,3,1,1,1\n2,0.125,2,3,1,2\n",  # cells not a permutation: 1 twice
    _PRIVATE + "1,0.25,3,1,4,1\n2,0.125,2,3,1,2\n",  # cell 4 outside 1..s
    _PRIVATE + "1,0.25,3,1,2,1\n2,0.125,0,3,1,2\n",  # cell 0
    _PUBLIC + "1,0.25,3,3,3\n2,0.125,2,3,1\n",
    _PRIVATE + "1,0.25,3,1,2,4\n2,0.125,2,3,1,2\n",  # home 4 outside 1..s
    _PRIVATE + "1,0.25,3,1,2,1\n2,0.125,2,3,1,0\n",  # home 0
    _PRIVATE + "1,0.25,3,1,2,-1\n2,0.125,2,3,1,2\n",
    _PRIVATE + "1,0.25,3,1,2,1\n",  # fewer phases than the header's phases=2
    _OK + "3,0.5,1,2,3,1\n",  # more phases
    _PUBLIC.replace("public=1", "public=yes") + "1,0.25,3,1,2\n2,0.125,2,3,1\n",
    _PUBLIC.replace("public=1", "public="),
    _PRIVATE.replace("public=0", "public=0 bogus=1"),
    _PRIVATE.replace("public=0", "public=0 public=1"),  # repeated key
    "",  # no header line
    " \n\t\n",
    "not a transcript\n1,2,3\n",
    "# secopt-transcriptX version=3 mode=Bisection public=1 phases=0 s=3 eps_adv=0.04\n",
]
# versions 1 and 2 wrote one row per query; a seeded export-transcript writes
# version 3 from the same run
_OLD_VERSIONS = {
    "version 1": "# secopt-transcript config=abc mode=Bisection public=0\n"
                 "1,0.5,1,1,0\n2,0.25,1,3,1\n",
    "version 2": "# secopt-transcript version=2 config=54cbaadfb36a mode=ConvexEpochGD public=0 "
                 "rows=3 s=10 eps_adv=0.04\n1,0.8072433822262511,1,9,0\n"
                 "2,0.9072433822262511,1,10,0\n3,0.2072433822262511,1,3,0\n",
    "public version 1": "# secopt-transcript config=abc mode=Bisection public=1\n",
    "public version 2": "# secopt-transcript version=2 config=abc mode=Bisection public=1 "
                        "rows=0 s=3\n",
}


def test_from_text_rejects_malformed_rows() -> None:
    for text in _MALFORMED_ROWS:
        with pytest.raises(ParameterError):
            Transcript.from_text(text)


def test_from_text_rejects_bad_index_flags_and_header() -> None:
    # phase numbering, cell permutations, home range, phase count and header
    for text in _BAD_PHASES_CELLS_AND_HEADER:
        with pytest.raises(ParameterError):
            Transcript.from_text(text)
    ok = Transcript.from_text(_OK)
    assert ok.informative.tolist() == [False, True, False, True, False, False]
    assert ok.sub.tolist() == [3, 1, 2, 2, 3, 1] and ok.phase.tolist() == [1, 1, 1, 2, 2, 2]
    assert ok.points.tolist() == [2 / 3 + 0.25, 0.25, 1 / 3 + 0.25, 1 / 3 + 0.125,
                                  2 / 3 + 0.125, 0.125]
    assert ok.effective_gradients == 2


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
    return arrays, tr.config_hash, tr.mode, tr.s_count, tr.eps_adv, tr.effective_gradients


_BAD_V3 = [
    *(_PRIVATE.replace("phases=2", f"phases={value}") for value in ("-1", "1.5", "", "+0", "x")),
    *(_PRIVATE.replace("s=3", f"s={value}") for value in ("ten", "0", "")),
    _PRIVATE.replace("phases=2", f"phases={10**15}"),  # no address space holds the columns
    _PRIVATE.replace("phases=2", f"phases={10**30}"),
    *(_PRIVATE.replace("eps_adv=0.04", f"eps_adv={value}")
      for value in ("0", "-0.1", "nan", "inf", "abc", "")),
    *(_PRIVATE.replace(f" {key}=", f" x{key}=") for key in ("mode", "public", "phases", "s")),
    _PRIVATE.replace(" eps_adv=0.04", ""),  # every key but config is required
    _PRIVATE.replace("version=3", "version=4"),
    _PRIVATE.replace("phases=2", "phases=2 rows=6"),  # a version 2 key
]


# every text the parser must refuse
_REJECTED = [*_MALFORMED_ROWS, *_BAD_PHASES_CELLS_AND_HEADER, *_BAD_V3, *_OLD_VERSIONS.values()]


def test_from_text_parses_a_file_like_the_str(tmp_path) -> None:
    good = [_convex_run(t=800).to_text(public=public) for public in (False, True)]
    bad = _REJECTED
    cases = [*good, *(_messy(text) for text in good), _messy(_OK), _OK, *_HEADER_ONLY, *bad]
    path = tmp_path / "t.txt"
    for text in cases:
        path.write_bytes(text.encode())
        with open(path) as fh:  # read as adversary-eval reads it
            from_file = _parse_outcome(fh)
        assert from_file == _parse_outcome(text), text[:80]
    assert [_parse_outcome(text)[0] == "error" for text in cases] == (
        [False] * (len(cases) - len(bad)) + [True] * len(bad)
    )


def test_cli_adversary_eval_refuses_each_malformed_transcript(tmp_path, capsys) -> None:
    path = tmp_path / "t.txt"
    for text in _REJECTED:
        path.write_bytes(text.encode())
        argv = ["adversary-eval", "--transcript", str(path), "--x-star", "0.5", "--seed", "9"]
        assert cli_main(argv) == 2, text[:80]
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:"), text[:80]
    path.write_bytes(_OK.encode())
    assert cli_main(["adversary-eval", "--transcript", str(path), "--x-star", "0.5",
                     "--seed", "9", "--samples", "10"]) == 0


def test_header_carries_s_and_eps_adv() -> None:
    tr = _run_in("NoisyBisection", 500, 0.07, seed=3)  # S = 14, eps_adv = 0.0175
    for public in (False, True):
        text = tr.to_text(public=public)
        fields = [tok.split("=", 1) for tok in text.partition("\n")[0].split()[2:]]
        assert fields == [
            ["version", "3"], *([] if public else [["config", tr.config_hash]]),
            ["mode", "NoisyBisection"], ["public", str(int(public))],
            ["phases", str(tr.offsets.size)], ["s", "14"], ["eps_adv", repr(0.07 / 4)],
        ]
        back = Transcript.from_text(text)
        assert (back.s_count, back.eps_adv, len(back)) == (14, 0.07 / 4, len(tr))


def test_from_text_refuses_versions_1_and_2(tmp_path, capsys) -> None:
    # one row per query is no longer read: no second reader is kept beside
    # version 3, and a seeded export-transcript writes any old file again
    path = tmp_path / "t.txt"
    for name, text in _OLD_VERSIONS.items():
        version = name.removeprefix("public ")
        path.write_bytes(text.encode())
        with open(path) as fh:
            outcomes = [_parse_outcome(fh), _parse_outcome(text)]
        for outcome in outcomes:
            assert outcome[0] == "error" and f"transcript format {version} " in outcome[1]
        argv = ["adversary-eval", "--transcript", str(path), "--x-star", "0.5", "--seed", "9"]
        assert cli_main(argv) == 2
        assert f"transcript format {version} " in capsys.readouterr().err


def test_from_text_checks_the_version_3_fields(tmp_path) -> None:
    path = tmp_path / "t.txt"
    for text in _BAD_V3:
        path.write_bytes(text.encode())
        with open(path) as fh:
            assert _parse_outcome(fh)[0] == _parse_outcome(text)[0] == "error", text
    ok = Transcript.from_text(_OK.replace("eps_adv=0.04", "eps_adv=0.025"))
    assert (len(ok), ok.s_count, ok.eps_adv, ok.config_hash) == (6, 3, 0.025, "abc")
    public = Transcript.from_text(_PUBLIC + "1,0.25,3,1,2\n2,0.125,2,3,1\n")
    assert (len(public), public.effective_gradients, public.config_hash) == (6, 0, "")


def test_array_transcripts_have_no_text_form() -> None:
    plain = run_plain_convex(ProtocolConfig(T=200), make_uniformly_convex(2.0, 1.0, 0.3),
                             RngStream(2, ()))
    parsed = Transcript.from_text(_convex_run(t=800).to_text())
    for tr in (plain, parsed):
        for public in (False, True):
            with pytest.raises(ParameterError, match="text form"):
                tr.to_text(public=public)
            with pytest.raises(ParameterError, match="text form"):
                tr.write_text(io.StringIO(), public=public)


class _WriteRecorder:
    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> None:
        self.writes.append(text)


def test_write_text_streams_in_blocks_of_rows() -> None:
    from secopt import protocol

    step = protocol._TEXT_BLOCK_ROWS // 10  # phases per block at S = 10
    tr = _convex_run(t=10 * (2 * step + 500))  # two full blocks of phases and a partial one
    for public in (False, True):
        sink = _WriteRecorder()
        tr.write_text(sink, public=public)
        assert len(sink.writes) == 1 + 3
        assert [text.count("\n") for text in sink.writes] == [1, step, step, 500]
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
    assert all(line.count(",") == tr.s_count + 1 for line in text.splitlines()[1:])


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
    step = block // s  # phases per block
    assert block % s and k % step and k > 3 * step  # S does not divide the block
    orders = np.argsort(tr.order_stream.generator().random((k, s)), axis=1)
    eager = _eager_replicated_transcript(config, orders, tr.offsets, tr.homes)
    texts = {}
    for public in (False, True):
        draws.clear()
        sink = _WriteRecorder()
        tr.write_text(sink, public=public)
        # one draw per block of phases: every phase once
        assert draws == [step] * (k // step) + [k % step]
        assert isinstance(tr.public_view(), PublicView)  # no K*S array was built
        texts[public] = "".join(sink.writes)
        assert texts[public] == _reference_to_text(tr, public, sub=eager["sub"])
        back = Transcript.from_text(texts[public])
        for name, want in eager.items():
            if public and name == "informative":
                want = np.zeros_like(want)
            assert getattr(back, name).tobytes() == want.tobytes(), name
    draws.clear()
    assert tr.points.tobytes() == eager["points"].tobytes()  # built from the same blocks
    assert draws == [step] * (k // step) + [k % step]
    assert tr.to_text() == texts[False]  # built arrays do not change the text


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
# S does not divide the 16,384-query block: blocks of 1,638 phases at S = 10,
# five of them; blocks of 2,340 phases at S = 7, four of them, the last one short
@example(mode="ConvexEpochGD", t=65_526, delta_adv=0.1, public=False, seed=5)
@example(mode="ConvexEpochGD", t=49_693, delta_adv=0.14, public=True, seed=6)
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
        assert (back.config_hash, back.mode) == ("" if public else tr.config_hash, tr.mode)


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
