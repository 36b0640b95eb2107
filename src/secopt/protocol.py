"""Replicated query protocols that hide the learner's progress.

The domain [0, 1] is tiled by S = floor(1/delta_adv) subintervals of width
1/S (at least delta_adv).  Each phase the confidential computation
(epoch-doubling descent or interval bisection) proposes a point xbar; the
protocol queries the point's offset replicated across all S subintervals in
uniformly random order, and only the response at the home subinterval (the
one containing xbar) is fed back.  An eavesdropper sees S indistinguishable
clusters per phase.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
import sys
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from typing import Any, TextIO

import numpy as np

from .epoch_gd import check_overrides, epoch_gd_solve, epoch_schedule
from .errors import BudgetError, DomainError, ParameterError
from .functions import FunctionInstance
from .oracles import RngStream, gradient_noise, noisy_sign_oracle, sign_oracle

MODES = ("ConvexEpochGD", "Bisection", "NoisyBisection")

# child stream indices hung off a trial's RngStream
_STREAM_INIT, _STREAM_PERM, _STREAM_NOISE = 0, 1, 2

# the query arrays of a transcript
_COLUMNS = (("points", np.float64), ("phase", np.int64), ("sub", np.int64), ("informative", bool))
# versions 1 and 2 wrote one row per query; they are refused, not parsed
_FORMAT_VERSION = "3"
_HEADER_KEYS = ("version", "config", "mode", "public", "phases", "s", "eps_adv")
# queries expanded, written or parsed per block: bounds what text I/O holds
# beyond the columns themselves to a few MB
_TEXT_BLOCK_ROWS = 16_384
# the lines of a str, broken where a file read in universal-newline mode breaks them
_LINE = re.compile(r"[^\r\n]+")


def subinterval_index(x: float, delta_adv: float) -> int:
    """1-based index of the subinterval of width 1/S, S = floor(1/delta_adv),
    containing x; x = 1 belongs to the S-th."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x={x} outside [0, 1]")
    return int(_cell_index(x, math.floor(1.0 / delta_adv)))


def _cell_index(points: float | np.ndarray, s_count: int) -> np.ndarray:
    """subinterval_index of a point or an array of points, given S."""
    return np.minimum(np.floor(points / (1.0 / s_count)).astype(np.int64) + 1, s_count)


@dataclass
class ProtocolConfig:
    """Run parameters; mirrors the config-file schema field for field."""

    T: int = 20000
    delta_adv: float = 0.1
    eps_adv: float = 0.04
    eps: float = 1e-3
    delta: float = 0.05
    kappa: float = 2.0
    lam: float = 1.0
    W: float = 2.0
    sigma: float = 0.1
    p: float = 0.75
    mode: str = "ConvexEpochGD"
    x_star: float | None = None  # None: the harness samples it per trial
    overrides: dict[str, float] | None = None

    @property
    def subintervals(self) -> int:
        return math.floor(1.0 / self.delta_adv)

    @property
    def cell_width(self) -> float:
        return 1.0 / self.subintervals

    @property
    def phases(self) -> int:
        return self.T // self.subintervals

    def validate(self) -> None:
        if not (isinstance(self.T, (int, np.integer)) and self.T >= 1):
            raise ParameterError(f"T must be a positive integer, got {self.T}")
        if not 0.0 < self.delta_adv < 1.0:
            raise ParameterError(f"delta_adv must lie in (0, 1), got {self.delta_adv}")
        if self.subintervals < 2:
            raise ParameterError(
                f"delta_adv={self.delta_adv} yields S={self.subintervals}; need S >= 2"
            )
        if not self.eps_adv > 0.0 or not 2.0 * self.eps_adv < self.delta_adv:
            raise ParameterError(
                f"need 0 < 2*eps_adv < delta_adv, got eps_adv={self.eps_adv}, "
                f"delta_adv={self.delta_adv}"
            )
        if not self.eps > 0.0:
            raise ParameterError(f"eps must be positive, got {self.eps}")
        if not self.eps < min(self.delta_adv, self.cell_width):
            raise ParameterError(
                f"eps={self.eps} must be below delta_adv={self.delta_adv} "
                f"and the subinterval width 1/S={self.cell_width}"
            )
        if 2.0 * self.eps > self.eps_adv:
            warnings.warn(
                f"accuracy target eps={self.eps} violates 2*eps <= eps_adv={self.eps_adv}; "
                "the secrecy guarantee degrades",
                stacklevel=2,
            )
        if not 0.0 < self.delta < 1.0:
            raise ParameterError(f"delta must lie in (0, 1), got {self.delta}")
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        # every field is checked in every mode, so no setting is silently ignored
        if not self.kappa >= 2.0:
            raise ParameterError(f"kappa must be >= 2, got {self.kappa}")
        if not self.lam > 0.0 or not self.W > 0.0:
            raise ParameterError(f"lam and W must be positive, got lam={self.lam}, W={self.W}")
        if not self.sigma >= 0.0:
            raise ParameterError(f"sigma must be >= 0, got {self.sigma}")
        for name in ("kappa", "lam", "W", "sigma"):
            # in a float's range: no inf, no nan, no int too large for a float
            if not abs(getattr(self, name)) <= sys.float_info.max:
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.5 < self.p < 1.0:
            raise ParameterError(f"p must lie in (0.5, 1), got {self.p}")
        check_overrides(self.overrides)
        if self.x_star is not None and not 0.0 <= self.x_star <= 1.0:
            raise DomainError(f"x_star={self.x_star} outside [0, 1]")
        if self.T < self.subintervals:
            raise BudgetError(
                f"budget T={self.T} cannot cover one phase of S={self.subintervals} queries"
            )

    def config_hash(self) -> str:
        # vars() holds every field by name, as asdict() would, without its deep copy
        blob = json.dumps(vars(self), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def with_updates(self, **kwargs: Any) -> "ProtocolConfig":
        return replace(self, **kwargs)


def _query_field(name: str) -> property:
    return property(lambda self: self._query_arrays()[name])


class Transcript:
    """Time-ordered query record plus the learner's private summary fields.

    A replicated run stores what defines its K*S queries: the K per-phase
    offsets, the home cell of each phase (or one for the whole run), S, the
    cell width and the order stream.  The query arrays points (float64), phase
    and sub (int64) and informative (bool) are expanded from these on first
    access, block by block of phases (see _phase_blocks), and cached;
    write_text formats the same blocks as one text row per phase without
    expanding them.  A parsed or plain transcript is given the four arrays
    instead, and has no text form.

    The adversary-facing projection is public_view(): query points only.
    """

    points = _query_field("points")
    phase = _query_field("phase")
    sub = _query_field("sub")
    informative = _query_field("informative")

    def __init__(
        self, *, x_hat: float, effective_gradients: int, config_hash: str, mode: str,
        s_count: int, eps_adv: float, points: np.ndarray | None = None,
        phase: np.ndarray | None = None, sub: np.ndarray | None = None,
        informative: np.ndarray | None = None, offsets: np.ndarray | None = None,
        homes: np.ndarray | None = None, cell_width: float = 0.0,
        order_stream: RngStream | None = None,
    ) -> None:
        self.x_hat = x_hat
        self.effective_gradients = effective_gradients
        self.config_hash = config_hash
        self.mode = mode
        self.s_count = s_count
        self.eps_adv = eps_adv
        self.offsets, self.homes = offsets, homes
        self.cell_width, self.order_stream = cell_width, order_stream
        self._arrays = None if offsets is not None else {
            "points": points, "phase": phase, "sub": sub, "informative": informative,
        }

    def _query_arrays(self) -> dict[str, np.ndarray]:
        if self._arrays is None:
            arrays = {name: np.empty(len(self), dtype) for name, dtype in _COLUMNS}
            for first, *block in self._phase_blocks():
                _expand_phases(arrays, first, *block, self.cell_width)
            self._arrays = arrays
        return self._arrays

    def _phase_blocks(self) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """(first phase, offsets, orders, homes) of consecutive blocks of
        _phases_per_block(S) phases, the phase 0-based; orders holds each
        phase's 0-based cells in query order.

        Each block's order rows are one draw from the order stream: consecutive
        draws give the rows of the one (K, S) block draw, so no array of K*S
        queries is made.
        """
        s, k = self.s_count, self.offsets.size
        step = _phases_per_block(s)
        gen = self.order_stream.generator()
        # homes is one cell per phase, or a 0-d array for the whole run
        homes = np.broadcast_to(self.homes, self.offsets.shape)
        for first in range(0, k, step):
            stop = min(first + step, k)
            orders = _draw_sub_orders(gen, stop - first, s)
            yield first, self.offsets[first:stop], orders, homes[first:stop]

    def __len__(self) -> int:
        if self._arrays is None:
            return self.offsets.size * self.s_count
        return int(self.points.size)

    def public_view(self) -> PublicView | np.ndarray:
        """Read-only query points: a PublicView while the arrays are unbuilt,
        else a read-only view of points (no copy)."""
        if self._arrays is None:
            return PublicView(self.offsets, self.s_count, self.cell_width, self.order_stream)
        view = self.points.view()
        view.flags.writeable = False
        return view

    def _text_blocks(self, public: bool) -> Iterator[str]:
        """The header line, then one row per phase of each _phase_blocks block."""
        if self.offsets is None:
            raise ParameterError(
                "only a replicated run's transcript has a text form; this one holds "
                "its query arrays (a plain control or a parsed transcript)"
            )
        header = {
            "version": _FORMAT_VERSION, "config": self.config_hash, "mode": self.mode,
            "public": int(public), "phases": self.offsets.size, "s": self.s_count,
            "eps_adv": repr(float(self.eps_adv)),
        }
        if public:
            del header["config"]  # config_hash() covers a fixed x_star
        yield " ".join(["# secopt-transcript", *(f"{k}={v}" for k, v in header.items())]) + "\n"
        # %r of a Python float is its shortest round-trip repr
        fmt = "%d,%r" + ",%d" * (self.s_count + (not public)) + "\n"
        for first, offsets, orders, homes in self._phase_blocks():
            m = offsets.size
            table = np.empty((m, self.s_count + 2 + (not public)), dtype=object)
            table[:, 0] = range(first + 1, first + m + 1)
            table[:, 1] = offsets.tolist()
            table[:, 2:self.s_count + 2] = orders + 1
            if not public:
                table[:, -1] = homes
            yield (fmt * m) % tuple(table.ravel().tolist())

    def write_text(self, fh: TextIO, public: bool = False) -> None:
        """Write to_text(public) to fh one block at a time."""
        for block in self._text_blocks(public):
            fh.write(block)

    def to_text(self, public: bool = False) -> str:
        return "".join(self._text_blocks(public))

    @classmethod
    def from_text(cls, source: str | Iterable[str]) -> "Transcript":
        """Parse to_text output from a str or an open text file; blank lines are
        skipped.  Phase rows are parsed _phases_per_block(S) non-blank lines at a
        time and expanded into query columns preallocated from the header's
        phase count.  A file is read line by line and never held whole."""
        lines = (m.group() for m in _LINE.finditer(source)) if isinstance(source, str) else source
        nonblank = filter(str.strip, lines)
        header = _parse_header(next(nonblank, "").rstrip("\r\n"))
        public, expected, s_count = header["public"], header["phases"], header["s"]
        try:
            row_dtype = np.dtype(
                [("k", np.int64), ("offset", np.float64), ("cells", np.int64, (s_count,))]
                + ([] if public else [("home", np.int64)])
            )
            columns = {name: np.empty(expected * s_count, dtype) for name, dtype in _COLUMNS}
        except (MemoryError, ValueError):
            raise ParameterError(
                f"transcript header phases={expected} s={s_count} is too large"
            ) from None
        step, k = _phases_per_block(s_count), 0
        while block := list(itertools.islice(nonblank, step)):
            rows = _parse_phase_rows(block, row_dtype, k, s_count)
            if k + rows.size > expected:
                raise ParameterError(
                    f"malformed transcript data: more phase rows than the header's "
                    f"phases={expected}"
                )
            # home 0 names no cell: a public file flags no query informative
            homes = np.zeros(rows.size, np.int64) if public else rows["home"]
            _expand_phases(columns, k, rows["offset"], rows["cells"] - 1, homes, 1.0 / s_count)
            k += rows.size
        if k != expected:
            raise ParameterError(
                f"malformed transcript data: {k} phase rows, the header says phases={expected}"
            )
        return cls(
            **columns, x_hat=math.nan,
            effective_gradients=int(columns["informative"].sum()),
            config_hash=header["config"], mode=header["mode"], s_count=s_count,
            eps_adv=header["eps_adv"],
        )


def _phases_per_block(s_count: int) -> int:
    """Phases per text block: about _TEXT_BLOCK_ROWS queries."""
    return max(1, _TEXT_BLOCK_ROWS // s_count)


def _expand_phases(
    columns: dict[str, np.ndarray], first: int, offsets: np.ndarray, orders: np.ndarray,
    homes: np.ndarray, cell_width: float,
) -> None:
    """Write the queries of phases first+1..first+len(offsets) into the query
    columns: the j-th query of phase k is offsets[k] in cell orders[k, j] (0-based)
    of width cell_width, informative iff that cell is homes[k] (1-based)."""
    s, stop = orders.shape[1], first + offsets.size
    queries = slice(first * s, stop * s)
    columns["points"][queries] = (orders * cell_width + offsets[:, None]).ravel()
    columns["phase"][queries] = np.repeat(np.arange(first + 1, stop + 1), s)
    columns["sub"][queries] = (orders + 1).ravel()
    columns["informative"][queries] = (orders == (homes - 1)[:, None]).ravel()


def _parse_header(head: str) -> dict[str, Any]:
    """The fields of a version 3 transcript header line."""
    parts = head.split()
    if parts[:2] != ["#", "secopt-transcript"]:
        raise ParameterError("not a transcript: missing header line")
    tokens = parts[2:]
    try:
        header = dict(tok.split("=", 1) for tok in tokens)
    except ValueError:
        raise ParameterError(f"malformed transcript header {head!r}") from None
    version = header.get("version", "1")  # version 1 headers have no version field
    if version != _FORMAT_VERSION:
        raise ParameterError(
            f"transcript format version {version} is not read, only version {_FORMAT_VERSION}; "
            "a seeded export-transcript writes the run again"
        )
    required = set(_HEADER_KEYS) - {"config"}  # public headers omit config
    if len(header) != len(tokens) or not required <= set(header) <= set(_HEADER_KEYS):
        raise ParameterError(
            f"malformed transcript header {head!r}: keys must be distinct, include "
            f"{sorted(required)} and be among {sorted(_HEADER_KEYS)}"
        )
    if header["public"] not in ("0", "1"):
        raise ParameterError(f"transcript header public={header['public']!r} is not 0 or 1")
    for key, least in (("phases", 0), ("s", 1)):
        value = header[key]
        if not re.fullmatch("[0-9]+", value) or int(value) < least:
            raise ParameterError(f"transcript header {key}={value!r} is not a count >= {least}")
    try:
        eps_adv = float(header["eps_adv"])
    except ValueError:
        eps_adv = math.nan
    if not 0.0 < eps_adv < math.inf:
        raise ParameterError(
            f"transcript header eps_adv={header['eps_adv']!r} is not a positive number"
        )
    return {
        "config": header.get("config", ""), "mode": header["mode"],
        "public": header["public"] == "1", "phases": int(header["phases"]),
        "s": int(header["s"]), "eps_adv": eps_adv,
    }


def _parse_phase_rows(
    block: list[str], row_dtype: np.dtype, first: int, s_count: int
) -> np.ndarray:
    """One block of phase rows as a row array, numbered from first + 1; each
    row's offset must be finite, its cells a permutation of 1..S, and its home
    must lie in 1..S."""
    try:
        rows = np.loadtxt(block, dtype=row_dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:
        # numpy's message names the row within the block; its usecols hint does not apply
        reason = str(exc).split(";")[0]
        raise ParameterError(
            f"malformed transcript data in phase rows {first + 1}..{first + len(block)}, "
            f"expected {len(row_dtype) + s_count - 1} comma-separated numbers per row: {reason}"
        ) from None
    if not np.array_equal(rows["k"], np.arange(first + 1, first + rows.size + 1)):
        raise ParameterError("malformed transcript data: phases must be numbered 1..K in order")
    if not np.isfinite(rows["offset"]).all():
        raise ParameterError("malformed transcript data: every offset must be finite")
    if not np.all(np.sort(rows["cells"], axis=1) == np.arange(1, s_count + 1)):
        raise ParameterError(
            f"malformed transcript data: each phase's cells must be a permutation of 1..s={s_count}"
        )
    if "home" in row_dtype.names and not np.all((rows["home"] >= 1) & (rows["home"] <= s_count)):
        raise ParameterError(f"malformed transcript data: home must lie in 1..s={s_count}")
    return rows


def _draw_sub_orders(gen: np.random.Generator, n_phases: int, s_count: int) -> np.ndarray:
    """(n_phases, S) matrix of 0-based subinterval codes in query order."""
    return np.argsort(gen.random((n_phases, s_count)), axis=1)


class PublicView:
    """Read-only query points of a replicated transcript, in time order.

    Supports len(), view[i] and slices such as view[-S:].  Query i is read
    from order row k = i // S, rebuilt alone: the block draw fills row k from
    the S uniforms after the first k*S, so advancing a fresh copy of the order
    stream by k*S and drawing S gives the same row.  Nothing of size K*S is
    built; converting the view to an array raises.
    """

    def __init__(
        self, offsets: np.ndarray, s_count: int, cell_width: float, order_stream: RngStream
    ) -> None:
        self._offsets, self._s_count, self._width = offsets, s_count, cell_width
        self._gen = order_stream.generator()
        self._start = self._gen.bit_generator.state

    def __len__(self) -> int:
        return self._offsets.size * self._s_count

    def _row(self, k: int) -> np.ndarray:
        bits = self._gen.bit_generator
        bits.state = self._start
        bits.advance(k * self._s_count)
        order = np.argsort(self._gen.random(self._s_count))
        return order * self._width + self._offsets[k]

    def __getitem__(self, index: int | slice) -> Any:
        s = self._s_count
        if isinstance(index, slice):
            span = range(len(self))[index]
            if not span:
                return np.empty(0)
            first = min(span[0], span[-1]) // s
            rows = [self._row(k) for k in range(first, max(span[0], span[-1]) // s + 1)]
            return np.concatenate(rows)[np.asarray(span) - first * s]
        k, j = divmod(range(len(self))[index], s)
        return self._row(k)[j]

    def __array__(self, dtype: Any = None, copy: Any = None) -> np.ndarray:
        raise TypeError("a PublicView is read query by query; Transcript.points is the array")


def _objective_x_star(config: ProtocolConfig, f: FunctionInstance) -> float:
    """Validate config and return f.x_star if f is the config's objective (see
    run_protocol).  Compares the data fields, not the closures, which a caller
    may wrap."""
    config.validate()
    kappa, lam = (config.kappa, config.lam) if config.mode == "ConvexEpochGD" else ("abs", 1.0)
    x_star = f.x_star if config.x_star is None else config.x_star
    want = (kappa, lam, 0.0, (0.0, 1.0), x_star)
    got = (f.kappa, f.lam, f.f_star, f.domain, f.x_star)
    if got != want:
        raise ParameterError(
            f"f is not the {config.mode} objective of the config: "
            f"(kappa, lam, f_star, domain, x_star) is {got}, expected {want}"
        )
    return f.x_star


def _solve_convex(
    config: ProtocolConfig, x_star: float, rng: RngStream, n_steps: int
) -> tuple[np.ndarray, int, float]:
    """Epoch-doubling run of n_steps noisy gradient queries from a uniform start
    on the config's objective.  Returns the proposed points, the gradients fed
    and the final estimate.
    """
    x_init = float(rng.child(_STREAM_INIT).generator().uniform(0.0, 1.0))
    schedule = epoch_schedule(
        config.kappa, config.lam, config.delta, config.W, n_steps, config.overrides
    )
    noise = gradient_noise(rng.child(_STREAM_NOISE).generator(), config.sigma, n_steps)
    return epoch_gd_solve(schedule, x_init, noise, kappa=config.kappa, lam=config.lam, x_star=x_star)


def _replicated_transcript(
    config: ProtocolConfig, rng: RngStream, offsets: np.ndarray, homes: np.ndarray,
    **summary: Any,
) -> Transcript:
    """Phase k queries offsets[k] in every subinterval, in the order of row k
    of the order stream's block draw; only the query in subinterval homes[k]
    (or homes, if 0-d) is informative."""
    return Transcript(
        offsets=offsets, homes=homes, cell_width=config.cell_width,
        order_stream=rng.child(_STREAM_PERM), config_hash=config.config_hash(),
        mode=config.mode, s_count=config.subintervals, eps_adv=config.eps_adv, **summary,
    )


def _run_convex(config: ProtocolConfig, x_star: float, rng: RngStream) -> Transcript:
    """Replicated epoch-doubling run under the Gaussian first-order oracle.

    Each of the K = floor(T/S) phases queries one offset mirrored across all S
    subintervals; only the home response is realized and fed (mirror responses
    are never consumed by the learner, so they are not sampled).  The initial
    solver point is drawn uniformly and is not itself submitted as a query.
    """
    xbars, fed, x_hat = _solve_convex(config, x_star, rng, config.phases)
    homes = _cell_index(xbars, config.subintervals)
    return _replicated_transcript(
        config, rng, xbars - (homes - 1) * config.cell_width, homes,
        x_hat=x_hat, effective_gradients=fed,
    )


def _halvings(eps: float, width: float) -> int:
    """Smallest k with eps * 2^k >= width; ldexp is exact, a rounded log2 is not."""
    k = 0
    while math.ldexp(eps, k) < width:
        k += 1
    return k


def majority_repetitions(p: float, eps: float, delta: float, width: float) -> int:
    """Votes per bisection decision so all majorities are right w.p. >= 1-delta
    while an interval of the given width is halved down to eps.

    Hoeffding sizing m >= ln(2*k/delta) / (2*(p-1/2)^2) over the k decisions
    the bisection makes, bumped to the next odd integer so a majority vote
    cannot tie.
    """
    if not 0.5 < p < 1.0:
        raise ParameterError(f"p must lie in (0.5, 1), got {p}")
    halvings = max(_halvings(eps, width), 1)
    m = math.ceil(math.log(2.0 * halvings / delta) / (2.0 * (p - 0.5) ** 2))
    m = max(m, 1)
    return m if m % 2 == 1 else m + 1


def _run_bisection(config: ProtocolConfig, x_star: float, rng: RngStream) -> Transcript:
    """Replicated bisection inside the home subinterval, exact or noisy signs.

    The candidate interval starts as the subinterval containing the optimizer:
    coarse localization is modeled as free, no query pays for it.  It is
    halved by the home sign response each phase -- by the majority over m
    repeated phases in NoisyBisection mode.  It makes the k decisions that
    bring the width 1/S down to eps, or fewer if the phase budget K runs out.
    """
    n_phases_max = config.phases
    width = config.cell_width
    noisy = config.mode == "NoisyBisection"
    home = subinterval_index(x_star, config.delta_adv)
    noise_gen = rng.child(_STREAM_NOISE).generator()
    base = (home - 1) * width
    lo = base
    hi = min(home * width, 1.0)
    reps = majority_repetitions(config.p, config.eps, config.delta, width) if noisy else 1

    offsets: list[float] = []
    for _ in range(_halvings(config.eps, width)):
        # a round cut short by the budget applies a best-effort majority
        this_round = min(reps, n_phases_max - len(offsets))
        if this_round == 0:
            break
        mid = 0.5 * (lo + hi)
        offsets += [mid - base] * this_round
        if noisy:
            votes = int(noisy_sign_oracle(x_star, mid, config.p, noise_gen, this_round).sum())
        else:
            votes = sign_oracle(x_star, mid)
        if votes >= 0:
            hi = mid
        else:
            lo = mid

    # nothing else reads the order stream, so one block drawn after the loop
    # gives the same rows as drawing each phase's order as it runs
    return _replicated_transcript(
        config, rng, np.asarray(offsets), np.asarray(home, dtype=np.int64),
        x_hat=0.5 * (lo + hi), effective_gradients=len(offsets),
    )


def run_plain_convex(config: ProtocolConfig, f: FunctionInstance, rng: RngStream) -> Transcript:
    """Non-replicated control: every query is the solver's own next point.

    ConvexEpochGD only, on the config's objective (see run_protocol).  Leaks
    the query trajectory; used as the negative control in privacy tests.
    """
    if config.mode != "ConvexEpochGD":
        raise ParameterError(f"the plain control runs in ConvexEpochGD mode, got {config.mode!r}")
    x_star = _objective_x_star(config, f)
    t_budget = config.T
    s_count = config.subintervals
    points, fed, x_hat = _solve_convex(config, x_star, rng, t_budget)
    return Transcript(
        points=points, phase=np.arange(1, t_budget + 1, dtype=np.int64),
        sub=_cell_index(points, s_count),
        informative=np.ones(t_budget, dtype=bool),
        x_hat=x_hat, effective_gradients=fed,
        config_hash=config.config_hash(), mode="PlainEpochGD", s_count=s_count,
        eps_adv=config.eps_adv,
    )


def run_protocol(config: ProtocolConfig, f: FunctionInstance, rng: RngStream) -> Transcript:
    """Dispatch on config.mode.  f must be the config's objective, else
    ParameterError: make_uniformly_convex(config.kappa, config.lam, x) in
    ConvexEpochGD, make_abs(x) in the bisection modes, x = config.x_star if set."""
    x_star = _objective_x_star(config, f)
    if config.mode == "ConvexEpochGD":
        return _run_convex(config, x_star, rng)
    return _run_bisection(config, x_star, rng)
