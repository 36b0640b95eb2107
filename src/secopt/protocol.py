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
import json
import math
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Any

import numpy as np

from .epoch_gd import check_overrides, epoch_gd_solve, epoch_schedule
from .errors import BudgetError, DomainError, ParameterError
from .functions import FunctionInstance
from .oracles import RngStream, noisy_sign_oracle, sign_oracle

MODES = ("ConvexEpochGD", "Bisection", "NoisyBisection")

# child stream indices hung off a trial's RngStream
_STREAM_INIT, _STREAM_PERM, _STREAM_NOISE = 0, 1, 2

# columns of a transcript text row; public files omit the last one
_ROW_FIELDS = [
    ("t", np.int64), ("points", np.float64), ("phase", np.int64),
    ("sub", np.int64), ("informative", np.int64),
]
_HEADER_KEYS = {"config", "mode", "public"}


def subinterval_index(x: float, delta_adv: float) -> int:
    """1-based index of the subinterval of width 1/S, S = floor(1/delta_adv),
    containing x; x = 1 belongs to the S-th."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x={x} outside [0, 1]")
    s_count = math.floor(1.0 / delta_adv)
    return min(math.floor(x / (1.0 / s_count)) + 1, s_count)


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
        if not 0.5 < self.p < 1.0:
            raise ParameterError(f"p must lie in (0.5, 1), got {self.p}")
        check_overrides(self.overrides)
        if self.x_star is not None and not 0.0 <= self.x_star <= 1.0:
            raise DomainError(f"x_star={self.x_star} outside [0, 1]")
        if self.T < self.subintervals:
            raise BudgetError(
                f"budget T={self.T} cannot cover one phase of S={self.subintervals} queries"
            )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def with_updates(self, **kwargs: Any) -> "ProtocolConfig":
        return replace(self, **kwargs)


@dataclass
class Transcript:
    """Time-ordered query record plus the learner's private summary fields.

    The adversary-facing projection is public_view(): query points only.
    """

    points: np.ndarray
    phase: np.ndarray
    sub: np.ndarray
    informative: np.ndarray
    x_hat: float
    effective_gradients: int
    config_hash: str
    mode: str
    s_count: int

    def __len__(self) -> int:
        return int(self.points.size)

    def public_view(self) -> np.ndarray:
        return self.points.copy()

    def to_text(self, public: bool = False) -> str:
        head = f"# secopt-transcript config={self.config_hash} mode={self.mode} public={int(public)}"
        columns = [self.points.tolist(), self.phase.tolist(), self.sub.tolist()]
        fmt = "%d,%r,%d,%d"  # %r of a Python float is its shortest round-trip repr
        if not public:
            columns.append(self.informative.tolist())
            fmt += ",%d"
        rows = zip(range(1, len(self) + 1), *columns)
        return "\n".join([head, *(fmt % row for row in rows), ""])

    @classmethod
    def from_text(cls, text: str) -> "Transcript":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("# secopt-transcript"):
            raise ParameterError("not a transcript: missing header line")
        tokens = lines[0].split()[2:]
        try:
            header = dict(tok.split("=", 1) for tok in tokens)
        except ValueError:
            raise ParameterError(f"malformed transcript header {lines[0]!r}") from None
        if len(header) != len(tokens) or not set(header) <= _HEADER_KEYS:
            raise ParameterError(
                f"malformed transcript header {lines[0]!r}: "
                f"keys must be distinct and among {sorted(_HEADER_KEYS)}"
            )
        if header.get("public", "0") not in ("0", "1"):
            raise ParameterError(f"transcript header public={header['public']!r} is not 0 or 1")
        public = header.get("public") == "1"
        row_dtype = np.dtype(_ROW_FIELDS[:4] if public else _ROW_FIELDS)
        if len(lines) > 1:
            try:
                rows = np.loadtxt(lines[1:], dtype=row_dtype, delimiter=",", comments=None, ndmin=1)
            except ValueError as exc:
                # numpy's message names the row and column; its usecols hint does not apply
                reason = str(exc).split(";")[0]
                raise ParameterError(
                    f"malformed transcript data, expected {len(row_dtype)} "
                    f"comma-separated numbers per row: {reason}"
                ) from None
        else:
            rows = np.empty(0, dtype=row_dtype)
        n = rows.size
        if not np.array_equal(rows["t"], np.arange(1, n + 1)):
            raise ParameterError("malformed transcript data: rows must be numbered 1..n in order")
        if public:
            informative = np.zeros(n, dtype=bool)
        else:
            flags = rows["informative"]
            if not np.all((flags == 0) | (flags == 1)):
                raise ParameterError("malformed transcript data: informative must be 0 or 1")
            informative = flags.astype(bool)
        sub = rows["sub"].copy()
        return cls(
            points=rows["points"].copy(), phase=rows["phase"].copy(), sub=sub,
            informative=informative,
            x_hat=math.nan, effective_gradients=int(informative.sum()),
            config_hash=header.get("config", ""), mode=header.get("mode", ""),
            s_count=int(sub.max()) if n else 0,
        )


def _draw_sub_orders(gen: np.random.Generator, n_phases: int, s_count: int) -> np.ndarray:
    """(n_phases, S) matrix of 0-based subinterval codes in query order."""
    return np.argsort(gen.random((n_phases, s_count)), axis=1)


def _gradient_noise(gen: np.random.Generator, sigma: float, n: int) -> list[float]:
    """Gradient noise of n Gaussian first-order oracle responses, N(0, sigma^2).

    Drawn as one (n, 2) block in the oracle's (value, gradient) order; only the
    gradient column is used.  sigma = 0 draws nothing.
    """
    if sigma > 0.0:
        return gen.normal(0.0, sigma, size=(n, 2))[:, 1].tolist()
    return [0.0] * n


def _home_index(points: np.ndarray, s_count: int) -> np.ndarray:
    """subinterval_index over an array of points."""
    return np.minimum(np.floor(points / (1.0 / s_count)).astype(np.int64) + 1, s_count)


def _solve_convex(
    config: ProtocolConfig, f: FunctionInstance, rng: RngStream, n_steps: int
) -> tuple[np.ndarray, int, float]:
    """Epoch-doubling run of n_steps noisy gradient queries from a uniform start.

    Returns the proposed points, the gradients fed and the final estimate.
    """
    x_init = float(rng.child(_STREAM_INIT).generator().uniform(0.0, 1.0))
    schedule = epoch_schedule(
        config.kappa, config.lam, config.delta, config.W, n_steps, config.overrides
    )
    noise = _gradient_noise(rng.child(_STREAM_NOISE).generator(), config.sigma, n_steps)
    return epoch_gd_solve(schedule, x_init, f.subgrad, noise)


def _replicated_transcript(
    config: ProtocolConfig, orders: np.ndarray, offsets: np.ndarray, homes: np.ndarray,
    **summary: Any,
) -> Transcript:
    """Phase k queries offsets[k] in every subinterval, in the order orders[k];
    only the query in subinterval homes[k] is informative."""
    s_count = config.subintervals
    return Transcript(
        points=(orders * config.cell_width + offsets[:, None]).ravel(),
        phase=np.repeat(np.arange(1, len(offsets) + 1, dtype=np.int64), s_count),
        sub=(orders + 1).astype(np.int64).ravel(),
        informative=(orders == (homes - 1)[:, None]).ravel(),
        config_hash=config.config_hash(), mode=config.mode, s_count=s_count,
        **summary,
    )


def run_secure_convex(config: ProtocolConfig, f: FunctionInstance, rng: RngStream) -> Transcript:
    """Replicated epoch-doubling run under the Gaussian first-order oracle.

    Each of the K = floor(T/S) phases queries one offset mirrored across all S
    subintervals; only the home response is realized and fed (mirror responses
    are never consumed by the learner, so they are not sampled).  The initial
    solver point is drawn uniformly and is not itself submitted as a query.
    """
    config.validate()
    if config.mode != "ConvexEpochGD":
        raise ParameterError(f"run_secure_convex requires ConvexEpochGD mode, got {config.mode}")
    s_count = config.subintervals
    n_phases = config.phases
    xbars, fed, x_hat = _solve_convex(config, f, rng, n_phases)
    homes = _home_index(xbars, s_count)
    orders = _draw_sub_orders(rng.child(_STREAM_PERM).generator(), n_phases, s_count)
    return _replicated_transcript(
        config, orders, xbars - (homes - 1) * config.cell_width, homes,
        x_hat=x_hat, effective_gradients=fed,
    )


def majority_repetitions(p: float, eps: float, delta: float, width: float) -> int:
    """Votes per bisection decision so all majorities are right w.p. >= 1-delta
    while an interval of the given width is halved down to eps.

    Hoeffding sizing m >= ln(2*log2(width/eps)/delta) / (2*(p-1/2)^2),
    bumped to the next odd integer so a majority vote cannot tie.
    """
    if not 0.5 < p < 1.0:
        raise ParameterError(f"p must lie in (0.5, 1), got {p}")
    halvings = max(math.log2(width / eps), 1.0)
    m = math.ceil(math.log(2.0 * halvings / delta) / (2.0 * (p - 0.5) ** 2))
    m = max(m, 1)
    return m if m % 2 == 1 else m + 1


def run_secure_bisection(config: ProtocolConfig, f: FunctionInstance, rng: RngStream) -> Transcript:
    """Replicated bisection inside the home subinterval, exact or noisy signs.

    The candidate interval starts as the subinterval containing the optimizer
    (coarse localization is modeled as free; see the decisions ledger) and is
    halved by the home sign response each phase -- by the majority over m
    repeated phases in NoisyBisection mode.  It makes the k decisions that
    bring the width 1/S down to eps, or fewer if the phase budget K runs out.
    """
    config.validate()
    if config.mode not in ("Bisection", "NoisyBisection"):
        raise ParameterError(f"run_secure_bisection requires a bisection mode, got {config.mode}")
    s_count = config.subintervals
    n_phases_max = config.phases
    width = config.cell_width
    noisy = config.mode == "NoisyBisection"

    home = subinterval_index(float(f.x_star), config.delta_adv)

    noise_gen = rng.child(_STREAM_NOISE).generator()
    base = (home - 1) * width
    lo = base
    hi = min(home * width, 1.0)
    reps = majority_repetitions(config.p, config.eps, config.delta, width) if noisy else 1
    # smallest k with eps * 2^k >= width; ldexp is exact, a rounded hi - lo is not
    halvings = 0
    while math.ldexp(config.eps, halvings) < width:
        halvings += 1

    offsets: list[float] = []
    for _ in range(halvings):
        # a round cut short by the budget applies a best-effort majority
        this_round = min(reps, n_phases_max - len(offsets))
        if this_round == 0:
            break
        mid = 0.5 * (lo + hi)
        offsets += [mid - base] * this_round
        if noisy:
            votes = sum(noisy_sign_oracle(f, mid, config.p, noise_gen) for _ in range(this_round))
        else:
            votes = sign_oracle(f, mid)
        if votes >= 0:
            hi = mid
        else:
            lo = mid

    n_phases = len(offsets)
    # nothing else reads the order stream, so one block after the loop gives the
    # same rows as drawing each phase's order as it runs
    orders = _draw_sub_orders(rng.child(_STREAM_PERM).generator(), n_phases, s_count)
    return _replicated_transcript(
        config, orders, np.asarray(offsets), np.full(n_phases, home, dtype=np.int64),
        x_hat=0.5 * (lo + hi), effective_gradients=n_phases,
    )


def run_plain_convex(config: ProtocolConfig, f: FunctionInstance, rng: RngStream) -> Transcript:
    """Non-replicated control: every query is the solver's own next point.

    Leaks the query trajectory; used as the negative control in privacy tests.
    """
    config.validate()
    t_budget = config.T
    s_count = config.subintervals
    points, fed, x_hat = _solve_convex(config, f, rng, t_budget)
    return Transcript(
        points=points, phase=np.arange(1, t_budget + 1, dtype=np.int64),
        sub=_home_index(points, s_count),
        informative=np.ones(t_budget, dtype=bool),
        x_hat=x_hat, effective_gradients=fed,
        config_hash=config.config_hash(), mode="PlainEpochGD", s_count=s_count,
    )


def run_protocol(config: ProtocolConfig, f: FunctionInstance, rng: RngStream) -> Transcript:
    """Dispatch on config.mode."""
    if config.mode == "ConvexEpochGD":
        return run_secure_convex(config, f, rng)
    return run_secure_bisection(config, f, rng)
