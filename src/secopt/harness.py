"""Monte Carlo harness: seeded trial batches, CSV export and budget sweeps.

Per-trial randomness is keyed as (master_seed, trial, purpose), so results are
deterministic for a given (config, n_trials, master_seed) no matter how many
workers execute the batch.  The CSV export is byte-stable: the ms column is a
deterministic placeholder (0) because measured wall time cannot be; real
timings are carried in memory and surfaced in summaries only.
"""
from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .adversary import ADVERSARY_ORDER, adversary_guesses
from .errors import ParameterError
from .functions import FunctionInstance, make_abs, make_uniformly_convex
from .oracles import RngStream
from .protocol import ProtocolConfig, run_protocol

CSV_HEADER = (
    "trial,seed,T,delta_adv,eps_adv,eps,delta,kappa,sigma_or_p,mode,"
    "point_error,function_error,adv_prop_success,adv_pack_success,"
    "adv_post_success,adv_naive_success,queries_used,ms"
)

# child indices under a trial's stream; the adversaries take 2, 3, ... in ADVERSARY_ORDER
_CHILD_PROTOCOL, _CHILD_XSTAR, _CHILD_ADV = 0, 1, 2


@dataclass(frozen=True)
class TrialOutcome:
    trial: int
    seed: int
    point_error: float
    function_error: float
    adv_success: dict[str, bool]
    queries_used: int
    ms: float


@dataclass
class BatchSummary:
    config: ProtocolConfig
    n_trials: int
    delta_hat: float
    se_delta: float
    adv_rates: dict[str, float]
    se_adv: float
    point_quantiles: tuple[float, float, float]
    function_quantiles: tuple[float, float, float]
    mean_ms: float
    outcomes: list[TrialOutcome]


def instance_for_trial(config: ProtocolConfig, x_star: float) -> FunctionInstance:
    if config.mode == "ConvexEpochGD":
        return make_uniformly_convex(config.kappa, config.lam, x_star)
    return make_abs(x_star)


def trial_seed(master_seed: int, trial: int) -> int:
    """Derived per-trial seed recorded in the CSV."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(trial,))
    return int(ss.generate_state(1, np.uint64)[0])


def sample_x_star(config: ProtocolConfig, stream: RngStream) -> float:
    """Fixed config.x_star, or uniform on [0.05, 0.95] (keeps the optimizer off
    the domain edges)."""
    if config.x_star is not None:
        return float(config.x_star)
    return float(stream.child(_CHILD_XSTAR).generator().uniform(0.05, 0.95))


def run_trial(config: ProtocolConfig, trial: int, master_seed: int) -> TrialOutcome:
    """One protocol run plus one draw of each adversary on its public view."""
    seed = trial_seed(master_seed, trial)
    try:
        stream = RngStream(master_seed, (trial,))
        x_star = sample_x_star(config, stream)
        f = instance_for_trial(config, x_star)
        t0 = time.perf_counter()
        transcript = run_protocol(config, f, stream.child(_CHILD_PROTOCOL))
        estimates = adversary_guesses(
            transcript.public_view(), config.subintervals, config.eps_adv,
            [stream.child(_CHILD_ADV + i).generator() for i in range(len(ADVERSARY_ORDER))],
        )
        ms = (time.perf_counter() - t0) * 1e3
        point_error = abs(transcript.x_hat - x_star)
        function_error = float(f.value(transcript.x_hat)) - f.f_star
        adv_success = {
            name: bool(abs(est.point - x_star) <= config.eps_adv)
            for name, est in estimates.items()
        }
        return TrialOutcome(
            trial=trial, seed=seed, point_error=point_error,
            function_error=function_error, adv_success=adv_success,
            queries_used=len(transcript), ms=ms,
        )
    except Exception as exc:
        raise RuntimeError(f"trial {trial} (seed {seed}) failed: {exc!r}") from exc


def _trial_star(args: tuple[ProtocolConfig, int, int]) -> TrialOutcome:
    return run_trial(*args)


def run_batch(
    config: ProtocolConfig, n_trials: int, master_seed: int, workers: int = 1
) -> BatchSummary:
    """N independent seeded trials; deterministic regardless of worker count."""
    config.validate()
    if not (isinstance(n_trials, (int, np.integer)) and n_trials >= 1):
        raise ParameterError(f"n_trials must be a positive integer, got {n_trials}")
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    jobs = [(config, t, master_seed) for t in range(n_trials)]
    if workers == 1:
        outcomes = [_trial_star(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_trial_star, jobs, chunksize=max(1, n_trials // (8 * workers))))
    return summarize(config, outcomes)


def summarize(config: ProtocolConfig, outcomes: list[TrialOutcome]) -> BatchSummary:
    n = len(outcomes)
    point = np.array([o.point_error for o in outcomes])
    fn = np.array([o.function_error for o in outcomes])
    delta_hat = float(np.mean(point >= config.eps))
    adv_rates = {
        name: float(np.mean([o.adv_success[name] for o in outcomes]))
        for name in ADVERSARY_ORDER
    }
    return BatchSummary(
        config=config, n_trials=n, delta_hat=delta_hat,
        se_delta=math.sqrt(config.delta * (1.0 - config.delta) / n),
        adv_rates=adv_rates,
        se_adv=math.sqrt(config.delta_adv * (1.0 - config.delta_adv) / n),
        point_quantiles=tuple(float(q) for q in np.quantile(point, [0.1, 0.5, 0.9])),
        function_quantiles=tuple(float(q) for q in np.quantile(fn, [0.1, 0.5, 0.9])),
        mean_ms=float(np.mean([o.ms for o in outcomes])),
        outcomes=outcomes,
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def export_csv(summary: BatchSummary) -> str:
    """Fixed-column CSV; byte-identical for identical (config, seed) inputs."""
    cfg = summary.config
    sigma_or_p = cfg.p if cfg.mode == "NoisyBisection" else cfg.sigma
    rows = [CSV_HEADER]
    for o in summary.outcomes:
        rows.append(
            f"{o.trial},{o.seed},{cfg.T},{_fmt(cfg.delta_adv)},{_fmt(cfg.eps_adv)},"
            f"{_fmt(cfg.eps)},{_fmt(cfg.delta)},{_fmt(cfg.kappa)},{_fmt(sigma_or_p)},"
            f"{cfg.mode},{_fmt(o.point_error)},{_fmt(o.function_error)},"
            f"{int(o.adv_success['proportional'])},{int(o.adv_success['packing_ball'])},"
            f"{int(o.adv_success['posterior_interval'])},{int(o.adv_success['uniform_naive'])},"
            f"{o.queries_used},0"
        )
    return "\n".join(rows) + "\n"


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    stderr: float
    intercept: float
    n_points: int


@dataclass
class SweepResult:
    budgets: list[int]
    summaries: list[BatchSummary]
    fit_point: SlopeFit | None
    fit_function: SlopeFit | None


def _ols_loglog(x: np.ndarray, y: np.ndarray) -> SlopeFit | None:
    if np.any(y <= 0.0):
        warnings.warn("non-positive medians; log-log fit skipped", stacklevel=2)
        return None
    lx, ly = np.log(x), np.log(y)
    n = lx.size
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    stderr = math.sqrt(float(np.sum(resid**2)) / (n - 2) / sxx) if n > 2 else math.inf
    return SlopeFit(slope=slope, stderr=stderr, intercept=intercept, n_points=n)


def sweep_budget(
    config: ProtocolConfig,
    budgets: list[int],
    n_trials: int,
    master_seed: int,
    workers: int = 1,
) -> SweepResult:
    """run_batch at each budget T, then fit ln(median error) vs ln(T*delta_adv)."""
    if len(budgets) < 4:
        raise ParameterError(f"need at least 4 budget points for a fit, got {len(budgets)}")
    budgets = [int(b) for b in budgets]
    eff = np.array([b * config.delta_adv for b in budgets], dtype=float)
    if eff.max() / eff.min() < 100.0:
        warnings.warn(
            f"budget span {eff.max() / eff.min():.3g}x is under two decades; "
            "slope estimates will be noisier",
            stacklevel=2,
        )
    summaries = []
    for i, budget in enumerate(budgets):
        batch_seed = trial_seed(master_seed, 1_000_000 + i)
        summaries.append(
            run_batch(config.with_updates(T=budget), n_trials, batch_seed, workers)
        )
    med_point = np.array([s.point_quantiles[1] for s in summaries])
    med_fn = np.array([s.function_quantiles[1] for s in summaries])
    return SweepResult(
        budgets=budgets,
        summaries=summaries,
        fit_point=_ols_loglog(eff, med_point),
        fit_function=_ols_loglog(eff, med_fn),
    )
