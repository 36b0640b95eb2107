"""Command-line front end.

Subcommands: run, sweep, bounds, adversary-eval, export-transcript.  Exit
codes: 0 success, 2 invalid parameters or config, 3 a --check threshold was
violated.  Any setting can come from a YAML config file (--config) and be
overridden with trailing --key=value pairs; values are parsed as YAML (plain
scientific notation such as 1e-4 works too), and dotted keys reach into
nested maps (for instance --overrides.C0=2).
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from dataclasses import fields

import yaml

from .adversary import ADVERSARY_ORDER, adversary_guesses
from .bounds import lower_bound_binary, lower_bound_convex, lower_bound_noisy
from .errors import ParameterError
from .harness import (
    BatchSummary,
    export_csv,
    instance_for_trial,
    run_batch,
    sample_x_star,
    sweep_budget,
)
from .oracles import RngStream
from .protocol import ProtocolConfig, Transcript, run_protocol

_CONFIG_KEYS = {f.name for f in fields(ProtocolConfig)}


def _parse_override(token: str) -> tuple[str, object]:
    if not token.startswith("--") or "=" not in token:
        raise ParameterError(f"unrecognized argument {token!r}; expected --key=value")
    key, _, raw = token[2:].partition("=")
    if not key:
        raise ParameterError(f"empty key in override {token!r}")
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ParameterError(f"cannot parse value for --{key}: {exc}") from exc
    return key, value


def _coerce_numeric(node: object) -> object:
    # YAML 1.1 leaves dotless scientific notation ("1e-4") as a string
    if isinstance(node, dict):
        return {key: _coerce_numeric(val) for key, val in node.items()}
    if isinstance(node, str):
        try:
            num = float(node)
        except ValueError:
            return node
        if math.isfinite(num):
            return int(num) if num.is_integer() else num
    return node


def _set_nested(data: dict, dotted: str, value: object) -> None:
    parts = dotted.split(".")
    node = data
    for part in parts[:-1]:
        nxt = node.get(part)
        if nxt is None:
            nxt = node[part] = {}
        elif not isinstance(nxt, dict):
            raise ParameterError(f"cannot set {dotted!r}: {part!r} is not a map")
        node = nxt
    node[parts[-1]] = value


def load_config(path: str | None, extras: list[str]) -> ProtocolConfig:
    """YAML file settings, then --key=value overrides, then validation."""
    data: dict = {}
    if path is not None:
        with open(path) as fh:
            try:
                loaded = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise ParameterError(f"cannot parse config file {path}: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ParameterError(f"config file {path} must contain a mapping")
        data.update(loaded)
    for token in extras:
        key, value = _parse_override(token)
        _set_nested(data, key, value)
    data = _coerce_numeric(data)
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise ParameterError(f"unknown config keys: {', '.join(unknown)}")
    config = ProtocolConfig(**data)
    try:
        config.validate()
    except TypeError as exc:
        raise ParameterError(f"config value has the wrong type: {exc}") from exc
    return config


def _print_summary(summary: BatchSummary) -> None:
    cfg = summary.config
    print(
        f"mode={cfg.mode} T={cfg.T} delta_adv={cfg.delta_adv} "
        f"n_trials={summary.n_trials}",
    )
    print(
        f"delta_hat={summary.delta_hat:.6g} (target delta={cfg.delta}, "
        f"null se={summary.se_delta:.4g})",
    )
    q10, q50, q90 = summary.point_quantiles
    print(f"point_error q10/q50/q90: {q10:.6g} {q50:.6g} {q90:.6g}")
    q10, q50, q90 = summary.function_quantiles
    print(f"function_error q10/q50/q90: {q10:.6g} {q50:.6g} {q90:.6g}")
    for name in ADVERSARY_ORDER:
        print(f"adv {name}: success_rate={summary.adv_rates[name]:.6g}")
    print(
        f"adv target delta_adv={cfg.delta_adv} (null se={summary.se_adv:.4g}); "
        f"mean trial time {summary.mean_ms:.1f} ms",
    )


def _check_run(summary: BatchSummary) -> list[str]:
    cfg = summary.config
    failures = []
    if summary.delta_hat > cfg.delta + 3.0 * summary.se_delta:
        failures.append(
            f"delta_hat {summary.delta_hat:.6g} exceeds "
            f"{cfg.delta} + 3*{summary.se_delta:.4g}"
        )
    limit = cfg.delta_adv + 3.0 * summary.se_adv
    for name in ADVERSARY_ORDER:
        if summary.adv_rates[name] > limit:
            failures.append(
                f"adversary {name} success {summary.adv_rates[name]:.6g} exceeds {limit:.6g}"
            )
    return failures


def cmd_run(args: argparse.Namespace, extras: list[str]) -> int:
    config = load_config(args.config, extras)
    summary = run_batch(config, args.trials, args.seed, workers=args.workers)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(export_csv(summary))
        print(f"wrote {summary.n_trials} rows to {args.out}")
    _print_summary(summary)
    if args.check:
        failures = _check_run(summary)
        if failures:
            for line in failures:
                print(f"CHECK FAILED: {line}", file=sys.stderr)
            return 3
        print("check passed")
    return 0


def _parse_band(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"band must be 'lo,hi', got {text!r}") from exc
    if not lo < hi:
        raise ParameterError(f"band must satisfy lo < hi, got {text!r}")
    return lo, hi


def cmd_sweep(args: argparse.Namespace, extras: list[str]) -> int:
    config = load_config(args.config, extras)
    try:
        budgets = [int(tok) for tok in args.budgets.split(",")]
    except ValueError as exc:
        raise ParameterError(f"budgets must be comma-separated integers: {exc}") from exc
    result = sweep_budget(config, budgets, args.trials, args.seed, workers=args.workers)
    print("budget,eff_budget,median_point_error,median_function_error")
    for budget, summary in zip(result.budgets, result.summaries):
        print(
            f"{budget},{budget * config.delta_adv!r},"
            f"{summary.point_quantiles[1]!r},{summary.function_quantiles[1]!r}"
        )
    for kind, fit in (("point", result.fit_point), ("function", result.fit_function)):
        if fit is None:
            print(f"{kind} slope: no fit (non-positive medians)")
        else:
            print(f"{kind} slope: {fit.slope:.4f} (stderr {fit.stderr:.4f}, n={fit.n_points})")
    if args.out:
        lines = [export_csv(s) for s in result.summaries]
        body = lines[0] + "".join(part.split("\n", 1)[1] for part in lines[1:])
        with open(args.out, "w", newline="") as fh:
            fh.write(body)
        print(f"wrote per-trial rows to {args.out}")
    if args.check:
        failures = []
        for kind, fit, band_text in (
            ("point", result.fit_point, args.point_band),
            ("function", result.fit_function, args.function_band),
        ):
            lo, hi = _parse_band(band_text)
            if fit is None:
                failures.append(f"{kind} slope: fit unavailable")
            elif not lo <= fit.slope <= hi:
                failures.append(f"{kind} slope {fit.slope:.4f} outside [{lo}, {hi}]")
        if failures:
            for line in failures:
                print(f"CHECK FAILED: {line}", file=sys.stderr)
            return 3
        print("check passed")
    return 0


def cmd_bounds(args: argparse.Namespace, extras: list[str]) -> int:
    cfg = load_config(args.config, extras)
    kappa, budget = cfg.kappa, cfg.T * cfg.delta_adv
    if budget < 1.0:
        warnings.warn(f"effective budget T*delta_adv = {budget:.3g} < 1")
    # the lower bounds' eps exponents, and those of the constant-free upper
    # rates at budget T*delta_adv (polylogarithmic factors omitted)
    exponents = {
        "lower_q_function": (2.0 * kappa - 2.0) / kappa,
        "lower_q_point": 2.0 * kappa - 2.0,
        "upper_function": -kappa / (2.0 * kappa - 2.0),
        "upper_point": -1.0 / (2.0 * kappa - 2.0),
    }
    lower_args = (cfg.eps, cfg.eps_adv, cfg.delta, cfg.delta_adv)
    rows = [
        ("binary", "lower_bound", lower_bound_binary(*lower_args, args.c)),
        ("noisy-binary", "lower_bound", lower_bound_noisy(*lower_args, cfg.p, args.c)),
        ("convex", "lower_bound", lower_bound_convex(
            cfg.eps, cfg.delta, cfg.delta_adv, kappa, cfg.sigma, c=args.c, eps_adv=cfg.eps_adv
        )),
        ("convex", "upper_rate_function", budget ** exponents["upper_function"]),
        ("convex", "upper_rate_point", budget ** exponents["upper_point"]),
    ]
    bad = [f"{setting} {quantity}={value!r}" for setting, quantity, value in rows
           if not (math.isfinite(value) and value > 0.0)]
    if bad:
        raise ParameterError(f"bound values must be positive and finite: {', '.join(bad)}")
    rows += [("convex", f"exponent_{name}", value) for name, value in exponents.items()]
    print("setting,quantity,value")
    for setting, quantity, value in rows:
        print(f"{setting},{quantity},{value!r}")
    return 0


def cmd_adversary_eval(args: argparse.Namespace, extras: list[str]) -> int:
    if extras:
        raise ParameterError(f"unrecognized arguments: {' '.join(extras)}")
    if args.samples < 1:
        raise ParameterError(f"--samples must be at least 1, got {args.samples}")
    with open(args.transcript) as fh:
        transcript = Transcript.from_text(fh)
    public = transcript.public_view()
    if len(public) == 0:
        raise ParameterError("transcript has no queries")
    eps_adv = args.eps_adv if args.eps_adv is not None else transcript.eps_adv
    stream = RngStream(args.seed, ())
    n = args.samples
    # all samples in one call: the same guesses as n single draws
    estimates = adversary_guesses(
        public, transcript.s_count, eps_adv,
        [stream.child(i).generator() for i in range(len(ADVERSARY_ORDER))], n,
    )
    print("strategy,successes,samples,success_rate")
    for name, estimate in estimates.items():
        hits = int((abs(estimate.point - args.x_star) <= eps_adv).sum())
        print(f"{name},{hits},{n},{hits / n!r}")
    return 0


def cmd_export_transcript(args: argparse.Namespace, extras: list[str]) -> int:
    config = load_config(args.config, extras)
    stream = RngStream(args.seed, (args.trial,))
    x_star = sample_x_star(config, stream)
    f = instance_for_trial(config, x_star)
    transcript = run_protocol(config, f, stream.child(0))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            transcript.write_text(fh, public=args.public)
        print(f"wrote {len(transcript)} queries to {args.out}")
    else:
        transcript.write_text(sys.stdout, public=args.public)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: a --key=value override such as --p=0.6 must not
    # prefix-match a subcommand flag (--point-band, --public)
    parser_class = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = parser_class(
        prog="secopt",
        description="Confidential stochastic optimization: protocol runs, "
        "budget sweeps, leakage evaluation, and rate bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)

    def add_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="YAML config file")

    p_run = sub.add_parser("run", help="run a batch of seeded trials")
    add_config(p_run)
    p_run.add_argument("--seed", type=int, required=True, help="master seed")
    p_run.add_argument("-N", "--trials", type=int, default=100)
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--out", help="write per-trial CSV here")
    p_run.add_argument(
        "--check", action="store_true",
        help="exit 3 unless delta_hat and adversary rates are within 3 SE of target",
    )
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="error-vs-budget sweep with log-log fit")
    add_config(p_sweep)
    p_sweep.add_argument("--seed", type=int, required=True)
    p_sweep.add_argument("--budgets", required=True, help="comma-separated T values")
    p_sweep.add_argument("-N", "--trials", type=int, default=100)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", help="write concatenated per-trial CSV here")
    p_sweep.add_argument("--check", action="store_true", help="exit 3 unless slopes in bands")
    p_sweep.add_argument("--point-band", default="-0.7,-0.3")
    p_sweep.add_argument("--function-band", default="-1.3,-0.7")
    p_sweep.set_defaults(func=cmd_sweep)

    p_bounds = sub.add_parser("bounds", help="print lower bounds and upper rates")
    add_config(p_bounds)
    p_bounds.add_argument("--c", type=float, default=1.0, help="bound constant multiplier")
    p_bounds.set_defaults(func=cmd_bounds)

    p_adv = sub.add_parser(
        "adversary-eval", help="replay adversaries against a stored transcript"
    )
    p_adv.add_argument("--transcript", required=True, help="transcript file path")
    p_adv.add_argument("--x-star", type=float, required=True, dest="x_star")
    p_adv.add_argument(
        "--eps-adv", type=float, default=None, dest="eps_adv",
        help="default: the transcript header's eps_adv",
    )
    p_adv.add_argument("--samples", type=int, default=1000)
    p_adv.add_argument("--seed", type=int, required=True)
    p_adv.set_defaults(func=cmd_adversary_eval)

    p_exp = sub.add_parser("export-transcript", help="run one trial and save its transcript")
    add_config(p_exp)
    p_exp.add_argument("--seed", type=int, required=True)
    p_exp.add_argument("--trial", type=int, default=0)
    p_exp.add_argument("--out", help="output path (default stdout)")
    p_exp.add_argument(
        "--public", action="store_true",
        help="write the adversary-visible view (no informative flags)",
    )
    p_exp.set_defaults(func=cmd_export_transcript)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        return args.func(args, extras)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
