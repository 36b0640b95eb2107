"""One benchmark unit: a fresh interpreter runs one workload once and checks it.

`run.py` starts this file with PYTHONPATH pointing at the checkout's `src` (or
at the frozen timing reference) and one JSON argument; the unit prints one JSON
line with its timings, the secopt package it imported, its output
digest and its check results.  With "trace" set, the secopt calls are traced
(see tracing.py) while the workload runs, and the per-layer metrics are added.
With "probe" set, the unit stops once set-up is done.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback
import warnings

# convex_sweep: the acceptance sweep of `secopt sweep` (budgets 2^12..2^17 * 10)
SWEEP_BUDGETS = [k * 10 for k in (4096, 8192, 16384, 32768, 65536, 131072)]
SWEEP_TRIALS = 10
# The `secopt sweep --check` bands, sized for its default N=100.  At
# SWEEP_TRIALS the fitted slopes scatter far more (point slopes from -0.19 to
# -0.93 over 60 seeds at N=10, centred near -0.6, close to the steep edges), so
# a slope passes when the band, widened by three bootstrap standard errors of
# the slope at this N, holds it.
POINT_BAND = (-0.7, -0.3)
FUNCTION_BAND = (-1.3, -0.7)
# bisection_batch: the criterion 5 shape
BATCH_TRIALS = 1000
# transcript_replay
REPLAY_T = 1_310_720
REPLAY_SAMPLES = 20_000

OVERRIDES = {
    "convex_sweep": ["--mode=ConvexEpochGD", "--kappa=2", "--sigma=0.1", "--delta_adv=0.1"],
    "bisection_batch": ["--mode=NoisyBisection", "--T=20000", "--p=0.75", "--eps=1e-3"],
    "transcript_replay": ["--mode=ConvexEpochGD", f"--T={REPLAY_T}"],
}


def run_convex_sweep(config, inputs, workdir):
    from secopt.harness import export_csv, sweep_budget

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*under two decades", category=UserWarning)
        result = sweep_budget(config, SWEEP_BUDGETS, SWEEP_TRIALS, inputs["master_seed"])
    parts = [export_csv(s) for s in result.summaries]
    # the bytes `secopt sweep --out` writes
    csv = parts[0] + "".join(part.split("\n", 1)[1] for part in parts[1:])
    return csv.encode(), result


def check_convex_sweep(config, inputs, result, output, verify):
    failures, info = [], {}
    for kind, fit, (lo, hi) in (
        ("point", result.fit_point, POINT_BAND),
        ("function", result.fit_function, FUNCTION_BAND),
    ):
        if fit is None:
            failures.append(f"{kind} slope: fit unavailable")
            continue
        se = _bootstrap_slope_se(result, f"{kind}_error", inputs["master_seed"])
        info[f"{kind}_slope"] = {
            "slope": fit.slope, "bootstrap_se": se, "in_check_band": lo <= fit.slope <= hi,
        }
        if not lo - 3.0 * se <= fit.slope <= hi + 3.0 * se:
            failures.append(f"{kind} slope {fit.slope:.4f} outside [{lo}, {hi}] +- 3 * {se:.4f}")
    # The widened bands cannot tell a solver that never moves (slope near 0)
    # from a working one at this N, so the full budget must also reach eps in
    # most trials (about 3% miss it: 6 of 200 trials at T=1,310,720).
    full = result.summaries[-1]
    info["full_budget_delta_hat"] = full.delta_hat
    if not full.delta_hat < 0.5:
        failures.append(
            f"T={full.config.T}: {full.delta_hat:.0%} of trials miss eps={config.eps}"
        )
    queries = sum(o.queries_used for s in result.summaries for o in s.outcomes)
    return failures, info, queries, 0


def _bootstrap_slope_se(result, field, seed, resamples=200):
    """Standard error of the sweep's log-log slope: resample each budget's
    trials, refit ln(median error) against ln(T * delta_adv)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    x = np.log([s.config.T * s.config.delta_adv for s in result.summaries])
    errors = [np.array([getattr(o, field) for o in s.outcomes]) for s in result.summaries]
    slopes = [
        np.polyfit(x, np.log([np.median(rng.choice(e, e.size)) for e in errors]), 1)[0]
        for _ in range(resamples)
    ]
    return float(np.std(slopes))


def run_bisection_batch(config, inputs, workdir):
    from secopt.harness import export_csv, run_batch

    summary = run_batch(config, BATCH_TRIALS, inputs["master_seed"], workers=1)
    return export_csv(summary).encode(), summary


def check_bisection_batch(config, inputs, summary, output, verify):
    failures = []
    if summary.delta_hat > config.delta + 3.0 * summary.se_delta:
        failures.append(f"delta_hat {summary.delta_hat} above {config.delta} + 3 se")
    for name, rate in summary.adv_rates.items():
        if rate > config.delta_adv + 3.0 * summary.se_adv:
            failures.append(f"adversary {name} rate {rate} above {config.delta_adv} + 3 se")
    info = {"delta_hat": summary.delta_hat, "adv_rates": summary.adv_rates}
    queries = sum(o.queries_used for o in summary.outcomes)
    return failures, info, queries, 0


def run_transcript_replay(config, inputs, workdir):
    from secopt import cli

    path = os.path.join(workdir, "transcript.txt")
    x_star = repr(inputs["x_star"])
    commands = [
        ["export-transcript", "--seed", str(inputs["export_seed"]), "--trial", "0",
         "--out", path, *OVERRIDES["transcript_replay"], f"--x_star={x_star}"],
        ["adversary-eval", "--transcript", path, "--x-star", x_star,
         "--seed", str(inputs["eval_seed"]), "--samples", str(REPLAY_SAMPLES)],
    ]
    codes, stdout = [], io.StringIO()
    for argv in commands:
        with contextlib.redirect_stdout(stdout):
            codes.append(cli.main(argv))
    with open(path, "rb") as fh:
        output = fh.read()
    return output, (codes, stdout.getvalue())


def check_transcript_replay(config, inputs, result, output, verify):
    codes, stdout = result
    failed = sum(code != 0 for code in codes)
    failures = [f"command {i} exited {code}" for i, code in enumerate(codes) if code != 0]
    rates = {}
    for line in stdout.splitlines():
        parts = line.split(",")
        if len(parts) == 4 and parts[2] == str(REPLAY_SAMPLES):
            rates[parts[0]] = int(parts[1]) / REPLAY_SAMPLES
    se = math.sqrt(config.delta_adv * (1.0 - config.delta_adv) / REPLAY_SAMPLES)
    if len(rates) != 4:
        failures.append(f"adversary-eval printed {len(rates)} of 4 strategies")
    for name, rate in rates.items():
        if rate > config.delta_adv + 3.0 * se:
            failures.append(f"adversary {name} rate {rate} above {config.delta_adv} + 3 se")
    if verify:
        failures += _round_trip_failures(config, inputs, output)
    rows = output.count(b"\n") - 1
    info = {"adv_rates": rates, "round_trip_checked": verify}
    return failures, info, 2 * rows, failed


def _round_trip_failures(config, inputs, output):
    """from_text(to_text(t)) must give back t's arrays exactly, where t is the
    transcript export-transcript wrote (rebuilt from the same stream)."""
    import numpy as np
    from secopt.harness import instance_for_trial
    from secopt.oracles import RngStream
    from secopt.protocol import Transcript, run_protocol

    original = run_protocol(
        config, instance_for_trial(config, inputs["x_star"]),
        RngStream(inputs["export_seed"], (0,)).child(0),
    )
    parsed = Transcript.from_text(output.decode())
    return [
        f"round trip changed {name}"
        for name in ("points", "phase", "sub", "informative")
        if getattr(parsed, name).dtype != getattr(original, name).dtype
        or not np.array_equal(getattr(parsed, name), getattr(original, name))
    ]


# workload -> (run, check, operations attempted: trials or commands)
WORKLOADS = {
    "convex_sweep": (run_convex_sweep, check_convex_sweep, len(SWEEP_BUDGETS) * SWEEP_TRIALS),
    "bisection_batch": (run_bisection_batch, check_bisection_batch, BATCH_TRIALS),
    "transcript_replay": (run_transcript_replay, check_transcript_replay, 2),
}


def main() -> int:
    spec = json.loads(sys.argv[1])
    name, inputs = spec["workload"], spec["inputs"]
    run, check, attempted = WORKLOADS[name]
    t0 = time.perf_counter()
    import numpy
    from secopt import cli
    import_s = time.perf_counter() - t0
    report = {
        "import_s": import_s, "numpy": numpy.__version__,
        "package": os.path.dirname(os.path.abspath(cli.__file__)),
    }

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
    crash = None
    with tracer.installed() if tracer else contextlib.nullcontext():
        config = cli.load_config(None, OVERRIDES[name])
        report["t_ready"], report["cpu_ready"] = time.perf_counter(), time.process_time()
        if spec["probe"]:
            print(json.dumps(report))
            return 0
        try:
            output, result = run(config, inputs, spec["workdir"])
        except Exception as exc:  # reported as failed operations, not a benchmark crash
            traceback.print_exc()
            crash = f"{name} raised {exc!r}"
        report["t_done"], report["cpu_done"] = time.perf_counter(), time.process_time()
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["attempted"] = attempted
    if crash:
        report.update(failures=[crash], failed=attempted, queries=0, digest=None, info={})
    else:
        failures, info, queries, failed = check(config, inputs, result, output, spec["verify"])
        report.update(
            failures=failures, info=info, queries=queries, failed=failed,
            digest=hashlib.sha256(output).hexdigest(), output_bytes=len(output),
        )
    if tracer:
        report["layers"] = tracer.metrics(import_s)
        report["counts"] = tracer.counts()
        report["missing"] = tracer.missing
        if spec.get("spans_path"):
            with open(spec["spans_path"], "w") as fh:
                json.dump(tracer.spans, fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
