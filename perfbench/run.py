"""secopt benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the checkout's `src/secopt`.  Each
unit of work runs in a fresh interpreter (unit.py), so every unit pays the
set-up a user pays: interpreter start, import and config load.  Units repeat
in rounds, on the same inputs, until the next round would end after S seconds
(at least one round); every metric is the median over the rounds.  Each round
starts with SETUP_PROBES units that stop once set-up is done, which give
`setup_s`.  The workload inputs (program seeds and the replayed optimizer) are
drawn from --seed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced units.
A round runs one unit on the checkout and one on the frozen copy of secopt in
reference/ at the same time, both pinned to one CPU (a different CPU each
round), and `cpu_time_ratio` is the checkout's CPU time over the reference's.
The host's speed drifts by more than any regression bound, within seconds and
over minutes; two processes that share one CPU see the same drift, so their
ratio cancels it (see reference/README.md).  Raw CPU times are printed too.
--trace 1 makes a round one untraced and then one traced checkout unit and
reports the per-layer metrics of the traced ones, plus the tracing overhead
(traced minus untraced wall time).  Either way the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it are the report: checks, output digest, exact counts and provenance.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from tracing import PER_LAYER  # noqa: E402
from unit import WORKLOADS  # noqa: E402

REFERENCE = HERE / "reference"
SETUP_PROBES = 5  # per round
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "cpu_time_ratio": "ratio",
    "peak_rss_mb": "MB",
    "outputs_ok": "bool",
}


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    return {
        "master_seed": rng.getrandbits(32),
        "export_seed": rng.getrandbits(32),
        "eval_seed": rng.getrandbits(32),
        "x_star": round(rng.uniform(0.05, 0.95), 6),
    }


def provenance(root: Path, seed: int, numpy_version: str | None) -> dict:
    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "last_level_cache": None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": None,
        "seed": seed,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None
            )
    except OSError:
        pass
    caches = []
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            caches.append((level, (index / "size").read_text().strip()))
        except (OSError, ValueError):
            continue
    if caches:
        level, size = max(caches)
        info["last_level_cache"] = f"L{level} {size}"
    info["git_commit"] = _git_commit(root / ".git")
    return info


def _git_commit(git: Path) -> str | None:
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Starts units in fresh interpreters and keeps what they report."""

    def __init__(self, root: Path, workload: str, inputs: dict, workdir: Path, deadline: float):
        self.root, self.workload, self.inputs = root, workload, inputs
        self.workdir, self.deadline = workdir, deadline
        self.packages = {False: root / "src", True: REFERENCE}
        self.envs = {
            reference: {**os.environ, "PYTHONPATH": os.pathsep.join(
                p for p in (str(path), os.environ.get("PYTHONPATH")) if p
            )}
            for reference, path in self.packages.items()
        }
        self.t_start = time.perf_counter()
        self.units: list[dict] = []  # checkout units
        self.reference_cpu: list[float] = []
        self.reference_digests: set[str] = set()
        self.ratios: list[float] = []  # checkout cpu_s / reference cpu_s, per round
        self.setups: list[float] = []
        self.errors: list[str] = []

    def start(self, *kinds: dict, cpu: int | None = None) -> list[dict] | None:
        """Runs one unit per kind, all at once; with `cpu`, all pinned to that
        CPU.  Returns the units, or None if any of them failed to report."""
        limit = self.t_start + RUN_LIMIT_S
        launched = []
        try:
            for kind in kinds:
                launched.append((kind, time.perf_counter(), self._launch(kind)))
                if cpu is not None:
                    os.sched_setaffinity(launched[-1][2].pid, {cpu})
            finished = []
            for kind, t_spawn, proc in launched:
                stdout, stderr = proc.communicate(timeout=max(limit - time.perf_counter(), 1.0))
                finished.append((kind, t_spawn, proc.returncode, stdout, stderr))
        except subprocess.TimeoutExpired:
            self.errors.append(f"unit still running {RUN_LIMIT_S:.0f} s into the run")
            return None
        finally:
            for _, _, proc in launched:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
        units = [self._collect(*result) for result in finished]
        return None if None in units else units

    def _launch(self, kind: dict) -> subprocess.Popen:
        reference = kind.get("reference", False)
        workdir = self.workdir / ("reference" if reference else "checkout")
        workdir.mkdir(exist_ok=True)
        spec = {
            "workload": self.workload, "inputs": self.inputs,
            "trace": kind.get("trace", False), "probe": kind.get("probe", False),
            "verify": kind.get("verify", False), "workdir": str(workdir),
            "spans_path": kind.get("spans_path"),
        }
        return subprocess.Popen(
            [sys.executable, str(HERE / "unit.py"), json.dumps(spec)],
            cwd=self.root, env=self.envs[reference], text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )

    def _collect(self, kind, t_spawn, returncode, stdout, stderr) -> dict | None:
        reference = kind.get("reference", False)
        lines = stdout.strip().splitlines()
        try:
            unit = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            unit = None
        if returncode != 0 or unit is None:
            self.errors.append(f"unit exited {returncode}: {stderr.strip()[-2000:]}")
            return None
        if stderr.strip():
            print(stderr.rstrip(), file=sys.stderr)
        expected = self.packages[reference] / "secopt"
        if Path(unit["package"]).resolve() != expected.resolve():
            self.errors.append(f"unit imported secopt from {unit['package']}, not {expected}")
            return None
        unit["trace"] = kind.get("trace", False)
        if kind.get("probe"):
            self.setups.append(unit["t_ready"] - t_spawn)
            return unit
        unit["wall_s"] = unit["t_done"] - unit["t_ready"]
        unit["cpu_s"] = unit["cpu_done"] - unit["cpu_ready"]
        if reference:
            if unit["failed"]:  # the frozen copy is known good
                self.errors.append("reference unit failed: " + "; ".join(unit["failures"]))
                return None
            self.reference_cpu.append(unit["cpu_s"])
            self.reference_digests.add(unit["digest"])
        else:
            self.units.append(unit)
        return unit

    def fits(self, seconds_needed: float) -> bool:
        return time.perf_counter() + seconds_needed <= self.deadline


def _median(values):
    if not values:
        return 0.0
    if all(v == values[0] for v in values):
        return values[0]  # exact counts stay whole numbers
    return statistics.median(values)


def run(args, root: Path) -> None:
    inputs = make_inputs(args.workload, args.seed)
    out_dir = root / ".bench_out"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    cpus = sorted(os.sched_getaffinity(0))
    try:
        runner = Runner(root, args.workload, inputs, workdir, time.perf_counter() + args.seconds)
        # warm-up: byte-compile both packages, fill the file cache
        runner.start({"probe": True}, {"probe": True, "reference": True})
        runner.setups.clear()
        rounds = 0
        while not runner.errors:
            t_round = time.perf_counter()
            for _ in range(SETUP_PROBES):
                runner.start({"probe": True})
            checkout = {"verify": not runner.units}
            if args.trace:
                units = runner.start(checkout) and runner.start(
                    {"trace": True, "spans_path": str(spans_path)}
                )
            else:  # the pair shares one CPU, a different one each round
                units = runner.start(checkout, {"reference": True}, cpu=cpus[rounds % len(cpus)])
                if units:
                    runner.ratios.append(units[0]["cpu_s"] / units[1]["cpu_s"])
            if not units or any(u["failed"] for u in runner.units):
                break
            rounds += 1
            if not runner.fits(time.perf_counter() - t_round):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, root, runner, spans_path)


def report(args, root: Path, runner: Runner, spans_path: Path) -> None:
    units = runner.units
    plain = [u for u in units if not u["trace"]]
    traced = [u for u in units if u["trace"]]
    # a run in which no unit completed counts as one failed operation
    attempted = sum(u["attempted"] for u in units) or 1
    failed = sum(u["failed"] for u in units) if units else 1
    failures = list(runner.errors)
    for u in units:
        failures += u["failures"]
    digests = {u["digest"] for u in units}
    if len(digests) > 1:
        failures.append(f"same inputs gave {len(digests)} different output digests")
    counts = [json.dumps(u["counts"], sort_keys=True) for u in traced]
    if len(set(counts)) > 1:
        failures.append("same inputs gave different exact counts")
    rounds = traced if args.trace else runner.ratios
    if not plain or not rounds:
        failures.append("no round completed")
    outputs_ok = not failures
    correct = outputs_ok and failed == 0

    wall = _median([u["wall_s"] for u in plain])
    cpu = _median([u["cpu_s"] for u in plain])
    end_to_end = {
        "setup_s": _median(runner.setups),
        "cpu_time_ratio": _median(runner.ratios),
        "peak_rss_mb": _median([u["rss_mb"] for u in plain]),
        "outputs_ok": 1 if outputs_ok else 0,
    }
    per_layer = {}
    if traced:
        for name in traced[0]["layers"]:
            per_layer[name] = _median([u["layers"][name] for u in traced])
        per_layer["trace.overhead_s"] = _median([u["wall_s"] for u in traced]) - wall

    first = (plain or traced or [{}])[0]
    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(plain)} untraced units, {len(traced)} traced units, "
        f"{len(runner.reference_cpu)} reference units, {len(runner.setups)} set-up samples",
        "provenance " + json.dumps(provenance(root, args.seed, first.get("numpy"))),
        "inputs " + json.dumps(runner.inputs),
        f"outputs sha256 {first.get('digest')} ({first.get('output_bytes')} bytes), "
        f"identical in all {len(units)} units: {len(digests) == 1}",
        "checks " + json.dumps(first.get("info", {})),
        f"error_rate {failed / attempted!r} ({failed} failed of {attempted} attempted)",
        f"raw medians over untraced checkout units (they drift with the host): cpu_s {cpu!r} s, "
        f"queries per cpu second {_median([u['queries'] / u['cpu_s'] for u in plain])!r} 1/s",
        "samples " + json.dumps({
            "setup_s": runner.setups,
            "cpu_s": [u["cpu_s"] for u in plain],
            "reference_cpu_s": runner.reference_cpu,
            "cpu_time_ratio": runner.ratios,
            "wall_s": [u["wall_s"] for u in plain],
            "traced_wall_s": [u["wall_s"] for u in traced],
        }),
    ]
    if runner.reference_digests:
        # not a check: a change may alter outputs on purpose, but should say so
        lines.append(
            f"outputs identical to the frozen reference's: {digests == runner.reference_digests}"
        )
    if traced:
        lines.append("counts " + json.dumps(traced[0]["counts"]))
        lines.append(f"spans {spans_path.relative_to(root)}")
        if traced[0]["missing"]:
            lines.append("not found in the program: " + ", ".join(traced[0]["missing"]))
    lines += [f"CHECK FAILED: {f}" for f in dict.fromkeys(failures)]
    if args.trace:
        metrics = {name: (per_layer.get(name, 0.0), unit) for name, (unit, _) in PER_LAYER.items()}
        lines += [
            f"{name} {value!r} {unit}  (predicted to move {PER_LAYER[name][1]})"
            for name, (value, unit) in metrics.items()
        ]
    else:
        metrics = {name: (end_to_end[name], unit) for name, unit in END_TO_END.items()}
        lines += [f"{name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"],
        help="one workload, or all of them in turn, each with its own report",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "secopt" / "__init__.py").is_file():
        print(f"error: no secopt sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if [m["name"] for m in declared[key]] != list(names):
            print(f"error: BENCHMARK.json {key} names differ from the ones run.py reports",
                  file=sys.stderr)
            return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run(argparse.Namespace(**{**vars(args), "workload": name}), root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
