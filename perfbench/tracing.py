"""Per-layer tracing for the traced benchmark run.

`Tracer.installed()` wraps the public functions of every `secopt` module from
outside, and restores the originals when it exits; no program file changes.
Each secopt module is one layer.  A call that crosses into another layer opens
a frame, so every layer gets a busy time and every function a self time (its
busy time minus the frames it opened in other layers).  A call within the same
layer is only counted: the enclosing frame already covers it.

The microsecond-scale calls (propose, feed, subgrad, noisy_sign, generator)
are kept as aggregate counts and busy times.  Spans, with one trace id per
trial, are kept only for the trial, protocol, adversary and I/O boundaries.
"""
from __future__ import annotations

import contextlib
import dataclasses
import inspect
import itertools
import statistics
import sys
import time

LAYERS = ("cli", "harness", "protocol", "epoch_gd", "functions", "oracles", "adversary", "bounds")

# Methods timed as functions of their module's layer.
METHODS = (
    ("protocol", "Transcript", "public_view"),
    ("protocol", "Transcript", "to_text"),
    ("protocol", "Transcript", "from_text"),
    ("protocol", "ProtocolConfig", "config_hash"),
    ("oracles", "RngStream", "generator"),
)

# Factories whose instances get their value/subgrad closures wrapped.
FACTORIES = ("make_abs", "make_uniformly_convex")

ADVERSARIES = {
    "proportional": "adversary.proportional_sample",
    "packing_ball": "adversary.packing_ball_sample",
    "posterior_interval": "adversary.posterior_interval_adversary",
    "uniform_naive": "adversary.uniform_naive",
}

# Calls recorded as spans; a run_trial span starts a new trace id.
SPANS = frozenset({
    "cli.main", "cli.load_config",
    "harness.sweep_budget", "harness.run_batch", "harness.run_trial",
    "harness.summarize", "harness.export_csv",
    "protocol.run_protocol", "protocol.Transcript.public_view",
    "protocol.Transcript.to_text", "protocol.Transcript.from_text",
    *ADVERSARIES.values(),
})
TRIAL_SPAN = "harness.run_trial"

# Functions the metrics read; any the program lacks is reported as missing.
SOURCES = (
    "epoch_gd.epoch_gd_propose", "epoch_gd.epoch_gd_feed", "protocol.run_protocol",
    "oracles.noisy_sign_oracle", "harness.run_trial", "harness.summarize",
    "harness.export_csv", "cli.load_config", *ADVERSARIES.values(),
    *(f"functions.{name}" for name in FACTORIES),
)

# Every per-layer metric, in report order, with its unit and the end-to-end
# metric and workloads it is predicted to move.
PER_LAYER = {
    "epoch_gd.propose.count": ("count", "cpu_time_ratio on convex_sweep; zero on bisection_batch"),
    "epoch_gd.feed.count": ("count", "cpu_time_ratio on convex_sweep; zero on bisection_batch"),
    "epoch_gd.busy_s": ("s", "cpu_time_ratio on convex_sweep; zero on bisection_batch"),
    "epoch_gd.us_per_phase": ("us", "cpu_time_ratio on convex_sweep; zero on bisection_batch"),
    "epoch_gd.budget_use": ("ratio", "cpu_time_ratio on convex_sweep; zero on bisection_batch"),
    "functions.subgrad.count": ("count", "cpu_time_ratio on convex_sweep"),
    "functions.subgrad.busy_s": ("s", "cpu_time_ratio on convex_sweep"),
    "protocol.run.count": ("count", "cpu_time_ratio on convex_sweep and bisection_batch"),
    "protocol.run.busy_s": ("s", "cpu_time_ratio on convex_sweep and bisection_batch"),
    "protocol.self_s": ("s", "cpu_time_ratio on convex_sweep and bisection_batch"),
    "protocol.queries": ("count", "cpu_time_ratio on every workload"),
    "protocol.transcript_mb": ("MB", "peak_rss_mb on convex_sweep and transcript_replay"),
    "protocol.public_view.busy_s": ("s", "cpu_time_ratio on convex_sweep and bisection_batch"),
    "protocol.config_hash.count": ("count", "cpu_time_ratio on convex_sweep and bisection_batch"),
    "protocol.to_text.busy_s": ("s", "cpu_time_ratio on transcript_replay only"),
    "protocol.to_text.mb": ("MB", "cpu_time_ratio and peak_rss_mb on transcript_replay only"),
    "protocol.from_text.busy_s": ("s", "cpu_time_ratio on transcript_replay only"),
    "oracles.generator.count": ("count", "cpu_time_ratio on bisection_batch, and convex_sweep at small T"),
    "oracles.generator.busy_s": ("s", "cpu_time_ratio on bisection_batch, and convex_sweep at small T"),
    "oracles.noisy_sign.count": ("count", "cpu_time_ratio on bisection_batch"),
    "oracles.noisy_sign.busy_s": ("s", "cpu_time_ratio on bisection_batch"),
    **{
        f"adversary.{name}.{kind}": (unit, "cpu_time_ratio on transcript_replay; negligible on convex_sweep")
        for name in ADVERSARIES
        for kind, unit in (("count", "count"), ("busy_s", "s"), ("fell_back_ratio", "ratio"))
    },
    "harness.run_trial.count": ("count", "cpu_time_ratio on convex_sweep and bisection_batch"),
    "harness.run_trial.p50_ms": ("ms", "cpu_time_ratio on convex_sweep and bisection_batch"),
    "harness.run_trial.p90_ms": ("ms", "cpu_time_ratio on convex_sweep and bisection_batch"),
    "harness.summarize.busy_s": ("s", "cpu_time_ratio on convex_sweep and bisection_batch"),
    "harness.export_csv.busy_s": ("s", "cpu_time_ratio on convex_sweep and bisection_batch"),
    "harness.export_csv.bytes": ("bytes", "cpu_time_ratio on convex_sweep and bisection_batch"),
    "cli.load_config.busy_s": ("s", "setup_s on every workload"),
    "cli.import_s": ("s", "setup_s on every workload"),
    "trace.overhead_s": ("s", "none: traced minus untraced raw wall time"),
}


@dataclasses.dataclass
class Stat:
    count: int = 0
    busy: float = 0.0
    self_time: float = 0.0


def _transcript_bytes(transcript) -> int:
    return sum(getattr(v, "nbytes", 0) for v in vars(transcript).values())


class Tracer:
    """Counts, busy and self times per function, layer busy times and spans."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.layer_busy = dict.fromkeys(LAYERS, 0.0)
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.queries = 0
        self.phases = 0
        self.gradients_fed = 0
        self.transcript_bytes = 0
        self.max_transcript_bytes = 0
        self.to_text_bytes = 0
        self.export_csv_bytes = 0
        self.fell_back = dict.fromkeys(ADVERSARIES.values(), 0)
        self._frames: list[list] = [["bench", 0.0]]
        self._open_spans: list[int] = []
        self._trace_ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {f"functions.{name}": self._wrap_instance for name in FACTORIES}
        self._hooks["protocol.run_protocol"] = self._on_transcript
        self._hooks["protocol.Transcript.to_text"] = self._on_text
        self._hooks["harness.export_csv"] = self._on_csv
        for qualname in ADVERSARIES.values():
            self._hooks[qualname] = self._fell_back_counter(qualname)

    # ---- installation -------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _install(self) -> None:
        modules = {
            name: sys.modules[f"secopt.{name}"] for name in LAYERS
            if f"secopt.{name}" in sys.modules
        }
        namespaces = [m for n, m in sys.modules.items() if n == "secopt" or n.startswith("secopt.")]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(obj, layer, f"{layer}.{name}")
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, attr, wrapped)
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules.get(layer), cls_name, None)
            raw = getattr(cls, "__dict__", {}).get(attr)
            if raw is None:
                self.missing.append(f"{layer}.{cls_name}.{attr}")
                continue
            qualname = f"{layer}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, layer, qualname)))
            else:
                self._patch(cls, attr, self._wrap(raw, layer, qualname))
        self.missing += [q for q in SOURCES if q not in self.stats]

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # ---- wrappers -------------------------------------------------------
    def _wrap(self, fn, layer: str, qualname: str):
        stat = self.stats.setdefault(qualname, Stat())
        on_return = self._hooks.get(qualname)
        is_span = qualname in SPANS
        frames, busy, clock = self._frames, self.layer_busy, time.perf_counter

        def traced(*args, **kwargs):
            stat.count += 1
            parent = frames[-1]
            new_frame = parent[0] != layer
            if new_frame:
                frame = [layer, 0.0]
                frames.append(frame)
            elif not is_span:  # same-layer call: the enclosing frame covers it
                result = fn(*args, **kwargs)
                return on_return(result) if on_return else result
            span = self._open_span(qualname) if is_span else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stat.busy += dt
                if span is not None:
                    self._open_spans.pop()
                    span["start"], span["end"] = t0, t1
                if new_frame:
                    frames.pop()
                    parent[1] += dt
                    stat.self_time += dt - frame[1]
                    busy[layer] += dt
            return on_return(result) if on_return else result

        return traced

    def _open_span(self, qualname: str) -> dict:
        parent = self._open_spans[-1] if self._open_spans else None
        if parent is None or qualname == TRIAL_SPAN:
            trace_id = next(self._trace_ids)
        else:
            trace_id = self.spans[parent]["trace"]
        span = {"name": qualname, "trace": trace_id, "parent": parent}
        self._open_spans.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap_instance(self, instance):
        return dataclasses.replace(instance, **{
            name: self._wrap(getattr(instance, name), "functions", f"functions.{name}")
            for name in ("value", "subgrad")
        })

    def _on_transcript(self, transcript):
        n = len(transcript)
        size = _transcript_bytes(transcript)
        self.queries += n
        self.phases += n // transcript.s_count
        self.gradients_fed += transcript.effective_gradients
        self.transcript_bytes += size
        self.max_transcript_bytes = max(self.max_transcript_bytes, size)
        return transcript

    def _on_text(self, text):
        self.to_text_bytes += len(text)
        return text

    def _on_csv(self, text):
        self.export_csv_bytes += len(text)
        return text

    def _fell_back_counter(self, qualname):
        def on_return(estimate):
            self.fell_back[qualname] += bool(estimate.fell_back)
            return estimate
        return on_return

    # ---- results ----------------------------------------------------------
    def stat(self, qualname: str) -> Stat:
        return self.stats.get(qualname, Stat())

    def metrics(self, import_s: float) -> dict[str, float]:
        """Every PER_LAYER metric except trace.overhead_s, which needs an
        untraced run to compare against."""
        s = self.stat
        propose, feed = s("epoch_gd.epoch_gd_propose"), s("epoch_gd.epoch_gd_feed")
        run = s("protocol.run_protocol")
        trial_ms = [
            (sp["end"] - sp["start"]) * 1e3 for sp in self.spans if sp["name"] == TRIAL_SPAN
        ]
        deciles = (
            statistics.quantiles(trial_ms, n=10, method="inclusive")
            if len(trial_ms) > 1 else trial_ms * 9 or [0.0] * 9
        )
        phases = self.phases
        out = {
            "epoch_gd.propose.count": propose.count,
            "epoch_gd.feed.count": feed.count,
            "epoch_gd.busy_s": self.layer_busy["epoch_gd"],
            "epoch_gd.us_per_phase": self.layer_busy["epoch_gd"] / phases * 1e6 if phases else 0.0,
            "epoch_gd.budget_use": feed.count / phases if phases else 0.0,
            "functions.subgrad.count": s("functions.subgrad").count,
            "functions.subgrad.busy_s": s("functions.subgrad").busy,
            "protocol.run.count": run.count,
            "protocol.run.busy_s": run.busy,
            "protocol.self_s": run.self_time,
            "protocol.queries": self.queries,
            "protocol.transcript_mb": self.max_transcript_bytes / 1e6,
            "protocol.public_view.busy_s": s("protocol.Transcript.public_view").busy,
            "protocol.config_hash.count": s("protocol.ProtocolConfig.config_hash").count,
            "protocol.to_text.busy_s": s("protocol.Transcript.to_text").busy,
            "protocol.to_text.mb": self.to_text_bytes / 1e6,
            "protocol.from_text.busy_s": s("protocol.Transcript.from_text").busy,
            "oracles.generator.count": s("oracles.RngStream.generator").count,
            "oracles.generator.busy_s": s("oracles.RngStream.generator").busy,
            "oracles.noisy_sign.count": s("oracles.noisy_sign_oracle").count,
            "oracles.noisy_sign.busy_s": s("oracles.noisy_sign_oracle").busy,
            "harness.run_trial.count": len(trial_ms),
            "harness.run_trial.p50_ms": deciles[4],
            "harness.run_trial.p90_ms": deciles[8],
            "harness.summarize.busy_s": s("harness.summarize").busy,
            "harness.export_csv.busy_s": s("harness.export_csv").busy,
            "harness.export_csv.bytes": self.export_csv_bytes,
            "cli.load_config.busy_s": s("cli.load_config").busy,
            "cli.import_s": import_s,
        }
        for name, qualname in ADVERSARIES.items():
            stat = s(qualname)
            out[f"adversary.{name}.count"] = stat.count
            out[f"adversary.{name}.busy_s"] = stat.busy
            out[f"adversary.{name}.fell_back_ratio"] = (
                self.fell_back[qualname] / stat.count if stat.count else 0.0
            )
        return out

    def counts(self) -> dict[str, int]:
        """Exact work counts that must repeat for a given seed."""
        return {
            "phases": self.phases,
            "gradients_fed": self.gradients_fed,
            "queries": self.queries,
            "generator_calls": self.stat("oracles.RngStream.generator").count,
            "transcript_bytes": self.transcript_bytes,
            "transcript_text_bytes": self.to_text_bytes,
        }

