"""Live observability plugins: counter export and periodic stats.

Both classes are plain plugins (``sim.attach(...)``) with no simulator
support code — the same extension surface fault injection and churn use.
:class:`CounterExporter` renders the run ledger's totals
(:data:`repro.sim.metrics.RUN_COUNTERS`) and a few live gauges in the
Prometheus text exposition format (write the file where a node-exporter
textfile collector looks, or serve it verbatim); it keeps no count of
its own. :class:`StatsLine` prints a one-line digest every N settled
rounds so an operator can eyeball a long service run without attaching a
trace log.

Neither plugin mutates simulator state, so attaching them never
changes a schedule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.core.ioutil import replace_text
from repro.sim import hooks as _hooks

if TYPE_CHECKING:
    from pathlib import Path

    from repro.sim.hooks import SimulatorPort

    _Source = str | Callable[[SimulatorPort], int] | None

__all__ = ["CounterExporter", "StatsLine"]


def _scheduler_of(sim: SimulatorPort) -> Any:
    return sim.pipeline.scheduler


def _probe_cache_of(sim: SimulatorPort) -> Any:
    return getattr(_scheduler_of(sim), "cache", None)


def _probe_cache_purges(sim: SimulatorPort) -> int:
    cache = _probe_cache_of(sim)
    return getattr(cache, "purges", 0) if cache is not None else 0


def _probe_cache_entries(sim: SimulatorPort) -> int:
    cache = _probe_cache_of(sim)
    return len(cache) if cache is not None else 0


def _prediction_error_ewma(sim: SimulatorPort) -> float:
    return float(getattr(_scheduler_of(sim), "prediction_error_ewma", 0.0))


def _fallback_active(sim: SimulatorPort) -> int:
    return int(bool(getattr(_scheduler_of(sim), "fallback_active", False)))


def _max_transient_overload(sim: SimulatorPort) -> float:
    return float(sim.metrics_collector.totals["max_transient_overload"])


#: (counter name, help text, source) in render order. A ``str`` source is
#: a run-ledger key (``MetricsCollector.totals``); a callable reads the
#: simulator for a value another component already keeps; ``None`` marks
#: a series owned by whoever built the exporter (the service hands in
#: readers for its crash-recovery counts; zero without one).
_COUNTERS: tuple[tuple[str, str, _Source], ...] = (
    ("events_arrived", "Update events that entered the queue.",
     lambda sim: sim.metrics_collector.record_count),
    ("events_completed", "Update events that finished.",
     lambda sim: sim.metrics_collector.completed_count),
    ("events_dropped", "Update events evicted past their deferral budget.",
     lambda sim: sim.metrics_collector.dropped_count),
    ("events_deferred", "Deferrals charged (an event can defer repeatedly).",
     "deferrals"),
    ("rounds", "Scheduling rounds settled (empty rounds included).",
     "rounds_settled"),
    ("admissions", "Admissions that executed successfully.", "admissions"),
    ("plan_stages",
     "Compiled-plan stages applied across admissions (1 per atomic "
     "admission; staged/augmented plans contribute their stage count).",
     "total_stages"),
    ("flows_finished", "Admitted flows that completed transmission.",
     "flows_finished"),
    ("exec_retries", "Failed execution attempts that were retried.",
     "retries"),
    ("exec_failures", "Admissions whose execution failed terminally.",
     "exec_failures"),
    ("faults_injected", "Link/switch failures fired mid-run.",
     "faults_injected"),
    ("faults_healed", "Failures that healed.", "faults_healed"),
    ("churn_ticks", "Background flow completions.", "churn_ticks"),
    # Probe-loop health (PreRound deltas; zero for schedulers without a
    # probe cache / learned ranking).
    ("probe_cache_hits", "Cost probes served from the probe cache.",
     "probe_cache_hits"),
    ("probe_cache_misses", "Cost probes that required a fresh plan.",
     "probe_cache_misses"),
    ("probe_cache_invalidations",
     "Cached probes evicted on footprint version drift.",
     "probe_cache_invalidations"),
    ("probes_skipped",
     "Sampled candidates never exactly probed (learned ranking budget).",
     "probes_skipped"),
    ("prediction_samples",
     "Online training pairs the learned scheduler consumed.",
     "prediction_samples"),
    ("fallback_rounds",
     "Rounds the learned scheduler degraded to full probing.",
     "fallback_rounds"),
    # Crash-recovery health (zero on runs without a state dir).
    ("restarts",
     "1 when this run is a resume (a re-run of its journal), else 0.",
     None),
    ("journal_records", "Records appended to the write-ahead journal.",
     None),
    ("recovery_replayed_events",
     "Journal records verified by re-execution after a resume.",
     None),
    ("probe_cache_purges",
     "Probe-cache entries dropped by completion/drop purges.",
     _probe_cache_purges),
)

#: (gauge name, help text, reader) in render order.
_GAUGES: tuple[tuple[str, str, Callable[[SimulatorPort], int | float]],
               ...] = (
    ("queue_depth", "Events waiting in the scheduler queue.",
     lambda sim: sim.pipeline.queue_depth),
    ("events_remaining", "Events enqueued but not yet terminal.",
     lambda sim: sim.pipeline.events_remaining),
    ("engine_pending", "Scheduled engine events not yet executed.",
     lambda sim: sim.engine.pending),
    ("sim_time_seconds", "Current simulated time.",
     lambda sim: sim.now),
    ("probe_cache_entries", "Entries currently memoized in the probe cache.",
     _probe_cache_entries),
    ("prediction_error_ewma",
     "Learned scheduler's EWMA of absolute prediction error "
     "(log1p-cost scale; 0 for exact schedulers).",
     _prediction_error_ewma),
    ("prediction_fallback_active",
     "1 while the learned scheduler would full-probe the next round.",
     _fallback_active),
    ("compile_epsilon",
     "Transient over-subscription budget of the plan compiler "
     "(0 under atomic/staged modes).",
     lambda sim: float(sim.config.compile_epsilon)),
    ("max_transient_overload",
     "Worst fractional transient capacity overshoot any compiled stage "
     "allowed so far (0 under atomic/staged modes).",
     _max_transient_overload),
)


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` value per the Prometheus text exposition format.

    The format is line-oriented: help text is everything after the metric
    name up to the newline, with only two escapes defined — ``\\\\`` for a
    backslash and ``\\n`` for a line feed. Writing either character
    verbatim (as ``render`` used to) tears the exposition: an embedded
    newline turns the rest of the help text into an unparseable line, and
    a lone backslash corrupts the escaped reading on re-ingestion.
    """
    return text.replace("\\", "\\\\").replace("\n", "\\n")


class CounterExporter:
    """Renders the run's counters and gauges in Prometheus text format.

    Args:
        namespace: metric-name prefix (``<namespace>_<counter>_total``).
        readers: one zero-argument reader per externally owned counter
            (the :data:`_COUNTERS` rows whose source is ``None``).
    """

    def __init__(self, namespace: str = "repro",
                 readers: Mapping[str, Callable[[], int]] | None = None,
                 ) -> None:
        if not namespace.isidentifier():
            raise ValueError(f"namespace must be an identifier, "
                             f"got {namespace!r}")
        self._namespace = namespace
        self._readers = dict(readers or {})
        unknown = set(self._readers) - {
            name for name, _, source in _COUNTERS if source is None}
        if unknown:
            raise ValueError(f"no externally owned counter named "
                             f"{sorted(unknown)}")
        self._sim: SimulatorPort | None = None

    def attach(self, sim: SimulatorPort) -> None:
        self._sim = sim

    def _read(self, name: str, source: _Source) -> int:
        if source is None:
            reader = self._readers.get(name)
            return reader() if reader is not None else 0
        sim = self._sim
        if sim is None:
            return 0
        if callable(source):
            return source(sim)
        return int(sim.metrics_collector.totals[source])

    @property
    def counters(self) -> dict[str, int]:
        """Current counter values (a fresh dict)."""
        return {name: self._read(name, source)
                for name, _, source in _COUNTERS}

    def render(self) -> str:
        """The Prometheus text exposition (counters, then gauges)."""
        ns = self._namespace
        lines: list[str] = []
        for name, help_text, source in _COUNTERS:
            metric = f"{ns}_{name}_total"
            lines.append(f"# HELP {metric} {_escape_help(help_text)}")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {self._read(name, source)}")
        if self._sim is not None:
            for name, help_text, read in _GAUGES:
                metric = f"{ns}_{name}"
                lines.append(f"# HELP {metric} {_escape_help(help_text)}")
                lines.append(f"# TYPE {metric} gauge")
                value = read(self._sim)
                rendered = repr(value) if isinstance(value, float) \
                    else str(value)
                lines.append(f"{metric} {rendered}")
        return "\n".join(lines) + "\n"

    def write(self, path: "str | Path") -> None:
        """Atomically write :meth:`render` to ``path`` (textfile-collector
        style: scrapers never observe a torn file). Not fsynced: no
        resume reads it."""
        replace_text(path, self.render())

    def __repr__(self) -> str:
        alive = {k: v for k, v in self.counters.items() if v}
        return f"<CounterExporter {self._namespace} {alive}>"


class StatsLine:
    """Prints a one-line service digest every ``every`` settled rounds.

    Args:
        every: rounds between lines (>= 1).
        sink: where lines go; defaults to ``print`` (stdout).
    """

    def __init__(self, every: int = 50,
                 sink: Callable[[str], None] | None = None) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self._every = every
        self._sink: Callable[[str], None] = sink if sink is not None \
            else print
        self._sim: SimulatorPort | None = None
        self._lines = 0

    def attach(self, sim: SimulatorPort) -> None:
        self._sim = sim
        sim.hooks.subscribe(_hooks.PostRound, self._on_post_round)

    @property
    def lines(self) -> int:
        """Digest lines emitted so far."""
        return self._lines

    def _on_post_round(self, hook: _hooks.PostRound) -> None:
        if hook.index % self._every:
            return
        sim = self._sim
        assert sim is not None  # subscribed only through attach()
        collector = sim.metrics_collector
        self._lines += 1
        self._sink(
            f"[t={hook.now:10.3f}s] round={hook.index} "
            f"queued={sim.pipeline.queue_depth} "
            f"executing="
            f"{sim.pipeline.events_remaining - sim.pipeline.queue_depth} "
            f"completed={collector.completed_count} "
            f"dropped={collector.dropped_count} "
            f"stages={collector.totals['total_stages']} "
            f"pending={sim.engine.pending}")
