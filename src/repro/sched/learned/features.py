"""Cheap candidate features for learned probe-cost ranking.

An exact ``Cost(U)`` probe plans every remaining flow of a candidate —
migration search included — at ~ms per miss (``planner.plan_self_ms`` over
``planner.plan_calls`` in ``bench/``). The features here
are the *readable* fraction of that work: what the indexed kernel answers
in O(flows × path-length) flat-column reads with no planning, no view
stack, and no RNG draw. Per candidate:

========================= ==============================================
feature                   meaning
========================= ==============================================
``width``                 remaining (unadmitted) flows of the event
``total_demand``          sum of remaining-flow demands (Mbit/s)
``max_demand``            largest single remaining demand
``tight_flows``           flows whose *desired path* lacks residual
``deficit_total``         total bandwidth the desired paths are short by
``min_margin``            worst (bottleneck residual − demand) over flows
``congestion``            scheduler-supplied EWMA of recent admitted cost
``fault_pressure``        scheduler-supplied EWMA of cache invalidations
========================= ==============================================

The first six are the static/desired-path signal: a flow whose
hash-designated path (:meth:`~repro.core.planner.EventPlanner.
desired_path`, the planner's ECMP rule) fits in the current residual costs
nothing to place, so ``tight_flows``/``deficit_total`` are direct drivers
of migration volume — which *is* ``Cost(U)``. The last two are recency
signals the scheduler maintains, letting the model shift its estimates
when the fabric is churning (faults bump link versions, which surface as
probe-cache invalidations). ``fault_pressure`` therefore exists only with
the probe cache on: with ``probe_cache=False`` it stays 0, so L-LMTF —
unlike exact LMTF — does not schedule bit-identically with the cache on
or off.

The per-flow desired paths and demands never change for a given
``(event_id, remaining flows)`` key, so they are memoized exactly like
probe-cache entries (bounded, evicted oldest-first, purged by
``forget_event``); only the residual reads — three flat-column reads per
link — run fresh each extraction. This is what keeps feature extraction
a small fraction of the exact probe it stands in for
(``sched.learned_rank_ms`` next to ``planner.plan_self_ms`` at
``serve_faulted`` in ``bench/``).

Extraction is read-only and consumes no randomness, so it can run at any
point of a round without perturbing the planner RNG stream — the property
L-LMTF's run-to-run determinism relies on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.planner import EventPlanner

if TYPE_CHECKING:
    from repro.network.state import NetworkState
    from repro.sched.base import QueuedEvent
    from repro.sched.cache import ProbeKey

__all__ = ["FEATURE_NAMES", "FeatureExtractor"]

#: Feature order of the vectors :meth:`FeatureExtractor.extract` returns.
FEATURE_NAMES: tuple[str, ...] = (
    "width",
    "total_demand",
    "max_demand",
    "tight_flows",
    "deficit_total",
    "min_margin",
    "congestion",
    "fault_pressure",
)


class FeatureExtractor:
    """Extracts per-candidate feature vectors from the indexed kernel.

    Args:
        planner: the event planner, consulted only for its path provider
            and the deterministic desired-path rule — never for planning.
        maxsize: cap on memoized static entries (desired paths/demands per
            probe key); the oldest entry is evicted past it.
    """

    def __init__(self, planner: EventPlanner, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self._provider = planner.provider
        self._maxsize = maxsize
        #: ProbeKey -> ((demand, desired_path), ...) static per-flow data.
        self._static: dict["ProbeKey", tuple] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._static)

    @property
    def provider(self):
        """The path provider the memoized desired paths were computed on."""
        return self._provider

    # ------------------------------------------------------------------ API

    def extract(self, queued: "QueuedEvent", state: "NetworkState",
                congestion: float = 0.0,
                fault_pressure: float = 0.0) -> list[float]:
        """The candidate's feature vector against the current state.

        Read-only and RNG-free; safe to call for candidates that will
        never be probed.
        """
        pairs = self._static_pairs(queued)
        width = float(len(pairs))
        total_demand = 0.0
        max_demand = 0.0
        tight = 0.0
        deficit = 0.0
        min_margin = float("inf")
        for demand, desired in pairs:
            total_demand += demand
            if demand > max_demand:
                max_demand = demand
            margin = state.path_residual(desired) - demand
            if margin < min_margin:
                min_margin = margin
            if margin < 0.0:
                tight += 1.0
                deficit -= margin
        if min_margin == float("inf"):
            min_margin = 0.0
        return [width, total_demand, max_demand, tight, deficit,
                min_margin, congestion, fault_pressure]

    def forget_event(self, event_id: str) -> int:
        """Evict every memoized entry keyed to ``event_id``.

        Mirrors :meth:`repro.sched.cache.ProbeCache.forget_event`: called
        when an event leaves the queue for good, so completed/dropped
        events stop occupying memo slots on long runs. Returns how many
        entries were dropped.
        """
        stale = [key for key in self._static if key[0] == event_id]
        for key in stale:
            del self._static[key]
        return len(stale)

    def clear(self) -> None:
        """Drop all memoized entries and counters (scheduler reset)."""
        self._static.clear()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------ internals

    def _static_pairs(self, queued: "QueuedEvent") -> Sequence[tuple]:
        """Memoized ``(demand, desired_path)`` per remaining flow.

        The desired path is a pure function of the flow id and the
        topology's candidate set (CRC-32 ECMP), and demands are immutable,
        so the entry is valid for as long as the key — which includes the
        remaining-flow ids — matches.
        """
        key = (queued.event.event_id,
               tuple(f.flow_id for f in queued.remaining))
        entry = self._static.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        pairs = []
        provider = self._provider
        for flow in queued.remaining:
            index = EventPlanner.desired_index(
                flow, provider.candidate_count(flow.src, flow.dst))
            pairs.append((flow.demand,
                          provider.candidate(flow.src, flow.dst, index)))
        if len(self._static) >= self._maxsize:
            oldest = next(iter(self._static))
            del self._static[oldest]
        entry = tuple(pairs)
        self._static[key] = entry
        return entry

    def __repr__(self) -> str:
        return (f"<FeatureExtractor entries={len(self._static)} "
                f"hits={self.hits} misses={self.misses}>")
