"""Footprint-memoized probe cache for the sampling schedulers.

LMTF/P-LMTF replan ``α+1`` candidate events from scratch every round, yet
most rounds only mutate the handful of links the admitted plans touch. The
:class:`ProbeCache` memoizes each candidate's :class:`EventPlan` together
with the plan's link/node *footprint* and a snapshot of those members'
version counters. A later probe of the same candidate reuses the plan iff
every footprint member still reports its snapshotted version — i.e. the
state is provably unchanged on everything the plan read — and otherwise
falls back to a fresh plan.

Reuse is deliberately conservative (see
:meth:`repro.core.planner.EventPlanner.plan_event_probed`): only plans that
consumed no randomness and made no unbounded reads are stored, which is
exactly the condition under which a replan is guaranteed to reproduce the
cached plan bit-for-bit. A cache-enabled run therefore admits the *same*
events in the *same* order as an uncached run — the cache is a wall-clock
optimization, invisible to the simulated schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import EventPlan
from repro.network.footprint import Footprint
from repro.network.state import NetworkState

#: Cache key: (event id, ids of the event's not-yet-admitted flows). The
#: remaining-flow tuple matters because schedulers probe partial events.
ProbeKey = tuple[str, tuple[str, ...]]


@dataclass
class CacheStats:
    """Hit/miss/invalidation counters (totals or per-round deltas)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def probes(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes served from cache (0.0 when never probed)."""
        return self.hits / self.probes if self.probes else 0.0


@dataclass
class _Entry:
    state: NetworkState
    plan: EventPlan
    #: ``{link index: version}`` — validated by one flat column read per
    #: member.
    link_versions: dict[int, int]
    node_versions: dict[str, int]


class ProbeCache:
    """Maps probe keys to plans valid while their footprint is unchanged.

    Args:
        maxsize: entry cap; the oldest entry is evicted past it (events
            complete and leave stale keys behind, so the cap bounds memory
            on long runs).
    """

    #: After an unmemoizable plan (RNG-dependent, typically migration-heavy),
    #: footprint recording for that key is skipped for this many probes.
    #: Uncacheability is a property of the congestion regime around the
    #: event's desired paths, which rarely flips between consecutive rounds,
    #: so the backoff removes the recording tax from the migration-heavy
    #: regime while re-testing cacheability periodically. Skipping recording
    #: never changes a plan — recording is read-transparent — so this is a
    #: pure wall-clock knob.
    UNCACHEABLE_BACKOFF = 8

    def __init__(self, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self._maxsize = maxsize
        self._entries: dict[ProbeKey, _Entry] = {}
        self._skip: dict[ProbeKey, int] = {}
        self.totals = CacheStats()
        self._round = CacheStats()
        #: Entries dropped by :meth:`forget_event` over the cache's life —
        #: the completion/drop purge health signal ``repro serve`` exports.
        self.purges = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------- API

    def lookup(self, key: ProbeKey, state: NetworkState) -> EventPlan | None:
        """The cached plan for ``key``, or None on a miss.

        A stale entry (version drift on any footprint member, or a
        different live network than it was recorded against) counts as both
        an invalidation and a miss, and is evicted.
        """
        entry = self._entries.get(key)
        if entry is None:
            self._count("misses")
            return None
        if entry.state is not state or not self._fresh(entry, state):
            del self._entries[key]
            self._count("invalidations")
            self._count("misses")
            return None
        self._count("hits")
        return entry.plan

    def store(self, key: ProbeKey, state: NetworkState, plan: EventPlan,
              footprint: Footprint) -> None:
        """Memoize ``plan`` against the current versions of its footprint."""
        if key in self._entries:
            del self._entries[key]  # refresh insertion order for eviction
        elif len(self._entries) >= self._maxsize:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[key] = _Entry(
            state=state, plan=plan,
            link_versions=footprint.link_versions(state),
            node_versions=footprint.node_versions(state))

    def should_record(self, key: ProbeKey) -> bool:
        """Whether a miss for ``key`` is worth planning with a recorder.

        False while the key is in uncacheable backoff (each call consumes
        one backoff credit, so recording is re-attempted periodically).
        """
        remaining = self._skip.get(key, 0)
        if remaining <= 0:
            return True
        self._skip[key] = remaining - 1
        return False

    def note_uncacheable(self, key: ProbeKey) -> None:
        """Record that ``key``'s latest plan could not be memoized."""
        self._skip[key] = self.UNCACHEABLE_BACKOFF

    def forget_event(self, event_id: str) -> int:
        """Evict every entry (and backoff credit) keyed to ``event_id``.

        Returns how many plan entries were dropped. Used when an event
        leaves the queue for good without being admitted — e.g. dropped
        after exhausting its requeue deferrals under faults — so its stale
        keys stop occupying cache slots. Mid-run *capacity* changes (link
        failures/heals) need no explicit eviction: ``_set_capacity`` bumps
        the link's version column, so any entry whose footprint touches the
        failed link fails :meth:`lookup`'s freshness check and self-evicts
        as an invalidation.
        """
        stale = [key for key in self._entries if key[0] == event_id]
        for key in stale:
            del self._entries[key]
        for key in [key for key in self._skip if key[0] == event_id]:
            del self._skip[key]
        self.purges += len(stale)
        return len(stale)

    def drain_round(self) -> CacheStats:
        """Return and reset the per-round counters (totals keep running)."""
        stats, self._round = self._round, CacheStats()
        return stats

    def clear(self) -> None:
        """Drop all entries and counters (scheduler reset between runs)."""
        self._entries.clear()
        self._skip.clear()
        self.totals = CacheStats()
        self._round = CacheStats()
        self.purges = 0

    # ------------------------------------------------------------- internals

    def _count(self, counter: str) -> None:
        for stats in (self.totals, self._round):
            setattr(stats, counter, getattr(stats, counter) + 1)

    @staticmethod
    def _fresh(entry: _Entry, state: NetworkState) -> bool:
        version_of = state.link_version_idx
        links_ok = all(version_of(i) == version
                       for i, version in entry.link_versions.items())
        return links_ok and all(
            state.node_version(node) == version
            for node, version in entry.node_versions.items())
