"""Cached candidate-path lookup.

Planning probes the same host pairs over and over (every LMTF round replans
``α+1`` events against fresh state), so candidate paths per ``(src, dst)``
pair are computed once from the topology and cached — they depend only on the
graph, never on current utilization.

Cached paths are interned :class:`~repro.network.routing.candidate.
CandidatePath` objects: node tuples carrying their links' dense integer
indices into the topology graph's :class:`~repro.network.link.LinkTable`,
baked once; the directed links and the link frozenset are derived from the
indices the first time a consumer reads them. Every consumer of
:meth:`PathProvider.paths` therefore feeds the integer-indexed state kernel
for free, and identity tests (``path is desired``) are sound because each
candidate exists exactly once per provider.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.exceptions import TopologyError
from repro.network.link import link_table_for
from repro.network.routing.candidate import CandidatePath
from repro.network.topology.base import Topology


class PathProvider:
    """Memoizes a topology's candidate paths per host pair.

    Args:
        topology: the topology whose ``equal_cost_paths`` to memoize.
        max_paths: optional cap on candidate paths per pair; ``None`` keeps
            everything the topology enumerates (16 for fat-tree k=8).
        banned_nodes: nodes no returned path may traverse — used e.g. during
            a switch upgrade, where new paths must avoid the switch being
            taken down.
    """

    def __init__(self, topology: Topology, max_paths: int | None = None,
                 banned_nodes: frozenset[str] | set[str] = frozenset()):
        if max_paths is not None and max_paths <= 0:
            raise ValueError("max_paths must be positive or None")
        self._topology = topology
        self._max_paths = max_paths
        self._banned = frozenset(banned_nodes)
        self._cache: dict[tuple[str, str], tuple[CandidatePath, ...]] = {}

    @property
    def topology(self) -> Topology:
        return self._topology

    def paths(self, src: str, dst: str) -> tuple[CandidatePath, ...]:
        """All candidate paths from ``src`` to ``dst`` (cached, interned).

        Raises:
            TopologyError: no path exists between the hosts.
        """
        key = (src, dst)
        cached = self._cache.get(key)
        if cached is None:
            found = self._topology.equal_cost_paths(src, dst)
            if self._banned:
                found = [p for p in found
                         if not self._banned.intersection(p)]
            if self._max_paths is not None:
                found = found[:self._max_paths]
            if not found:
                raise TopologyError(f"no path from {src!r} to {dst!r} in "
                                    f"{self._topology.name}")
            table = link_table_for(self._topology.graph())
            cached = tuple(CandidatePath.make(p, table) for p in found)
            self._cache[key] = cached
        return cached

    def candidates(self, src: str, dst: str) -> tuple[CandidatePath, ...]:
        """Alias of :meth:`paths`, named for what it returns: the interned
        :class:`CandidatePath` objects with baked ``link_idx`` and
        derive-once ``links``/``link_set`` — call sites should iterate
        these instead of re-deriving ``path_links``."""
        return self.paths(src, dst)

    def shuffled_paths(self, src: str, dst: str,
                       rng: random.Random) -> list[CandidatePath]:
        """Candidate paths in a random order (ECMP-style tie breaking).

        Shuffling the *copy* keeps the cache order stable.
        """
        shuffled = list(self.paths(src, dst))
        rng.shuffle(shuffled)
        return shuffled

    def cache_size(self) -> int:
        return len(self._cache)

    def warm(self, pairs: Sequence[tuple[str, str]]) -> None:
        """Pre-populate the cache for a known set of host pairs.

        Duplicate pairs are collapsed first; sweep drivers hand over raw
        trace endpoints, which repeat heavily.
        """
        for src, dst in dict.fromkeys(pairs):
            self.paths(src, dst)
