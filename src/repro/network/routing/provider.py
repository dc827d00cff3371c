"""Candidate-path lookup: one template per switch pair, host-pair paths
on demand.

Candidate paths depend only on the graph, never on current utilization, and
on every shipped topology they depend on the *hosts* only through the two
access links: all pairs of single-homed hosts under one ordered pair of
switches share the same middles. The provider keeps two levels, each filled
the first time it is asked for, and builds host-pair paths from them:

* **attachments** — per single-homed host, its switch and the table indices
  of its up and down access links; read off the graph once, with no
  per-topology code.
* **templates** — per ordered switch pair, the candidates' middle node
  tuples and middle ``link_idx`` rows. A template comes from one
  ``topology.equal_cost_paths`` call, filtered by ``banned_nodes`` and
  ``max_paths`` and validated through :meth:`CandidatePath.make` exactly as
  a host pair's enumeration is (fat-tree k=8: 1 024 templates stand in for
  16 256 enumerations).

Candidate ``i`` of a host pair is ``(src, *mid_i, dst)`` with
``link_idx = (up, *mid_idx_i, down)``. :meth:`PathProvider.paths` builds a
pair's full tuple and caches it per pair; that tuple is the only place the
provider keeps a path. :meth:`PathProvider.candidate` hands out a cached
pair's own object and otherwise builds the one candidate asked for without
keeping it, so a path churn places or a flow's desired path lives exactly
as long as the placement holding it. :meth:`PathProvider.candidate_count`
and :meth:`PathProvider.link_rows` answer from the template without
building any path.

Identity between accessors therefore holds only inside one cached tuple:
``candidate(s, d, i) is paths(s, d)[i]`` once the pair is cached, and
equality (node tuple, ``link_idx``, ``table``) always. A pair the structure
does not cover (a multi-homed, banned or unknown host, ``src == dst``) is
enumerated whole and cached, and raises the enumeration's errors.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.exceptions import TopologyError
from repro.network.link import LinkTable, link_table_for
from repro.network.routing.candidate import CandidatePath
from repro.network.topology.base import Topology

#: A switch pair's candidates with the hosts cut off: per candidate its
#: middle nodes (first switch to last switch) and, in a parallel tuple, the
#: table indices of the links between them.
Template = tuple[tuple[tuple[str, ...], ...], tuple[tuple[int, ...], ...]]


class PathProvider:
    """A topology's candidate paths per host pair, derived by structure.

    Args:
        topology: the topology whose ``equal_cost_paths`` to serve from.
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
        self._templates: dict[tuple[str, str], Template] = {}
        self._attach: dict[str, tuple[str, int, int]] | None = None
        self._table: LinkTable | None = None

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def table(self) -> LinkTable:
        """The link table every ``link_idx`` this provider hands out is
        valid against — the topology graph's own."""
        table = self._table
        if table is None:
            table = self._table = link_table_for(self._topology.graph())
        return table

    # ------------------------------------------------------------- structure

    def _attachments(self) -> dict[str, tuple[str, int, int]]:
        """``host -> (switch, up link index, down link index)`` for every
        host a template can stand in for: not banned, exactly one neighbour,
        joined to it in both directions."""
        attach = self._attach
        if attach is None:
            graph = self._topology.graph()
            index = self.table.index
            attach = self._attach = {}
            for host, data in graph.nodes(data=True):
                if data.get("kind") != "host" or host in self._banned:
                    continue
                ups = list(graph.successors(host))
                if (len(ups) == 1 and list(graph.predecessors(host)) == ups
                        and graph.nodes[ups[0]].get("kind") != "host"):
                    switch = ups[0]
                    attach[host] = (switch, index[host, switch],
                                    index[switch, host])
        return attach

    def _enumerate(self, src: str, dst: str) -> tuple[CandidatePath, ...]:
        """The pair's candidates straight from the topology: filtered,
        capped, validated. The one place paths enter the provider."""
        found = self._topology.equal_cost_paths(src, dst)
        if self._banned:
            found = [p for p in found if not self._banned.intersection(p)]
        if self._max_paths is not None:
            found = found[:self._max_paths]
        if not found:
            raise TopologyError(f"no path from {src!r} to {dst!r} in "
                                f"{self._topology.name}")
        table = self.table
        return tuple(CandidatePath.make(p, table) for p in found)

    def _structure(self, src: str,
                   dst: str) -> tuple[int, int, Template] | None:
        """The pair's access-link indices and its switch pair's template,
        or None when the pair has to be enumerated whole."""
        attach = self._attachments()
        up, down = attach.get(src), attach.get(dst)
        if up is None or down is None or src == dst:
            return None
        switches = (up[0], down[0])
        template = self._templates.get(switches)
        if template is None:
            # The first pair asked for under a switch pair pays for the
            # enumeration; an empty one raises for this pair and is not
            # kept, so every such pair reports its own endpoints.
            middles, rows = [], []
            for path in self._enumerate(src, dst):
                assert path.link_idx is not None  # made against the table
                middles.append(path[1:-1])
                rows.append(path.link_idx[1:-1])
            template = self._templates[switches] = (tuple(middles),
                                                    tuple(rows))
        return up[1], down[2], template

    def _join(self, src: str, dst: str, i: int,
              structure: tuple[int, int, Template]) -> CandidatePath:
        """Build candidate ``i`` of a templated pair; nothing keeps it."""
        up, down, (middles, rows) = structure
        return CandidatePath.prevalidated(
            (src, *middles[i], dst), (up, *rows[i], down), self.table)

    # ----------------------------------------------------------------- reads

    def paths(self, src: str, dst: str) -> tuple[CandidatePath, ...]:
        """All candidate paths from ``src`` to ``dst``, cached per pair.

        Raises:
            TopologyError: no path exists between the hosts.
        """
        key = (src, dst)
        cached = self._cache.get(key)
        if cached is None:
            structure = self._structure(src, dst)
            if structure is None:
                cached = self._enumerate(src, dst)
            else:
                cached = tuple(self._join(src, dst, i, structure)
                               for i in range(len(structure[2][0])))
            self._cache[key] = cached
        return cached

    def candidate(self, src: str, dst: str, i: int) -> CandidatePath:
        """``paths(src, dst)[i]``: the cached tuple's own object when the
        pair is cached, otherwise — for a templated pair — a new equal
        path that the provider does not keep, built without the pair's
        other candidates.

        Raises:
            TopologyError: no path exists between the hosts.
        """
        cached = self._cache.get((src, dst))
        if cached is not None:
            return cached[i]
        structure = self._structure(src, dst)
        if structure is None:
            return self.paths(src, dst)[i]
        return self._join(src, dst, i, structure)

    def candidate_count(self, src: str, dst: str) -> int:
        """``len(paths(src, dst))``, read off the template for a templated
        pair, so no path is built.

        Raises:
            TopologyError: no path exists between the hosts.
        """
        cached = self._cache.get((src, dst))
        if cached is not None:
            return len(cached)
        structure = self._structure(src, dst)
        if structure is None:
            return len(self.paths(src, dst))
        return len(structure[2][0])

    def link_rows(self, src: str, dst: str) -> tuple[
            int, int, tuple[tuple[int, ...], ...]] | None:
        """A templated pair's links as indices into :attr:`table`: the up
        and down access links, shared by every candidate, and one row of
        middle links per candidate, in ``paths(src, dst)`` order. None when
        the pair is not templated; :meth:`paths` then says why or serves it.

        Raises:
            TopologyError: no path exists between the hosts.
        """
        structure = self._structure(src, dst)
        if structure is None:
            return None
        up, down, (__, rows) = structure
        return up, down, rows

    def shuffled_paths(self, src: str, dst: str,
                       rng: random.Random) -> list[CandidatePath]:
        """Candidate paths in a random order (ECMP-style tie breaking).

        Shuffling the *copy* keeps the cache order stable.
        """
        shuffled = list(self.paths(src, dst))
        rng.shuffle(shuffled)
        return shuffled

    def cache_size(self) -> int:
        """Host pairs whose full candidate tuple :meth:`paths` has built.
        Candidates built one at a time through :meth:`candidate` do not
        count, and are not kept."""
        return len(self._cache)

    def warm(self, pairs: Sequence[tuple[str, str]]) -> None:
        """Pre-populate the cache for a known set of host pairs.

        Duplicate pairs are collapsed first; sweep drivers hand over raw
        trace endpoints, which repeat heavily.
        """
        for src, dst in dict.fromkeys(pairs):
            self.paths(src, dst)
