"""Topology interface.

A topology builds the directed-capacity graph the :class:`Network` runs on and
knows how to enumerate candidate paths between hosts. Structured datacenter
topologies (Fat-Tree, leaf-spine) build a :class:`~repro.network.graph.DiGraph`
and enumerate their equal-cost paths directly; unstructured ones (jellyfish,
user graphs) build networkx graphs and fall back to shortest-path search.
"""

from __future__ import annotations

import abc
import itertools
from typing import TYPE_CHECKING

from repro.core.exceptions import TopologyError

if TYPE_CHECKING:
    import networkx as nx

    from repro.network.graph import DiGraph

    #: What a topology builds: the in-repo container for structured
    #: fabrics, a networkx graph for jellyfish and user-supplied graphs.
    Graph = DiGraph | nx.DiGraph


class Topology(abc.ABC):
    """Builds a graph and enumerates candidate paths between hosts."""

    #: Human-readable topology name for reports.
    name: str = "topology"

    def __init__(self):
        self._graph: Graph | None = None

    # ---------------------------------------------------------------- builds

    @abc.abstractmethod
    def _build(self) -> Graph:
        """Construct the topology graph. Called once and cached."""

    def graph(self) -> Graph:
        """The topology graph; built lazily, cached, and shared."""
        if self._graph is None:
            self._graph = self._build()
        return self._graph

    def network(self, **kwargs):
        """Convenience: build a :class:`~repro.network.network.Network`."""
        from repro.network.network import Network
        return Network(self.graph(), **kwargs)

    # ----------------------------------------------------------------- query

    def hosts(self) -> list[str]:
        return [n for n, d in self.graph().nodes(data=True)
                if d.get("kind") == "host"]

    def switches(self) -> list[str]:
        return [n for n, d in self.graph().nodes(data=True)
                if d.get("kind") != "host"]

    @abc.abstractmethod
    def equal_cost_paths(self, src: str, dst: str) -> list[tuple[str, ...]]:
        """All candidate paths from host ``src`` to host ``dst``.

        For structured topologies these are the equal-cost shortest paths;
        generic topologies may return a bounded set of short paths. Raises
        :class:`TopologyError` when either endpoint is not a host.
        """

    # --------------------------------------------------------------- helpers

    def _require_host(self, node: str) -> None:
        data = self.graph().nodes.get(node)
        if data is None or data.get("kind") != "host":
            raise TopologyError(f"{node!r} is not a host of {self.name}")

    def _search_paths(self, src: str, dst: str,
                      max_paths: int = 16) -> list[tuple[str, ...]]:
        """Shortest-path fallback used by unstructured topologies, whose
        graphs are networkx graphs."""
        import networkx as nx

        self._require_host(src)
        self._require_host(dst)
        try:
            gen = nx.all_shortest_paths(self.graph(), src, dst)
            return [tuple(p) for p in itertools.islice(gen, max_paths)]
        except nx.NetworkXNoPath:
            return []
