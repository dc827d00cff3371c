"""Wrap an arbitrary user-supplied graph as a topology.

Lets downstream users run the planner and schedulers on their own network
graphs: mark host nodes with ``kind="host"``, give edges a ``capacity``
attribute, and candidate paths come from shortest-path search.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.exceptions import TopologyError
from repro.network.topology.base import Topology

if TYPE_CHECKING:
    import networkx as nx

    from repro.network.graph import DiGraph


class CustomTopology(Topology):
    """A topology over any directed graph.

    Args:
        graph: directed graph; nodes with ``kind == "host"`` are the hosts,
            edges should carry ``capacity`` (Mbit/s).
        name: label for reports.
        max_paths: cap on enumerated candidate paths per host pair.

    Undirected graphs are accepted and converted to bidirected form. A
    :class:`~repro.network.graph.DiGraph` (a structured topology's graph)
    is copied into a networkx graph in the same node and edge order, since
    path search runs on networkx.
    """

    def __init__(self, graph: nx.Graph | nx.DiGraph | DiGraph,
                 name: str = "custom", max_paths: int = 16):
        import networkx as nx

        super().__init__()
        if graph.number_of_nodes() == 0:
            raise TopologyError("custom topology needs a non-empty graph")
        if max_paths < 1:
            raise TopologyError("max_paths must be >= 1")
        if not isinstance(graph, nx.Graph):
            source = nx.DiGraph()
            source.add_nodes_from(graph.nodes(data=True))
            source.add_edges_from(graph.edges(data=True))
            graph = source
        elif not graph.is_directed():
            graph = graph.to_directed()
        self._source = graph
        self.name = name
        self.max_paths = max_paths
        if not any(d.get("kind") == "host"
                   for __, d in graph.nodes(data=True)):
            raise TopologyError("custom topology needs at least one node "
                                "with kind='host'")

    def _build(self) -> nx.DiGraph:
        return self._source

    def equal_cost_paths(self, src: str, dst: str) -> list[tuple[str, ...]]:
        if src == dst:
            raise TopologyError("src and dst hosts must differ")
        return self._search_paths(src, dst, max_paths=self.max_paths)
