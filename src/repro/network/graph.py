"""A small directed graph: the container structured topologies build.

Fat-Tree and leaf-spine enumerate their equal-cost paths in closed form,
so they need a graph only as a dict-of-dicts: node attributes (``kind``,
``pod``, ``rule_capacity``), edge attributes (``capacity``) and adjacency.
:class:`DiGraph` is exactly that, with the subset of the ``networkx.DiGraph``
API the library reads — ``nodes(data=...)``/``nodes[n]``/``nodes.get``,
``edges(data=...)``/``edges[u, v]``, ``successors``, ``predecessors``,
``has_edge``, ``number_of_nodes``/``number_of_edges``, ``is_directed``,
``copy``, ``n in graph`` — so every reader accepts either kind of graph
unchanged.

Iteration order is networkx's: nodes in insertion order, edges grouped by
source node in node order and then by successor insertion order,
predecessors in edge insertion order. Link indices
(:func:`~repro.network.link.link_table_for`) are taken from ``edges()``, so
this order is what every capacity column, utilization sum and schedule
digest sits on.

Only jellyfish (``random_regular_graph``), user graphs
(:class:`~repro.network.topology.custom.CustomTopology`) and shortest-path
search need networkx itself; they import it where they use it.
"""

from __future__ import annotations

from typing import Any, Iterator

Attrs = dict[str, Any]


class NodeView:
    """``graph.nodes``: iterable, ``n in``, ``[n]`` (the live attribute
    dict), ``.get(n)`` and, called, the nodes, ``(n, attrs)`` or
    ``(n, attrs.get(key))``."""

    __slots__ = ("_node",)

    def __init__(self, node: dict[str, Attrs]):
        self._node = node

    def __call__(self, data: bool | str = False) -> Any:
        if data is False:
            return self
        if data is True:
            return list(self._node.items())
        return [(n, d.get(data)) for n, d in self._node.items()]

    def __getitem__(self, n: str) -> Attrs:
        return self._node[n]

    def get(self, n: str, default: Attrs | None = None) -> Attrs | None:
        return self._node.get(n, default)

    def __contains__(self, n: object) -> bool:
        return n in self._node

    def __iter__(self) -> Iterator[str]:
        return iter(self._node)


class EdgeView:
    """``graph.edges``: ``[u, v]`` (the live attribute dict) and, called,
    ``(u, v)`` or ``(u, v, attrs)`` in networkx's order."""

    __slots__ = ("_succ",)

    def __init__(self, succ: dict[str, dict[str, Attrs]]):
        self._succ = succ

    def __call__(self, data: bool = False) -> list[Any]:
        if data:
            return [(u, v, d) for u, nbrs in self._succ.items()
                    for v, d in nbrs.items()]
        return [(u, v) for u, nbrs in self._succ.items() for v in nbrs]

    def __getitem__(self, link: tuple[str, str]) -> Attrs:
        return self._succ[link[0]][link[1]]


class DiGraph:
    """A directed graph with node and edge attribute dicts."""

    def __init__(self) -> None:
        self._node: dict[str, Attrs] = {}
        self._succ: dict[str, dict[str, Attrs]] = {}
        self._pred: dict[str, dict[str, Attrs]] = {}
        self.nodes = NodeView(self._node)
        self.edges = EdgeView(self._succ)

    def add_node(self, n: str, **attr: Any) -> None:
        """Add ``n`` (or update its attributes if present)."""
        data = self._node.get(n)
        if data is None:
            self._node[n] = data = {}
            self._succ[n] = {}
            self._pred[n] = {}
        data.update(attr)

    def add_edge(self, u: str, v: str, **attr: Any) -> None:
        """Add ``u -> v``, adding missing endpoints; an existing edge's
        attributes are updated in place."""
        for n in (u, v):
            if n not in self._node:
                self.add_node(n)
        data = self._succ[u].get(v)
        if data is None:
            self._succ[u][v] = self._pred[v][u] = data = {}
        data.update(attr)

    def successors(self, n: str) -> Iterator[str]:
        return iter(self._succ[n])

    def predecessors(self, n: str) -> Iterator[str]:
        return iter(self._pred[n])

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._succ.get(u, ())

    def number_of_nodes(self) -> int:
        return len(self._node)

    def number_of_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._succ.values())

    def is_directed(self) -> bool:
        return True

    def copy(self) -> DiGraph:
        """An independent copy: attribute dicts are copied, and nodes and
        edges are re-added in iteration order, as ``networkx`` does."""
        clone = DiGraph()
        for n, data in self._node.items():
            clone.add_node(n, **data)
        for u, v, data in self.edges(data=True):
            clone.add_edge(u, v, **data)
        return clone

    def __contains__(self, n: object) -> bool:
        return n in self._node
