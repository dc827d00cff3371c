"""Generic path utilities: hop counts and k-shortest-path enumeration."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import networkx as nx


def k_shortest_paths(graph: nx.DiGraph, src: str, dst: str,
                     k: int = 8) -> list[tuple[str, ...]]:
    """Up to ``k`` loop-free shortest paths (by hop count), shortest first.

    Returns an empty list when ``dst`` is unreachable from ``src``.
    """
    import networkx as nx

    if k <= 0:
        return []
    try:
        gen = nx.shortest_simple_paths(graph, src, dst)
        return [tuple(p) for p in itertools.islice(gen, k)]
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return []


def path_hops(path: Sequence[str]) -> int:
    """Number of links on the path."""
    return max(0, len(path) - 1)
