"""Generic path utilities used by routing and the migration planner."""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import networkx as nx

from repro.network.link import LinkId, path_links


def k_shortest_paths(graph: nx.DiGraph, src: str, dst: str,
                     k: int = 8) -> list[tuple[str, ...]]:
    """Up to ``k`` loop-free shortest paths (by hop count), shortest first.

    Returns an empty list when ``dst`` is unreachable from ``src``.
    """
    if k <= 0:
        return []
    try:
        gen = nx.shortest_simple_paths(graph, src, dst)
        return [tuple(p) for p in itertools.islice(gen, k)]
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return []


def paths_avoiding(paths: Iterable[Sequence[str]],
                   link: LinkId) -> list[tuple[str, ...]]:
    """Filter ``paths`` down to those that do not traverse ``link``.

    Used when searching for an alternate path for a migrated flow: the new
    path must avoid the congested link it is being moved away from.

    Paths that are already tuples (including
    :class:`~repro.network.routing.candidate.CandidatePath` objects) pass
    through unchanged so their precomputed link data survives the filter.
    """
    return [p if isinstance(p, tuple) else tuple(p)
            for p in paths if link not in path_links(p)]


def paths_through(paths: Iterable[Sequence[str]],
                  link: LinkId) -> list[tuple[str, ...]]:
    """Filter ``paths`` down to those that traverse ``link``."""
    return [p if isinstance(p, tuple) else tuple(p)
            for p in paths if link in path_links(p)]


def path_hops(path: Sequence[str]) -> int:
    """Number of links on the path."""
    return max(0, len(path) - 1)
