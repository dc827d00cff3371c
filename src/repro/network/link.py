"""Link-level helpers shared by the network and the footprint recorder.

Links are directed: a Fat-Tree cable between switches ``u`` and ``v`` is two
independent directed links ``(u, v)`` and ``(v, u)``, each with its own
capacity, which matches full-duplex datacenter links.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Sequence

LinkId = tuple[str, str]

#: Tolerance for floating-point bandwidth comparisons. Demands in this library
#: are O(1)–O(1000) Mbit/s, so 1e-6 Mbit/s (1 bit/s) is far below any real
#: demand while absorbing accumulated rounding from thousands of placements.
EPS = 1e-6


class LinkTable:
    """Dense integer indexing of a graph's directed links.

    The probe hot loop spends most of its time in per-link reads, and
    ``dict[tuple[str, str]]`` lookups (hash two strings, combine, probe) are
    the single largest cost. A :class:`LinkTable` assigns every directed
    link an integer index once, in the graph's edge-insertion order, so the
    kernel can store capacity/usage/version in flat columns indexed by int
    and candidate paths can carry their link indices precomputed.

    Tables are interned per graph object (see :func:`link_table_for`): every
    :class:`~repro.network.network.Network` built on the same graph — and
    every copy, which shares the graph — shares one table, which is what
    lets a candidate path's baked indices be valid across all of
    them. The table is immutable after construction.
    """

    __slots__ = ("ids", "index", "__weakref__")

    def __init__(self, links: Iterable[LinkId]):
        self.ids: tuple[LinkId, ...] = tuple(links)
        self.index: dict[LinkId, int] = {
            link: i for i, link in enumerate(self.ids)}

    def __len__(self) -> int:
        return len(self.ids)


_TABLES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def link_table_for(graph) -> LinkTable:
    """The interned :class:`LinkTable` of ``graph`` (built on first use).

    Keyed by graph identity: topologies cache and share their graph, so all
    networks of one topology resolve to the same table.
    """
    table = _TABLES.get(graph)
    if table is None:
        table = LinkTable(graph.edges())
        _TABLES[graph] = table
    return table


def path_links(path: Sequence[str]) -> tuple[LinkId, ...]:
    """Return the directed links traversed by ``path`` in order.

    Candidate paths (:class:`repro.network.routing.candidate.
    CandidatePath`) derive theirs from the link table, so every path
    shares the table's own 2-tuples instead of re-zipping node names.
    """
    links = getattr(path, "links", None)
    if links is not None:
        return links
    return tuple(zip(path[:-1], path[1:]))


def is_simple_path(path: Sequence[str]) -> bool:
    """True when the path visits no node twice (and has >= 2 nodes)."""
    return len(path) >= 2 and len(set(path)) == len(path)


def format_link(link: LinkId) -> str:
    """Human-readable rendering of a link id."""
    return f"{link[0]}->{link[1]}"


def format_path(path: Iterable[str]) -> str:
    """Human-readable rendering of a path."""
    return " -> ".join(path)
