"""Candidate paths over the link index.

Every LMTF/P-LMTF round probes the same ``(src, dst)`` candidate sets over
and over, and background churn places one candidate per respawned flow. A
:class:`CandidatePath` is built by
:class:`~repro.network.routing.provider.PathProvider` —
:meth:`CandidatePath.make` validates what the topology enumerates (once per
switch pair), :meth:`CandidatePath.prevalidated` joins a validated middle to
a host pair's access links — and lives as long as what holds it: a host
pair's cached candidate tuple, or the placement of the one flow it was
built for. It carries:

* ``link_idx`` — the links as dense integer indices into the topology
  graph's :class:`~repro.network.link.LinkTable`, the representation the
  integer-indexed state kernel iterates. Baked eagerly: it is what every
  hot loop (residual scans, place/remove) reads.
* ``links`` — the directed links, in order (what :func:`path_links`
  returns). Derived on first read from the table's own link ids, then kept.
* ``link_set`` — the same links as a frozenset, for overlap/membership
  tests. Derived on first read, then kept; its only readers are the
  migration planner's overlap tests on event flows, so the tens of
  thousands of paths churn places never build one.

A :class:`CandidatePath` *is* a tuple of node names, so every existing call
site — ``path[0]``, ``len(path)``, equality against plain node tuples,
``Placement(path=...)`` — keeps working unchanged; the kernel's fast paths
activate by recognizing the extra attributes.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from repro.network.link import LinkId, LinkTable, is_simple_path


class CandidatePath(tuple[str, ...]):
    """A node tuple with baked ``link_idx`` and lazy ``links``/``link_set``.

    Attributes:
        link_idx: integer link indices into ``table``, or ``None`` when the
            path was built without a table (the kernel then falls back to
            string-keyed reads).
        table: the :class:`LinkTable` the indices are valid against; fast
            paths check ``path.table is state's table`` before trusting
            ``link_idx``, so a path is never silently misread against a
            network from a different graph.
    """

    link_idx: tuple[int, ...] | None
    table: LinkTable | None

    @classmethod
    def make(cls, nodes: Sequence[str],
             table: LinkTable | None = None) -> "CandidatePath":
        """Build a candidate path, baking indices when ``table`` is given.

        Raises:
            ValueError: ``nodes`` is not a simple path or, with a table,
                uses a link absent from it — candidate paths come from the
                topology's own enumeration, so either means a provider bug.
        """
        path = cls(nodes)
        if not is_simple_path(path):
            raise ValueError(f"candidate path {tuple(nodes)!r} is not a "
                             f"simple path")
        if table is None:
            path.link_idx = None
        else:
            try:
                path.link_idx = tuple(map(table.index.__getitem__,
                                          zip(path, path[1:])))
            except KeyError as exc:
                raise ValueError(f"candidate path {tuple(nodes)!r} uses "
                                 f"link {exc.args[0]!r} absent from the "
                                 f"link table") from None
        path.table = table
        return path

    @classmethod
    def prevalidated(cls, nodes: Sequence[str], link_idx: tuple[int, ...],
                     table: LinkTable) -> "CandidatePath":
        """A path put together from parts :meth:`make` already checked —
        a template's middle between two hosts' access links — so nothing
        is checked again."""
        path = cls(nodes)
        path.link_idx = link_idx
        path.table = table
        return path

    @cached_property
    def links(self) -> tuple[LinkId, ...]:
        """Directed links traversed, in order — the table's own link ids
        when there is a table, so every path shares the same 2-tuples."""
        table, link_idx = self.table, self.link_idx
        if table is None or link_idx is None:
            return tuple(zip(self[:-1], self[1:]))
        return tuple(map(table.ids.__getitem__, link_idx))

    @cached_property
    def link_set(self) -> frozenset[LinkId]:
        """``frozenset(links)`` for membership tests."""
        return frozenset(self.links)
