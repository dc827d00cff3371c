"""Candidate paths over the link index.

Every LMTF/P-LMTF round probes the same ``(src, dst)`` candidate sets over
and over, and background churn places one candidate per respawned flow. A
:class:`CandidatePath` is built by
:class:`~repro.network.routing.provider.PathProvider` —
:meth:`CandidatePath.make` validates what the topology enumerates (once per
switch pair), :meth:`CandidatePath.prevalidated` joins a validated middle to
a host pair's access links — or by the network kernel, which converts a
plain node sequence once, where it enters (:meth:`CandidatePath.of`). It
lives as long as what holds it: a host pair's cached candidate tuple, or
the placement of the one flow it was built for. It carries:

* ``link_idx`` — the links as dense integer indices into the topology
  graph's :class:`~repro.network.link.LinkTable`, the representation the
  integer-indexed state kernel iterates. Baked eagerly: it is what every
  hot loop (residual scans, place/remove) reads.
* ``links`` — the directed links, in order (what :func:`path_links`
  returns). Derived on every read from the table's own link ids and never
  kept: its readers (plan compilation and ordering, error messages) are
  off the churn and migration paths, which test link membership on
  ``link_idx`` instead.

A :class:`CandidatePath` *is* a tuple of node names, so every existing call
site — ``path[0]``, ``len(path)``, equality against plain node tuples,
``Placement(path=...)`` — keeps working unchanged.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.exceptions import InvalidPathError, ReproError
from repro.network.link import LinkId, LinkTable, format_link, is_simple_path


class CandidatePath(tuple[str, ...]):
    """A node tuple with baked ``link_idx`` and derived ``links``.

    Attributes:
        link_idx: integer link indices into ``table``.
        table: the :class:`LinkTable` the indices are valid against; the
            kernel checks ``path.table is`` its own table before trusting
            ``link_idx``, so a path is never silently misread against a
            network from a different graph.
    """

    link_idx: tuple[int, ...]
    table: LinkTable

    @classmethod
    def make(cls, nodes: Sequence[str], table: LinkTable) -> "CandidatePath":
        """Build a candidate path from what the topology enumerates.

        Raises:
            ValueError: ``nodes`` is not a simple path or uses a link
                absent from ``table`` — candidate paths come from the
                topology's own enumeration, so either means a provider bug.
        """
        try:
            return cls.of(nodes, table)
        except InvalidPathError as exc:
            raise ValueError(f"candidate {exc}") from None

    @classmethod
    def of(cls, path: Sequence[str], table: LinkTable,
           unknown_link: type[ReproError] = InvalidPathError
           ) -> "CandidatePath":
        """``path`` as a candidate of ``table``: ``path`` itself when it
        already is one, otherwise a new candidate indexed here — the one
        place a plain node sequence becomes a kernel path.

        Raises:
            InvalidPathError: ``path`` is not a simple path.
            unknown_link: ``path`` uses a link absent from ``table``.
        """
        if isinstance(path, cls) and path.table is table:
            return path
        nodes = tuple(path)
        if not is_simple_path(nodes):
            raise InvalidPathError(f"path {nodes!r} is not a simple path")
        try:
            link_idx = tuple(map(table.index.__getitem__,
                                 zip(nodes, nodes[1:])))
        except KeyError as exc:
            raise unknown_link(f"path {nodes!r} uses link "
                               f"{format_link(exc.args[0])} absent from the "
                               f"link table") from None
        return cls.prevalidated(nodes, link_idx, table)

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

    @property
    def links(self) -> tuple[LinkId, ...]:
        """Directed links traversed, in order — the table's own link ids,
        so every path shares the same 2-tuples."""
        return tuple(map(self.table.ids.__getitem__, self.link_idx))
