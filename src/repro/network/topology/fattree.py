"""The k-ary Fat-Tree datacenter topology (paper §V-A).

A Fat-Tree with parameter ``k`` (even) has ``k`` pods. Each pod contains
``k/2`` edge switches and ``k/2`` aggregation switches; each edge switch
serves ``k/2`` hosts; there are ``(k/2)^2`` core switches, arranged in ``k/2``
groups of ``k/2`` so that aggregation switch ``j`` of every pod connects to
every core switch of group ``j``. Totals: ``5k^2/4`` switches and ``k^3/4``
hosts — the paper uses ``k = 8`` (80 switches, 128 hosts) with 1 Gbps links.

Node naming::

    h{pod}_{edge}_{i}   host i under edge switch `edge` of pod `pod`
    e{pod}_{j}          edge switch j of pod `pod`
    a{pod}_{j}          aggregation switch j of pod `pod`
    c{g}_{i}            core switch i of core group g

The equal-cost path structure is closed-form, so path enumeration never
searches the graph:

* same edge switch:     1 path   (h -> e -> h')
* same pod, diff edge:  k/2 paths, one per aggregation switch
* different pods:       (k/2)^2 paths, one per core switch
"""

from __future__ import annotations

import itertools

from repro.core.exceptions import TopologyError
from repro.network.graph import DiGraph
from repro.network.topology.base import Topology


class FatTreeTopology(Topology):
    """A k-ary Fat-Tree with uniform link capacity.

    Args:
        k: pod parameter; must be a positive even integer.
        link_capacity: capacity of every directed link in Mbit/s
            (default 1000.0 = the paper's 1 Gbps).
    """

    def __init__(self, k: int = 8, link_capacity: float = 1000.0):
        super().__init__()
        if k < 2 or k % 2 != 0:
            raise TopologyError(f"Fat-Tree requires an even k >= 2, got {k}")
        if link_capacity <= 0:
            raise TopologyError("link capacity must be positive")
        self.k = k
        self.link_capacity = link_capacity
        self.name = f"fat-tree(k={k})"

    # ------------------------------------------------------------ naming

    @staticmethod
    def host_name(pod: int, edge: int, index: int) -> str:
        return f"h{pod}_{edge}_{index}"

    @staticmethod
    def edge_name(pod: int, j: int) -> str:
        return f"e{pod}_{j}"

    @staticmethod
    def aggr_name(pod: int, j: int) -> str:
        return f"a{pod}_{j}"

    @staticmethod
    def core_name(group: int, index: int) -> str:
        return f"c{group}_{index}"

    def locate_host(self, host: str) -> tuple[int, int, int]:
        """Parse a host name back into ``(pod, edge, index)``."""
        try:
            if not host.startswith("h"):
                raise ValueError
            pod, edge, index = (int(part) for part in host[1:].split("_"))
        except ValueError:
            raise TopologyError(f"{host!r} is not a fat-tree host name") \
                from None
        half = self.k // 2
        if not (0 <= pod < self.k and 0 <= edge < half and 0 <= index < half):
            raise TopologyError(f"{host!r} is outside fat-tree(k={self.k})")
        return pod, edge, index

    # ------------------------------------------------------------- building

    def _build(self) -> DiGraph:
        k, half, cap = self.k, self.k // 2, self.link_capacity
        graph = DiGraph()

        def add_duplex(u: str, v: str) -> None:
            graph.add_edge(u, v, capacity=cap)
            graph.add_edge(v, u, capacity=cap)

        for group in range(half):
            for index in range(half):
                graph.add_node(self.core_name(group, index), kind="core")
        for pod in range(k):
            for j in range(half):
                edge = self.edge_name(pod, j)
                aggr = self.aggr_name(pod, j)
                graph.add_node(edge, kind="edge", pod=pod)
                graph.add_node(aggr, kind="aggr", pod=pod)
                for index in range(half):
                    host = self.host_name(pod, j, index)
                    graph.add_node(host, kind="host", pod=pod)
                    add_duplex(host, edge)
            # Full bipartite edge <-> aggregation mesh inside the pod.
            for j, m in itertools.product(range(half), repeat=2):
                add_duplex(self.edge_name(pod, j), self.aggr_name(pod, m))
            # Aggregation switch j uplinks to every core of group j.
            for j in range(half):
                for index in range(half):
                    add_duplex(self.aggr_name(pod, j),
                               self.core_name(j, index))
        return graph

    # --------------------------------------------------------------- counts

    @property
    def num_hosts(self) -> int:
        return self.k ** 3 // 4

    @property
    def num_switches(self) -> int:
        return 5 * self.k ** 2 // 4

    # ---------------------------------------------------------------- paths

    def equal_cost_paths(self, src: str, dst: str) -> list[tuple[str, ...]]:
        if src == dst:
            raise TopologyError("src and dst hosts must differ")
        sp, se, _si = self.locate_host(src)
        dp, de, _di = self.locate_host(dst)
        half = self.k // 2
        src_edge = self.edge_name(sp, se)
        dst_edge = self.edge_name(dp, de)

        if sp == dp and se == de:
            return [(src, src_edge, dst)]

        if sp == dp:
            return [(src, src_edge, self.aggr_name(sp, j), dst_edge, dst)
                    for j in range(half)]

        paths = []
        for j in range(half):
            up_aggr = self.aggr_name(sp, j)
            down_aggr = self.aggr_name(dp, j)
            for index in range(half):
                core = self.core_name(j, index)
                paths.append(
                    (src, src_edge, up_aggr, core, down_aggr, dst_edge, dst))
        return paths
