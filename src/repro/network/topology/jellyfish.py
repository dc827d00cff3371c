"""Jellyfish: a random-regular-graph datacenter topology.

Included as an unstructured counterpoint to Fat-Tree for the robustness
experiments (DESIGN.md §7): path enumeration here uses shortest-path search
rather than closed-form structure, exercising the generic routing fallback.

Node naming: ``h{switch}_{i}`` (host), ``t{j}`` (switch).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.core.exceptions import TopologyError
from repro.network.topology.base import Topology

if TYPE_CHECKING:
    import networkx as nx


class JellyfishTopology(Topology):
    """A random d-regular switch fabric with hosts attached to each switch.

    Args:
        switches: number of switches (nodes of the random regular graph).
        degree: switch-to-switch degree of the random regular graph.
        hosts_per_switch: hosts attached to each switch.
        link_capacity: capacity of every directed link in Mbit/s.
        seed: RNG seed for the random regular graph (deterministic builds).
        max_paths: cap on enumerated equal-cost paths per host pair.
    """

    def __init__(self, switches: int = 20, degree: int = 4,
                 hosts_per_switch: int = 4, link_capacity: float = 1000.0,
                 seed: int = 0, max_paths: int = 16):
        super().__init__()
        if switches < degree + 1:
            raise TopologyError("need more switches than the degree")
        if (switches * degree) % 2 != 0:
            raise TopologyError("switches * degree must be even for a "
                                "regular graph to exist")
        if link_capacity <= 0:
            raise TopologyError("link capacity must be positive")
        self.switches_count = switches
        self.degree = degree
        self.hosts_per_switch = hosts_per_switch
        self.link_capacity = link_capacity
        self.seed = seed
        self.max_paths = max_paths
        self.name = f"jellyfish({switches}sw,d={degree})"

    @staticmethod
    def host_name(switch: int, index: int) -> str:
        return f"h{switch}_{index}"

    @staticmethod
    def switch_name(j: int) -> str:
        return f"t{j}"

    def _build(self) -> nx.DiGraph:
        import networkx as nx

        rng = random.Random(self.seed)
        base = nx.random_regular_graph(self.degree, self.switches_count,
                                       seed=rng.randrange(2 ** 31))
        graph = nx.DiGraph()
        cap = self.link_capacity

        def add_duplex(u: str, v: str) -> None:
            graph.add_edge(u, v, capacity=cap)
            graph.add_edge(v, u, capacity=cap)

        for j in range(self.switches_count):
            graph.add_node(self.switch_name(j), kind="switch")
        for u, v in base.edges():
            add_duplex(self.switch_name(u), self.switch_name(v))
        for j in range(self.switches_count):
            for i in range(self.hosts_per_switch):
                host = self.host_name(j, i)
                graph.add_node(host, kind="host")
                add_duplex(host, self.switch_name(j))
        return graph

    def equal_cost_paths(self, src: str, dst: str) -> list[tuple[str, ...]]:
        if src == dst:
            raise TopologyError("src and dst hosts must differ")
        return self._search_paths(src, dst, max_paths=self.max_paths)
