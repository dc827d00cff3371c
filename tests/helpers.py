"""Shared test scaffolding: small controllable topologies and builders."""

from __future__ import annotations

import hashlib
import json

import networkx as nx

from repro.core.flow import Flow
from repro.network.routing.provider import PathProvider
from repro.network.topology.custom import CustomTopology
from repro.sim.hooks import PreRound

#: a->b update-flow paths through the diamond
TOP = ("a", "s1", "top", "s2", "b")
BOT = ("a", "s1", "bot", "s2", "b")
#: c->d and e->f background paths (share only middle links with a->b)
BG_TOP = ("c", "s1", "top", "s2", "d")
BG_BOT = ("c", "s1", "bot", "s2", "d")
EF_TOP = ("e", "s1", "top", "s2", "f")
EF_BOT = ("e", "s1", "bot", "s2", "f")


def diamond_topology(capacity: float = 100.0) -> CustomTopology:
    """Hosts a,b,c,d around two disjoint middle paths (top / bot)."""
    g = nx.Graph()
    for h in ("a", "b", "c", "d", "e", "f"):
        g.add_node(h, kind="host")
    for s in ("s1", "s2", "top", "bot"):
        g.add_node(s, kind="switch")
    for u, v in (("a", "s1"), ("c", "s1"), ("e", "s1"),
                 ("s1", "top"), ("s1", "bot"), ("top", "s2"),
                 ("bot", "s2"), ("s2", "b"), ("s2", "d"), ("s2", "f")):
        g.add_edge(u, v, capacity=capacity)
    return CustomTopology(g, name="diamond", max_paths=4)


def diamond_setup(capacity: float = 100.0):
    """(network, provider) for a fresh diamond."""
    topo = diamond_topology(capacity)
    return topo.network(), PathProvider(topo)


def ab_flow(fid: str, demand: float, duration: float = 1.0) -> Flow:
    """An a->b flow (update-style)."""
    return Flow(flow_id=fid, src="a", dst="b", demand=demand,
                duration=duration)


def cd_flow(fid: str, demand: float, duration: float | None = None) -> Flow:
    """A c->d flow (background-style; permanent unless given a duration)."""
    return Flow(flow_id=fid, src="c", dst="d", demand=demand,
                duration=duration)


def ef_flow(fid: str, demand: float, duration: float | None = None) -> Flow:
    """An e->f flow (second background pair, independent host links)."""
    return Flow(flow_id=fid, src="e", dst="f", demand=demand,
                duration=duration)


def network_columns(net):
    """Every raw column of a network, flow table order included: two
    networks that compare equal here took the same placements in the same
    order, to the last bit of every residual."""
    return (list(net._cap_col), list(net._used_col),
            [list(f) for f in net._flows_col], list(net._ver_col),
            list(net._rules_used_col), list(net._node_ver_col),
            list(net._placements.items()))


def record_rounds(sim) -> list[PreRound]:
    """Every ``PreRound`` ``sim`` emits from here on, in emission order.

    The hook bus is where a round's telemetry lives; the simulator keeps
    no per-round list of its own.
    """
    rounds: list[PreRound] = []
    sim.hooks.subscribe(PreRound, rounds.append)
    return rounds


def spy_moves(sim, on_move) -> None:
    """Call ``on_move(event_id, frm, to)`` after every lifecycle move of
    ``sim`` (registrations are not moves), by wrapping the instance's
    ``lifecycle.advance``."""
    lifecycle = sim.lifecycle
    advance = lifecycle.advance

    def spying(event_id, to, at):
        frm = lifecycle.state(event_id)
        row = advance(event_id, to, at)
        on_move(event_id, frm, to)
        return row

    lifecycle.advance = spying


def schedule_digest(metrics) -> str:
    """A stable fingerprint of one run's realized schedule.

    Hashes the deterministic outcome fields of a ``RunMetrics`` (per-event
    completion times, delays and costs, plus the aggregate cost and round
    count); wall-clock fields are excluded, so two runs of the same seeded
    workload collide iff they admitted the same events at the same
    simulated times.
    """
    payload = {
        "scheduler": metrics.scheduler,
        "event_count": metrics.event_count,
        "total_cost": metrics.total_cost,
        "rounds": metrics.rounds,
        "per_event_ect": list(metrics.per_event_ect),
        "per_event_delay": list(metrics.per_event_delay),
        "per_event_cost": list(metrics.per_event_cost),
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
