"""Integration: the Fat-Tree path never loads networkx.

Structured topologies build :class:`repro.network.graph.DiGraph`; only
jellyfish, user graphs and k-shortest-path search import networkx, inside
the function that needs it. A fresh interpreter is the only place
``sys.modules`` can show that, so the checks run in a subprocess.
"""

import subprocess
import sys
import textwrap

SCRIPT = textwrap.dedent("""
    import sys
    from dataclasses import replace

    import repro
    import repro.cli
    from repro.experiments.common import DEFAULTS, Scenario
    from repro.sched import build_scheduler
    from repro.sim.service import ServiceConfig, SimulationService
    from repro.traces.arrivals import make_stream
    from repro.traces.events import EventGeneratorConfig

    assert "networkx" not in sys.modules, "import repro loads networkx"
    scenario = Scenario(utilization=0.5, seed=3,
                        defaults=replace(DEFAULTS, k=4))
    sim = scenario.simulator(
        build_scheduler({"kind": "plmtf", "alpha": 4, "seed": 12}))
    stream = make_stream(
        "benson", scenario.topology.hosts(), rate=20.0, seed=10,
        config=EventGeneratorConfig(min_flows=2, max_flows=8))
    report = SimulationService(sim, stream,
                               ServiceConfig(max_events=10)).serve()
    assert report.completed == 10, report
    assert repro.cli.main(
        ["serve", "--k", "8", "--events", "5", "--stats-every", "0",
         "--snapshot-every", "0"]) == 0
    assert "networkx" not in sys.modules, "serving loads networkx"

    # The lazy imports: each networkx user still works on first call.
    from repro.network.routing.paths import k_shortest_paths
    from repro.network.topology.custom import CustomTopology
    from repro.network.topology.jellyfish import JellyfishTopology

    jelly = JellyfishTopology(switches=10, degree=3, hosts_per_switch=2,
                              seed=1)
    assert jelly.equal_cost_paths("h0_0", "h5_1")
    assert "networkx" in sys.modules
    assert k_shortest_paths(jelly.graph(), "h0_0", "h5_1", k=3)

    import networkx as nx

    ring = nx.Graph()
    for u, v in (("x", "s0"), ("s0", "s1"), ("s1", "y"), ("s0", "s2"),
                 ("s2", "y")):
        ring.add_edge(u, v, capacity=10.0)
    ring.nodes["x"]["kind"] = ring.nodes["y"]["kind"] = "host"
    assert CustomTopology(ring).equal_cost_paths("x", "y") == [
        ("x", "s0", "s1", "y"), ("x", "s0", "s2", "y")]
    print("ok")
""")


def test_fat_tree_path_never_imports_networkx():
    result = subprocess.run([sys.executable, "-c", SCRIPT],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.rstrip().endswith("ok")
