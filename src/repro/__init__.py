"""repro — event-level network update scheduling.

A full reproduction of *"An Event-Level Abstraction for Achieving Efficiency
and Fairness in Network Update"* (Qu et al., IEEE ICDCS 2017): the
event-level update abstraction, the minimum-migration-traffic planner, and
the LMTF / P-LMTF inter-event schedulers, on top of a flow-level
datacenter-network simulator.

Quickstart::

    from repro import FatTreeTopology, PathProvider, EventPlanner
    from repro import UpdateSimulator, SimulationConfig

    topo = FatTreeTopology(k=8)
    net = topo.network()

See ``examples/quickstart.py`` for a complete runnable walk-through.
"""

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.consistency import (
        is_one_shot_safe, sequential_order_is_safe, transient_overloads)
    from repro.core.event import EventState, UpdateEvent, make_event
    from repro.core.exceptions import (
        DuplicateFlowError, InsufficientBandwidthError, InvalidPathError,
        PlanningError, ReproError, RuleSpaceError, SimulationError,
        TopologyError, UnknownFlowError)
    from repro.core.executor import PlanExecutor
    from repro.core.flow import Flow, FlowKind, Placement, next_flow_id
    from repro.core.migration import MigrationConfig, MigrationPlanner
    from repro.core.ordering import (
        OrderingResult, find_safe_order, reorder_plan)
    from repro.core.plan import EventPlan, FlowPlan, Migration
    from repro.core.planner import EventPlanner, PlannerConfig
    from repro.network.failures import (
        FailureInjector, FailureRecord, repair_event)
    from repro.network.network import Network
    from repro.network.routing.provider import PathProvider
    from repro.network.topology.custom import CustomTopology
    from repro.network.topology.fattree import FatTreeTopology
    from repro.network.topology.jellyfish import JellyfishTopology
    from repro.network.topology.leafspine import LeafSpineTopology
    from repro.sched.base import Scheduler
    from repro.sched.fifo import FIFOScheduler
    from repro.sched.flowlevel import FlowLevelScheduler
    from repro.sched.lmtf import LMTFScheduler
    from repro.sched.oracle import OracleSJFScheduler
    from repro.sched.plmtf import PLMTFScheduler
    from repro.sched.reorder import CostReorderScheduler
    from repro.sim.metrics import MetricsCollector, RunMetrics
    from repro.sim.simulator import SimulationConfig, UpdateSimulator
    from repro.sim.timing import TimingModel
    from repro.traces.background import BackgroundLoader
    from repro.traces.benson import BensonLikeTrace
    from repro.traces.csvtrace import CSVTrace
    from repro.traces.events import EventGenerator, EventGeneratorConfig
    from repro.traces.yahoo import YahooLikeTrace

__version__ = "1.0.0"

#: Each public name's home module. Nothing is imported until a name is
#: first read (PEP 562), so ``import repro.cli`` or a figure module loads
#: only the subpackages it uses.
_HOMES = {name: f"repro.{home}" for home, names in {
    "core.consistency":
        "is_one_shot_safe sequential_order_is_safe transient_overloads",
    "core.event": "EventState UpdateEvent make_event",
    "core.exceptions": "DuplicateFlowError InsufficientBandwidthError "
        "InvalidPathError PlanningError ReproError RuleSpaceError "
        "SimulationError TopologyError UnknownFlowError",
    "core.executor": "PlanExecutor",
    "core.flow": "Flow FlowKind Placement next_flow_id",
    "core.migration": "MigrationConfig MigrationPlanner",
    "core.ordering": "OrderingResult find_safe_order reorder_plan",
    "core.plan": "EventPlan FlowPlan Migration",
    "core.planner": "EventPlanner PlannerConfig",
    "network.failures": "FailureInjector FailureRecord repair_event",
    "network.network": "Network",
    "network.routing.provider": "PathProvider",
    "network.topology.custom": "CustomTopology",
    "network.topology.fattree": "FatTreeTopology",
    "network.topology.jellyfish": "JellyfishTopology",
    "network.topology.leafspine": "LeafSpineTopology",
    "sched.base": "Scheduler",
    "sched.fifo": "FIFOScheduler",
    "sched.flowlevel": "FlowLevelScheduler",
    "sched.lmtf": "LMTFScheduler",
    "sched.oracle": "OracleSJFScheduler",
    "sched.plmtf": "PLMTFScheduler",
    "sched.reorder": "CostReorderScheduler",
    "sim.metrics": "MetricsCollector RunMetrics",
    "sim.simulator": "SimulationConfig UpdateSimulator",
    "sim.timing": "TimingModel",
    "traces.background": "BackgroundLoader",
    "traces.benson": "BensonLikeTrace",
    "traces.csvtrace": "CSVTrace",
    "traces.events": "EventGenerator EventGeneratorConfig",
    "traces.yahoo": "YahooLikeTrace",
}.items() for name in names.split()}


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(home), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__all__ = [
    "BackgroundLoader", "BensonLikeTrace", "CSVTrace", "CostReorderScheduler",
    "CustomTopology", "DuplicateFlowError", "EventGenerator",
    "EventGeneratorConfig", "EventPlan", "EventPlanner", "EventState",
    "FIFOScheduler", "FailureInjector", "FailureRecord", "FatTreeTopology",
    "Flow", "FlowKind", "FlowLevelScheduler", "FlowPlan",
    "InsufficientBandwidthError", "InvalidPathError", "JellyfishTopology",
    "LMTFScheduler", "LeafSpineTopology", "MetricsCollector", "Migration",
    "MigrationConfig", "MigrationPlanner", "Network",
    "OracleSJFScheduler", "PLMTFScheduler", "PathProvider", "Placement",
    "PlanExecutor", "PlannerConfig", "PlanningError", "ReproError",
    "RuleSpaceError", "RunMetrics", "Scheduler", "SimulationConfig",
    "SimulationError", "TimingModel", "TopologyError", "UnknownFlowError",
    "UpdateEvent", "UpdateSimulator", "YahooLikeTrace", "OrderingResult",
    "find_safe_order", "is_one_shot_safe", "make_event", "next_flow_id",
    "reorder_plan", "repair_event", "sequential_order_is_safe",
    "transient_overloads",
]
