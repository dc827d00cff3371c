"""Background-churn plugin: finite background flows finish and respawn.

Extracted from the simulator monolith into a hook-bus plugin: the driver
subscribes to :class:`~repro.sim.hooks.RunStarted`, schedules an engine
finish for every finite-duration background flow the network was loaded
with, and — when it holds a trace — replaces completed flows with fresh
trace flows so utilization stays roughly level (paper §IV-A's changing
network state). The simulator core never references churn; it only emits
``RunStarted`` and exposes the :class:`~repro.sim.hooks.SimulatorPort`
surface the driver programs against.

Determinism contract: the driver draws path tiebreaks from its own
``random.Random(config.seed + 1)`` (built by the simulator), and its
engine scheduling order is identical to the old monolith's — initial
finishes in network flow-id order at run start, respawn finishes at
placement time. A respawn's draw sequence — the trace's ``Random`` calls
in :meth:`TraceGenerator.sample_flow`, the flow ids it takes, then the
loader's in :meth:`BackgroundLoader.best_path`, with their values and the
path they choose — is the spec every schedule pin sits on;
``tests/unit/test_respawn_differential.py`` holds it against a verbatim
copy of the respawn before its fast path.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import TYPE_CHECKING

from repro.core.exceptions import (
    InsufficientBandwidthError,
    UnknownFlowError,
)
from repro.core.flow import Flow, FlowKind
from repro.sim.engine import TaggedCallback
from repro.sim.hooks import ChurnTick, RunStarted, SimulatorPort
from repro.traces.background import BackgroundLoader

if TYPE_CHECKING:
    from repro.network.network import Network
    from repro.network.routing.provider import PathProvider
    from repro.traces.base import TraceGenerator


class ChurnDriver:
    """Schedules background-flow completions and respawns over a run.

    Args:
        network: the live network (the same object the simulator runs on).
        provider: candidate-path lookup for respawned-flow placement.
        trace: generator for replacement flows; ``None`` disables respawn
            (flows then finish without replacement).
        rng: path-tiebreak randomness for respawn placement (independent
            of the trace's own RNG).
    """

    #: Deficit repayments attempted per churn tick; bounds the work one
    #: engine event can do when the network has been too hot to respawn.
    MAX_SPAWNS_PER_TICK = 8

    def __init__(self, network: Network, provider: PathProvider,
                 trace: TraceGenerator | None, rng: random.Random):
        self._trace = trace
        self._loader = (BackgroundLoader(network, provider, trace, rng)
                        if trace is not None else None)
        self._deficit = 0

    def attach(self, sim: SimulatorPort) -> None:
        """Subscribe to the simulator's hook bus (called by the simulator)
        and bind what every tick reads: network, engine, pipeline and the
        hook bus are the simulator's for its whole life."""
        self._network = sim.network
        self._engine = sim.engine
        self._pipeline = sim.pipeline
        self._emit = sim.hooks.emit
        sim.hooks.subscribe(RunStarted, self._on_run_started)

    @property
    def deficit(self) -> int:
        """Respawns owed but not yet placed (the network was too hot)."""
        return self._deficit

    # ------------------------------------------------------------ internals

    def _on_run_started(self, hook: RunStarted) -> None:
        sim = hook.sim
        if not sim.config.background_churn:
            return
        network = sim.network
        for flow_id in list(network.flow_ids()):
            flow = network.placement(flow_id).flow
            if (flow.kind is FlowKind.BACKGROUND
                    and not math.isinf(flow.service_time)):
                self._schedule_finish(flow)

    def _schedule_finish(self, flow: Flow) -> None:
        engine, flow_id = self._engine, flow.flow_id
        engine.schedule_at(engine.now + flow.service_time, TaggedCallback(
            partial(self._on_background_finish, flow_id), "churn:" + flow_id))

    def _on_background_finish(self, flow_id: str) -> None:
        """A background flow's transmission ended (engine callback)."""
        try:
            self._network.remove(flow_id)
        except UnknownFlowError:
            pass  # a link failure stranded it already
        # Churn exists to perturb queued events' costs; once every event
        # has completed, respawning would only keep the engine alive
        # forever.
        respawned = 0
        if self._pipeline.events_remaining > 0 and self._trace is not None:
            respawned = self._respawn_background()
        self._emit(ChurnTick(self._engine.now, flow_id, respawned))
        self._pipeline.maybe_round()

    def _respawn_background(self) -> int:
        """Replace a completed background flow, keeping utilization level;
        returns how many replacement flows this tick placed.

        When the network is momentarily too hot to place a replacement, the
        shortfall is remembered (``deficit``) and repaid at later churn
        ticks, so long runs do not silently decay below the loaded
        utilization target.
        """
        assert self._trace is not None and self._loader is not None
        sample, best_path = self._trace.sample_flow, self._loader.best_path
        place = self._network.place
        self._deficit += 1
        spawned = 0
        while self._deficit > 0 and spawned < self.MAX_SPAWNS_PER_TICK:
            replacement = sample(kind=FlowKind.BACKGROUND, permanent=False)
            path = best_path(replacement)
            if path is None:
                break
            try:
                place(replacement, path)
            except InsufficientBandwidthError:
                break  # rule-limited networks can refuse; repay later
            self._schedule_finish(replacement)
            self._deficit -= 1
            spawned += 1
        return spawned
