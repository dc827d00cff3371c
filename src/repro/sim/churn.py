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
placement time.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING

from repro.core.exceptions import InsufficientBandwidthError, SimulationError
from repro.core.flow import Flow, FlowKind
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
        self._sim: SimulatorPort | None = None

    def attach(self, sim: SimulatorPort) -> None:
        """Subscribe to the simulator's hook bus (called by the simulator)."""
        self._sim = sim
        sim.hooks.subscribe(RunStarted, self._on_run_started)

    @property
    def deficit(self) -> int:
        """Respawns owed but not yet placed (the network was too hot)."""
        return self._deficit

    # ------------------------------------------------------------ internals

    def _require_sim(self) -> SimulatorPort:
        if self._sim is None:
            raise SimulationError("ChurnDriver used before attach()")
        return self._sim

    def _on_run_started(self, hook: RunStarted) -> None:
        sim = hook.sim
        if not sim.config.background_churn:
            return
        network = sim.network
        for flow_id in list(network.flow_ids()):
            flow = network.placement(flow_id).flow
            if (flow.kind is FlowKind.BACKGROUND
                    and not math.isinf(flow.service_time)):
                self._schedule_finish(sim, flow)

    def _schedule_finish(self, sim: SimulatorPort, flow: Flow) -> None:
        sim.engine.schedule_callback(
            sim.now + flow.service_time,
            lambda f=flow.flow_id: self._on_background_finish(f),
            tag=f"churn:{flow.flow_id}")

    def _on_background_finish(self, flow_id: str) -> None:
        """A background flow's transmission ended (engine callback).

        Keyed by ``flow_id`` alone so the pending callback is fully
        described by its ``churn:<flow_id>`` engine tag — checkpoint
        restore rebuilds the heap entry from the tag without having to
        serialize the Flow object it closed over.
        """
        sim = self._require_sim()
        if sim.network.has_flow(flow_id):
            sim.network.remove(flow_id)
        # Churn exists to perturb queued events' costs; once every event
        # has completed, respawning would only keep the engine alive
        # forever.
        respawned = 0
        if sim.events_remaining > 0 and self._trace is not None:
            respawned = self._respawn_background(sim)
        sim.hooks.emit(ChurnTick(
            now=sim.now, flow_id=flow_id, respawned=respawned))
        sim.maybe_round()

    # -------------------------------------------------------- checkpointing

    def export_state(self) -> dict:
        """JSON-ready encoding of the driver's mutable state.

        Covers the respawn deficit plus the two RNG streams respawns draw
        from: the trace generator's own RNG (flow shapes/endpoints) and
        the loader's path-tiebreak RNG. Pending ``churn:<flow_id>`` engine
        entries are *not* exported here — they live in the engine heap
        export and are re-bound via :meth:`resolve_tag`.
        """
        from repro.core.ioutil import rng_state_payload
        state: dict = {"deficit": self._deficit}
        if self._trace is not None:
            state["trace_rng"] = rng_state_payload(self._trace.rng)
            state["trace_serial"] = self._trace._serial
        if self._loader is not None:
            state["loader_rng"] = rng_state_payload(self._loader.rng)
        return state

    def restore_state(self, state: dict) -> None:
        """Overwrite the driver's state from :meth:`export_state` output."""
        from repro.core.ioutil import set_rng_state
        self._deficit = int(state["deficit"])
        if self._trace is not None and "trace_rng" in state:
            set_rng_state(self._trace.rng, state["trace_rng"])
            self._trace._serial = int(state["trace_serial"])
        if self._loader is not None and "loader_rng" in state:
            set_rng_state(self._loader.rng, state["loader_rng"])

    def resolve_tag(self, tag: str):
        """Rebuild the engine callback a ``churn:<flow_id>`` tag denotes,
        or None for tags the driver does not own."""
        if not tag.startswith("churn:"):
            return None
        flow_id = tag[len("churn:"):]
        if not flow_id:
            raise SimulationError(f"malformed churn tag {tag!r}")
        return lambda f=flow_id: self._on_background_finish(f)

    def _respawn_background(self, sim: SimulatorPort) -> int:
        """Replace a completed background flow, keeping utilization level;
        returns how many replacement flows this tick placed.

        When the network is momentarily too hot to place a replacement, the
        shortfall is remembered (``deficit``) and repaid at later churn
        ticks, so long runs do not silently decay below the loaded
        utilization target.
        """
        assert self._trace is not None and self._loader is not None
        self._deficit += 1
        spawned = 0
        while self._deficit > 0 and spawned < self.MAX_SPAWNS_PER_TICK:
            replacement = self._trace.sample_flow(
                kind=FlowKind.BACKGROUND, permanent=False)
            path = self._loader.best_path(replacement)
            if path is None:
                break
            try:
                sim.network.place(replacement, path)
            except InsufficientBandwidthError:
                break  # rule-limited networks can refuse; repay later
            self._schedule_finish(sim, replacement)
            self._deficit -= 1
            spawned += 1
        return spawned
