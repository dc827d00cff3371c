"""Typed hook bus decoupling the simulator core from cross-cutting concerns.

The round pipeline (:mod:`repro.sim.pipeline`) emits a small vocabulary of
frozen hook payloads at every significant transition; cross-cutting
concerns — metrics, trace logging, fault injection, background churn,
control-plane retry accounting — *subscribe* instead of being hardcoded
branches inside the simulator. The bus dispatches on the payload's exact
type and calls handlers in subscription order, so the order in which the
simulator wires its subscribers fully determines observable record order
(the byte-identity contract of the schedule pins relies on this).

Hook vocabulary:

=================== ========================================================
hook                emitted when
=================== ========================================================
RunStarted          ``run()`` begins, after arrivals are scheduled; plugins
                    (fault driver, churn driver) schedule their timelines
EventArrived        an event enters the queue (arrival or repair)
PreRound            a round was decided, before its admissions execute
                    (fires for empty rounds too)
PostRound           a round settled (fires for empty rounds too)
EventAdmitted       one admission executed successfully
ExecutionRetried    the executor burned failed attempts (success or not)
ExecutionFailed     an admission's execution failed terminally
EventDeferred       an event was charged one deferral
EventDropped        an event was evicted past its deferral budget
EventCompleted      an update event finished
FlowFinished        an admitted flow completed its transmission
FaultInjected       a link/switch failure fired mid-run
FaultHealed         a previously injected failure healed
ChurnTick           a background flow completed (and maybe respawned)
=================== ========================================================

Lifecycle moves are not hooks: the pipeline writes each move, and the
times and cost a hook reports, into the event's row on the
:class:`~repro.sim.lifecycle.EventLifecycle` before it emits the hook, so
a handler reads the row through ``sim.lifecycle``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Protocol, TypeVar

if TYPE_CHECKING:
    from repro.core.event import UpdateEvent
    from repro.network.network import Network
    from repro.sim.config import SimulationConfig
    from repro.sim.engine import SimulationEngine
    from repro.sim.lifecycle import EventLifecycle
    from repro.sim.metrics import MetricsCollector
    from repro.sim.pipeline import RoundPipeline


class SimulatorPort(Protocol):
    """The surface a simulator exposes to hook-bus plugins.

    Plugins (fault drivers, churn drivers, exporters) program against this
    protocol instead of the concrete simulator, which keeps the dependency
    arrow pointing outward: the simulator never imports its plugins.
    """

    @property
    def engine(self) -> SimulationEngine: ...

    @property
    def network(self) -> Network: ...

    @property
    def config(self) -> SimulationConfig: ...

    @property
    def hooks(self) -> HookBus: ...

    @property
    def now(self) -> float: ...

    @property
    def lifecycle(self) -> EventLifecycle: ...

    @property
    def pipeline(self) -> RoundPipeline: ...

    @property
    def metrics_collector(self) -> MetricsCollector: ...

    def enqueue(self, event: UpdateEvent, origin: str = ...) -> None:
        """Enqueue a mid-run event (e.g. a failure repair)."""

    def schedule_round(self) -> None:
        """Schedule a round check at the current simulated time."""

    def maybe_round(self) -> None:
        """Run a round check immediately (churn uses the direct call)."""


class Hook:
    """Base class of every hook payload (dispatch is by exact type)."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class RunStarted(Hook):
    """The run began; plugins may now schedule their engine timelines."""

    sim: SimulatorPort


@dataclass(frozen=True, slots=True)
class EventArrived(Hook):
    """An update event entered the queue."""

    now: float
    event_id: str
    flow_count: int
    origin: str


@dataclass(frozen=True, slots=True)
class PreRound(Hook):
    """A round was decided (possibly admitting nothing).

    ``admitted`` lists the *decided* admissions; execution failures may
    still turn some of them into deferrals.

    The defaulted fields are the learned-ranking telemetry
    (:mod:`repro.sched.learned`), copied from the decision:
    ``probes_skipped`` sampled candidates went unprobed under the ranking
    budget, ``prediction_samples`` training pairs were produced with
    ``prediction_error_sum`` total absolute error (log1p-cost scale), and
    ``fallback`` marks a round that degraded to full probing. Exact
    schedulers emit the zero defaults.
    """

    now: float
    index: int
    admitted: tuple[str, ...]
    planning_ops: int
    plan_time: float
    queue_depth: int
    cache_hits: int
    cache_misses: int
    cache_invalidations: int
    probes_skipped: int = 0
    prediction_samples: int = 0
    prediction_error_sum: float = 0.0
    fallback: bool = False


@dataclass(frozen=True, slots=True)
class PostRound(Hook):
    """Round ``index`` settled (empty rounds included).

    The payload is O(1): each event row charges ``rounds_waited`` per
    queue stay, counting the rounds settled inside it.
    """

    now: float
    index: int


@dataclass(frozen=True, slots=True)
class EventAdmitted(Hook):
    """One admission executed successfully at ``exec_start``.

    The defaulted fields are the plan-compilation telemetry
    (:mod:`repro.core.compile`): how many stages the compiled schedule
    applied (1 under the default atomic mode), the worst fractional
    transient capacity overshoot any link saw, and the ε the plan was
    compiled with.
    """

    exec_start: float
    event_id: str
    cost: float
    migrations: int
    flows: int
    setup_done_time: float
    stage_count: int = 1
    max_transient_overload: float = 0.0
    epsilon: float = 0.0


@dataclass(frozen=True, slots=True)
class ExecutionRetried(Hook):
    """The executor consumed ``retries`` failed attempts for an event."""

    event_id: str
    retries: int


@dataclass(frozen=True, slots=True)
class ExecutionFailed(Hook):
    """An admission's execution failed terminally (state rolled back)."""

    now: float
    event_id: str
    attempts: int
    reason: str


@dataclass(frozen=True, slots=True)
class EventDeferred(Hook):
    """An event was charged one deferral; ``count`` is its total so far."""

    now: float
    event_id: str
    count: int


@dataclass(frozen=True, slots=True)
class EventDropped(Hook):
    """An event was evicted after exhausting its requeue deferrals."""

    now: float
    event_id: str
    stranded_demand: float


@dataclass(frozen=True, slots=True)
class EventCompleted(Hook):
    """An update event finished."""

    now: float
    event_id: str


@dataclass(frozen=True, slots=True)
class FlowFinished(Hook):
    """An admitted flow completed its transmission."""

    now: float
    flow_id: str
    event_id: str


@dataclass(frozen=True, slots=True)
class FaultInjected(Hook):
    """A link/switch failure fired, stranding the given traffic."""

    now: float
    description: str
    stranded_flows: int
    stranded_demand: float


@dataclass(frozen=True, slots=True)
class FaultHealed(Hook):
    """A previously injected failure healed (capacity restored)."""

    now: float
    description: str


@dataclass(frozen=True, slots=True)
class ChurnTick(Hook):
    """A background flow completed; ``respawned`` replacements were placed."""

    now: float
    flow_id: str
    respawned: int


_H = TypeVar("_H", bound=Hook)


class HookBus:
    """Exact-type hook dispatch with deterministic handler order.

    Handlers for a hook type run in subscription order; emission order is
    therefore fully determined by wiring order, which the simulator relies
    on to keep metrics/listener record order byte-identical to the
    pre-refactor monolith.
    """

    def __init__(self) -> None:
        self._handlers: dict[type[Hook], list[Callable[[Any], None]]] = {}
        self._emitted = 0

    def subscribe(self, hook_type: type[_H],
                  handler: Callable[[_H], None]) -> None:
        """Register ``handler`` for exactly ``hook_type`` (no subtypes)."""
        self._handlers.setdefault(hook_type, []).append(handler)

    def emit(self, hook: Hook) -> None:
        """Deliver ``hook`` to its type's handlers in subscription order."""
        self._emitted += 1
        for handler in self._handlers.get(type(hook), ()):
            handler(hook)

    def handlers(self, hook_type: type[Hook]) -> tuple[Callable[[Any], None],
                                                       ...]:
        """The handlers currently subscribed to ``hook_type``."""
        return tuple(self._handlers.get(hook_type, ()))

    @property
    def emitted(self) -> int:
        """Total hooks emitted (delivered or not) — a cheap liveness probe."""
        return self._emitted

    def __repr__(self) -> str:
        kinds = {t.__name__: len(hs) for t, hs in self._handlers.items() if hs}
        return f"<HookBus {self._emitted} emitted, handlers={kinds}>"
