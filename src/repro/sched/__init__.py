"""Scheduling policies, the scheduler registry, and the spec factory.

Experiment cells that cross process boundaries cannot carry scheduler
*objects*, so the parallel runner describes schedulers as JSON-serializable
spec dicts — ``{"kind": "lmtf", "alpha": 4, "seed": 9}`` — and rebuilds
them in the worker with :func:`build_scheduler`. The sequential experiment
paths use the same factory so both paths construct identical policies.

Adding a scheduler is one call::

    from repro.sched import register_scheduler

    @register_scheduler("my-policy")
    class MyScheduler(Scheduler): ...

after which ``make_scheduler("my-policy", **kwargs)``, spec dicts
(``{"kind": "my-policy", ...}``) and the experiment CLI all resolve it —
no dispatch tables to edit.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.sched.base import Scheduler
from repro.sched.fifo import FIFOScheduler
from repro.sched.flowlevel import FlowLevelScheduler
from repro.sched.learned import LearnedLMTFScheduler
from repro.sched.lmtf import LMTFScheduler
from repro.sched.oracle import OracleSJFScheduler
from repro.sched.plmtf import PLMTFScheduler
from repro.sched.staged import StagedLMTFScheduler, StagedPLMTFScheduler

#: Spec ``kind`` -> scheduler class. The kind is the constructor's identity,
#: not necessarily the instance's ``name`` (oracles embed their signal).
SCHEDULER_KINDS: dict[str, type[Scheduler]] = {
    "fifo": FIFOScheduler,
    "lmtf": LMTFScheduler,
    "plmtf": PLMTFScheduler,
    "flow-level": FlowLevelScheduler,
    "oracle-sjf": OracleSJFScheduler,
    "learned": LearnedLMTFScheduler,
    "staged-lmtf": StagedLMTFScheduler,
    "staged-plmtf": StagedPLMTFScheduler,
}

_S = TypeVar("_S", bound=type[Scheduler])


def register_scheduler(kind: str) -> Callable[[_S], _S]:
    """Class decorator adding a scheduler to the registry under ``kind``.

    Raises:
        ValueError: ``kind`` is already registered (shadowing a policy
            silently would corrupt spec-described experiment grids).
    """
    def deco(cls: _S) -> _S:
        if kind in SCHEDULER_KINDS:
            raise ValueError(f"scheduler kind {kind!r} already registered "
                             f"({SCHEDULER_KINDS[kind].__name__})")
        SCHEDULER_KINDS[kind] = cls
        return cls
    return deco


def make_scheduler(kind: str, **kwargs) -> Scheduler:
    """Instantiate a registered scheduler by kind name.

    Raises:
        ValueError: unknown ``kind``.
    """
    try:
        cls = SCHEDULER_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown scheduler kind {kind!r}; pick one of "
                         f"{sorted(SCHEDULER_KINDS)}") from None
    return cls(**kwargs)


def build_scheduler(spec: dict) -> Scheduler:
    """Instantiate a scheduler from a spec dict.

    Args:
        spec: ``{"kind": <SCHEDULER_KINDS key>, **constructor_kwargs}``.

    Raises:
        ValueError: unknown ``kind`` or missing ``kind`` key.
    """
    kwargs = dict(spec)
    kind = kwargs.pop("kind", None)
    if kind is None:
        raise ValueError(f"scheduler spec {spec!r} has no 'kind' key")
    return make_scheduler(kind, **kwargs)


def scheduler_name(spec: dict) -> str:
    """The ``name`` the scheduler built from ``spec`` reports in metrics."""
    return build_scheduler(spec).name


def standard_scheduler_specs(seed: int, alpha: int = 4) -> tuple[dict, ...]:
    """The paper's three-way comparison as spec dicts: FIFO, LMTF, P-LMTF.

    Every figure/sweep compares these; centralizing the triple keeps the
    ``seed + 9`` scheduler-sampling convention in one place. ``seed`` is
    the experiment seed (the scheduler seed derived from it must differ
    from the trace/background/planner seeds so sampling never correlates
    with workload generation).
    """
    return (
        {"kind": "fifo"},
        {"kind": "lmtf", "alpha": alpha, "seed": seed + 9},
        {"kind": "plmtf", "alpha": alpha, "seed": seed + 9},
    )


def staged_scheduler_spec(kind: str, seed: int, alpha: int = 4,
                          compile_mode: str = "atomic",
                          epsilon: float = 0.0) -> dict:
    """Spec of a ``staged-*`` policy for a run under ``compile_mode``.

    The staged policies predict schedule lengths under the run's own
    compile mode; under ``atomic`` they predict strict ``staged``
    schedules (atomic compilation carries no tie-break signal).
    """
    spec = {"kind": kind, "alpha": alpha, "seed": seed + 9}
    if compile_mode == "augmented":
        spec.update(mode="augmented", epsilon=epsilon)
    else:
        spec.update(mode="staged")
    return spec


__all__ = [
    "SCHEDULER_KINDS",
    "LearnedLMTFScheduler",
    "Scheduler",
    "StagedLMTFScheduler",
    "StagedPLMTFScheduler",
    "build_scheduler",
    "make_scheduler",
    "register_scheduler",
    "scheduler_name",
    "staged_scheduler_spec",
    "standard_scheduler_specs",
]
