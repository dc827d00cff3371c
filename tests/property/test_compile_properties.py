"""Property-based tests for the plan compiler (:mod:`repro.core.compile`).

Core contracts: (1) stage-by-stage execution of a compiled plan lands on
the *same final state* as the atomic one-shot application, (2) no stage's
transient load — recomputed here independently of the compiler's own
bookkeeping — exceeds ``(1 + ε) · capacity`` when compiling against the
state the plan was computed on, (3) the default ``atomic`` mode
compiles to exactly one stage carrying the plan's steps verbatim, (4) the
certified one-stage answer is bit for bit what ordering and batching give,
drifted states included, and (5) the staged pick that compiles only
minimum-cost probes picks what compiling every probe picks.
"""

import random
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import (  # noqa: E402
    BG_BOT,
    BG_TOP,
    BOT,
    EF_BOT,
    EF_TOP,
    TOP,
    cd_flow,
    diamond_topology,
    ef_flow,
)

from repro.core.compile import (
    ONE_STAGE_MARGIN,
    PlanCompilerConfig,
    Stage,
    _batch_stages,
    compile_plan,
)
from repro.core.event import make_event
from repro.core.exceptions import PlacementError
from repro.core.executor import apply_plan, apply_stages
from repro.core.flow import Flow
from repro.core.ordering import (
    StepKind,
    find_safe_order,
    plan_steps,
    transient_additions,
)
from repro.core.planner import EventPlanner
from repro.network.link import EPS, path_links
from repro.network.routing.provider import PathProvider
from repro.sched.staged import StagedLMTFScheduler

TOPO = diamond_topology()
PROVIDER = PathProvider(TOPO)


def loaded_network(bg_top: float, bg_bot: float, ef_top: float,
                   ef_bot: float, rule_capacity: int | None = None):
    network = TOPO.network(default_rule_capacity=rule_capacity)
    if bg_top > 0:
        network.place(cd_flow("bgt", bg_top), BG_TOP)
    if bg_bot > 0:
        network.place(cd_flow("bgb", bg_bot), BG_BOT)
    if ef_top > 0:
        network.place(ef_flow("eft", ef_top), EF_TOP)
    if ef_bot > 0:
        network.place(ef_flow("efb", ef_bot), EF_BOT)
    return network


def planned(bg, demands, seed):
    """A feasible plan against a loaded diamond, or ``(None, None)``."""
    network = loaded_network(*bg)
    planner = EventPlanner(PROVIDER)
    flows = [Flow(flow_id=f"u{i}", src="a", dst="b", demand=d,
                  duration=1.0) for i, d in enumerate(demands)]
    plan = planner.plan_event(network, make_event(flows),
                              random.Random(seed))
    return (network, plan) if plan.feasible else (None, None)


def step_additions(step):
    """A step's in-flight per-link load, derived from first principles:
    a migrated flow holds both paths until the stage settles, a placed
    flow sends on its whole path immediately."""
    added = {}
    if step.kind is StepKind.MIGRATE:
        old = frozenset(path_links(step.payload.old_path))
        links = [link for link in path_links(step.path) if link not in old]
    else:
        links = list(path_links(step.path))
    for link in links:
        added[link] = added.get(link, 0.0) + step.demand
    return added


def step_settled_shift(step):
    """A step's steady-state per-link load shift once its stage commits."""
    shift = {}
    if step.kind is StepKind.MIGRATE:
        old = frozenset(path_links(step.payload.old_path))
        new = frozenset(path_links(step.payload.new_path))
        for link in new - old:
            shift[link] = shift.get(link, 0.0) + step.demand
        for link in old - new:
            shift[link] = shift.get(link, 0.0) - step.demand
    else:
        for link in path_links(step.path):
            shift[link] = shift.get(link, 0.0) + step.demand
    return shift


background = st.tuples(
    st.floats(min_value=0.0, max_value=49.0),
    st.floats(min_value=0.0, max_value=49.0),
    st.floats(min_value=0.0, max_value=49.0),
    st.floats(min_value=0.0, max_value=49.0),
)

event_demands = st.lists(st.floats(min_value=1.0, max_value=45.0),
                         min_size=1, max_size=4)

compile_configs = st.one_of(
    st.just(PlanCompilerConfig(mode="staged")),
    st.floats(min_value=0.0, max_value=0.5).map(
        lambda eps: PlanCompilerConfig(mode="augmented", epsilon=eps)),
)


class TestCompileProperties:
    @given(bg=background, demands=event_demands,
           seed=st.integers(min_value=0, max_value=10),
           config=compile_configs)
    @settings(max_examples=80, deadline=None)
    def test_staged_execution_matches_atomic(self, bg, demands, seed,
                                             config):
        """Stage-by-stage application reaches the atomic final state."""
        atomic_net, plan = planned(bg, demands, seed)
        if plan is None:
            return
        staged_net = loaded_network(*bg)  # identical twin state
        compiled = compile_plan(staged_net, plan, config)
        rerouted_atomic = apply_plan(atomic_net, plan)
        rerouted_staged = apply_stages(staged_net, compiled)
        assert sorted(rerouted_staged) == sorted(rerouted_atomic)
        assert set(staged_net.flow_ids()) == set(atomic_net.flow_ids())
        for flow_id in atomic_net.flow_ids():
            assert staged_net.placement(flow_id).path \
                == atomic_net.placement(flow_id).path
        for link in atomic_net.links():
            assert staged_net.used(*link) \
                == pytest.approx(atomic_net.used(*link))
        staged_net.check_invariants()
        # The compiled steps are a permutation of the plan's own steps.
        assert sorted((s.kind.value, s.flow_id) for s in compiled.steps) \
            == sorted((s.kind.value, s.flow_id) for s in plan_steps(plan))

    @given(bg=background, demands=event_demands,
           seed=st.integers(min_value=0, max_value=10),
           config=compile_configs)
    @settings(max_examples=80, deadline=None)
    def test_no_stage_exceeds_augmented_capacity(self, bg, demands, seed,
                                                 config):
        """Every stage's transient load, recomputed independently, stays
        within ``(1 + ε) · capacity`` (ε = 0 under strict staging)."""
        network, plan = planned(bg, demands, seed)
        if plan is None:
            return
        compiled = compile_plan(network, plan, config)
        settled = {link: network.used(*link) for link in network.links()}
        for stage in compiled.stages:
            transient = dict(settled)
            for step in stage.steps:
                for link, add in step_additions(step).items():
                    transient[link] = transient.get(link, 0.0) + add
            for link, load in transient.items():
                cap = network.capacity(*link)
                assert load <= (1.0 + config.epsilon) * cap + 1e-6
            assert stage.transient_overload <= config.epsilon + 1e-9
            for step in stage.steps:
                for link, shift in step_settled_shift(step).items():
                    settled[link] = settled.get(link, 0.0) + shift
        # The settled walk must land on the plan's own final loads.
        apply_plan(network, plan)
        for link in network.links():
            assert settled.get(link, 0.0) \
                == pytest.approx(network.used(*link))

    @given(bg=background, demands=event_demands,
           seed=st.integers(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_atomic_is_exactly_one_stage(self, bg, demands, seed):
        network, plan = planned(bg, demands, seed)
        if plan is None:
            return
        for config in (None, PlanCompilerConfig()):
            compiled = compile_plan(network, plan, config)
            assert compiled.mode == "atomic"
            assert compiled.stage_count == 1
            assert [(s.kind.value, s.flow_id) for s in compiled.steps] \
                == [(s.kind.value, s.flow_id) for s in plan_steps(plan)]


# ------------------------------------------------- certified ≡ full path

#: Every diamond path, by the flow pair it serves.
PAIR_PATHS = {("a", "b"): (TOP, BOT), ("c", "d"): (BG_TOP, BG_BOT),
              ("e", "f"): (EF_TOP, EF_BOT)}

DRIFTS = ("remove_migrated", "move_migrated", "place_event_flow", "band")


def reference_compile(state, plan, config):
    """``compile_plan``'s staged path with the certificate bypassed."""
    ordering = find_safe_order(state, plan_steps(plan))
    stages = _batch_stages(state, ordering.order + ordering.stuck,
                           config.epsilon)
    return stages or (Stage(steps=()),)


def apply_drift(network, plan, drift, pick, offset):
    """Move ``network`` away from the state ``plan`` was made on.

    ``pick`` selects which flow or link a drift touches; ``offset`` in
    [0, 12] places a ``band`` link's certificate sum ``offset`` margins
    below ``capacity + EPS``: inside the band the certificate refuses
    (offset < 1), over capacity where it still certifies (1 < offset <
    10), or just under capacity. A drift the network refuses is skipped.
    """
    migrations = [m for fp in plan.flow_plans for m in fp.migrations]
    try:
        if drift == "remove_migrated" and migrations:
            flow_id = migrations[pick % len(migrations)].flow.flow_id
            if network.has_flow(flow_id):
                network.remove(flow_id)
        elif drift == "move_migrated" and migrations:
            flow_id = migrations[pick % len(migrations)].flow.flow_id
            if network.has_flow(flow_id):
                placement = network.placement(flow_id)
                flow = placement.flow
                others = [path for path in PAIR_PATHS[flow.src, flow.dst]
                          if path != placement.path]
                network.reroute(flow_id, others[0])
        elif drift == "place_event_flow":
            flow_plan = plan.flow_plans[pick % len(plan.flow_plans)]
            flow = flow_plan.flow
            path = PAIR_PATHS[flow.src, flow.dst][pick % 2]
            network.place(flow, path)
        elif drift == "band":
            added = {}
            links = []
            for step in plan_steps(plan):
                links.extend(path_links(step.path))
                for link, add in transient_additions(step).items():
                    added[link] = added.get(link, 0.0) + add
            link = links[pick % len(links)]
            target = (network.capacity(*link) + EPS
                      - offset * ONE_STAGE_MARGIN - added.get(link, 0.0))
            demand = target - network.used(*link)
            paths = [path for pair_paths in PAIR_PATHS.values()
                     for path in pair_paths if link in path_links(path)]
            if demand > 0 and paths:
                path = paths[pick % len(paths)]
                network.place(Flow(flow_id=f"fill{pick}", src=path[0],
                                   dst=path[-1], demand=demand,
                                   duration=None), path)
    except PlacementError:
        pass


class TestCertifiedOneStage:
    @given(bg=background, demands=event_demands,
           seed=st.integers(min_value=0, max_value=10),
           config=compile_configs,
           rules=st.sampled_from([None, None, 4, 64]),
           drifts=st.lists(st.tuples(st.sampled_from(DRIFTS),
                                     st.integers(min_value=0, max_value=7),
                                     st.floats(min_value=0.0,
                                               max_value=12.0)),
                           max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_certified_result_equals_ordering_and_batching(
            self, bg, demands, seed, config, rules, drifts):
        network = loaded_network(*bg, rule_capacity=rules)
        planner = EventPlanner(PROVIDER)
        flows = [Flow(flow_id=f"u{i}", src="a", dst="b", demand=d,
                      duration=1.0) for i, d in enumerate(demands)]
        plan = planner.plan_event(network, make_event(flows),
                                  random.Random(seed))
        if not plan.feasible:
            return
        for drift, pick, offset in drifts:
            apply_drift(network, plan, drift, pick, offset)
        compiled = compile_plan(network, plan, config)
        reference = reference_compile(network, plan, config)
        assert [stage.steps for stage in compiled.stages] \
            == [stage.steps for stage in reference]
        assert [stage.transient_overload.hex() for stage in compiled.stages] \
            == [stage.transient_overload.hex() for stage in reference]


# ------------------------------------------------- lazy pick ≡ eager pick


def eager_pick(sched, ctx, probes):
    """The staged pick as it was: compile every feasible probe, then take
    the ``(cost, stages, arrival, seq)`` minimum."""
    best = None
    best_key = None
    best_stages = 0
    for queued, plan in probes:
        if not plan.feasible:
            continue
        stages = sched.predict_stages(ctx.network, plan)
        key = (plan.cost, stages, queued.arrival_time, queued.seq)
        if best_key is None or key < best_key:
            best, best_key, best_stages = (queued, plan), key, stages
    if best is None:
        return None
    return best, best_stages


probe_specs = st.lists(
    st.tuples(st.booleans(),                                  # feasible
              st.sampled_from([0.0, 5.0, 5.0, 12.5, 40.0]),   # cost
              st.integers(min_value=1, max_value=3),          # stages
              st.sampled_from([0.0, 1.0, 1.0, 2.0])),         # arrival
    max_size=8)


class TestLazyStagedPick:
    @given(specs=probe_specs)
    @settings(max_examples=300, deadline=None)
    def test_lazy_pick_equals_eager_pick(self, specs):
        probes = [(types.SimpleNamespace(arrival_time=arrival, seq=seq),
                   types.SimpleNamespace(feasible=feasible, cost=cost,
                                         stages=stages))
                  for seq, (feasible, cost, stages, arrival)
                  in enumerate(specs)]
        compiled = []
        sched = StagedLMTFScheduler(alpha=1)

        def predict(state, plan):
            compiled.append(plan)
            return plan.stages

        sched.predict_stages = predict
        ctx = types.SimpleNamespace(network=None)
        lazy = sched.pick_staged(ctx, probes)
        lazy_compiled = list(compiled)
        eager = eager_pick(sched, ctx, probes)
        if eager is None:
            assert lazy is None
            return
        (queued, plan), stages = lazy
        (eager_queued, eager_plan), eager_stages = eager
        assert queued is eager_queued and plan is eager_plan
        assert stages == eager_stages
        # Only the feasible probes at the minimum cost were compiled.
        cost = min(p.cost for _, p in probes if p.feasible)
        assert [id(p) for p in lazy_compiled] \
            == [id(p) for _, p in probes if p.feasible and p.cost == cost]
