"""Tests of the benchmark harness itself (``pytest bench/``; not tier-1).

They cover the arithmetic a later A/B will lean on — span self time, the
guarded percentile, Jain's index, the comparison verdicts — and the two
safety properties of the gate: a failed check turns into ``failed_share``
1.0, and a traced run leaves no wrapper behind.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import trace as tracing  # noqa: E402


@pytest.fixture()
def ticking(monkeypatch):
    """A tracer whose clock advances only when the test says so."""
    now = [0]
    monkeypatch.setattr(tracing.time, "perf_counter_ns", lambda: now[0])

    def tick(ns: int) -> None:
        now[0] += ns
    return tracing.Tracer("test"), tick


class TestSpans:
    def test_nested_and_sibling_self_time(self, ticking):
        tracer, tick = ticking
        with tracer.span("root"):
            tick(5)
            with tracer.span("child"):
                tick(10)
                with tracer.span("grandchild"):
                    tick(3)
                tick(2)
            with tracer.span("child"):
                tick(7)
            tick(1)
        selfs = tracing.self_times(tracer.start_col, tracer.end_col,
                                   tracer.parent_col)
        assert selfs == [6, 12, 3, 7]
        assert list(tracer.parent_col) == [-1, 0, 1, 0]
        folded = tracer.aggregate()
        assert folded["table"]["root"] == {
            "root": [1, 6, 28], "child": [2, 19, 22], "grandchild": [1, 3, 3]}
        assert folded["under_ns"] == {("root", "child"): 22,
                                      ("child", "grandchild"): 3}

    def test_wrapped_functions_nest_and_budget_sums_to_wall(self, ticking):
        tracer, tick = ticking
        inner = tracer.wrap(lambda: tick(4), "network.place")
        outer = tracer.wrap(lambda: (tick(1), inner(), inner(), tick(2)),
                            "planner.plan_event")
        with tracer.span(tracing.RUN):
            tick(3)
            outer()
        spent = tracing.budget(tracer.aggregate())
        assert spent["rows"] == {"planner.plan_self_ms": 3e-6,
                                 "network.place_remove_ms": 8e-6}
        assert spent["unaccounted_ms"] == 3e-6
        assert spent["wall_ms"] == pytest.approx(
            sum(spent["rows"].values()) + spent["unaccounted_ms"])

    def test_a_span_closes_when_the_wrapped_call_raises(self, ticking):
        tracer, tick = ticking

        def boom():
            tick(2)
            raise ValueError("boom")
        with tracer.span("root"):
            with pytest.raises(ValueError):
                tracer.wrap(boom, "x")()
            assert tracer._current == [0]  # back in the root span
        assert list(tracer.end_col) == [2, 2]

    def test_spans_named_by_parent_are_split(self, ticking):
        tracer, tick = ticking
        fsync = tracer.wrap(lambda: tick(1), "os.fsync")
        with tracer.span(tracing.RUN):
            tracer.wrap(fsync, "journal.append")()
            tracer.wrap(fsync, "snapshot.atomic_write_text")()
        table = tracer.aggregate()["table"][tracing.RUN]
        assert table["os.fsync@journal.append"] == [1, 1, 1]
        assert table["os.fsync@snapshot.atomic_write_text"] == [1, 1, 1]

    def test_every_span_name_has_a_layer(self):
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            names = set(tracer.names)
        finally:
            tracer.restore()
        assert names - {"os.fsync"} <= set(tracing.LAYER_OF_SPAN)

    def test_dump_round_trips(self, ticking, tmp_path):
        tracer, tick = ticking
        with tracer.span("root"):
            tick(1)
        tracer.dump(tmp_path / "spans.json")
        data = json.loads((tmp_path / "spans.json").read_text())
        assert data["run_id"] == "test"
        assert data["names"] == ["root"] and data["parent"] == [-1]


class TestWrappersRestored:
    def test_install_then_restore_leaves_the_originals(self):
        import repro.sim.service as service_mod
        from repro.network.network import Network
        from repro.sim.engine import TaggedCallback
        from repro.sim.hooks import HookBus

        watched = [(Network, "place"), (HookBus, "emit"),
                   (TaggedCallback, "__call__"), (os, "fsync"),
                   (service_mod, "build_checkpoint"),
                   (service_mod, "atomic_write_text")]
        before = [vars(holder)[attr] for holder, attr in watched]
        tracer = tracing.Tracer()
        tracing.install(tracer)
        during = [vars(holder)[attr] for holder, attr in watched]
        tracer.restore()
        after = [vars(holder)[attr] for holder, attr in watched]
        assert all(d is not b for d, b in zip(during, before))
        assert all(a is b for a, b in zip(after, before))

    def test_a_traced_child_restores_even_when_the_workload_fails(
            self, monkeypatch, capsys, tmp_path):
        from repro.network.network import Network
        original = vars(Network)["place"]
        result = run_fake_child(monkeypatch, capsys, tmp_path, trace=1,
                                verify_error=RuntimeError("broken"))
        assert not result["ok"]
        assert vars(Network)["place"] is original


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert stats.percentile(values, 50) == 50
        assert stats.percentile(values, 90) == 90
        assert stats.percentile(values, 100) == 100
        assert stats.percentile([7.0], 90) == 7.0
        with pytest.raises(ValueError):
            stats.percentile([], 50)

    def test_ten_beyond_guard(self):
        assert stats.samples_beyond(200, 95) == 10
        assert stats.supported(200, 95) and not stats.supported(199, 95)
        assert stats.supported(100, 90) and not stats.supported(99, 90)
        assert not stats.supported(0, 50)

    def test_summary_flags_an_unsupported_tail(self):
        few = summary_of([fake_result(gaps=[[1.0] * 15])] * 3)
        many = summary_of([fake_result(gaps=[[1.0] * 20])] * 3)
        assert few["gap_samples"] == 45 and not few["gap_tail_supported"]
        assert many["gap_samples"] == 60 and many["gap_tail_supported"]

    def test_gaps_are_never_taken_across_simulators(self):
        summary = summary_of([fake_result(gaps=[[1.0, 1.0], [5.0]])])
        assert summary["gap_samples"] == 3
        assert summary["metrics"]["round_gap_ms_p50"] == 1.0

    def test_quartile_spread_matches_the_contract(self):
        import statistics
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        assert stats.quartile_spread(values) == pytest.approx(
            (q3 - q1) / statistics.median(values))


class TestJain:
    def test_bounds(self):
        assert stats.jain([3.0, 3.0, 3.0]) == pytest.approx(1.0)
        assert stats.jain([5.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
        assert stats.jain([1.0, 3.0]) == pytest.approx(16 / 20)

    def test_nobody_waited(self):
        assert stats.jain([]) == 1.0
        assert stats.jain([0.0, 0.0]) == 1.0


# ---------------------------------------------------------------- the gate

def fake_result(digest="d", gaps=None, ok=True, sim=None, **extra) -> dict:
    result = {"ok": ok, "problems": [] if ok else ["broken"],
              "seed": 0, "attempted": 40, "dropped": 0,
              "unfinished": 0 if ok else 40, "completed": 40, "setup_s": 1.0,
              "wall_s": 2.0, "events_per_s": 20.0, "peak_rss_mb": 50.0,
              "gaps_ms": gaps or [[1.0, 2.0, 3.0]], "digest": digest,
              "sim": sim or {"sim_avg_ect_s": 1.5}}
    result.update(extra)
    return result


def summary_of(results, extra=()):
    return run.summarise(results, extra=list(extra))


def run_fake_child(monkeypatch, capsys, tmp_path, trace=0,
                   verify_error=None) -> dict:
    """``run.child_main`` on a stand-in workload; returns its JSON line."""
    import workloads

    class Prepared:
        sims: list = []
        provider = SimpleNamespace(cache_size=lambda: 0)

        def execute(self, timed):
            with timed():
                pass
            return workloads.Outcome(attempted=40, completed=40, dropped=0,
                                     unfinished=0, digest="d",
                                     records=[], counters={})

        def verify(self, outcome):
            if verify_error is not None:
                raise verify_error
            return []

    monkeypatch.setitem(workloads.WORKLOADS, "fake", workloads.Workload(
        "fake", lambda seed, scratch, tracer: Prepared(), 40))
    assert run.child_main({"workload": "fake", "seed": 0, "trace": trace,
                           "scratch": str(tmp_path), "run_id": "t",
                           "t_spawn": 0.0}) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


class TestGate:
    def test_agreeing_runs_pass(self):
        summary = summary_of([fake_result(), fake_result()],
                             extra=[fake_result()])
        assert summary["ok"] and summary["metrics"]["failed_share"] == 0.0

    def test_repeats_take_the_median_and_draws_are_pooled(self):
        repeats = summary_of([fake_result(wall_s=w) for w in (2.0, 4.0, 2.2)])
        assert repeats["metrics"]["events_per_s"] == pytest.approx(40 / 2.2)
        # Different seeds are different inputs: digests may differ, and
        # throughput is events over time, not a median of rates.
        draws = summary_of([fake_result(seed=1, digest="a", wall_s=2.0),
                            fake_result(seed=2, digest="b", wall_s=4.0)])
        assert draws["ok"]
        assert draws["metrics"]["events_per_s"] == pytest.approx(80 / 6.0)

    def test_digest_mismatch_fails_every_event(self):
        summary = summary_of([fake_result("a"), fake_result("b")])
        assert not summary["ok"]
        assert summary["failed"] == summary["attempted"] == 80
        assert summary["metrics"]["failed_share"] == 1.0
        assert "digest" in summary["problems"][0]

    def test_a_traced_run_that_alters_the_schedule_fails(self):
        summary = summary_of([fake_result("a")], extra=[fake_result("b")])
        assert not summary["ok"]
        assert summary["metrics"]["failed_share"] == 1.0

    def test_sim_value_mismatch_fails(self):
        other = fake_result(sim={"sim_avg_ect_s": 1.5000001})
        summary = summary_of([fake_result(), other])
        assert not summary["ok"] and "sim_*" in summary["problems"][0]

    def test_invariant_failure_in_the_child_fails_every_event(
            self, monkeypatch, capsys, tmp_path):
        from repro.core.exceptions import SimulationError
        result = run_fake_child(
            monkeypatch, capsys, tmp_path,
            verify_error=SimulationError("link (a, b) over capacity"))
        assert not result["ok"]
        assert result["unfinished"] == result["attempted"] == 40
        assert "over capacity" in result["problems"][0]
        summary = summary_of([result])
        assert summary["metrics"]["failed_share"] == 1.0

    def test_a_healthy_child_reports_no_failure(self, monkeypatch, capsys,
                                                tmp_path):
        result = run_fake_child(monkeypatch, capsys, tmp_path)
        assert result["ok"] and result["unfinished"] == 0

    def test_a_crashed_child_is_a_failed_run(self, monkeypatch):
        def crash(*_args, **_kwargs):
            return SimpleNamespace(returncode=-9, stdout="")
        monkeypatch.setattr(run.subprocess, "run", crash)
        result = run.run_child({"workload": "serve_steady", "seed": 0,
                                "trace": 0})
        assert (not result["ok"]
                and result["unfinished"] == result["attempted"])
        assert not list(run.SCRATCH_ROOT.glob(f"{os.getpid()}-*"))

    def test_durable_workload_is_refused_on_tmpfs(self, monkeypatch, capsys,
                                                  tmp_path):
        import workloads
        monkeypatch.setattr(run, "filesystem_type", lambda path: "tmpfs")
        monkeypatch.setitem(workloads.WORKLOADS, "fake", workloads.Workload(
            "fake", lambda *a: pytest.fail("must not prepare"),
            40, needs_disk=True))
        run.child_main({"workload": "fake", "seed": 0, "trace": 0,
                        "scratch": str(tmp_path), "run_id": "t",
                        "t_spawn": 0.0})
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert not result["ok"] and "tmpfs" in result["problems"][0]


class TestSpecFile:
    def test_benchmark_json_matches_the_harness(self):
        import workloads
        spec = run.load_spec()
        assert ([w["name"] for w in spec["workloads"]]
                == list(workloads.WORKLOADS))
        end_to_end = {m["name"] for m in spec["end_to_end"]}
        assert f"round_gap_ms_p{run.TAIL_Q:.0f}" in end_to_end
        assert "setup_s" in end_to_end
        assert len(end_to_end | set(run.SUITE_METRICS)) == 10
        empty = tracing.Tracer().aggregate()
        produced = run.layer_metrics(empty, run.LayerCounters([]), {}, 0)
        assert (set(produced["metrics"]) | {"trace.overhead_pct"}
                == {m["name"] for m in spec["per_layer"]})


# ----------------------------------------------------------------- compare

def entry(value, samples=None, unit="ms"):
    return {"value": value, "unit": unit, "samples": samples or [value] * 3}


class TestCompare:
    def test_verdicts(self):
        steady = entry(100.0, [99.0, 100.0, 101.0])
        assert compare.verdict(steady, entry(101.0, [100, 101, 102]),
                               "lower", 0.07)[0] == "unchanged"
        assert compare.verdict(steady, entry(110.0, [109, 110, 111]),
                               "lower", 0.07)[0] == "regressed"
        assert compare.verdict(steady, entry(95.0, [94, 95, 96]),
                               "lower", 0.07)[0] == "improved"
        noisy = entry(100.0, [90.0, 100.0, 112.0])
        assert compare.verdict(noisy, entry(104.0, [95, 104, 110]),
                               "lower", 0.07)[0] == "unresolved"
        # A wide spread does not hide a gain every run shows...
        assert compare.verdict(noisy, entry(70.0, [60, 70, 79]),
                               "lower", 0.07)[0] == "improved"
        # ...but a gain no larger than the base's own spread is not one.
        assert compare.verdict(noisy, entry(85.0, [80, 85, 89]),
                               "lower", 0.07)[0] == "unchanged"

    def test_direction(self):
        base = entry(100.0, [99.0, 100.0, 101.0], unit="1/s")
        assert compare.verdict(base, entry(90.0, [89, 90, 91]),
                               "higher", 0.07)[0] == "regressed"
        assert compare.verdict(base, entry(110.0, [109, 110, 111]),
                               "higher", 0.07)[0] == "improved"

    def test_exact_metrics_allow_no_difference(self):
        base = {"value": 0.0, "unit": "ratio"}
        assert compare.verdict(base, {"value": 0.0, "unit": "ratio"},
                               "lower", None)[0] == "unchanged"
        assert compare.verdict(base, {"value": 0.01, "unit": "ratio"},
                               "lower", None)[0] == "regressed"
        sim = {"value": 12.5, "unit": "s"}
        assert compare.verdict(sim, {"value": 12.5000001, "unit": "s"},
                               "lower", None)[0] == "regressed"

    def test_report_has_a_row_per_workload_and_metric(self):
        spec = run.load_spec()
        names = sorted({m["name"] for m in spec["end_to_end"]}
                       | set(run.SUITE_METRICS))
        doc = {"seed": 0, "workloads": {
            w: {"end_to_end": {n: entry(1.0) for n in names}}
            for w in ("serve_steady", "deep_queue")}}
        lines, tally = compare.compare(doc, doc, spec)
        assert tally == {"unchanged": 2 * len(names)}
        assert sum(line.startswith("==") for line in lines) == 2
        assert all("of 1" in line for line in lines if "bound" in line)
