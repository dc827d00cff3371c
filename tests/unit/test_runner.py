"""Unit tests for the parallel experiment runner's mechanics.

Cheap cell functions live in ``tests/runner_cells.py`` so forked workers
can resolve them by ``"runner_cells:<name>"`` reference.
"""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import runner_cells  # noqa: E402,F401  (importable for worker fn refs)

from repro.core.flow import flow_id_state, next_flow_id
from repro.experiments.runner import (
    Cell,
    SweepError,
    hermetic_ids,
    resolve_cell_fn,
    run_cells,
)


def echo_cell(key, value):
    return Cell(key=key, fn="runner_cells:echo", params={"value": value})


def touch_cell(key, directory):
    """A cell that leaves ``directory/key`` behind when it runs."""
    return Cell(key=key, fn="runner_cells:touch",
                params={"path": str(directory / key)})


class TestCellBasics:
    def test_resolve_cell_fn(self):
        assert resolve_cell_fn("runner_cells:echo") is runner_cells.echo

    def test_resolve_rejects_bad_refs(self):
        with pytest.raises(ValueError, match="pkg.module:function"):
            resolve_cell_fn("no_colon_here")

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_cells([echo_cell("k", 1), echo_cell("k", 2)])

    def test_hermetic_ids_restore(self):
        before = flow_id_state()
        with hermetic_ids():
            assert next_flow_id() == "f0"
        assert flow_id_state() == before
        # and restores even when the body raises
        with pytest.raises(RuntimeError):
            with hermetic_ids():
                next_flow_id()
                raise RuntimeError("boom")
        assert flow_id_state() == before


class TestSerial:
    def test_results_in_cell_order(self):
        cells = [echo_cell(f"c{i}", i) for i in range(5)]
        values = run_cells(cells)
        assert list(values) == [f"c{i}" for i in range(5)]
        assert [v["value"] for v in values.values()] == list(range(5))

    def test_strict_failure_raises_sweep_error(self, tmp_path):
        cells = [Cell(key="bad", fn="runner_cells:boom", params={}),
                 touch_cell("good", tmp_path),
                 Cell(key="worse", fn="runner_cells:boom",
                      params={"message": "nope"}),
                 touch_cell("also-good", tmp_path)]
        with pytest.raises(SweepError, match="bad, worse") as caught:
            run_cells(cells)
        assert list(caught.value.failures) == ["bad", "worse"]
        # the good cells after a failure still ran
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "also-good", "good"]

    def test_non_strict_records_traceback(self):
        # every failure's traceback travels on the SweepError
        cells = [Cell(key="bad", fn="runner_cells:boom", params={}),
                 Cell(key="worse", fn="runner_cells:boom",
                      params={"message": "nope"})]
        with pytest.raises(SweepError) as caught:
            run_cells(cells)
        failures = caught.value.failures
        assert "Traceback" in failures["bad"]
        assert "RuntimeError: kaboom" in failures["bad"]
        assert "RuntimeError: nope" in failures["worse"]


class TestPool:
    def test_parallel_matches_serial(self):
        cells = [echo_cell(f"c{i}", i * 10) for i in range(6)]
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=3)
        assert list(parallel) == list(serial)
        assert ([v["value"] for v in parallel.values()]
                == [v["value"] for v in serial.values()])

    def test_cells_run_in_other_processes(self):
        cells = [Cell(key=f"p{i}", fn="runner_cells:record_pid", params={})
                 for i in range(4)]
        values = run_cells(cells, jobs=2)
        assert all(pid != os.getpid() for pid in values.values())

    def test_worker_exception_reported(self):
        cells = [Cell(key="bad", fn="runner_cells:boom", params={}),
                 echo_cell("good", 1)]
        with pytest.raises(SweepError) as caught:
            run_cells(cells, jobs=2)
        assert list(caught.value.failures) == ["bad"]
        assert "RuntimeError: kaboom" in caught.value.failures["bad"]

    def test_worker_crash_names_key_and_exit_code(self, tmp_path):
        cells = [Cell(key="dead", fn="runner_cells:die", params={"code": 3}),
                 *(touch_cell(f"c{i}", tmp_path) for i in range(3))]
        with pytest.raises(SweepError, match="dead") as caught:
            run_cells(cells, jobs=2)
        assert list(caught.value.failures) == ["dead"]
        assert "exit code 3" in caught.value.failures["dead"]
        # its siblings still ran to completion
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c0", "c1", "c2"]

    def test_worker_system_exit_reported_with_traceback(self):
        cells = [Cell(key="bail", fn="runner_cells:bail", params={"code": 0}),
                 echo_cell("good", 1)]
        with pytest.raises(SweepError) as caught:
            run_cells(cells, jobs=2)
        assert list(caught.value.failures) == ["bail"]
        assert "SystemExit: 0" in caught.value.failures["bail"]

    def test_pool_needs_at_least_two_pending(self):
        # one runnable cell short-circuits to the in-process path
        values = run_cells([echo_cell("only", 7)], jobs=8)
        assert values["only"]["value"] == 7
        assert values["only"]["pid"] == os.getpid()
