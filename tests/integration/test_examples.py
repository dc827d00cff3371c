"""Integration: the example scripts run end-to-end.

The heavyweight k=8 comparison (`scheduler_comparison.py`) is not run here:
it is the fig6 comparison `test_paper_shapes.py` already makes. These cover
the k=4 walk-throughs.
"""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Cost(U)" in out
        assert "fifo:" in out and "plmtf:" in out

    def test_switch_upgrade(self):
        out = run_example("switch_upgrade.py")
        assert "SAFE TO UPGRADE" in out

    def test_vm_migration(self):
        out = run_example("vm_migration.py")
        assert "evacuation done" in out
        # P-LMTF parallelizes the per-host events
        lines = [l for l in out.splitlines() if "evacuation done" in l]
        assert len(lines) == 3

    def test_failure_recovery(self):
        out = run_example("failure_recovery.py")
        assert "FAILURE" in out
        assert "repair event completed" in out
        assert "healed" in out

    def test_trace_analysis(self):
        out = run_example("trace_analysis.py")
        assert "LMTF:" in out and "P-LMTF:" in out
        assert "structured log" in out

    def test_all_examples_exist(self):
        names = {p.name for p in EXAMPLES.glob("*.py")}
        assert {"quickstart.py", "switch_upgrade.py", "vm_migration.py",
                "scheduler_comparison.py", "failure_recovery.py",
                "trace_analysis.py"} <= names
