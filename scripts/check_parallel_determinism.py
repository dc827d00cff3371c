#!/usr/bin/env python
"""CI gate for the parallel experiment runner's two contracts.

1. **Determinism** — a ``--jobs 2`` sweep merges to bytes identical to the
   bare call, the one-process run ``repro figN`` makes.
2. **Resume** — a sweep SIGKILLed mid-flight, restarted with ``resume``,
   finishes from its checkpoint (recomputing only unfinished cells) and
   still merges to the identical bytes.

Both contracts are checked on three grids: a small fault-free
``fig6_with_spread`` grid (2 trials x 3 schedulers); a two-row ``fig5``
grid, whose second row must not depend on the first (an in-process path
sharing id counters across rows fails here); and a *faulted*
``failure_sweep`` grid whose cells inject mid-run link failures and an
unreliable control plane — the chaos path must be exactly as deterministic
as the clean one. Exits non-zero with a diagnostic on any violation.

Usage::

    PYTHONPATH=src python scripts/check_parallel_determinism.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Phase:
    """One experiment put through the determinism + kill/resume gauntlet."""

    name: str
    module: str     # "package.module:function"
    params: dict
    total_cells: int

    def child_script(self, checkpoint: Path) -> str:
        mod, fn = self.module.split(":")
        return (f"import sys\n"
                f"from {mod} import {fn}\n"
                f"result = {fn}(**{self.params!r}, jobs=2, "
                f"checkpoint={str(checkpoint)!r})\n"
                f"sys.stdout.write(result.to_json())\n")

    def run(self, **kwargs) -> str:
        mod, fn = self.module.split(":")
        module = __import__(mod, fromlist=[fn])
        return getattr(module, fn)(**self.params, **kwargs).to_json()


PHASES = (
    Phase(name="fig6 (fault-free)",
          module="repro.experiments.multiseed:fig6_with_spread",
          params={"seed": 1, "events": 4, "seeds": 2},
          total_cells=2 * 3),
    Phase(name="fig5 (two rows)",
          module="repro.experiments.fig5:run",
          params={"seed": 0, "utilization": 0.6, "event_counts": (6, 8)},
          total_cells=2 * 2),
    Phase(name="failure sweep (chaos)",
          module="repro.experiments.robustness:failure_sweep",
          params={"seed": 1, "events": 4, "utilization": 0.5,
                  "fault_rates": (0.05,), "horizon": 40.0},
          total_cells=1 * 3),
)


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_sweep_subprocess(phase: Phase, checkpoint: Path) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", phase.child_script(checkpoint)],
        env=child_env(), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"sweep subprocess failed:\n{proc.stderr}")
    return proc.stdout


def kill_sweep_midway(phase: Phase, checkpoint: Path) -> int:
    """Start the sweep, SIGKILL it after some cells checkpointed; return
    how many completed cells survived."""
    proc = subprocess.Popen(
        [sys.executable, "-c", phase.child_script(checkpoint)],
        env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    deadline = time.time() + 300
    try:
        while time.time() < deadline:
            if checkpoint.exists():
                done = len(checkpoint.read_text().splitlines())
                if 1 <= done < phase.total_cells:
                    break
            if proc.poll() is not None:
                # finished before we managed to kill it: still a valid
                # (if weaker) resume test - the checkpoint is complete
                break
            time.sleep(0.05)
        else:
            fail("sweep produced no checkpoint lines within 300s")
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait()
    survivors = len(checkpoint.read_text().splitlines())
    print(f"  killed sweep with {survivors}/{phase.total_cells} cells "
          f"checkpointed")
    return survivors


def check_phase(phase: Phase) -> None:
    from repro.experiments.runner import SweepListener

    print(f"== {phase.name} ==")
    print("1) reference: the bare call (one process)...")
    reference = phase.run()

    print("2) parallel sweep (jobs=2) in a fresh process...")
    with tempfile.TemporaryDirectory() as tmp:
        parallel = run_sweep_subprocess(phase, Path(tmp) / "full.jsonl")
        if parallel != reference:
            fail(f"{phase.name}: jobs=2 result differs from the "
                 f"bare call's result")
        print("  byte-identical to the bare call")

        print("3) kill a jobs=2 sweep mid-flight, then resume...")
        checkpoint = Path(tmp) / "killed.jsonl"
        survivors = kill_sweep_midway(phase, checkpoint)

        class Recorder(SweepListener):
            def __init__(self):
                self.started, self.resumed = [], []

            def on_cell_start(self, key, attempt):
                self.started.append(key)

            def on_cell_resumed(self, key):
                self.resumed.append(key)

        listener = Recorder()
        resumed = phase.run(jobs=2, checkpoint=checkpoint, resume=True,
                            listener=listener)
        if resumed != reference:
            fail(f"{phase.name}: resumed result differs from the "
                 f"uninterrupted result")
        # every fully-checkpointed cell must be served from the checkpoint
        # (the torn tail of the killed append, if any, is recomputed)
        if len(listener.resumed) < max(1, survivors - 1):
            fail(f"{phase.name}: resume recomputed checkpointed cells: "
                 f"only {len(listener.resumed)} of {survivors} reused")
        if len(listener.resumed) + len(listener.started) != phase.total_cells:
            fail(f"{phase.name}: resume covered {len(listener.resumed)} + "
                 f"{len(listener.started)} != {phase.total_cells} cells")
        print(f"  resumed {len(listener.resumed)} cells, recomputed "
              f"{len(listener.started)}, bytes identical")


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    for phase in PHASES:
        check_phase(phase)
    print("OK: parallel determinism and checkpoint/resume verified "
          "(fault-free, two-row and chaos)")


if __name__ == "__main__":
    main()
