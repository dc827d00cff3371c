#!/usr/bin/env python
"""CI gate for the parallel experiment runner's determinism contract.

A ``--jobs 2`` sweep, run in a fresh process, must merge to bytes
identical to the bare call, the one-process run ``repro figN`` makes.

The contract is checked on four grids: a small fault-free
``fig6_with_spread`` grid (2 trials x 3 schedulers); a two-row ``fig5``
grid, whose second row must not depend on the first (an in-process path
sharing id counters across rows fails here); a *faulted*
``failure_sweep`` grid whose cells inject mid-run link failures and an
unreliable control plane — the chaos path must be exactly as deterministic
as the clean one; and a ``compile_sweep`` grid whose atomic, staged and
augmented rows carry their compile mode into every cell. Exits non-zero
with a diagnostic on any violation.

Usage::

    PYTHONPATH=src python scripts/check_parallel_determinism.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Phase:
    """One experiment whose ``jobs=2`` run must equal its bare call."""

    name: str
    module: str     # "package.module:function"
    params: dict

    def child_script(self) -> str:
        mod, fn = self.module.split(":")
        return (f"import sys\n"
                f"from {mod} import {fn}\n"
                f"result = {fn}(**{self.params!r}, jobs=2)\n"
                f"sys.stdout.write(result.to_json())\n")

    def run(self) -> str:
        mod, fn = self.module.split(":")
        module = __import__(mod, fromlist=[fn])
        return getattr(module, fn)(**self.params).to_json()


PHASES = (
    Phase(name="fig6 (fault-free)",
          module="repro.experiments.multiseed:fig6_with_spread",
          params={"seed": 1, "events": 4, "seeds": 2}),
    Phase(name="fig5 (two rows)",
          module="repro.experiments.fig5:run",
          params={"seed": 0, "utilization": 0.6, "event_counts": (6, 8)}),
    Phase(name="failure sweep (chaos)",
          module="repro.experiments.robustness:failure_sweep",
          params={"seed": 1, "events": 4, "utilization": 0.5,
                  "fault_rates": (0.05,), "horizon": 40.0}),
    Phase(name="compile sweep (staged/augmented rows)",
          module="repro.experiments.ablations:compile_sweep",
          params={"seed": 0, "events": 8, "epsilons": (0.1,),
                  "schedulers": ("plmtf", "staged-plmtf")}),
)


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_sweep_subprocess(phase: Phase) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", phase.child_script()],
        env=child_env(), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"sweep subprocess failed:\n{proc.stderr}")
    return proc.stdout


def check_phase(phase: Phase) -> None:
    print(f"== {phase.name} ==")
    print("1) reference: the bare call (one process)...")
    reference = phase.run()

    print("2) parallel sweep (jobs=2) in a fresh process...")
    if run_sweep_subprocess(phase) != reference:
        fail(f"{phase.name}: jobs=2 result differs from the bare call's "
             f"result")
    print("  byte-identical to the bare call")


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    for phase in PHASES:
        check_phase(phase)
    print("OK: parallel determinism verified (fault-free, two-row, chaos "
          "and compile-mode grids)")


if __name__ == "__main__":
    main()
