"""Supervised restart for the crash-tolerant service.

The service itself (:mod:`repro.sim.service`) makes a single process
exactly resumable; the supervisor closes the loop by actually restarting
it. It launches the serve command as a child process, watches the
heartbeat file the service refreshes as rounds settle (at most once per
wall second), and:

* restarts a **crashed** child (non-zero exit / signal death) with
  bounded exponential backoff,
* kills and restarts a **stalled** child — one whose heartbeat shows no
  round progress for ``stall_timeout_s`` wall seconds (a livelocked or
  wedged service still *has* a live pid; only the heartbeat exposes it),
* gives up after ``max_restarts`` restarts, propagating the last exit
  code.

Every restart re-execs the original command line plus ``--resume``, so
the child re-runs the spec from its start and re-verifies it against its
journal record by record.
The crash-injection environment (``REPRO_CRASH_AT`` /
``REPRO_CRASH_MODE``) is stripped from restarted children: a fresh
process restarts the crash-point hit counters from zero, so inheriting
the armament would kill every restart at the same point forever — the
chaos harness arms the *first* child only and expects the restart to
finish the run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.sim.crashpoint import ENV_VAR as _CRASH_ENV
from repro.sim.crashpoint import MODE_VAR as _CRASH_MODE_ENV
from repro.sim.snapshot import CHECKPOINT_FILE, HEARTBEAT_FILE, JOURNAL_FILE

__all__ = ["SupervisorConfig", "Supervisor"]


@dataclass(frozen=True)
class SupervisorConfig:
    """Restart policy of one supervised run.

    Attributes:
        max_restarts: give up after this many restarts (0 = never restart,
            just report the child's exit).
        backoff_initial_s: wall delay before the first restart.
        backoff_factor: multiplier applied per consecutive restart.
        backoff_max_s: ceiling on the restart delay.
        stall_timeout_s: kill the child once its heartbeat shows no round
            progress for this many wall seconds (0 disables the watchdog).
        poll_interval_s: how often the watchdog samples child liveness and
            the heartbeat.
    """

    max_restarts: int = 3
    backoff_initial_s: float = 0.5
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0
    stall_timeout_s: float = 120.0
    poll_interval_s: float = 0.25

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.backoff_initial_s < 0:
            raise ValueError("backoff_initial_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_max_s < self.backoff_initial_s:
            raise ValueError("backoff_max_s must be >= backoff_initial_s")
        if self.stall_timeout_s < 0:
            raise ValueError("stall_timeout_s must be >= 0")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be > 0")


class Supervisor:
    """Launches, watches, and restarts one serve child process.

    Args:
        argv: the full child command line for the *first* attempt (e.g.
            ``[sys.executable, "-m", "repro.cli", "serve", ...]``).
            Restarts append ``--resume`` unless it is already present.
        state_dir: the service's ``--state-dir`` (heartbeat lives here).
        config: restart policy.
        sink: where progress lines go (default: print to stderr).
    """

    def __init__(self, argv: list[str], state_dir: str | Path,
                 config: SupervisorConfig | None = None,
                 sink: Any = None) -> None:
        if not argv:
            raise ValueError("argv must not be empty")
        self._argv = list(argv)
        self._state_dir = Path(state_dir)
        self._config = config or SupervisorConfig()
        self._sink = sink if sink is not None else (
            lambda line: print(line, file=sys.stderr, flush=True))
        self.restarts = 0

    # -------------------------------------------------------------- helpers

    def _log(self, message: str) -> None:
        self._sink(f"[supervisor] {message}")

    def _child_argv(self, attempt: int) -> list[str]:
        if (attempt == 0 or "--resume" in self._argv
                or not self._resumable()):
            # A child that died before writing any recoverable state (or
            # one already resuming) restarts with its original argv — a
            # blind --resume would be refused as having nothing to resume.
            return list(self._argv)
        return [*self._argv, "--resume"]

    def _child_env(self, attempt: int) -> dict[str, str]:
        env = dict(os.environ)
        if attempt > 0:
            # Fresh processes restart crash-point counters from zero; an
            # inherited armament would re-kill every restart at the same
            # point. Only the first child gets to be the chaos victim.
            env.pop(_CRASH_ENV, None)
            env.pop(_CRASH_MODE_ENV, None)
        return env

    def _read_heartbeat(self) -> dict[str, Any] | None:
        try:
            raw = (self._state_dir / HEARTBEAT_FILE).read_text(
                encoding="utf-8")
            payload = json.loads(raw)
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def _wait_watched(self, child: subprocess.Popen) -> int:
        """Wait for the child; kill it if the heartbeat stops progressing.

        Returns the exit code (negative = died by signal, POSIX style).
        """
        config = self._config
        last_round: Any = None
        last_progress = time.monotonic()
        while True:
            try:
                return child.wait(timeout=config.poll_interval_s)
            except subprocess.TimeoutExpired:
                pass
            if config.stall_timeout_s == 0:
                continue
            beat = self._read_heartbeat()
            if beat is not None and beat.get("round") != last_round:
                last_round = beat.get("round")
                last_progress = time.monotonic()
            elif time.monotonic() - last_progress > config.stall_timeout_s:
                self._log(
                    f"no heartbeat progress for "
                    f"{config.stall_timeout_s:.0f}s (stuck at round "
                    f"{last_round}); killing pid {child.pid}")
                child.send_signal(signal.SIGKILL)
                child.wait()
                return -signal.SIGKILL

    def _resumable(self) -> bool:
        """Mirror the service's own has-a-run test: a final report, or a
        journal with at least one byte (a 0-byte journal is a run that
        died before committing anything — restart it fresh)."""
        journal = self._state_dir / JOURNAL_FILE
        return ((self._state_dir / CHECKPOINT_FILE).exists()
                or (journal.exists() and journal.stat().st_size > 0))

    # ------------------------------------------------------------------ run

    def run(self) -> int:
        """Supervise until the child exits cleanly or restarts run out.

        Returns the final child's exit code (0 on eventual success).
        """
        config = self._config
        delay = config.backoff_initial_s
        attempt = 0
        while True:
            argv = self._child_argv(attempt)
            self._log(f"starting attempt {attempt + 1}: "
                      f"{' '.join(argv[-6:])}")
            child = subprocess.Popen(argv, env=self._child_env(attempt))
            code = self._wait_watched(child)
            if code == 0:
                self._log(f"child exited cleanly after "
                          f"{self.restarts} restart(s)")
                return 0
            reason = (f"signal {-code}" if code < 0
                      else f"exit code {code}")
            if self.restarts >= config.max_restarts:
                self._log(f"child died ({reason}) and the restart budget "
                          f"({config.max_restarts}) is spent; giving up")
                return code if code > 0 else 1
            self.restarts += 1
            attempt += 1
            self._log(f"child died ({reason}); restart "
                      f"{self.restarts}/{config.max_restarts} in "
                      f"{delay:.2f}s")
            time.sleep(delay)
            delay = min(delay * config.backoff_factor, config.backoff_max_s)

    def __repr__(self) -> str:
        return (f"<Supervisor state_dir={self._state_dir} "
                f"restarts={self.restarts}/{self._config.max_restarts}>")
