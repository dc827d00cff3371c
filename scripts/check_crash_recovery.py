#!/usr/bin/env python
"""SIGKILL chaos harness: prove ``repro serve`` resumes *exactly*.

For every (scheduler x kill point) cell in the grid the harness:

1. runs an uninterrupted baseline serve to completion and reads the
   chained schedule digest out of its final checkpoint,
2. re-runs the identical spec with ``REPRO_CRASH_AT=<label>:<n>`` armed —
   the service SIGKILLs *itself* at a deterministic point (mid-round,
   mid-checkpoint-write — after the ``history.wal`` append, before the
   ``checkpoint.json`` replace — or halfway through a journal append,
   leaving a real torn frame on disk),
3. restarts it with ``--resume`` (and ``REPRO_AUDIT=1``, so the restore
   audit and the per-round ledger audits both run) and lets it finish,
4. asserts the resumed run's digest is **byte-identical** to the
   uninterrupted baseline's — same events, same outcomes, same simulated
   times, same order.

One extra cell exercises the supervisor end-to-end: the armed child is
launched via ``--supervise``, dies by SIGKILL, and the supervisor (which
strips the crash armament from restarted children) restarts it with
``--resume`` to the same digest. Another runs ``--compile-mode staged``
and kills the service *between the stages* of one compiled plan (the
``stage`` crash point), proving staged execution resumes byte-identically
too.

Usage::

    PYTHONPATH=src python scripts/check_crash_recovery.py
    PYTHONPATH=src python scripts/check_crash_recovery.py --events 30

Exits non-zero on the first mismatch, printing both digests and keeping
the state dirs for post-mortem (CI uploads them as artifacts).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: scheduler label -> extra serve flags selecting it.
SCHEDULERS = {
    "plmtf": ["--scheduler", "plmtf"],
    "l-lmtf": ["--scheduler", "l-lmtf"],
}

#: kill points: (label, fatal visit) — mid-round, mid-journal-append
#: (leaves a flushed torn half-frame), mid-checkpoint-write. A ``snapshot``
#: kill lands between the history-log append and the checkpoint replace;
#: visit 4 does so with three covered frames already in ``history.wal``
#: and a fourth no checkpoint covers (the 20 default events arrive over
#: 40 simulated seconds, so the 10 s cadence below puts four ticks inside
#: the busy part of the run; the cadence does not enter the digest).
KILL_POINTS = [("post-round", 5), ("journal-append", 7), ("snapshot", 2),
               ("snapshot", 4)]


def serve_argv(state_dir: Path, sched_flags: list[str], events: int,
               resume: bool = False, supervise: int | None = None,
               ) -> list[str]:
    argv = [sys.executable, "-m", "repro.cli", "serve",
            "--events", str(events), "--rate", "0.5", "--k", "4",
            "--min-flows", "2", "--max-flows", "4",
            "--queue-cap", "16", "--resume-depth", "8",
            "--snapshot-every", "10", "--snapshot-dir", str(state_dir),
            "--stats-every", "0", "--state-dir", str(state_dir),
            *sched_flags]
    if resume:
        argv.append("--resume")
    if supervise is not None:
        argv += ["--supervise", str(supervise), "--stall-timeout", "60"]
    return argv


def run(argv: list[str], extra_env: dict[str, str] | None = None,
        check: bool = True) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_CRASH_AT", None)
    env.pop("REPRO_CRASH_MODE", None)
    env.update(extra_env or {})
    proc = subprocess.run(argv, env=env, cwd=REPO,
                          capture_output=True, text=True)
    if check and proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(
            f"command failed ({proc.returncode}): {' '.join(argv[-8:])}")
    return proc


def final_digest(state_dir: Path) -> str:
    """The schedule digest recorded in the run's final checkpoint."""
    checkpoint = json.loads(
        (state_dir / "checkpoint.json").read_text(encoding="utf-8"))
    if checkpoint.get("origin") != "final":
        raise SystemExit(
            f"{state_dir}: checkpoint origin is {checkpoint.get('origin')!r},"
            f" expected 'final' — the run did not complete")
    return str(checkpoint["service"]["digest"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=20,
                        help="events per serve run (default 20)")
    parser.add_argument("--work-dir", default=None,
                        help="where state dirs go (default: a tmp dir; "
                             "kept on failure either way)")
    args = parser.parse_args()

    work = Path(args.work_dir or tempfile.mkdtemp(prefix="chaos-"))
    work.mkdir(parents=True, exist_ok=True)
    started = time.time()
    failures: list[str] = []

    for sched, flags in SCHEDULERS.items():
        base_dir = work / f"{sched}-baseline"
        shutil.rmtree(base_dir, ignore_errors=True)
        run(serve_argv(base_dir, flags, args.events))
        baseline = final_digest(base_dir)
        print(f"[{sched}] baseline digest {baseline[:16]}… "
              f"({time.time() - started:.0f}s)")

        for label, n in KILL_POINTS:
            cell = f"{sched}/{label}:{n}"
            state = work / f"{sched}-{label}-{n}"
            shutil.rmtree(state, ignore_errors=True)
            killed = run(serve_argv(state, flags, args.events),
                         extra_env={"REPRO_CRASH_AT": f"{label}:{n}"},
                         check=False)
            if killed.returncode != -signal.SIGKILL:
                failures.append(
                    f"{cell}: armed run exited {killed.returncode}, "
                    f"expected SIGKILL death")
                print(killed.stdout[-2000:])
                print(killed.stderr[-2000:], file=sys.stderr)
                continue
            run(serve_argv(state, flags, args.events, resume=True),
                extra_env={"REPRO_AUDIT": "1"})
            resumed = final_digest(state)
            ok = resumed == baseline
            print(f"[{cell}] resumed digest {resumed[:16]}… "
                  f"{'MATCH' if ok else 'MISMATCH'}")
            if not ok:
                failures.append(
                    f"{cell}: digest mismatch\n"
                    f"  baseline {baseline}\n"
                    f"  resumed  {resumed}\n"
                    f"  state dir kept at {state}")

    # Mid-staged-execution kill: under --compile-mode staged a multi-stage
    # compiled plan visits the "stage" crash point between its stages, so
    # the service dies with an event's schedule half-applied in memory.
    # Only checkpoint + journal survive; the resumed run must replay the
    # round from its durable prefix to the staged baseline's exact digest.
    staged_flags = ["--scheduler", "plmtf", "--compile-mode", "staged",
                    "--min-flows", "4", "--max-flows", "8"]
    staged_base = work / "staged-baseline"
    shutil.rmtree(staged_base, ignore_errors=True)
    run(serve_argv(staged_base, staged_flags, args.events))
    staged_baseline = final_digest(staged_base)
    print(f"[staged-plmtf] baseline digest {staged_baseline[:16]}… "
          f"({time.time() - started:.0f}s)")
    staged_state = work / "staged-stage"
    shutil.rmtree(staged_state, ignore_errors=True)
    killed = run(serve_argv(staged_state, staged_flags, args.events),
                 extra_env={"REPRO_CRASH_AT": "stage:1"}, check=False)
    if killed.returncode != -signal.SIGKILL:
        failures.append(
            f"staged-plmtf/stage:1: armed run exited {killed.returncode}, "
            f"expected SIGKILL death mid-staged-execution (no multi-stage "
            f"plan compiled?)")
        print(killed.stdout[-2000:])
        print(killed.stderr[-2000:], file=sys.stderr)
    else:
        run(serve_argv(staged_state, staged_flags, args.events,
                       resume=True),
            extra_env={"REPRO_AUDIT": "1"})
        resumed = final_digest(staged_state)
        ok = resumed == staged_baseline
        print(f"[staged-plmtf/stage:1] resumed digest {resumed[:16]}… "
              f"{'MATCH' if ok else 'MISMATCH'}")
        if not ok:
            failures.append(
                f"staged-plmtf/stage:1: digest mismatch\n"
                f"  baseline {staged_baseline}\n"
                f"  resumed  {resumed}\n"
                f"  state dir kept at {staged_state}")

    # Supervisor end-to-end: the armed child SIGKILLs itself; the
    # supervisor strips the armament and restarts with --resume.
    sup_state = work / "supervised"
    shutil.rmtree(sup_state, ignore_errors=True)
    run(serve_argv(sup_state, SCHEDULERS["plmtf"], args.events,
                   supervise=2),
        extra_env={"REPRO_CRASH_AT": "post-round:5", "REPRO_AUDIT": "1"})
    sup_digest = final_digest(sup_state)
    base_digest = final_digest(work / "plmtf-baseline")
    ok = sup_digest == base_digest
    print(f"[supervised/post-round:5] digest {sup_digest[:16]}… "
          f"{'MATCH' if ok else 'MISMATCH'}")
    if not ok:
        failures.append(
            f"supervised: digest mismatch\n  baseline {base_digest}\n"
            f"  resumed  {sup_digest}\n  state dir kept at {sup_state}")

    elapsed = time.time() - started
    if failures:
        print(f"\nFAIL: {len(failures)} cell(s) diverged "
              f"({elapsed:.0f}s); state dirs kept in {work}",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    cells = len(SCHEDULERS) * len(KILL_POINTS) + 2
    print(f"\nOK: {cells} crash/resume cells byte-identical to their "
          f"uninterrupted baselines ({elapsed:.0f}s)")
    if args.work_dir is None:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
