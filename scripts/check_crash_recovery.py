#!/usr/bin/env python
"""SIGKILL chaos harness: prove ``repro serve`` resumes *exactly*.

For every (scheduler x kill point) cell in the grid the harness:

1. runs an uninterrupted baseline serve to completion and reads the
   chained schedule digest out of its final checkpoint,
2. re-runs the identical spec with ``REPRO_CRASH_AT=<label>:<n>`` armed —
   the service SIGKILLs *itself* at a deterministic point (mid-round, early
   or in the last quarter of the run; mid-final-checkpoint-write — after
   the checkpoint is built, before ``checkpoint.json`` lands; or halfway
   through a journal append, leaving a real torn frame on disk),
3. restarts it with ``--resume`` (and ``REPRO_AUDIT=1``, so the per-round
   ledger audits run) and lets it finish; a crashed run wrote no
   checkpoint, so every resume re-runs the spec against its journal,
4. asserts the resumed run's digest is **byte-identical** to the
   uninterrupted baseline's — same events, same outcomes, same simulated
   times, same order.

A mid-resume cell per scheduler kills the run late, kills its first
resume again halfway through the journal replay, and requires the second
resume to match. One extra cell exercises the supervisor end-to-end: the
armed child is
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

#: A round in the last quarter of both schedulers' runs.
LATE_ROUND = 16

#: kill points: (label, fatal visit) — mid-round, mid-journal-append
#: (leaves a flushed torn half-frame), mid-final-checkpoint-write (the
#: snapshot timer writes none, so ``snapshot:1`` is the final one: the
#: kill lands after it is built and before it is written, leaving only
#: the journal), and
#: mid-round in the last quarter of the run (the 20 default events settle
#: in 17 plmtf and 20 l-lmtf rounds).
KILL_POINTS = [("post-round", 5), ("journal-append", 7), ("snapshot", 1),
               ("post-round", LATE_ROUND)]


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


def crash_cell(cell: str, state: Path, flags: list[str], events: int,
               kills: list[str], baseline: str,
               failures: list[str]) -> None:
    """Run the spec armed with the first of ``kills``, resume it armed with
    each of the others, then resume it unarmed to the end; the final
    digest must equal ``baseline``. A failure is appended to
    ``failures``."""
    shutil.rmtree(state, ignore_errors=True)
    for attempt, kill in enumerate(kills):
        killed = run(serve_argv(state, flags, events, resume=attempt > 0),
                     extra_env={"REPRO_CRASH_AT": kill}, check=False)
        if killed.returncode != -signal.SIGKILL:
            failures.append(
                f"{cell}: armed run ({kill}) exited {killed.returncode}, "
                f"expected SIGKILL death")
            print(killed.stdout[-2000:])
            print(killed.stderr[-2000:], file=sys.stderr)
            return
    run(serve_argv(state, flags, events, resume=True),
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


def baseline_digest(work: Path, name: str, flags: list[str],
                    events: int) -> str:
    base_dir = work / f"{name}-baseline"
    shutil.rmtree(base_dir, ignore_errors=True)
    run(serve_argv(base_dir, flags, events))
    return final_digest(base_dir)


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
    cells = 0

    for sched, flags in SCHEDULERS.items():
        baseline = baseline_digest(work, sched, flags, args.events)
        print(f"[{sched}] baseline digest {baseline[:16]}… "
              f"({time.time() - started:.0f}s)")
        for label, n in KILL_POINTS:
            crash_cell(f"{sched}/{label}:{n}", work / f"{sched}-{label}-{n}",
                       flags, args.events, [f"{label}:{n}"], baseline,
                       failures)
            cells += 1
        # Mid-resume: the first resume dies halfway through re-checking
        # the journal the late kill left; the second must still match.
        kills = [f"post-round:{LATE_ROUND}", f"post-round:{LATE_ROUND // 2}"]
        crash_cell(f"{sched}/mid-resume", work / f"{sched}-mid-resume",
                   flags, args.events, kills, baseline, failures)
        cells += 1

    # Mid-staged-execution kill: under --compile-mode staged a multi-stage
    # compiled plan visits the "stage" crash point between its stages, so
    # the service dies with an event's schedule half-applied in memory.
    # Only the journal survives; the resumed run must replay the round
    # from its durable prefix to the staged baseline's exact digest.
    staged_flags = ["--scheduler", "plmtf", "--compile-mode", "staged",
                    "--min-flows", "4", "--max-flows", "8"]
    staged_baseline = baseline_digest(work, "staged", staged_flags,
                                      args.events)
    print(f"[staged-plmtf] baseline digest {staged_baseline[:16]}… "
          f"({time.time() - started:.0f}s)")
    crash_cell("staged-plmtf/stage:1", work / "staged-stage", staged_flags,
               args.events, ["stage:1"], staged_baseline, failures)
    cells += 1

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
    cells += 1

    elapsed = time.time() - started
    if failures:
        print(f"\nFAIL: {len(failures)} cell(s) diverged "
              f"({elapsed:.0f}s); state dirs kept in {work}",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: {cells} crash/resume cells byte-identical to their "
          f"uninterrupted baselines ({elapsed:.0f}s)")
    if args.work_dir is None:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
