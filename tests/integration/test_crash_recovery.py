"""Integration: crash-tolerant ``repro serve`` through the real CLI.

The in-process tests drive ``repro.cli.main`` directly (fast, no fork);
one subprocess test arms a real SIGKILL crash point through the
environment and proves the resumed run lands on the baseline's exact
schedule digest — a single cell of the full grid that
``scripts/check_crash_recovery.py`` sweeps.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_serve_parser, main
from repro.core.event import event_id_state, set_event_id_state
from repro.core.flow import flow_id_state, set_flow_id_state
from repro.sim.snapshot import CHECKPOINT_FILE, JOURNAL_FILE

REPO = Path(__file__).resolve().parent.parent.parent


@pytest.fixture(autouse=True)
def _hermetic_ids():
    saved = (flow_id_state(), event_id_state())
    set_flow_id_state(0)
    set_event_id_state(0)
    yield
    set_flow_id_state(saved[0])
    set_event_id_state(saved[1])


def serve_args(state_dir, *extra):
    return ["serve", "--events", "4", "--rate", "1.0", "--k", "4",
            "--min-flows", "1", "--max-flows", "2", "--stats-every", "0",
            "--snapshot-every", "20", "--snapshot-dir", str(state_dir),
            "--state-dir", str(state_dir), *extra]


class TestServeParser:
    def test_recovery_flags(self):
        args = build_serve_parser().parse_args(
            ["--state-dir", "s", "--resume",
             "--scheduler", "l-lmtf", "--supervise", "2",
             "--stall-timeout", "30"])
        assert args.state_dir == "s"
        assert args.resume
        assert args.scheduler == "l-lmtf"
        assert args.supervise == 2 and args.stall_timeout == 30.0

    def test_defaults_leave_recovery_off(self):
        args = build_serve_parser().parse_args([])
        assert args.state_dir is None
        assert not args.resume and not args.fresh
        assert args.supervise is None


class TestServeStateDir:
    def test_run_leaves_final_checkpoint_and_journal(self, tmp_path,
                                                     capsys):
        state = tmp_path / "state"
        assert main(serve_args(state)) == 0
        out = capsys.readouterr().out
        assert "restarts=0" in out and "digest=" in out
        checkpoint = json.loads(
            (state / CHECKPOINT_FILE).read_text(encoding="utf-8"))
        assert checkpoint["origin"] == "final"
        assert (state / JOURNAL_FILE).stat().st_size > 0

    def test_rerun_refuses_existing_state(self, tmp_path, capsys):
        state = tmp_path / "state"
        assert main(serve_args(state)) == 0
        capsys.readouterr()
        set_flow_id_state(0)
        set_event_id_state(0)
        assert main(serve_args(state)) == 2
        err = capsys.readouterr().err
        assert "--resume" in err and "--fresh" in err

    def test_fresh_discards_and_reruns(self, tmp_path, capsys):
        state = tmp_path / "state"
        assert main(serve_args(state)) == 0
        capsys.readouterr()
        set_flow_id_state(0)
        set_event_id_state(0)
        assert main(serve_args(state, "--fresh")) == 0
        out = capsys.readouterr().out
        assert "discarded previous run" in out

    def test_resume_without_state_dir_is_an_error(self, capsys):
        assert main(["serve", "--resume"]) == 2
        assert "--state-dir" in capsys.readouterr().err

    def test_resume_with_empty_state_dir_is_actionable(self, tmp_path,
                                                       capsys):
        state = tmp_path / "never-ran"
        state.mkdir()
        assert main(serve_args(state, "--resume")) == 2
        err = capsys.readouterr().err
        assert "holds no" in err and "remove --resume" in err

    def test_fresh_and_resume_conflict(self, tmp_path, capsys):
        assert main(serve_args(tmp_path, "--fresh", "--resume")) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestSigkillResume:
    def test_sigkill_mid_journal_append_resumes_exact(self, tmp_path):
        """One real-SIGKILL grid cell: kill halfway through a journal
        append (torn frame on disk), resume, compare final digests."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env.pop("REPRO_CRASH_AT", None)
        env.pop("REPRO_CRASH_MODE", None)

        def serve(state, *extra, crash=None):
            run_env = dict(env)
            if crash:
                run_env["REPRO_CRASH_AT"] = crash
            return subprocess.run(
                [sys.executable, "-m", "repro.cli",
                 *serve_args(state, *extra)],
                env=run_env, cwd=REPO, capture_output=True, text=True)

        baseline = serve(tmp_path / "baseline")
        assert baseline.returncode == 0, baseline.stderr
        crashed = serve(tmp_path / "crashed", crash="journal-append:3")
        assert crashed.returncode == -signal.SIGKILL
        resumed = serve(tmp_path / "crashed", "--resume")
        assert resumed.returncode == 0, resumed.stderr

        def digest(state):
            payload = json.loads((state / CHECKPOINT_FILE).read_text(
                encoding="utf-8"))
            assert payload["origin"] == "final"
            return payload["service"]["digest"]

        assert digest(tmp_path / "crashed") == digest(tmp_path / "baseline")
