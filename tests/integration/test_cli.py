"""Integration: the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.figure == "fig2"
        assert args.seed == 0
        assert args.events is None

    def test_overrides(self):
        args = build_parser().parse_args(
            ["fig6", "--seed", "3", "--events", "12",
             "--utilization", "0.6", "--alpha", "2"])
        assert args.seed == 3
        assert args.events == 12
        assert args.utilization == 0.6
        assert args.alpha == 2


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out
        # one line per figure: "  <name>  <description>"; runners sharing
        # a module are described by their own docstring, not the module's
        described = dict(line.split(maxsplit=1)
                         for line in out.splitlines()[1:])
        texts = [described[name] for name in
                 ("ablation-alpha", "ablation-compile", "ablation-learned")]
        assert all(texts) and len(set(texts)) == 3

    def test_unknown_figure(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_runs_toy_figure(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "event_level_ect" in out
        assert "completed in" in out

    def test_runs_fig9_with_overrides(self, capsys):
        assert main(["fig9", "--events", "6", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "plmtf_qd_s" in out

    def test_extraneous_override_ignored(self, capsys):
        # fig2.run() takes no parameters; overrides must not crash it
        assert main(["fig2", "--events", "5"]) == 0

    def test_resume_is_not_a_figure_flag(self, capsys):
        # figure sweeps are re-run, not resumed; only `repro serve` resumes
        with pytest.raises(SystemExit) as caught:
            main(["fig6", "--resume"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --resume" in capsys.readouterr().err


def table(out: str) -> str:
    """A figure command's stdout minus its trailing wall-time line."""
    return out[:out.index("\n[")]


class TestJobs:
    def test_jobs_prints_the_bare_table_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["fig9", "--events", "3", "--utilization", "0.5"]
        assert main(argv) == 0
        bare = capsys.readouterr().out
        assert main([*argv, "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert "plmtf_qd_s" in bare
        assert table(parallel) == table(bare)
        assert list(tmp_path.iterdir()) == []

    def test_non_grid_figure_warns_and_runs(self, capsys):
        assert main(["fig2", "--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert ("warning: fig2 does not support --jobs; running "
                "sequentially") in captured.err
        assert "event_level_ect" in captured.out
