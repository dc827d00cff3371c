"""Integration: the command-line interface."""

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
