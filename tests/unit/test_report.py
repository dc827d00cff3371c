"""Unit tests for the report generator and its CLI subcommand."""

import json

import pytest

from repro.analysis.report import (
    QUICK_FIGURES,
    render_markdown,
    run_figures,
    write_report,
)
from repro.cli import main
from repro.experiments.results import ExperimentResult


def fake_result(name: str) -> ExperimentResult:
    result = ExperimentResult(name=name, title=f"title of {name}",
                              columns=["a", "b"])
    result.add_row(a=1, b=2.5)
    result.notes.append("a note")
    return result


class TestRunFigures:
    def test_runs_named_figures(self):
        results = run_figures(["fig2", "fig3"])
        assert list(results) == ["fig2", "fig3"]
        assert results["fig2"].rows

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError):
            run_figures(["fig42"])

    def test_overrides_forwarded_when_accepted(self):
        # fig9 accepts seed/events; fig2 accepts nothing — both must work
        results = run_figures(["fig2", "fig9"], seed=1, events=5)
        assert len(results["fig9"].rows) == 5

    def test_figure_does_not_depend_on_figures_before_it(self):
        # fig1 runs in-process and draws flow ids; ablation-migration
        # before it must not shift them
        params = dict(seed=0, probes=40, events=4, utilization=0.5,
                      utilizations=(0.6,))
        after = run_figures(["ablation-migration", "fig1"], **params)
        alone = run_figures(["fig1"], **params)
        assert after["fig1"].to_json() == alone["fig1"].to_json()

    def test_progress_callback(self):
        lines = []
        run_figures(["fig2"], progress=lines.append)
        assert any("fig2" in line for line in lines)


class TestRendering:
    def test_markdown_contains_tables(self):
        text = render_markdown({"x": fake_result("x"),
                                "y": fake_result("y")})
        assert "## x — title of x" in text
        assert "note: a note" in text
        assert text.count("```") == 4

    def test_write_report(self, tmp_path):
        path = write_report({"x": fake_result("x")}, tmp_path / "out")
        assert path.name == "report.md"
        assert path.exists()
        payload = json.loads((tmp_path / "out" / "x.json").read_text())
        assert payload["rows"] == [{"a": 1, "b": 2.5}]


class TestCLIReport:
    def test_report_with_explicit_figures(self, tmp_path, capsys):
        code = main(["report", "--out", str(tmp_path),
                     "--figures", "fig2,fig3"])
        assert code == 0
        assert (tmp_path / "report.md").exists()
        assert (tmp_path / "fig2.json").exists()

    def test_report_unknown_figure(self, tmp_path, capsys):
        code = main(["report", "--out", str(tmp_path),
                     "--figures", "fig99"])
        assert code == 2
        assert "unknown figures" in capsys.readouterr().err

    def test_quick_set_is_cheap_figures(self):
        assert "fig2" in QUICK_FIGURES
        assert "fig6" not in QUICK_FIGURES
