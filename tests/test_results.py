"""Figure containers and ASCII rendering."""

import pytest

from repro.experiments.ascii_plot import render_plot, render_table
from repro.experiments.results import FigureResult, Series


class TestSeries:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Series("s", [1, 2], [1.0])

    def test_at_exact(self):
        s = Series("s", [1, 2, 3], [10.0, 20.0, 30.0])
        assert s.at(2) == 20.0

    def test_at_missing(self):
        s = Series("s", [1], [1.0])
        with pytest.raises(KeyError):
            s.at(9)


class TestFigureResult:
    def make(self):
        fig = FigureResult(
            figure_id="figX",
            title="test figure",
            xlabel="buffer (BDP)",
            ylabel="Mbps",
        )
        fig.add("model", [1, 2, 3], [30.0, 25.0, 20.0])
        fig.add("actual", [1, 2, 3], [29.0, 24.0, 21.0])
        return fig

    def test_get_by_name(self):
        fig = self.make()
        assert fig.get("model").y == [30.0, 25.0, 20.0]
        with pytest.raises(KeyError):
            fig.get("nope")

    def test_render_contains_title_and_data(self):
        text = self.make().render()
        assert "figX" in text
        assert "model" in text and "actual" in text
        assert "30.00" in text

    def test_render_empty_figure(self):
        fig = FigureResult("f", "t", "x", "y")
        assert "f" in fig.render()

    def test_csv_roundtrip(self, tmp_path):
        fig = self.make()
        fig.save(str(tmp_path))
        assert (tmp_path / "figX.txt").read_text() == fig.render() + "\n"
        lines = (tmp_path / "figX.csv").read_text().strip().splitlines()
        assert lines[0] == "series,buffer (BDP),Mbps"
        assert len(lines) == 1 + 6
        assert "model,1,30.0" in lines


class TestAsciiPlot:
    def test_plot_contains_markers_and_legend(self):
        text = render_plot(
            [("a", [0, 1, 2], [0.0, 1.0, 2.0]), ("b", [0, 1, 2], [2, 1, 0])],
            xlabel="x",
            ylabel="y",
        )
        assert "o=a" in text and "x=b" in text
        assert "o" in text and "|" in text

    def test_plot_handles_constant_series(self):
        text = render_plot([("flat", [0, 1], [5.0, 5.0])])
        assert "flat" in text

    def test_plot_no_data(self):
        assert render_plot([("empty", [], [])]) == "(no data)"

    def test_plot_skips_nan(self):
        text = render_plot([("s", [0, 1], [1.0, float("nan")])])
        assert "s" in text

    def test_table_aligns_union_of_x(self):
        text = render_table(
            "x",
            [("a", [1, 2], [1.0, 2.0]), ("b", [2, 3], [20.0, 30.0])],
        )
        lines = text.splitlines()
        assert len(lines) == 4  # Header + x ∈ {1, 2, 3}.
        assert "-" in lines[1]  # b has no value at x=1.

    def test_table_averages_duplicate_x(self):
        text = render_table("x", [("ne", [5, 5, 5], [10.0, 14.0, 12.0])])
        assert "12.00" in text
