"""Tests for the experiment result containers and reporting."""

import pytest

from repro.errors import ReproError
from repro.experiments.report import FigureResult, Series


class TestSeries:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ReproError):
            Series("s", [1, 2, 3], [1, 2])


class TestFigureResult:
    def _figure(self):
        figure = FigureResult(
            figure_id="figX", title="Title", x_label="x", y_label="y"
        )
        figure.add_series("a", [1, 2, 3], [1.0, 2.0, 3.0])
        figure.add_series("b", [1, 2, 3], [3.0, 2.0, 1.0])
        figure.add_note("a note")
        return figure

    def test_get_series(self):
        figure = self._figure()
        assert figure.get_series("a").ys == [1.0, 2.0, 3.0]
        with pytest.raises(ReproError):
            figure.get_series("missing")

    def test_to_table_contains_everything(self):
        text = self._figure().to_table()
        assert "figX" in text
        assert "Title" in text
        assert "a note" in text
        for header in ("x", "a", "b"):
            assert header in text
        # Three data rows plus header, separator, title and note lines.
        assert len(text.strip().splitlines()) == 7

    def test_to_table_empty_figure(self):
        figure = FigureResult("figY", "Empty", "x", "y")
        assert "no data" in figure.to_table()

    def test_float_and_int_formatting(self):
        figure = FigureResult("figZ", "Fmt", "x", "y")
        figure.add_series("vals", [1], [2.5])
        figure.add_series("ints", [1], [3.0])
        table = figure.to_table()
        assert "2.500" in table
        assert " 3" in table
