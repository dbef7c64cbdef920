"""Tests for report rendering."""

import pytest

from repro.analysis.reporting import Series, Table


class TestTable:
    def test_render_contains_rows(self):
        table = Table("demo", ["n", "coverage"])
        table.add_row(100, 0.5)
        table.add_row(1000, 0.995)
        rendered = table.render()
        assert "demo" in rendered
        assert "100" in rendered
        assert "0.995" in rendered

    def test_alignment_consistent(self):
        table = Table("t", ["a", "b"])
        table.add_row("xx", 1)
        table.add_row("yyyy", 22)
        lines = table.render().splitlines()
        data_lines = lines[1:]
        assert len({len(line) for line in data_lines}) == 1

    def test_precision(self):
        table = Table("t", ["x"], precision=1)
        table.add_row(3.14159)
        assert "3.1" in table.render()
        assert "3.14" not in table.render()

    def test_wrong_arity_rejected(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError, match="cells"):
            table.add_row(1)

    def test_empty_table_renders(self):
        table = Table("empty", ["a"])
        assert "empty" in table.render()

    def test_int_not_decimalized(self):
        table = Table("t", ["n"])
        table.add_row(1000)
        assert "1000" in table.render()
        assert "1000.000" not in table.render()


class TestTableRenderDetails:
    def test_title_line_format(self):
        table = Table("my title", ["a"])
        assert table.render().splitlines()[0] == "== my title =="

    def test_cells_right_justified_under_headers(self):
        table = Table("t", ["value"])
        table.add_row(7)
        header, rule, row = table.render().splitlines()[1:]
        assert header == "value"
        assert rule == "-" * len("value")
        assert row == "    7"

    def test_bool_rendered_as_word_not_number(self):
        table = Table("t", ["flag"], precision=2)
        table.add_row(True)
        rendered = table.render()
        assert "True" in rendered
        assert "1.00" not in rendered

    def test_string_cells_pass_through(self):
        table = Table("t", ["name", "x"], precision=1)
        table.add_row("inclination", 1.234)
        rendered = table.render()
        assert "inclination" in rendered
        assert "1.2" in rendered

    def test_print_goes_to_stdout(self, capsys):
        """Figure tables are contractually stdout (not the logging layer)."""
        table = Table("t", ["a"])
        table.add_row(1)
        table.print()
        captured = capsys.readouterr()
        assert "== t ==" in captured.out
        assert captured.err == ""


class TestSeries:
    def test_points_rendered(self):
        series = Series("fig2", "satellites", "uncovered %")
        series.add_point(100, 61.0)
        series.add_point(1000, 0.5)
        rendered = series.render()
        assert "fig2" in rendered
        assert "satellites -> uncovered %" in rendered
        assert "100" in rendered

    def test_points_render_in_insertion_order(self):
        series = Series("s", "x", "y")
        series.add_point(2, 20.0)
        series.add_point(1, 10.0)
        assert series.points == [(2, 20.0), (1, 10.0)]
        assert series.render().splitlines()[2:] == ["  2 -> 20.000", "  1 -> 10.000"]

    def test_precision_applies_to_both_axes(self):
        series = Series("s", "x", "y", precision=1)
        series.add_point(1.2345, 9.8765)
        rendered = series.render()
        assert "1.2 -> 9.9" in rendered
        assert "1.23" not in rendered

    def test_empty_series_renders_header_only(self):
        series = Series("s", "x", "y")
        lines = series.render().splitlines()
        assert lines == ["== s ==", "x -> y"]

    def test_print_goes_to_stdout(self, capsys):
        series = Series("s", "x", "y")
        series.add_point(1, 2)
        series.print()
        captured = capsys.readouterr()
        assert "1 -> 2" in captured.out
        assert captured.err == ""
