"""Plain-text tables and series for the benchmark harness.

Every benchmark prints the rows/series the corresponding paper figure
reports.  These classes keep that output consistent and machine-greppable:
a :class:`Table` renders aligned columns, a :class:`Series` renders an
x -> y sweep with a one-line header.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Union

Cell = Union[str, float, int]


def _format_cell(cell: Cell, precision: int) -> str:
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, int):
        return str(cell)
    if isinstance(cell, float):
        return f"{cell:.{precision}f}"
    return str(cell)


@dataclass
class Table:
    """An aligned plain-text table."""

    title: str
    columns: Sequence[str]
    precision: int = 3
    rows: List[List[Cell]] = field(default_factory=list)

    def add_row(self, *cells: Cell) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(cells))

    def render(self) -> str:
        header = list(self.columns)
        body = [
            [_format_cell(cell, self.precision) for cell in row] for row in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(name.ljust(width) for name, width in zip(header, widths)))
        lines.append("  ".join("-" * width for width in widths))
        for row in body:
            lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        return "\n".join(lines)

    def print(self) -> None:
        print("\n" + self.render())


@dataclass
class Series:
    """An x -> y sweep with labels, e.g. one curve of a paper figure."""

    title: str
    x_label: str
    y_label: str
    precision: int = 3
    points: List[tuple] = field(default_factory=list)

    def add_point(self, x: Cell, y: Cell) -> None:
        self.points.append((x, y))

    def render(self) -> str:
        lines = [f"== {self.title} ==", f"{self.x_label} -> {self.y_label}"]
        for x, y in self.points:
            lines.append(
                f"  {_format_cell(x, self.precision)} -> {_format_cell(y, self.precision)}"
            )
        return "\n".join(lines)

    def print(self) -> None:
        print("\n" + self.render())
