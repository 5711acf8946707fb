"""Result containers and plain-text reporting for the experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.bigtable.scan import TabletCacheStats
from repro.errors import ReproError


@dataclass(frozen=True)
class Series:
    """One plotted line: a label plus aligned x/y value sequences."""

    label: str
    xs: Sequence[float]
    ys: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ReproError(
                f"series {self.label!r} has {len(self.xs)} x values but {len(self.ys)} y values"
            )


@dataclass
class FigureResult:
    """All series of one reproduced figure plus free-form notes."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_series(self, label: str, xs: Sequence[float], ys: Sequence[float]) -> None:
        """Append one series."""
        self.series.append(Series(label=label, xs=list(xs), ys=list(ys)))

    def add_note(self, note: str) -> None:
        """Append a free-form note (assumptions, scale-downs, caveats)."""
        self.notes.append(note)

    def get_series(self, label: str) -> Series:
        """Series with the given label (raises when absent)."""
        for series in self.series:
            if series.label == label:
                return series
        raise ReproError(f"figure {self.figure_id} has no series labelled {label!r}")

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_table(self, float_format: str = "{:.3f}") -> str:
        """Render the figure as an aligned plain-text table.

        The x values of the first series define the rows; every series
        contributes one column (series are expected to share x values, which
        all the bundled experiments do).
        """
        if not self.series:
            return f"[{self.figure_id}] {self.title}\n(no data)\n"
        header = [self.x_label] + [series.label for series in self.series]
        rows: List[List[str]] = []
        base_xs = list(self.series[0].xs)
        for index, x in enumerate(base_xs):
            row = [_format_value(x, float_format)]
            for series in self.series:
                if index < len(series.ys):
                    row.append(_format_value(series.ys[index], float_format))
                else:
                    row.append("-")
            rows.append(row)
        lines = [f"[{self.figure_id}] {self.title}"]
        lines.extend(_render_aligned(header, rows))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def _render_aligned(header: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    """Render a header, separator and rows as width-aligned text lines."""
    widths = [
        max([len(header[col])] + [len(row[col]) for row in rows])
        for col in range(len(header))
    ]
    lines = ["  ".join(name.ljust(widths[i]) for i, name in enumerate(header))]
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return lines


def cache_hit_report(stats: Sequence[TabletCacheStats]) -> str:
    """Render per-tablet block-cache accounting as an aligned text table.

    One row per tablet ever probed (table, tablet, block lookups, hits,
    misses, hit rate) plus an overall summary line, reported by the mixed
    read/write experiment.
    """
    if not stats:
        return "(no block-cache activity)\n"
    header = ["table", "tablet", "lookups", "hits", "misses", "hit rate"]
    rows: List[List[str]] = []
    for entry in stats:
        rows.append(
            [
                entry.table,
                entry.tablet_id.rsplit("/", 1)[-1],
                str(entry.lookups),
                str(entry.hits),
                str(entry.misses),
                f"{entry.hit_rate:.1%}",
            ]
        )
    lines = ["per-tablet block-cache accounting"]
    lines.extend(_render_aligned(header, rows))
    hits = sum(entry.hits for entry in stats)
    lookups = sum(entry.lookups for entry in stats)
    overall = hits / lookups if lookups > 0 else 0.0
    lines.append(
        f"overall: {hits}/{lookups} block lookups hit ({overall:.1%}) "
        f"across {len(stats)} tablets"
    )
    return "\n".join(lines) + "\n"


def _format_value(value: object, float_format: str) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e9:
            return str(int(value))
        return float_format.format(value)
    return str(value)
