"""Static SVG boxplot rendering with no external assets.

One panel per (scenario, sampler); within a panel one box per
(budget, estimator), clustered by budget. Mean markers are green, medians
red, and the true baseline is drawn per budget cluster as a dashed black
horizontal line. The y axis always spans [0, 1] with ticks every 0.1.
Output is deterministic for identical input.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

from .errors import ValidationError

_MARGIN_LEFT = 58.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 42.0
_MARGIN_BOTTOM = 104.0
_SLOT_W = 60.0
_BOX_W = 32.0
_PLOT_H = 300.0
_PANEL_GAP = 26.0

_BOX_FILL = "#c6dbef"
_BOX_STROKE = "#2b2b2b"
_MEAN_COLOR = "#2ca02c"
_MEDIAN_COLOR = "#d62728"
_BASELINE_COLOR = "#000000"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _fmt(v: float | str) -> str:
    """A coordinate with two decimals; a string is written as given."""
    return v if isinstance(v, str) else f"{v:.2f}"


def _line(x1, y1, x2, y2, stroke: str, width: int, dash: str | None = None) -> str:
    dash_attr = "" if dash is None else f' stroke-dasharray="{dash}"'
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{width}"{dash_attr}/>'
    )


def _text(x, y, attrs: str, body: str) -> str:
    """A text element; ``attrs`` follow x and y, and ``body`` is escaped."""
    attrs = f" {attrs}" if attrs else ""
    return f'<text x="{_fmt(x)}" y="{_fmt(y)}"{attrs}>{_escape(body)}</text>'


def render_boxplots_svg(rows: list[dict]) -> str:
    """Render grouped boxplot summaries (the summary rows produced by
    ``reporting.summarize_records``) as a self-contained SVG document."""
    if not rows:
        raise ValidationError("nothing to plot: no summary groups")

    ordered = sorted(rows, key=itemgetter("scenario", "sampler", "budget", "estimator"))
    panels = {key: list(g) for key, g in groupby(ordered, key=itemgetter("scenario", "sampler"))}

    max_slots = max(len(items) for items in panels.values())
    width = _MARGIN_LEFT + max_slots * _SLOT_W + _MARGIN_RIGHT
    panel_height = _MARGIN_TOP + _PLOT_H + _MARGIN_BOTTOM
    height = len(panels) * panel_height + (len(panels) - 1) * _PANEL_GAP + 20.0

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}" '
        f'font-family="Helvetica, Arial, sans-serif">'
    )
    out.append('<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>')

    for p_idx, (key, items) in enumerate(panels.items()):
        top = 20.0 + p_idx * (panel_height + _PANEL_GAP) + _MARGIN_TOP
        bottom = top + _PLOT_H
        left = _MARGIN_LEFT

        def y_px(v: float) -> float:
            return bottom - v * _PLOT_H

        out.append(_text(left, top - 14.0, 'font-size="13"', f"{key[0]} / {key[1]}"))

        # y axis: [0,1] with ticks every 0.1
        for i in range(11):
            v = i / 10.0
            y = y_px(v)
            out.append(_line(left, y, left + len(items) * _SLOT_W, y, "#dddddd", 1))
            out.append(_text(left - 8.0, y + 3.5, 'text-anchor="end" font-size="10"', f"{v:.1f}"))
        out.append(_line(left, top, left, bottom, "#2b2b2b", 1))

        # budget clusters: dashed true-baseline segment plus a budget label
        start = 0
        for budget, members in groupby(items, key=itemgetter("budget")):
            cluster = list(members)
            stop = start + len(cluster)
            x0 = left + start * _SLOT_W + 6.0
            x1 = left + stop * _SLOT_W - 6.0
            truth = sum(r["true_baseline_mean"] for r in cluster) / len(cluster)
            out.append(_line(x0, y_px(truth), x1, y_px(truth), _BASELINE_COLOR, 1, "6,4"))
            out.append(
                _text((x0 + x1) / 2, bottom + 92.0, 'text-anchor="middle" font-size="11"',
                      f"budget {budget}")
            )
            start = stop

        for i, row in enumerate(items):
            cx = left + (i + 0.5) * _SLOT_W
            half = _BOX_W / 2.0
            # whiskers with caps
            low, high = y_px(row["whisker_low"]), y_px(row["whisker_high"])
            out.append(_line(cx, low, cx, high, _BOX_STROKE, 1))
            for y in (low, high):
                out.append(_line(cx - half / 2, y, cx + half / 2, y, _BOX_STROKE, 1))
            # interquartile box
            out.append(
                f'<rect x="{_fmt(cx - half)}" y="{_fmt(y_px(row["q75"]))}" '
                f'width="{_fmt(_BOX_W)}" '
                f'height="{_fmt(max(y_px(row["q25"]) - y_px(row["q75"]), 0.5))}" '
                f'fill="{_BOX_FILL}" stroke="{_BOX_STROKE}" stroke-width="1"/>'
            )
            # median (red) and mean (green)
            median, mean = y_px(row["median"]), y_px(row["mean"])
            out.append(_line(cx - half, median, cx + half, median, _MEDIAN_COLOR, 2))
            out.append(_line(cx - half, mean, cx + half, mean, _MEAN_COLOR, 2, "3,2"))
            # estimator label, rotated to stay readable in narrow slots
            lx, ly = cx + 4.0, bottom + 10.0
            out.append(
                _text(lx, ly, f'font-size="10" text-anchor="end" '
                      f'transform="rotate(-55 {_fmt(lx)} {_fmt(ly)})"', row["estimator"])
            )

    # legend; its y coordinates are written as given
    lx = _MARGIN_LEFT
    out.append(
        '<g font-size="10">'
        + _line(lx, "10", lx + 16, "10", _MEAN_COLOR, 2, "3,2")
        + _text(lx + 20, "13", "", "mean")
        + _line(lx + 60, "10", lx + 76, "10", _MEDIAN_COLOR, 2)
        + _text(lx + 80, "13", "", "median")
        + _line(lx + 130, "10", lx + 146, "10", _BASELINE_COLOR, 1, "6,4")
        + _text(lx + 150, "13", "", "true baseline")
        + "</g>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
