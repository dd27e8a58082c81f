"""Static SVG boxplot rendering with no external assets.

One panel per (scenario, sampler); within a panel one box per
(budget, estimator), clustered by budget. Mean markers are green, medians
red, and the true baseline is drawn per budget cluster as a dashed black
horizontal line. The y axis always spans [0, 1] with ticks every 0.1.
Output is deterministic for identical input.
"""

from __future__ import annotations

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


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_boxplots_svg(rows: list[dict]) -> str:
    """Render grouped boxplot summaries (the summary rows produced by
    ``reporting.summarize_records``) as a self-contained SVG document."""
    if not rows:
        raise ValidationError("nothing to plot: no summary groups")

    panels: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        panels.setdefault((row["scenario"], row["sampler"]), []).append(row)
    panel_keys = sorted(panels)
    for key in panel_keys:
        panels[key].sort(key=lambda r: (r["budget"], r["estimator"]))

    max_slots = max(len(items) for items in panels.values())
    width = _MARGIN_LEFT + max_slots * _SLOT_W + _MARGIN_RIGHT
    panel_height = _MARGIN_TOP + _PLOT_H + _MARGIN_BOTTOM
    height = len(panel_keys) * panel_height + (len(panel_keys) - 1) * _PANEL_GAP + 20.0

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}" '
        f'font-family="Helvetica, Arial, sans-serif">'
    )
    out.append('<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>')

    for p_idx, key in enumerate(panel_keys):
        items = panels[key]
        top = 20.0 + p_idx * (panel_height + _PANEL_GAP) + _MARGIN_TOP
        bottom = top + _PLOT_H
        left = _MARGIN_LEFT

        def y_px(v: float) -> float:
            return bottom - v * _PLOT_H

        out.append(
            f'<text x="{_fmt(left)}" y="{_fmt(top - 14.0)}" font-size="13">'
            f"{_escape(key[0])} / {_escape(key[1])}</text>"
        )

        # y axis: [0,1] with ticks every 0.1
        for i in range(11):
            v = i / 10.0
            y = y_px(v)
            out.append(
                f'<line x1="{_fmt(left)}" y1="{_fmt(y)}" '
                f'x2="{_fmt(left + len(items) * _SLOT_W)}" y2="{_fmt(y)}" '
                f'stroke="#dddddd" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{_fmt(left - 8.0)}" y="{_fmt(y + 3.5)}" '
                f'text-anchor="end" font-size="10">{v:.1f}</text>'
            )
        out.append(
            f'<line x1="{_fmt(left)}" y1="{_fmt(top)}" x2="{_fmt(left)}" '
            f'y2="{_fmt(bottom)}" stroke="#2b2b2b" stroke-width="1"/>'
        )

        # budget clusters: dashed true-baseline segment plus a budget label
        start = 0
        while start < len(items):
            stop = start
            while stop < len(items) and items[stop]["budget"] == items[start]["budget"]:
                stop += 1
            cluster = items[start:stop]
            x0 = left + start * _SLOT_W + 6.0
            x1 = left + stop * _SLOT_W - 6.0
            truth = sum(r["true_baseline_mean"] for r in cluster) / len(cluster)
            out.append(
                f'<line x1="{_fmt(x0)}" y1="{_fmt(y_px(truth))}" x2="{_fmt(x1)}" '
                f'y2="{_fmt(y_px(truth))}" stroke="{_BASELINE_COLOR}" '
                f'stroke-width="1" stroke-dasharray="6,4"/>'
            )
            out.append(
                f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(bottom + 92.0)}" '
                f'text-anchor="middle" font-size="11">budget {cluster[0]["budget"]}'
                f"</text>"
            )
            start = stop

        for i, row in enumerate(items):
            cx = left + (i + 0.5) * _SLOT_W
            half = _BOX_W / 2.0
            # whiskers with caps
            out.append(
                f'<line x1="{_fmt(cx)}" y1="{_fmt(y_px(row["whisker_low"]))}" '
                f'x2="{_fmt(cx)}" y2="{_fmt(y_px(row["whisker_high"]))}" '
                f'stroke="{_BOX_STROKE}" stroke-width="1"/>'
            )
            for v in (row["whisker_low"], row["whisker_high"]):
                out.append(
                    f'<line x1="{_fmt(cx - half / 2)}" y1="{_fmt(y_px(v))}" '
                    f'x2="{_fmt(cx + half / 2)}" y2="{_fmt(y_px(v))}" '
                    f'stroke="{_BOX_STROKE}" stroke-width="1"/>'
                )
            # interquartile box
            out.append(
                f'<rect x="{_fmt(cx - half)}" y="{_fmt(y_px(row["q75"]))}" '
                f'width="{_fmt(_BOX_W)}" '
                f'height="{_fmt(max(y_px(row["q25"]) - y_px(row["q75"]), 0.5))}" '
                f'fill="{_BOX_FILL}" stroke="{_BOX_STROKE}" stroke-width="1"/>'
            )
            # median (red) and mean (green)
            out.append(
                f'<line x1="{_fmt(cx - half)}" y1="{_fmt(y_px(row["median"]))}" '
                f'x2="{_fmt(cx + half)}" y2="{_fmt(y_px(row["median"]))}" '
                f'stroke="{_MEDIAN_COLOR}" stroke-width="2"/>'
            )
            out.append(
                f'<line x1="{_fmt(cx - half)}" y1="{_fmt(y_px(row["mean"]))}" '
                f'x2="{_fmt(cx + half)}" y2="{_fmt(y_px(row["mean"]))}" '
                f'stroke="{_MEAN_COLOR}" stroke-width="2" stroke-dasharray="3,2"/>'
            )
            # estimator label, rotated to stay readable in narrow slots
            lx, ly = cx + 4.0, bottom + 10.0
            out.append(
                f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="10" '
                f'text-anchor="end" transform="rotate(-55 {_fmt(lx)} {_fmt(ly)})">'
                f"{_escape(row['estimator'])}</text>"
            )

    # legend
    lx = _MARGIN_LEFT
    out.append(
        f'<g font-size="10">'
        f'<line x1="{_fmt(lx)}" y1="10" x2="{_fmt(lx + 16)}" y2="10" '
        f'stroke="{_MEAN_COLOR}" stroke-width="2" stroke-dasharray="3,2"/>'
        f'<text x="{_fmt(lx + 20)}" y="13">mean</text>'
        f'<line x1="{_fmt(lx + 60)}" y1="10" x2="{_fmt(lx + 76)}" y2="10" '
        f'stroke="{_MEDIAN_COLOR}" stroke-width="2"/>'
        f'<text x="{_fmt(lx + 80)}" y="13">median</text>'
        f'<line x1="{_fmt(lx + 130)}" y1="10" x2="{_fmt(lx + 146)}" y2="10" '
        f'stroke="{_BASELINE_COLOR}" stroke-width="1" stroke-dasharray="6,4"/>'
        f'<text x="{_fmt(lx + 150)}" y="13">true baseline</text>'
        f"</g>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
