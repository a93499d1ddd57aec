"""Hand-rolled SVG emission for the evaluation figures.

No plotting dependency: the heatmap and bar chart are plain SVG with
numeric attributes, so tests can compare figures structurally (parse the
XML, compare cell values) instead of byte-diffing rendered images.
"""

from __future__ import annotations

from xml.sax.saxutils import escape, quoteattr

import numpy as np

_CELL = 42
_BAR_W = 34
_BAR_GAP = 10
_MARGIN_LEFT = 110
_MARGIN_TOP = 50
_MARGIN_BOTTOM = 90


def _heat_color(v):
    """White -> deep blue ramp for a value in [0, 1]."""
    v = min(max(float(v), 0.0), 1.0)
    r = round(255 + (8 - 255) * v)
    g = round(255 + (48 - 255) * v)
    b = round(255 + (107 - 255) * v)
    return f"rgb({r},{g},{b})"


def _frame(width, height, title, body):
    """A `width` x `height` SVG document: the title, then the `body` elements."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{_MARGIN_LEFT}" y="24" font-size="15" font-family="sans-serif">'
        f"{escape(title)}</text>",
        *body,
        "</svg>",
    ]) + "\n"


def _axis_label(x, y, name, font_size):
    """An x-axis label whose end sits at (x, y), rotated 60 degrees up."""
    return (f'<text x="{x:.1f}" y="{y}" font-size="{font_size}" '
            f'font-family="sans-serif" text-anchor="end" '
            f'transform="rotate(-60 {x:.1f} {y})">{escape(name)}</text>')


def confusion_heatmap_svg(cm, title="Confusion matrix"):
    """Row-normalized heatmap; the diagonal shows each class's recall."""
    names = cm.class_names
    norm = cm.row_normalized()
    n = len(names)
    parts = []
    for i in range(n):
        for j in range(n):
            x = _MARGIN_LEFT + j * _CELL
            y = _MARGIN_TOP + i * _CELL
            v = norm[i, j]
            parts.append(
                f'<rect class="cell" data-row="{i}" data-col="{j}" '
                f'data-value="{v:.6f}" x="{x}" y="{y}" width="{_CELL}" '
                f'height="{_CELL}" fill="{_heat_color(v)}" stroke="#999"/>'
            )
            textcol = "#fff" if v > 0.5 else "#333"
            parts.append(
                f'<text x="{x + _CELL / 2:.1f}" y="{y + _CELL / 2 + 4:.1f}" '
                f'font-size="10" font-family="sans-serif" fill="{textcol}" '
                f'text-anchor="middle">{v:.2f}</text>'
            )
    for i, name in enumerate(names):
        y = _MARGIN_TOP + i * _CELL + _CELL / 2 + 4
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y:.1f}" font-size="11" '
            f'font-family="sans-serif" text-anchor="end">{escape(name)}</text>'
        )
        parts.append(_axis_label(_MARGIN_LEFT + i * _CELL + _CELL / 2,
                                 _MARGIN_TOP + n * _CELL + 12, name, 11))
    return _frame(_MARGIN_LEFT + n * _CELL + 20, _MARGIN_TOP + n * _CELL + _MARGIN_BOTTOM,
                  title, parts)


def per_class_bar_svg(values, class_names, title="Per-class recall"):
    """Bar chart of per-class values in [0, 1]."""
    values = np.asarray(values, dtype=float)
    n = len(class_names)
    plot_h = 220
    width = _MARGIN_LEFT + n * (_BAR_W + _BAR_GAP) + 20
    base_y = _MARGIN_TOP + plot_h
    parts = [
        f'<line x1="{_MARGIN_LEFT - 6}" y1="{base_y}" '
        f'x2="{width - 10}" y2="{base_y}" stroke="#333"/>',
        f'<line x1="{_MARGIN_LEFT - 6}" y1="{base_y}" '
        f'x2="{_MARGIN_LEFT - 6}" y2="{_MARGIN_TOP}" stroke="#333"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = base_y - frac * plot_h
        parts.append(
            f'<text x="{_MARGIN_LEFT - 12}" y="{y + 4:.1f}" font-size="10" '
            f'font-family="sans-serif" text-anchor="end">{frac:.2f}</text>'
        )
    for i, name in enumerate(class_names):
        v = min(max(float(values[i]), 0.0), 1.0)
        h = v * plot_h
        x = _MARGIN_LEFT + i * (_BAR_W + _BAR_GAP)
        parts.append(
            f'<rect class="bar" data-class={quoteattr(name)} data-value="{v:.6f}" '
            f'x="{x}" y="{base_y - h:.1f}" width="{_BAR_W}" height="{h:.1f}" '
            f'fill="rgb(66,113,181)"/>'
        )
        parts.append(_axis_label(x + _BAR_W / 2, base_y + 12, name, 10))
    return _frame(width, _MARGIN_TOP + plot_h + _MARGIN_BOTTOM, title, parts)
