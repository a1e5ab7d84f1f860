"""Tiny deterministic SVG writers (no plotting toolkit needed).

Every function returns a complete SVG document as a string; byte-identical
output for identical input is part of the contract, so nothing here touches
clocks, ids, or dict iteration order beyond insertion order.
"""

from __future__ import annotations

import math
from html import escape

import numpy as np

_FONT = "font-family='monospace' font-size='11'"
_TITLE_FONT = "font-family='monospace' font-size='13'"
PALETTE = ("#1f628e", "#d1495b", "#66a182", "#edae49", "#8d6a9f", "#00798c")
WIDTH, HEIGHT = 640, 400  # line and scatter chart size; a heatmap sizes itself to its cells
_ML, _MR, _MT, _MB = 55, 15, 30, 45  # line and scatter chart margins: left, right, top, bottom


def _document(width, height, parts) -> str:
    """A complete SVG document: white background, then ``parts`` one per line."""
    return "\n".join([
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}'>",
        f"<rect width='{width}' height='{height}' fill='white'/>",
        *parts,
        "</svg>\n",
    ])


def _fmt(x: float) -> str:
    s = f"{float(x):.6g}"
    return "0" if s == "-0" else s


def _text(x, y, body, anchor="middle", extra="", font=_FONT) -> str:
    """One <text> element: coordinates through :func:`_fmt`, the body escaped."""
    extra = f" {extra}" if extra else ""
    return (
        f"<text x='{_fmt(x)}' y='{_fmt(y)}' {font} text-anchor='{anchor}'{extra}>"
        f"{escape(str(body), quote=False)}</text>"
    )


def _ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round tick positions on a 1/2/5 ladder covering [lo, hi], lo < hi."""
    span = hi - lo
    raw = span / max(target, 1)
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        step = mult * mag
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


class _Canvas:
    """A line or scatter chart's frame: both ranges padded, then the title, box, ticks
    and axis labels. Callers append their marks to ``parts``."""

    def __init__(self, xs, ys, title, x_label, y_label):
        self.x_lo, self.x_hi = _pad_range(xs)
        self.y_lo, self.y_hi = _pad_range(ys)
        x0, x1 = _ML, WIDTH - _MR
        y0, y1 = HEIGHT - _MB, _MT
        self.parts = [_text(WIDTH / 2, 16, title, font=_TITLE_FONT)] if title else []
        self.parts.append(
            f"<rect x='{_fmt(x0)}' y='{_fmt(y1)}' width='{_fmt(x1 - x0)}' "
            f"height='{_fmt(y0 - y1)}' fill='none' stroke='#333'/>"
        )
        for t in _ticks(self.x_lo, self.x_hi):
            px = self.x(t)
            self.parts.append(f"<line x1='{_fmt(px)}' y1='{_fmt(y0)}' x2='{_fmt(px)}' y2='{_fmt(y0 + 4)}' stroke='#333'/>")
            self.parts.append(_text(px, y0 + 16, _fmt(t)))
        for t in _ticks(self.y_lo, self.y_hi):
            py = self.y(t)
            self.parts.append(f"<line x1='{_fmt(x0 - 4)}' y1='{_fmt(py)}' x2='{_fmt(x0)}' y2='{_fmt(py)}' stroke='#333'/>")
            self.parts.append(_text(x0 - 7, py + 4, _fmt(t), "end"))
        if x_label:
            self.parts.append(_text((x0 + x1) / 2, HEIGHT - 6, x_label))
        if y_label:
            cx, cy = 14, (y0 + y1) / 2
            self.parts.append(_text(cx, cy, y_label, extra=f"transform='rotate(-90 {_fmt(cx)} {_fmt(cy)})'"))

    def x(self, v: float) -> float:
        frac = (v - self.x_lo) / (self.x_hi - self.x_lo)
        return _ML + frac * (WIDTH - _ML - _MR)

    def y(self, v: float) -> float:
        frac = (v - self.y_lo) / (self.y_hi - self.y_lo)
        return HEIGHT - _MB - frac * (HEIGHT - _MT - _MB)

    def dots(self, xs, ys, attrs: str):
        """One ``<circle>`` marker per (x, y), each carrying ``attrs``."""
        self.parts += [f"<circle cx='{_fmt(self.x(x))}' cy='{_fmt(self.y(y))}' {attrs}/>"
                       for x, y in zip(xs, ys)]

    def render(self) -> str:
        return _document(WIDTH, HEIGHT, self.parts)


def _pad_range(values) -> tuple[float, float]:
    """[min, max] widened by 5 % each side, so hi > lo even for one distinct value."""
    lo = float(min(values))
    hi = float(max(values))
    pad = 0.05 * (hi - lo) if hi > lo else max(abs(hi), 1.0) * 0.05
    return lo - pad, hi + pad


def line_chart(series, title="", x_label="", y_label="") -> str:
    """Polyline chart. ``series`` is a list of (name, xs, ys) triples."""
    if not series:
        raise ValueError("need at least one series")
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    if not all_x:
        raise ValueError("series are empty")
    canvas = _Canvas(all_x, all_y, title, x_label, y_label)
    for idx, (name, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{_fmt(canvas.x(x))},{_fmt(canvas.y(y))}" for x, y in zip(xs, ys))
        canvas.parts.append(f"<polyline points='{pts}' fill='none' stroke='{color}' stroke-width='1.5'/>")
        canvas.dots(xs, ys, f"r='2.5' fill='{color}'")
        if name:
            canvas.parts.append(_text(WIDTH - _MR - 8, _MT + 14 + 14 * idx, name, "end", f"fill='{color}'"))
    return canvas.render()


def scatter_chart(xs, ys, line=None, title="", x_label="", y_label="") -> str:
    """Scatter of (xs, ys) with an optional (slope, intercept) overlay line."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    if not xs or len(xs) != len(ys):
        raise ValueError("xs and ys must be equal-length and non-empty")
    ends = []  # the fit line's two end points, at the smallest and largest x
    if line is not None:
        slope, intercept = line
        ends = [(x, slope * x + intercept) for x in (min(xs), max(xs))]
    canvas = _Canvas(xs, ys + [y for _, y in ends], title, x_label, y_label)
    if ends:
        (x_a, y_a), (x_b, y_b) = ends
        canvas.parts.append(
            f"<line x1='{_fmt(canvas.x(x_a))}' y1='{_fmt(canvas.y(y_a))}' "
            f"x2='{_fmt(canvas.x(x_b))}' y2='{_fmt(canvas.y(y_b))}' "
            f"stroke='{PALETTE[1]}' stroke-width='1.5'/>"
        )
    canvas.dots(xs, ys, f"r='3' fill='{PALETTE[0]}' fill-opacity='0.8'")
    return canvas.render()


def heatmap(matrix, row_labels, col_labels, title="") -> str:
    """Annotated matrix heatmap (e.g. a confusion matrix)."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-D")
    n_rows, n_cols = m.shape
    if len(row_labels) != n_rows or len(col_labels) != n_cols:
        raise ValueError("label counts must match matrix shape")
    cell = 56
    ml, mt = 130, 60
    width = ml + cell * n_cols + 20
    height = mt + cell * n_rows + 40
    top = m.max() if m.size and m.max() > 0 else 1.0

    parts = [_text(width / 2, 20, title, font=_TITLE_FONT)] if title else []
    parts += [_text(ml + cell * j + cell / 2, mt - 8, label) for j, label in enumerate(col_labels)]
    parts += [_text(ml - 8, mt + cell * i + cell / 2 + 4, label, "end")
              for i, label in enumerate(row_labels)]
    for i in range(n_rows):
        for j in range(n_cols):
            frac = m[i, j] / top
            # white -> deep blue ramp
            r = round(255 - 204 * frac)
            g = round(255 - 157 * frac)
            b = round(255 - 113 * frac)
            x0, y0 = ml + cell * j, mt + cell * i
            parts.append(
                f"<rect x='{x0}' y='{y0}' width='{cell}' height='{cell}' "
                f"fill='rgb({r},{g},{b})' stroke='#999'/>"
            )
            text_fill = f"fill='{'#fff' if frac > 0.55 else '#111'}'"
            parts.append(_text(x0 + cell / 2, y0 + cell / 2 + 4, _fmt(m[i, j]), extra=text_fill))
    return _document(width, height, parts)


def save_svg(svg: str, path) -> None:
    with open(path, "w") as fh:
        fh.write(svg)
