"""Minimal hand-emitted SVG line plots (no plotting dependency).

Output is a plain string built deterministically, so identical data always
produces identical bytes.
"""

from __future__ import annotations

WIDTH, HEIGHT, MARGIN = 720, 260, 42  # canvas and plot-area inset, in pixels


def _fmt(v: float) -> str:
    return f"{v:.4f}".rstrip("0").rstrip(".")


def line_plot(series: list[float], thresholds: list[float], title: str) -> str:
    """One polyline over sample index, with dashed horizontal threshold lines."""
    ys = [float(v) for v in series]
    thresholds = [float(t) for t in thresholds]
    y_max = max([*ys, *thresholds, 1e-12]) * 1.05
    y_min = 0.0
    n = max(len(ys), 2)
    inner_w = WIDTH - 2 * MARGIN
    inner_h = HEIGHT - 2 * MARGIN

    def px(i: int) -> float:
        return MARGIN + inner_w * i / (n - 1)

    def py(v: float) -> float:
        return HEIGHT - MARGIN - inner_h * (v - y_min) / (y_max - y_min)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black" stroke-width="1"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" '
        f'stroke="black" stroke-width="1"/>',
        f'<text x="{MARGIN}" y="{HEIGHT - MARGIN + 16}" font-size="11">0</text>',
        f'<text x="{WIDTH - MARGIN - 10}" y="{HEIGHT - MARGIN + 16}" font-size="11">{len(ys) - 1}</text>',
        f'<text x="{4}" y="{MARGIN + 4}" font-size="11">{_fmt(y_max)}</text>',
        f'<text x="{4}" y="{HEIGHT - MARGIN}" font-size="11">0</text>',
        f'<text x="{MARGIN}" y="{MARGIN - 14}" font-size="13">{title}</text>',
    ]
    if ys:
        pts = " ".join(f"{_fmt(px(i))},{_fmt(py(v))}" for i, v in enumerate(ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" stroke-width="1.5"/>'
        )
    for t in thresholds:
        y = py(min(t, y_max))
        parts.append(
            f'<line x1="{MARGIN}" y1="{_fmt(y)}" x2="{WIDTH - MARGIN}" y2="{_fmt(y)}" '
            f'stroke="#c03020" stroke-width="1" stroke-dasharray="6,4"/>'
        )
        parts.append(
            f'<text x="{WIDTH - MARGIN + 4}" y="{_fmt(y + 4)}" font-size="10" '
            f'fill="#c03020">{_fmt(t)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
