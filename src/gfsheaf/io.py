"""Deterministic artifact writers: CSV, JSON, and small static SVG plots.

All writers are atomic (temp file + rename) and byte-stable for a fixed
input; SVG output carries a fixed version comment line.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

SVG_VERSION = "gfsheaf-svg-1"


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_csv(path, rows):
    lines = []
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path, payload):
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2,
                                   default=_json_default) + "\n")


def _json_default(x):
    if hasattr(x, "item"):
        return x.item()
    return str(x)


def ranks_to_rows(tables):
    rows = [("key", "degree", "rank")]
    for key, table in tables:
        for d in sorted(table):
            rows.append((key, d, table[d]))
    return rows


# ---------------------------------------------------------------------------
# SVG

def _svg_document(width, height, body):
    head = (f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
            f"height='{height}' viewBox='0 0 {width} {height}'>\n"
            f"<!-- {SVG_VERSION} -->\n")
    return head + body + "</svg>\n"


def _scale(points, width, height):
    """Map data points into the canvas, 30 px in from every side."""
    margin = 30
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0

    def to_px(x, y):
        px = margin + (x - x0) / dx * (width - 2 * margin)
        py = height - margin - (y - y0) / dy * (height - 2 * margin)
        return round(px, 2), round(py, 2)

    return to_px


def write_front_svg(path, strand_points, cone_points=None):
    """Front samples in the (x, t)-plane, optional codirection arrows, on a
    640 x 400 canvas."""
    width, height = 640, 400
    pts = [(x[0], t) for (x, t, *_rest) in strand_points]
    if not pts:
        _atomic_write(path, _svg_document(width, height, ""))
        return
    to_px = _scale(pts, width, height)
    body = []
    for (x, t, *rest) in sorted(strand_points):
        px, py = to_px(x[0], t)
        body.append(f"<circle cx='{px}' cy='{py}' r='2' fill='black'/>")
    if cone_points:
        for (x, t, p, tau) in sorted(cone_points):
            if tau != 1:
                continue
            px, py = to_px(x[0], t)
            p0 = p[0] if isinstance(p, tuple) else p
            body.append(
                f"<line x1='{px}' y1='{py}' x2='{round(px + 8, 2)}' "
                f"y2='{round(py - 8 * p0, 2)}' stroke='steelblue' "
                f"stroke-width='0.8'/>")
    _atomic_write(path, _svg_document(width, height, "\n".join(body) + "\n"))


def write_barcode_svg(path, bars):
    """Interval stack, 640 px wide and 14 px a bar; infinite deaths are
    drawn to the right margin."""
    bars = sorted(bars)
    width, height = 640, 40 + 14 * len(bars)
    finite = [b for (_d, b, _x) in bars] + \
        [x for (_d, _b, x) in bars if not math.isinf(x)]
    if not finite:
        finite = [0.0, 1.0]
    lo, hi = min(finite), max(finite)
    span = (hi - lo) or 1.0
    right = hi + 0.1 * span

    def px(v):
        return round(30 + (v - lo) / (right - lo) * (width - 60), 2)

    body = []
    colors = {0: "black", 1: "firebrick", 2: "seagreen"}
    for i, (d, b, x) in enumerate(bars):
        y = 30 + 14 * i
        x2 = px(right) if math.isinf(x) else px(x)
        body.append(f"<line x1='{px(b)}' y1='{y}' x2='{x2}' y2='{y}' "
                    f"stroke='{colors.get(d, 'gray')}' stroke-width='4'/>")
        body.append(f"<text x='4' y='{y + 4}' font-size='10'>{d}</text>")
    _atomic_write(path, _svg_document(width, height, "\n".join(body) + "\n"))
