"""Drawing exports: DOT for any map, SVG fundamental-polygon layout for
generator-tagged grid maps."""

from __future__ import annotations

from .core import PolyhedralMap, SematlasError, grid_coords


#: grid spacing of the SVG drawing, in pixels
_SCALE = 48


def to_dot(m: PolyhedralMap) -> str:
    lines = ["graph map {"]
    for v in range(m.n_vertices):
        lines.append(f"  {v};")
    for (u, v) in m.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


class SvgUnsupported(SematlasError, ValueError):
    """SVG layout needs well-formed generator grid tags."""


def to_svg(m: PolyhedralMap) -> str:
    """Fundamental-polygon drawing of a tagged grid map.

    Vertices sit on their (row, column) grid positions; edges wrapping
    around the polygon are drawn as labelled stubs.  Raises SvgUnsupported
    for a map without a ``coords`` tag or with a malformed one.
    """
    try:
        coords = grid_coords(m)
    except ValueError as exc:
        raise SvgUnsupported(str(exc)) from exc
    if coords is None:
        raise SvgUnsupported("map carries no grid coordinates")
    pos = {v: (col, row) for v, (row, col) in coords.items()}
    cols = 1 + max(x for x, _ in pos.values())
    rows = 1 + max(y for _, y in pos.values())
    pad = _SCALE
    width = pad * 2 + (cols - 1) * _SCALE
    height = pad * 2 + (rows - 1) * _SCALE

    def pt(v):
        x, y = pos[v]
        return (pad + x * _SCALE, height - pad - y * _SCALE)

    body = []
    stubs = []
    for (u, v) in m.edges:
        (x1, y1), (x2, y2) = pt(u), pt(v)
        if abs(pos[u][0] - pos[v][0]) <= 1 and abs(pos[u][1] - pos[v][1]) <= 1:
            body.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                        f'class="e"/>')
        else:
            # identification across the polygon boundary: label both stubs
            stubs.append((u, v))
            stubs.append((v, u))
    for (u, v) in sorted(stubs):
        x1, y1 = pt(u)
        dx = _SCALE // 2 if pos[u][0] >= cols - 1 or pos[v][0] == 0 else -_SCALE // 2
        dy = -_SCALE // 3 if pos[u][1] >= rows - 1 else _SCALE // 3
        body.append(f'<line x1="{x1}" y1="{y1}" x2="{x1 + dx}" y2="{y1 + dy}" '
                    f'class="w"/>')
        body.append(f'<text x="{x1 + dx}" y="{y1 + dy}" class="wl">{v}</text>')
    for v in sorted(pos):
        x, y = pt(v)
        body.append(f'<circle cx="{x}" cy="{y}" r="3"/>')
        body.append(f'<text x="{x + 5}" y="{y - 5}">{v}</text>')
    series = m.tags.get("series")
    if not isinstance(series, dict):
        series = {}
    title = " ".join(f"{k}={series[k]}" for k in sorted(series))
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        "<style>line.e{stroke:#334;stroke-width:1.5} "
        "line.w{stroke:#a66;stroke-width:1;stroke-dasharray:3 2} "
        "circle{fill:#223} text{font:10px sans-serif;fill:#223} "
        "text.wl{fill:#a66}</style>",
        f"<title>{title}</title>",
        *body,
        "</svg>",
    ]) + "\n"
