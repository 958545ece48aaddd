"""Dependency-free text rendering for experiment output.

The library deliberately has no plotting dependency; these helpers
render the paper's figures as terminal graphics — step-function time
series (Fig. 7a-style) and a topology map (Fig. 3-style).  Examples use
them; anything fancier can consume a campaign's JSONL export
(``tools/campaign.py SPEC.json --jsonl PATH``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple


def render_series(
    points: Sequence[Tuple[float, float]],
    width: int = 72,
    height: int = 12,
    y_label: str = "",
) -> str:
    """Render (time, value) steps as a filled ASCII area chart."""
    if not points:
        return "(empty series)"
    t0, t1 = points[0][0], points[-1][0]
    max_v = max(v for _, v in points) or 1.0
    grid = [[" "] * width for _ in range(height)]
    idx = 0
    for col in range(width):
        t = t0 + (t1 - t0) * col / max(1, width - 1)
        while idx + 1 < len(points) and points[idx + 1][0] <= t:
            idx += 1
        level = points[idx][1] / max_v
        top = min(height - 1, int(round((1 - level) * (height - 1))))
        for row in range(top, height):
            grid[row][col] = "#"
    lines = ["".join(row) for row in grid]
    lines.append("-" * width)
    footer = f"t={t0:g}s".ljust(width - 10) + f"t={t1:g}s"
    lines.append(footer[:width])
    if y_label:
        lines.insert(0, f"{y_label} (max={max_v:g})")
    return "\n".join(lines)


def _render_topology(
    positions: Dict[int, Tuple[float, float]],
    routes: Iterable[Tuple[int, int]] = (),
    width: int = 64,
    height: int = 18,
    labels: Dict[int, str] = None,
) -> str:
    """Render node positions (and optional next-hop arrows) as a map.

    ``routes`` is an iterable of (node, next_hop) pairs drawn as
    straight dotted lines — a Figure 3-style snapshot.
    """
    if not positions:
        return "(no nodes)"
    xs = [p[0] for p in positions.values()]
    ys = [p[1] for p in positions.values()]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0

    def cell(x: float, y: float) -> Tuple[int, int]:
        col = int((x - x0) / span_x * (width - 1))
        row = int((y1 - y) / span_y * (height - 1))
        return row, col

    grid = [[" "] * width for _ in range(height)]
    # dotted route lines first, node labels on top
    for a, b in routes:
        if a not in positions or b not in positions:
            continue
        (r1, c1), (r2, c2) = cell(*positions[a]), cell(*positions[b])
        steps = max(abs(r2 - r1), abs(c2 - c1), 1)
        for s in range(steps + 1):
            r = r1 + (r2 - r1) * s // steps
            c = c1 + (c2 - c1) * s // steps
            if grid[r][c] == " ":
                grid[r][c] = "."
    for node_id, pos in positions.items():
        r, c = cell(*pos)
        text = (labels or {}).get(node_id, str(node_id))
        for i, ch in enumerate(text):
            if c + i < width:
                grid[r][c + i] = ch
    border = "+" + "-" * width + "+"
    return "\n".join([border] + ["|" + "".join(row) + "|" for row in grid]
                     + [border])


def render_network_map(net) -> str:
    """Figure 3-style snapshot of a built Network's uplink routes."""
    positions = dict(net.medium.positions)
    routes = []
    for node_id in net.nodes:
        if node_id == net.border_id:
            continue
        try:
            nxt = net.routing.next_hop(node_id, net.border_id)
        except Exception:
            nxt = None
        if nxt is not None:
            routes.append((node_id, nxt))
    labels = {net.border_id: f"[{net.border_id}]"}
    for leaf in net.leaf_ids:
        labels[leaf] = f"({leaf})"
    return _render_topology(positions, routes, labels=labels)
