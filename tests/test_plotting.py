"""Text-rendering utilities."""

from repro.experiments.plotting import (
    _render_topology,
    render_network_map,
    render_series,
)
from repro.experiments.topology import build_testbed


class TestRenderSeries:
    def test_fills_area_under_steps(self):
        out = render_series([(0, 1.0), (5, 0.5), (10, 1.0)],
                            width=20, height=6)
        lines = out.splitlines()
        assert any("#" in line for line in lines)
        # bottom row fully filled (values always > 0)
        assert lines[-3].count("#") == 20

    def test_empty(self):
        assert render_series([]) == "(empty series)"

    def test_label_header(self):
        out = render_series([(0, 2.0)], y_label="cwnd")
        assert out.splitlines()[0].startswith("cwnd")

    def test_constant_series_is_flat_top(self):
        out = render_series([(0, 3.0), (10, 3.0)], width=10, height=4)
        top_row = out.splitlines()[0]
        assert top_row.count("#") == 10


class TestRenderTopology:
    def test_nodes_and_routes_drawn(self):
        out = _render_topology(
            {1: (0.0, 0.0), 2: (10.0, 0.0)},
            routes=[(2, 1)],
            width=30, height=5,
        )
        assert "1" in out and "2" in out
        assert "." in out  # the route line

    def test_empty(self):
        assert _render_topology({}) == "(no nodes)"

    def test_network_map_shows_border_and_leaves(self):
        net = build_testbed(seed=1, sleepy_leaves=False)
        out = render_network_map(net)
        assert "[1]" in out  # border router
        assert "(12)" in out  # a leaf
        assert "." in out  # uplink routes
