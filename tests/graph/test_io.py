"""Tests for graph readers/writers."""

import pytest

from repro.graph.adjacency import Graph
from repro.graph.io import (
    read_edge_list,
    relabel_compact,
    write_edge_list,
)

from conftest import make_random_graph


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        g = make_random_graph(20, 0.3, seed=5)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# SNAP header\n\n% konect header\n0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_header_written(self, tmp_path):
        g = Graph.from_edges([(0, 1)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path, header="synthetic analog\nseed=1")
        text = path.read_text()
        assert text.startswith("# synthetic analog\n# seed=1\n")
        assert read_edge_list(path).num_edges == 1

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("42\n")
        with pytest.raises(ValueError, match="malformed"):
            read_edge_list(path)

    def test_extra_columns_tolerated(self, tmp_path):
        # SNAP files sometimes carry weights/timestamps in extra columns.
        path = tmp_path / "g.txt"
        path.write_text("0 1 0.5\n1 2 0.9\n")
        assert read_edge_list(path).num_edges == 2


class TestRelabel:
    def test_compact_relabel(self):
        g = Graph.from_edges([(100, 7), (7, 55)])
        h, mapping = relabel_compact(g)
        assert sorted(h.vertices()) == [0, 1, 2]
        assert mapping == {7: 0, 55: 1, 100: 2}
        assert h.has_edge(mapping[100], mapping[7])
        assert h.num_edges == g.num_edges
