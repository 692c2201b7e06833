"""Tests for the Task abstraction and its serialization."""

import pytest

from repro.graph.adjacency import Graph
from repro.gthinker.task import ComputeOutcome, Task


class TestSerialization:
    def test_round_trip_pre_mining_task(self):
        t = Task(
            task_id=7,
            root=3,
            iteration=1,
            s=[3],
            building={3: {4, 5}},
            pulls=[4, 5],
        )
        back = Task.decode(t.encode())
        assert back.task_id == 7
        assert back.root == 3
        assert back.building == {3: {4, 5}}
        assert back.pulls == [4, 5]

    def test_round_trip_mining_task_with_graph(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        t = Task(task_id=1, root=0, iteration=3, s=[0], ext=[1, 2], graph=g)
        back = Task.decode(t.encode())
        assert back.graph == g
        assert back.ext == [1, 2]
        assert back.iteration == 3

    def test_round_trip_mining_task_with_domain(self):
        from repro.core.domain import TaskDomain

        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        d = TaskDomain.from_graph(g)
        t = Task(task_id=2, root=0, iteration=3, s=[0], ext=[1, 2, 3], domain=d)
        back = Task.decode(t.encode())
        assert back.domain == d
        assert back.graph is None

    def test_domain_task_encodes_smaller_than_graph_task(self):
        from repro.core.domain import TaskDomain

        g = Graph.from_edges(
            [(u, v) for u in range(30) for v in range(u + 1, 30) if (u + v) % 3]
        )
        ext = sorted(set(g.vertices()) - {0})
        with_graph = Task(task_id=1, root=0, iteration=3, s=[0], ext=ext, graph=g)
        with_domain = Task(
            task_id=1, root=0, iteration=3, s=[0], ext=ext,
            domain=TaskDomain.from_graph(g),
        )
        assert len(with_domain.encode()) < len(with_graph.encode())

    def test_decode_rejects_non_task(self):
        import pickle

        with pytest.raises(TypeError):
            Task.decode(pickle.dumps({"not": "a task"}))


class TestIsBig:
    def test_iteration3_uses_ext(self):
        t = Task(task_id=0, root=0, iteration=3, s=[0], ext=list(range(10)))
        assert t.is_big(tau_split=9)
        assert not t.is_big(tau_split=10)

    def test_pre_mining_uses_pull_scope(self):
        t = Task(task_id=0, root=0, iteration=1, pulls=list(range(20)),
                 building={0: set(range(20))})
        assert t.is_big(tau_split=19)
        assert not t.is_big(tau_split=20)

    def test_pre_mining_uses_building_scope(self):
        t = Task(
            task_id=0, root=0, iteration=2, pulls=[],
            building={i: set() for i in range(15)},
        )
        assert t.is_big(tau_split=10)
        assert not t.is_big(tau_split=15)


class TestComputeOutcome:
    def test_continues_property(self):
        assert ComputeOutcome(finished=False).continues
        assert not ComputeOutcome(finished=True).continues
