"""Hypothesis property tests for Task serialization and routing."""

import itertools
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.adjacency import Graph
from repro.gthinker.task import Task


@st.composite
def tasks(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    root = draw(st.integers(min_value=0, max_value=n - 1))
    s = sorted(draw(st.sets(st.integers(min_value=0, max_value=n), max_size=5)) | {root})
    ext = sorted(draw(st.sets(st.integers(min_value=0, max_value=n), max_size=10)))
    iteration = draw(st.sampled_from([1, 2, 3]))
    building = None
    if iteration < 3:
        building = {root: set(ext)}
    return Task(
        task_id=draw(st.integers(min_value=0, max_value=10_000)),
        root=root,
        iteration=iteration,
        s=s,
        ext=ext,
        building=building,
        pulls=list(ext),
        generation=draw(st.integers(min_value=0, max_value=5)),
    )


@given(task=tasks())
@settings(max_examples=80, deadline=None)
def test_encode_decode_round_trip(task):
    back = Task.decode(task.encode())
    assert back.task_id == task.task_id
    assert back.root == task.root
    assert back.iteration == task.iteration
    assert back.s == task.s
    assert back.ext == task.ext
    assert back.building == task.building
    assert back.pulls == task.pulls
    assert back.generation == task.generation


@given(task=tasks(), tau=st.integers(min_value=0, max_value=40))
@settings(max_examples=80, deadline=None)
def test_is_big_monotone_in_tau(task, tau):
    # Raising the threshold can only demote tasks from big to small.
    if task.is_big(tau + 1):
        assert task.is_big(tau)


@given(task=tasks())
@settings(max_examples=40, deadline=None)
def test_round_trip_preserves_bigness(task):
    back = Task.decode(task.encode())
    for tau in (0, 3, 10, 100):
        assert back.is_big(tau) == task.is_big(tau)


@st.composite
def big_remainder_tasks(draw):
    """Iteration-3 tasks carrying a materialized subgraph — the shape a
    time-delayed decomposition remainder has when the process backend
    ships it from a worker back to the parent scheduler."""
    n = draw(st.integers(min_value=4, max_value=16))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = Graph.from_edges(
        [p for p, keep in zip(pairs, mask) if keep], vertices=range(n)
    )
    root = draw(st.integers(min_value=0, max_value=n - 1))
    s = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=4)) | {root})
    ext = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)))
    return Task(
        task_id=draw(st.integers(min_value=0, max_value=10_000)),
        root=root,
        iteration=3,
        s=s,
        ext=ext,
        graph=graph,
        generation=draw(st.integers(min_value=1, max_value=5)),
    )


@given(task=big_remainder_tasks())
@settings(max_examples=40, deadline=None)
def test_big_remainder_pickle_round_trip(task):
    """The process backend moves tasks with plain pickle over queues;
    a partially-mined remainder must survive with its subgraph intact."""
    for back in (Task.decode(task.encode()), pickle.loads(pickle.dumps(task))):
        assert back.task_id == task.task_id
        assert back.root == task.root
        assert back.iteration == 3
        assert back.s == task.s
        assert back.ext == task.ext
        assert back.generation == task.generation
        assert back.graph == task.graph
        assert back.graph is not task.graph
        assert back.graph.num_edges == task.graph.num_edges
        for v in back.graph.vertices():
            assert sorted(back.graph.neighbors(v)) == sorted(task.graph.neighbors(v))
