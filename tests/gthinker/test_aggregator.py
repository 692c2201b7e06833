"""Tests for the job-level MaxSetAggregator (the max-clique incumbent)."""

import threading

from repro.gthinker.aggregator import MaxSetAggregator


class TestAggregators:
    def test_max_set(self):
        agg = MaxSetAggregator()
        assert agg.offer({1})
        assert not agg.offer({2})  # equal size loses
        assert agg.offer({2, 3})
        assert agg.best() == {2, 3}
        assert agg.size == 2


class TestAggregatorEdgeCases:
    def test_max_set_accepts_any_iterable_once(self):
        agg = MaxSetAggregator()
        assert agg.offer(v for v in (1, 2, 3))  # a generator is fine
        assert agg.best() == {1, 2, 3}

    def test_max_set_under_contention_keeps_a_largest_set(self):
        agg = MaxSetAggregator()
        sizes = range(1, 40)

        def worker(offset):
            for k in sizes:
                agg.offer(range(offset, offset + k))

        threads = [threading.Thread(target=worker, args=(i * 100,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert agg.size == max(sizes)
