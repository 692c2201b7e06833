"""Load generation for the service read path: a measurement tool only.

* :class:`LatencyHistogram` — log-bucket histogram (1% buckets) with
  percentile and sample-count accessors, the HdrHistogram shape.
* :func:`poisson_schedule` + :func:`run_open_loop` — seeded open-loop
  Poisson arrivals. A request is timed from when it was *due*, so the
  wait a stall imposes on later requests counts, and how late the
  generator itself ran is reported beside the latency.
* :func:`run_closed_loop` — one caller that waits for each reply.
"""

from __future__ import annotations

import math
import random
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field


class LatencyHistogram:
    """Counts of values (seconds) in geometric buckets of ratio 1.01."""

    LOWEST = 1e-7
    _LOG_RATIO = math.log(1.01)

    def __init__(self) -> None:
        self._buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0

    def record(self, value: float) -> None:
        index = int(math.log(max(value, self.LOWEST) / self.LOWEST) / self._LOG_RATIO)
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.total += value

    def merge(self, other: "LatencyHistogram") -> None:
        for index, n in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + n
        self.count += other.count
        self.total += other.total

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (0-100): the midpoint of its bucket."""
        if not self.count:
            raise ValueError("empty histogram")
        rank = max(1, math.ceil(self.count * p / 100.0))
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                return self.LOWEST * math.exp((index + 0.5) * self._LOG_RATIO)
        raise AssertionError("rank beyond the recorded count")

    def samples_beyond(self, p: float) -> int:
        """How many samples lie above percentile ``p``."""
        return self.count - max(1, math.ceil(self.count * p / 100.0))

    @property
    def mean(self) -> float:
        return self.total / self.count


def poisson_schedule(rate: float, duration: float, rng: random.Random) -> list[float]:
    """Arrival offsets (seconds) of a Poisson process of ``rate`` per second."""
    out: list[float] = []
    t = rng.expovariate(rate)
    while t < duration:
        out.append(t)
        t += rng.expovariate(rate)
    return out


@dataclass
class LoadResult:
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: Open loop only: send time minus due time.
    lateness: LatencyHistogram = field(default_factory=LatencyHistogram)
    sent: int = 0
    failed: int = 0
    elapsed: float = 0.0


def run_open_loop(
    make_sender: Callable[[], Callable[[object], bool]],
    requests: Sequence[object],
    schedule: Sequence[float],
    senders: int = 2,
) -> LoadResult:
    """Send ``requests[i]`` at ``schedule[i]`` from ``senders`` threads.

    ``make_sender`` runs once in each thread and returns that thread's
    ``send(request) -> ok`` (its own connection). Thread ``k`` owns the
    requests ``i ≡ k (mod senders)``; when one is still in flight at
    the next one's due time, the next is sent late and its latency
    still counts from the due time.
    """
    results = [LoadResult() for _ in range(senders)]
    errors: list[BaseException] = []
    origin = [0.0]

    def set_origin() -> None:  # runs once, when every sender is connected
        origin[0] = time.perf_counter() + 0.01

    barrier = threading.Barrier(senders, action=set_origin)

    def worker(k: int) -> None:
        try:
            send = make_sender()
            barrier.wait()
            out = results[k]
            for i in range(k, len(schedule), senders):
                due = origin[0] + schedule[i]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                started = time.perf_counter()
                ok = send(requests[i])
                done = time.perf_counter()
                out.sent += 1
                out.failed += not ok
                out.lateness.record(max(0.0, started - due))
                out.latency.record(done - due)
        except threading.BrokenBarrierError:
            pass  # another sender failed first
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(senders)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    total = LoadResult(elapsed=time.perf_counter() - origin[0])
    for r in results:
        total.latency.merge(r.latency)
        total.lateness.merge(r.lateness)
        total.sent += r.sent
        total.failed += r.failed
    return total


def run_closed_loop(
    send: Callable[[object], bool], requests: Sequence[object], start: int, duration: float
) -> tuple[LoadResult, int]:
    """Send ``requests`` from index ``start`` (wrapping) for ``duration`` seconds.

    Returns the result and the index after the last request sent.
    """
    out = LoadResult()
    n = len(requests)
    i = start
    begin = time.perf_counter()
    now = begin
    while now - begin < duration:
        ok = send(requests[i % n])
        done = time.perf_counter()
        out.latency.record(done - now)
        out.sent += 1
        out.failed += not ok
        now = done
        i += 1
    out.elapsed = now - begin
    return out, i
