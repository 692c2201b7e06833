"""The work ledger: at-least-once lease bookkeeping for distributed work.

One implementation of the paper's coordination discipline, shared by
every distributed backend. A *lease* records work shipped to a worker:
the master reactor of the process and cluster backends leases work
units — spawn-vertex chunks and encoded-task batches — one member per
lease, attempts tracked per work id. The ledger itself is
parameterized by a member *key*, and a lease may carry several
members (a batch of tasks, attempts tracked per task id):

* **grant**    — a lease ships to a worker; every member's dispatch
  count bumps, and granting past ``max_attempts`` or past the
  per-worker ``lease_window`` is a programming error, not a policy
  decision, so the ledger refuses it;
* **complete** — the worker's result arrived; the lease retires and its
  members' attempt records drop. A completion for an unknown lease —
  or, when the caller identifies itself, for a lease now owned by a
  different worker — is a *stale at-least-once duplicate* and returns
  None so the caller can drop everything but the (idempotent)
  candidates;
* **reclaim**  — the worker died (EOF, a failed send, or heartbeat
  silence, which is how a wedged worker is caught); the members split
  into those to retry (dispatched fewer than ``max_attempts`` times)
  and those to quarantine as poisoned. A quarantined member is never
  granted again.

Conservation is the invariant everything hangs from: every member ever
granted is, at all times, exactly one of *leased*, *awaiting retry*
(its attempt record survives reclaim), *completed*, or *quarantined*.
:meth:`WorkLedger.check_invariants` asserts the ledger-internal part;
the stateful Hypothesis model in ``tests/gthinker/
test_property_stateful.py`` checks the whole cycle against an
in-memory model through both grant styles.

Single-owner by design: only the coordinating loop (the master
reactor, advanced from one thread by its TCP driver or by the
simulator) touches a ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, TypeVar

T = TypeVar("T")

__all__ = ["Lease", "WorkLedger"]


@dataclass
class Lease(Generic[T]):
    """One unit of leased work shipped to a worker, awaiting its result."""

    lease_id: int
    worker_id: int
    items: list[T]
    #: Highest per-member dispatch count in the lease at grant time (1-based).
    attempt: int
    keys: tuple[int, ...] = field(default_factory=tuple)


class WorkLedger(Generic[T]):
    """Coordinator-side ledger of work in flight to workers.

    Parameterized by ``key`` (member → stable int identity; attempts
    are counted per key) and ``size`` (member → task count, feeding the
    task-granular metrics the backends report). ``lease_window``, when
    set, caps concurrent leases per worker — pipelining without
    hoarding: a dead worker forfeits at most window × lease-size work.
    """

    def __init__(
        self,
        max_attempts: int,
        *,
        key: Callable[[T], int],
        size: Callable[[T], int] | None = None,
        lease_window: int | None = None,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if lease_window is not None and lease_window < 1:
            raise ValueError("lease_window must be >= 1")
        self.max_attempts = max_attempts
        self.lease_window = lease_window
        self._key = key
        self._size: Callable[[T], int] = size if size is not None else (lambda _item: 1)
        self._leases: dict[int, Lease[T]] = {}
        self._attempts: dict[int, int] = {}  # member key -> dispatch count
        self._open: dict[int, set[int]] = {}  # worker_id -> open lease ids
        self.tasks_completed = 0
        self.tasks_quarantined = 0
        self.quarantined_ids: list[int] = []

    # -- views -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._leases)

    def __bool__(self) -> bool:
        return bool(self._leases)

    @property
    def outstanding(self) -> set[int]:
        """Lease ids currently granted."""
        return set(self._leases)

    def get(self, lease_id: int) -> Lease[T] | None:
        return self._leases.get(lease_id)

    def key_of(self, item: T) -> int:
        return self._key(item)

    def size_of(self, item: T) -> int:
        return self._size(item)

    def leased_task_ids(self) -> set[int]:
        """Member keys currently under lease."""
        return {k for lease in self._leases.values() for k in lease.keys}

    def leased_task_count(self) -> int:
        return sum(len(lease.items) for lease in self._leases.values())

    def attempts(self, key: int) -> int:
        """Dispatch count of a live member (0 once completed/quarantined)."""
        return self._attempts.get(key, 0)

    def attempts_snapshot(self) -> dict[int, int]:
        return dict(self._attempts)

    def open_leases(self, worker_id: int) -> set[int]:
        """Ids of the leases `worker_id` currently holds."""
        return set(self._open.get(worker_id, ()))

    def open_count(self, worker_id: int) -> int:
        return len(self._open.get(worker_id, ()))

    def has_window(self, worker_id: int) -> bool:
        """True iff `worker_id` may be granted another lease."""
        if self.lease_window is None:
            return True
        return self.open_count(worker_id) < self.lease_window

    # -- lifecycle ---------------------------------------------------------

    def grant(
        self,
        lease_id: int,
        worker_id: int,
        items: list[T],
        *,
        enforce_window: bool = True,
    ) -> Lease[T]:
        """Record work shipping to `worker_id`; bumps per-member attempts.

        ``enforce_window=False`` lets a caller deliberately over-commit
        a worker's window — the cluster master does this when forwarding
        a steal grant, because a stolen batch must land on its planned
        recipient rather than wait in the pending pool it was stolen to
        escape.
        """
        if lease_id in self._leases:
            raise ValueError(f"lease {lease_id} is already granted")
        if enforce_window and not self.has_window(worker_id):
            raise ValueError(
                f"worker {worker_id} is at its lease window "
                f"({self.lease_window})"
            )
        attempt = 0
        keys = []
        for item in items:
            key = self._key(item)
            count = self._attempts.get(key, 0) + 1
            if count > self.max_attempts:
                raise ValueError(
                    f"member {key} granted beyond max_attempts={self.max_attempts}"
                )
            self._attempts[key] = count
            keys.append(key)
            attempt = max(attempt, count)
        lease = Lease(
            lease_id=lease_id,
            worker_id=worker_id,
            items=list(items),
            attempt=attempt,
            keys=tuple(keys),
        )
        self._leases[lease_id] = lease
        self._open.setdefault(worker_id, set()).add(lease_id)
        return lease

    def complete(self, lease_id: int, worker_id: int | None = None) -> Lease[T] | None:
        """Mark a lease's result received; None if it is stale.

        Stale means the lease was reclaimed earlier (unknown id) or —
        when the caller identifies itself — it has since been re-leased
        to a different worker. Either way the result is an
        at-least-once duplicate the caller must drop (candidates
        excepted: the sink deduplicates those).
        """
        lease = self._leases.get(lease_id)
        if lease is None:
            return None
        if worker_id is not None and lease.worker_id != worker_id:
            return None
        del self._leases[lease_id]
        self._open.get(lease.worker_id, set()).discard(lease_id)
        self.tasks_completed += sum(self._size(item) for item in lease.items)
        for key in lease.keys:
            self._attempts.pop(key, None)
        return lease

    def leases_for(self, worker_id: int) -> list[Lease[T]]:
        return [
            self._leases[lease_id]
            for lease_id in sorted(self._open.get(worker_id, ()))
            if lease_id in self._leases
        ]

    def reclaim(self, lease: Lease[T]) -> tuple[list[tuple[T, int]], list[tuple[T, int]]]:
        """Take back a failed lease; returns (to_retry, to_quarantine).

        Both lists pair each member with its dispatch count so far.
        Members at `max_attempts` are quarantined (counted once, dropped
        from the attempts ledger); the rest stay live for re-dispatch —
        their attempt records survive, so conservation holds while they
        sit in a retry queue.
        """
        if self._leases.pop(lease.lease_id, None) is None:
            return [], []
        self._open.get(lease.worker_id, set()).discard(lease.lease_id)
        retry: list[tuple[T, int]] = []
        quarantine: list[tuple[T, int]] = []
        for item in lease.items:
            key = self._key(item)
            count = self._attempts.get(key, 0)
            if count >= self.max_attempts:
                self._attempts.pop(key, None)
                self.tasks_quarantined += self._size(item)
                self.quarantined_ids.append(key)
                quarantine.append((item, count))
            else:
                retry.append((item, count))
        return retry, quarantine

    # -- invariants --------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert ledger-internal consistency (tests call this freely).

        Leased members always carry an attempt record in
        ``1..max_attempts``; the per-worker open sets partition exactly
        the outstanding leases; no quarantined key is ever live again.
        """
        open_ids = {lid for ids in self._open.values() for lid in ids}
        assert open_ids == set(self._leases), "open sets disagree with leases"
        # No window assertion here: enforce_window=False grants (steal
        # forwarding) may legitimately over-commit a worker.
        for lease in self._leases.values():
            for key in lease.keys:
                count = self._attempts.get(key, 0)
                assert 1 <= count <= self.max_attempts, (
                    f"leased member {key} has attempt count {count}"
                )
        live = set(self._attempts)
        assert not (live & set(self.quarantined_ids)), "quarantined key is live"
