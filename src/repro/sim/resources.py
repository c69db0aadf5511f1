"""FIFO service stations.

Every pipeline stage of the simulated Fabric network (client, endorsing
peer, ordering service, validation pipeline) is a :class:`Server`: jobs
arrive, wait in FIFO order, occupy the server for a service time, and a
completion callback fires.  The server keeps busy-time and queue-wait
statistics so experiments can report utilization and locate bottlenecks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.sim.kernel import Kernel


@dataclass(slots=True)
class ServerStats:
    """Aggregate counters for one :class:`Server`."""

    jobs: int = 0
    busy_time: float = 0.0
    total_wait: float = 0.0
    max_queue: int = 0

    def utilization(self, horizon: float) -> float:
        """Fraction of ``horizon`` the server spent serving jobs."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)

    @property
    def mean_wait(self) -> float:
        """Average queue wait per job in seconds."""
        return self.total_wait / self.jobs if self.jobs else 0.0


class Server:
    """A single FIFO server bound to a :class:`Kernel`.

    ``submit`` enqueues a job; when the job *starts* service the optional
    ``on_start`` callback fires (used to snapshot world state at execution
    time), and when it *completes* the ``on_done`` callback fires.

    Two dynamic control knobs back the scenario engine's interventions
    (:mod:`repro.scenario`): ``enabled`` (a crashed component stops
    accepting new work; queued jobs drain) and ``service_multiplier``
    (a degraded component serves every *subsequent* job slower — jobs
    already queued keep the service time they were admitted with).
    """

    __slots__ = (
        "kernel",
        "name",
        "stats",
        "_busy_until",
        "_queue_len",
        "enabled",
        "_service_multiplier",
    )

    def __init__(self, kernel: Kernel, name: str) -> None:
        self.kernel = kernel
        self.name = name
        self.stats = ServerStats()
        self._busy_until = 0.0
        self._queue_len = 0
        self.enabled = True
        self._service_multiplier = 1.0

    @property
    def busy_until(self) -> float:
        """Earliest simulated time at which the server becomes idle."""
        return self._busy_until

    @property
    def service_multiplier(self) -> float:
        """Current service-time inflation factor (1.0 = nominal speed)."""
        return self._service_multiplier

    def set_service_multiplier(self, factor: float) -> None:
        """Inflate (or restore) the service time of subsequent jobs."""
        if factor <= 0:
            raise ValueError(f"service multiplier must be positive, got {factor!r}")
        self._service_multiplier = factor

    def queue_delay(self) -> float:
        """Wait a job submitted right now would incur before starting."""
        return max(0.0, self._busy_until - self.kernel.now)

    def submit(
        self,
        service_time: float,
        on_done: Callable[[float], None],
        on_start: Callable[[float], None] | None = None,
    ) -> float:
        """Enqueue a job; returns the completion time.

        Callbacks receive the simulated time at which they fire.  FIFO order
        is guaranteed because ``_busy_until`` advances monotonically with
        each submission.
        """
        if service_time < 0:
            raise ValueError(f"negative service time {service_time!r}")
        service_time *= self._service_multiplier
        kernel = self.kernel
        now = kernel.now
        # ``max(now, busy)`` without the builtin call: on a tie both pick
        # ``now``, so the start time is the same float.
        busy = self._busy_until
        start = busy if busy > now else now
        finish = start + service_time
        self._busy_until = finish

        stats = self.stats
        stats.jobs += 1
        stats.busy_time += service_time
        stats.total_wait += start - now
        queue_len = self._queue_len + 1
        self._queue_len = queue_len
        if queue_len > stats.max_queue:
            stats.max_queue = queue_len

        if on_start is not None:
            kernel.schedule(start, lambda: on_start(start))

        def _complete() -> None:
            self._queue_len -= 1
            on_done(finish)

        kernel.schedule(finish, _complete)
        return finish
