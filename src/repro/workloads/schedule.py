"""Send schedules and workload transforms.

Submit-time helpers (constant and phased rates) plus the two transforms
the optimization applier uses on existing workloads:

* :func:`cap_rate` — the paper's *transaction rate control* setting
  ("set send rate to 100 TPS"): requests keep their order but are spaced
  at least ``1/max_rate`` apart.
* :func:`reorder_requests` — the paper's *activity reordering* setting
  ("reorder workload generation"): the identified activities are moved to
  the front or back of the sequence while the original submit-time grid is
  reused, so the send rate is untouched and only the order changes.
"""

from __future__ import annotations

from repro.fabric.transaction import TxRequest


def constant_rate_times(count: int, rate: float, start: float = 0.0) -> list[float]:
    """``count`` submit times at a constant ``rate`` (tx/s)."""
    if count < 0:
        raise ValueError(f"negative count {count}")
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return [start + index / rate for index in range(count)]


def piecewise_rate_times(
    count: int, profile: list[tuple[float, float]], start: float = 0.0
) -> list[float]:
    """``count`` submit times following a duration-based rate profile.

    ``profile`` is a list of ``(duration_seconds, rate_tps)`` segments;
    the *last* segment's rate extends indefinitely so any ``count`` can be
    satisfied.  This is the duration-keyed complement of
    :func:`phased_times` (which is count-keyed) and the natural way to
    express dynamic traffic — e.g. "300 TPS for 5 s, a 900 TPS burst for
    2 s, then back to 300".
    """
    if count < 0:
        raise ValueError(f"negative count {count}")
    if not profile:
        raise ValueError("profile needs at least one (duration, rate) segment")
    for duration, rate in profile:
        if duration <= 0:
            raise ValueError(f"segment duration must be positive, got {duration}")
        if rate <= 0:
            raise ValueError(f"segment rate must be positive, got {rate}")
    times: list[float] = []
    clock = start
    for index, (duration, rate) in enumerate(profile):
        last = index == len(profile) - 1
        segment_end = clock + duration
        while len(times) < count and (clock < segment_end or last):
            times.append(clock)
            clock += 1.0 / rate
        if len(times) == count:
            return times
        clock = segment_end
    return times


def compress_window(
    requests: list[TxRequest], start: float, duration: float, factor: float
) -> list[TxRequest]:
    """Burst transform: arrivals inside ``[start, start+duration)`` are
    re-timed to arrive ``factor`` times faster (compressed toward
    ``start``), leaving every other request untouched.

    The warp is monotone — compressed times never overtake the requests
    after the window — so order is preserved: a traffic burst followed by
    a lull, total transaction count unchanged.  This is how the scenario
    engine's ``burst_arrivals`` intervention reshapes any base workload
    without knowing its contract.
    """
    if duration <= 0:
        raise ValueError(f"burst duration must be positive, got {duration}")
    if factor <= 1.0:
        raise ValueError(f"burst factor must exceed 1, got {factor}")
    end = start + duration
    out: list[TxRequest] = []
    for request in requests:
        time = request.submit_time
        if start <= time < end:
            time = start + (time - start) / factor
        out.append(
            TxRequest(
                submit_time=time,
                activity=request.activity,
                args=request.args,
                contract=request.contract,
                invoker_org=request.invoker_org,
            )
        )
    return out


def phased_times(phases: list[tuple[int, float]], start: float = 0.0) -> list[float]:
    """Submit times for consecutive (count, rate) phases.

    Reproduces schedules like the digital-voting workload (1,000 queries at
    100 TPS, then 5,000 votes at 300 TPS) and the "Send rate: 500, 1000"
    synthetic experiments.
    """
    times: list[float] = []
    clock = start
    for count, rate in phases:
        times.extend(constant_rate_times(count, rate, start=clock))
        if count:
            clock = times[-1] + 1.0 / rate
    return times


def cap_rate(requests: list[TxRequest], max_rate: float) -> list[TxRequest]:
    """Re-time ``requests`` so the send rate never exceeds ``max_rate``.

    Order is preserved; a request is only ever delayed, never advanced.
    """
    if max_rate <= 0:
        raise ValueError(f"max_rate must be positive, got {max_rate}")
    spacing = 1.0 / max_rate
    ordered = sorted(requests, key=lambda r: r.submit_time)
    out: list[TxRequest] = []
    next_allowed = 0.0
    for request in ordered:
        time = max(request.submit_time, next_allowed)
        out.append(
            TxRequest(
                submit_time=time,
                activity=request.activity,
                args=request.args,
                contract=request.contract,
                invoker_org=request.invoker_org,
            )
        )
        next_allowed = time + spacing
    return out


def reorder_requests(
    requests: list[TxRequest],
    front_activities: frozenset[str] | set[str] = frozenset(),
    back_activities: frozenset[str] | set[str] = frozenset(),
) -> list[TxRequest]:
    """Move given activities to the front/back of the submission sequence.

    The multiset of submit times is kept identical — requests are permuted
    onto the same time grid — so throughput comparisons isolate the effect
    of *order*, exactly like the paper's client-manager reordering.
    """
    overlap = set(front_activities) & set(back_activities)
    if overlap:
        raise ValueError(f"activities cannot be both front and back: {sorted(overlap)}")
    ordered = sorted(requests, key=lambda r: r.submit_time)
    times = [request.submit_time for request in ordered]
    front = [r for r in ordered if r.activity in front_activities]
    middle = [
        r
        for r in ordered
        if r.activity not in front_activities and r.activity not in back_activities
    ]
    back = [r for r in ordered if r.activity in back_activities]
    permuted = front + middle + back
    return [
        TxRequest(
            submit_time=time,
            activity=request.activity,
            args=request.args,
            contract=request.contract,
            invoker_org=request.invoker_org,
        )
        for time, request in zip(times, permuted)
    ]
