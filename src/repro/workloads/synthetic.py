"""Synthetic genChain workload generator (Table 2).

Generates ``total_transactions`` genChain invocations with the requested
activity mix, Zipf key skew, send schedule and invoker skew.  *Inserts*
(the ``write`` activity) target fresh, never-before-seen keys interleaved
into the prepopulated key range so that range reads observe membership
changes — the source of phantom read conflicts in insert-heavy runs.
"""

from __future__ import annotations

from repro.contracts.registry import ContractDeployment, genchain_family
from repro.fabric.config import NetworkConfig
from repro.fabric.transaction import TxRequest
from repro.sim.rng import PREFETCH_BLOCK, SimRng, WeightedSampler, zipf_weights
from repro.workloads.schedule import (
    constant_rate_times,
    phased_times,
    piecewise_rate_times,
)
from repro.workloads.spec import ControlVariables, GENCHAIN_ACTIVITIES, type_mix

#: Width (in key ranks) of each range_read window.
RANGE_WINDOW = 12


def zipf_exponent(key_dist_skew: float) -> float:
    """Map Table 2's key-skew *labels* (1, 2) to Zipf exponents.

    The paper's generator takes skew levels 1 and 2 whose exact semantics
    are not published; we map level ``k`` to exponent ``k - 1`` so level 1
    (the default) is a uniform key choice and level 2 a Zipf(1) hot-key
    distribution — reproducing that hotkeys are only detected in the
    key-skew-2 experiment (Table 3, experiment 8).
    """
    if key_dist_skew < 1.0:
        raise ValueError(f"key_dist_skew is a Table 2 label >= 1, got {key_dist_skew}")
    return key_dist_skew - 1.0


def _submit_times(spec: ControlVariables) -> list[float]:
    if spec.send_rate_profile is not None:
        return piecewise_rate_times(spec.total_transactions, spec.send_rate_profile)
    if spec.send_rate_phases is not None:
        times = phased_times(spec.send_rate_phases)
        if len(times) != spec.total_transactions:
            raise ValueError(
                f"phases cover {len(times)} transactions, "
                f"spec expects {spec.total_transactions}"
            )
        return times
    return constant_rate_times(spec.total_transactions, spec.send_rate)


def _submit_time_stream(spec: ControlVariables):
    """Submit times one at a time, identical to ``_submit_times``.

    Phased/profiled schedules are inherently precomputed (their closed
    forms need the whole phase table); the constant-rate default — the
    only schedule that matters at million-transaction scale — is O(1).
    """
    if spec.send_rate_profile is not None or spec.send_rate_phases is not None:
        yield from _submit_times(spec)
        return
    rate = spec.send_rate
    for index in range(spec.total_transactions):
        yield index / rate


def _invoker_org_stream(spec: ControlVariables, rng: SimRng):
    """Invoker pinning per transaction distribution skew, one at a time.

    With skew ``s``, a transaction goes to Org1 with probability ``s`` and
    round-robins otherwise; ``s == 0`` leaves everything on round-robin.
    Draws come from the dedicated ``tx-dist-skew`` stream, so interleaving
    them with the activity/key draws changes nothing.
    """
    if spec.tx_dist_skew == 0.0:
        for _ in range(spec.total_transactions):
            yield None
        return
    stream = rng.stream("tx-dist-skew")
    others = [f"Org{i}" for i in range(2, spec.num_orgs + 1)]
    for _ in range(spec.total_transactions):
        if stream.random() < spec.tx_dist_skew:
            yield "Org1"
        else:
            yield others[int(stream.integers(0, len(others)))] if others else "Org1"


def _invoker_orgs(spec: ControlVariables, rng: SimRng) -> list[str | None]:
    """Batch form of :func:`_invoker_org_stream` (kept for tests)."""
    return list(_invoker_org_stream(spec, rng))


def iter_synthetic_requests(spec: ControlVariables, contract_name: str):
    """Yield the spec's requests one at a time, in submit order.

    The streaming core of :func:`synthetic_workload`: identical draws on
    identical named RNG streams, so ``list(iter_synthetic_requests(...))``
    equals the batch request list bit for bit — but a constant-rate
    workload needs O(1) memory regardless of ``total_transactions``,
    which is what :meth:`FabricNetwork.run_streamed` pumps from.
    """
    rng = SimRng(spec.seed)
    mix = type_mix(spec.workload_type)
    activities = list(GENCHAIN_ACTIVITIES)
    weights = [mix[activity] for activity in activities]

    times = _submit_time_stream(spec)
    invokers = _invoker_org_stream(spec, rng)
    # Each named stream below is drawn by exactly one sampler, built here on
    # this generator's own SimRng, so the samplers may prefetch: the draws
    # are bit-identical to scalar ones (see WeightedSampler).
    activity_sampler = WeightedSampler(
        rng.stream("activity-mix"), weights, prefetch=PREFETCH_BLOCK
    )
    exponent = zipf_exponent(spec.key_dist_skew)
    key_samplers: dict[str, WeightedSampler] = {}

    def key_rank(stream: str) -> int:
        sampler = key_samplers.get(stream)
        if sampler is None:
            sampler = key_samplers[stream] = WeightedSampler(
                rng.stream(stream),
                zipf_weights(spec.num_keys, exponent),
                prefetch=PREFETCH_BLOCK,
            )
        return sampler.draw()

    insert_counter = 0
    for index in range(spec.total_transactions):
        activity = activities[activity_sampler.draw()]
        if activity == "write":
            # Inserts: fresh keys interleaved into the existing key space so
            # range windows see new members (phantoms).
            rank = key_rank("insert-rank")
            args: tuple = (f"key{rank:06d}x{insert_counter:06d}", index)
            insert_counter += 1
        elif activity == "range_read":
            start = key_rank("range-start")
            end = min(start + RANGE_WINDOW, spec.num_keys)
            args = (f"key{start:06d}", f"key{end:06d}")
        elif activity == "update":
            rank = key_rank(f"key-{activity}")
            args = (f"key{rank:06d}", index)
        else:
            rank = key_rank(f"key-{activity}")
            args = (f"key{rank:06d}",)
        yield TxRequest(
            submit_time=next(times),
            activity=activity,
            args=args,
            contract=contract_name,
            invoker_org=next(invokers),
        )


def synthetic_workload(
    spec: ControlVariables,
) -> tuple[NetworkConfig, ContractDeployment, list[TxRequest]]:
    """Generate one synthetic experiment's network, contracts and requests."""
    family = genchain_family(num_keys=spec.num_keys)
    deployment = family.deploy()
    contract_name = deployment.contracts[0].name
    requests = list(iter_synthetic_requests(spec, contract_name))
    return spec.to_network_config(), deployment, requests
