"""Kernel event-trace goldens: the simulated program, event for event.

The run digests and figure goldens pin what a run *produced*; these pin
how the kernel got there.  Each golden holds ``events_processed`` and a
SHA-256 over the full ``(float.hex(time), priority, seq)`` trace of one
canonical input, so a host-cost optimisation that merges, drops, adds or
reorders a single kernel event — or nudges one timestamp by an ulp —
fails here even when every headline number happens to survive.

The three inputs cover the batch happy path, the fault/retry/controller
path and the streamed shard path:

* ``default_4k`` — the default synthetic workload, 4000 tx, seed 7;
* ``partial_outage_guardian`` — ``partial_outage`` at 800 tx with
  2-attempt retries and the ``guardian`` controller;
* ``shard_channel0`` — channel 0 of ``plan_shards("default",
  channels=4)`` at 2000 tx, run through the shard runner in stream mode.

The traces must match under either kernel tier (``REPRO_KERNEL``).

Regenerate after an intentional behaviour change::

    PYTHONPATH=src python tests/test_kernel_trace_golden.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

import repro.fabric.network as network_module
from repro.control.spec import ControlSpec
from repro.fabric.network import FabricNetwork
from repro.fabric.retry import RetryPolicy
from repro.scenario.library import get_scenario
from repro.shard import plan_shards
from repro.shard.runner import run_channel
from repro.workloads import ControlVariables, synthetic_workload

GOLDEN_DIR = Path(__file__).parent / "golden"


def trace_digest(trace) -> str:
    """SHA-256 over the ``(float.hex(time), priority, seq)`` lines of a trace."""
    sha = hashlib.sha256()
    for time, priority, seq in trace:
        sha.update(f"{float.hex(time)} {priority} {seq}\n".encode())
    return sha.hexdigest()


def _default_4k():
    config, deployment, requests = synthetic_workload(
        ControlVariables(total_transactions=4000, seed=7)
    )
    network = FabricNetwork(config, deployment.contracts)
    trace = network.kernel.enable_trace()
    network.run(requests)
    return network.kernel, trace


def _partial_outage_guardian():
    config, deployment, requests = synthetic_workload(
        ControlVariables(total_transactions=800, seed=7)
    )
    config.retry = RetryPolicy(max_attempts=2)
    config.control = ControlSpec(policy="guardian")
    network = FabricNetwork(
        config, deployment.contracts, scenario=get_scenario("partial_outage")
    )
    trace = network.kernel.enable_trace()
    network.run(requests)
    return network.kernel, trace


def _shard_channel0():
    plan = plan_shards("default", channels=4, total_transactions=2000, seed=7)
    built: list[FabricNetwork] = []

    class TracedNetwork(FabricNetwork):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.trace = self.kernel.enable_trace()
            built.append(self)

    original = network_module.FabricNetwork
    network_module.FabricNetwork = TracedNetwork
    try:
        run_channel(plan, plan.channels[0])
    finally:
        network_module.FabricNetwork = original
    (network,) = built
    return network.kernel, network.trace


#: Golden name -> traced run returning ``(kernel, trace)``.
CASES = {
    "default_4k": _default_4k,
    "partial_outage_guardian": _partial_outage_guardian,
    "shard_channel0": _shard_channel0,
}


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"kernel_trace__{name}.json"


def _record(name: str) -> dict:
    kernel, trace = CASES[name]()
    assert len(trace) == kernel.events_processed
    return {
        "case": name,
        "events_processed": kernel.events_processed,
        "trace_sha256": trace_digest(trace),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_trace_matches_golden(name):
    path = _golden_path(name)
    assert path.exists(), f"missing kernel-trace golden {path}"
    golden = json.loads(path.read_text())
    assert _record(name) == golden, (
        f"{name}: kernel event trace diverged from {path.name}; if the "
        "change is intentional, regenerate with "
        "`python tests/test_kernel_trace_golden.py --regenerate`"
    )


def test_trace_digest_is_sensitive_to_each_field():
    base = [(0.5, 0, 0), (1.0, -1, 1)]
    variants = [
        [(0.5, 0, 0), (1.0 + 2**-52, -1, 1)],
        [(0.5, 0, 0), (1.0, 0, 1)],
        [(0.5, 0, 0), (1.0, -1, 2)],
        [(1.0, -1, 1), (0.5, 0, 0)],
        base[:1],
    ]
    digests = {trace_digest(trace) for trace in variants}
    assert trace_digest(base) not in digests
    assert len(digests) == len(variants)


def regenerate() -> None:
    for name in sorted(CASES):
        path = _golden_path(name)
        path.write_text(json.dumps(_record(name), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate()
    else:
        sys.exit(pytest.main([__file__, "-q"]))
