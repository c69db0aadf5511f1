"""Block-cut scheduler goldens: the order *inside* each reordered block.

The kernel-trace goldens (``tests/test_kernel_trace_golden.py``) never
run Fabric++ or FabricSharp, and their one guardian run never turns the
``reorder`` mitigation on.  These goldens pin runs in which a
:mod:`repro.fabric.reorder` scheduler decides every cut block, so a
scheduler change that permutes a block, picks another cycle victim or
early-aborts another transaction fails here.  Each golden holds the
run digest (:func:`~repro.scenario.engine.run_digest`: every tx's
status, block and commit time), ``events_processed`` and the kernel
event-trace SHA-256, plus how often the scheduler ran and what it
aborted.

The three inputs:

* ``rolling_contention_guardian`` — ``rolling_contention`` at 4000 tx,
  seed 7, with 2-attempt retries and the ``guardian`` controller, which
  switches the conflict-aware ``reorder`` scheduler on;
* ``fabricpp`` — the synthetic workload under ``scheduler="fabricpp"``
  with a skewed key distribution, so dependency cycles abort;
* ``fabricsharp`` — ``scheduler="fabricsharp"`` with small blocks and
  skewed endorsers, so some reads are stale at ordering time.

Regenerate after an intentional behaviour change::

    PYTHONPATH=src python tests/test_reorder_golden.py --regenerate
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from test_kernel_trace_golden import trace_digest

from repro.control.spec import ControlSpec
from repro.fabric.network import FabricNetwork
from repro.fabric.reorder import ConflictAwareScheduler, FabricPlusPlusScheduler
from repro.fabric.retry import RetryPolicy
from repro.scenario.engine import run_digest
from repro.scenario.library import get_scenario
from repro.workloads import ControlVariables, WorkloadType, synthetic_workload

GOLDEN_DIR = Path(__file__).parent / "golden"


@contextmanager
def _counting(cls):
    """Count ``cls.schedule`` calls and the transactions they abort."""
    counts = {"calls": 0, "aborts": 0}
    original = cls.schedule

    def schedule(self, batch):
        ordered, aborted = original(self, batch)
        counts["calls"] += 1
        counts["aborts"] += len(aborted)
        return ordered, aborted

    cls.schedule = schedule
    try:
        yield counts
    finally:
        cls.schedule = original


def _run(config, contracts, requests, scenario=None):
    network = FabricNetwork(config, contracts, scenario=scenario)
    trace = network.kernel.enable_trace()
    network.run(requests)
    ordering_aborts = sum(tx.abort_stage == "ordering" for tx in network.aborted)
    return network, trace, ordering_aborts


def _rolling_contention_guardian():
    config, deployment, requests = synthetic_workload(
        ControlVariables(total_transactions=4000, seed=7)
    )
    config.retry = RetryPolicy(max_attempts=2)
    config.control = ControlSpec(policy="guardian")
    with _counting(ConflictAwareScheduler) as counts:
        network, trace, ordering_aborts = _run(
            config,
            deployment.contracts,
            requests,
            scenario=get_scenario("rolling_contention"),
        )
    assert ordering_aborts == counts["aborts"] == 0
    return network, trace, {"reorder_cuts": counts["calls"]}


def _fabricpp():
    config, deployment, requests = synthetic_workload(
        ControlVariables(
            total_transactions=1500,
            seed=7,
            scheduler="fabricpp",
            block_count=100,
            send_rate=500,
            key_dist_skew=2.0,
        )
    )
    with _counting(FabricPlusPlusScheduler) as counts:
        network, trace, ordering_aborts = _run(config, deployment.contracts, requests)
    assert ordering_aborts == counts["aborts"]
    return network, trace, {"cuts": counts["calls"], "cycle_aborts": counts["aborts"]}


def _fabricsharp():
    config, deployment, requests = synthetic_workload(
        ControlVariables(
            total_transactions=1000,
            seed=7,
            scheduler="fabricsharp",
            block_count=20,
            send_rate=2000,
            key_dist_skew=2.0,
            workload_type=WorkloadType.UPDATE_HEAVY,
            num_orgs=4,
            endorser_dist_skew=0.5,
        )
    )
    # FabricSharp orders its fresh transactions with an inner Fabric++
    # scheduler; whatever that does not abort was aborted as stale.
    with _counting(FabricPlusPlusScheduler) as counts:
        network, trace, ordering_aborts = _run(config, deployment.contracts, requests)
    return network, trace, {
        "cuts": counts["calls"],
        "cycle_aborts": counts["aborts"],
        "stale_aborts": ordering_aborts - counts["aborts"],
    }


#: Golden name -> run returning ``(network, trace, scheduler counters)``.
CASES = {
    "rolling_contention_guardian": _rolling_contention_guardian,
    "fabricpp": _fabricpp,
    "fabricsharp": _fabricsharp,
}


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"reorder__{name}.json"


def _record(name: str) -> dict:
    network, trace, counters = CASES[name]()
    return {
        "case": name,
        "run_digest": run_digest(network),
        "events_processed": network.kernel.events_processed,
        "trace_sha256": trace_digest(trace),
        **counters,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_reorder_run_matches_golden(name):
    path = _golden_path(name)
    assert path.exists(), f"missing reorder golden {path}"
    golden = json.loads(path.read_text())
    assert _record(name) == golden, (
        f"{name}: scheduled run diverged from {path.name}; if the change is "
        "intentional, regenerate with "
        "`python tests/test_reorder_golden.py --regenerate`"
    )


def test_goldens_exercise_the_schedulers():
    """Each golden covers the scheduler path it exists for."""
    records = {
        name: json.loads(_golden_path(name).read_text()) for name in sorted(CASES)
    }
    assert records["rolling_contention_guardian"]["reorder_cuts"] > 0
    assert records["fabricpp"]["cycle_aborts"] > 0
    assert records["fabricsharp"]["stale_aborts"] > 0
    assert records["fabricsharp"]["cycle_aborts"] > 0


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
