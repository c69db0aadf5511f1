"""End-to-end walkthrough: author a scenario, run it, run the cached suite.

This is the runnable companion to ``docs/WALKTHROUGH.md``.  It goes
through the whole loop a contributor touches:

1. author a :class:`~repro.scenario.spec.ScenarioSpec` in code (and show
   its JSON form, which ``python -m repro scenario --spec`` accepts);
2. run the same workload steady-state and under the scenario, comparing
   headline numbers;
3. run a registry experiment through the cached suite executor twice,
   showing the warm re-run costs zero simulation runs.

Run with:  PYTHONPATH=src python examples/walkthrough.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.bench.cache import ResultCache
from repro.bench.executor import run_suite
from repro.bench.experiments import make_synthetic
from repro.bench.registry import select
from repro.fabric.network import run_workload
from repro.scenario import ScenarioSpec, run_scenario
from repro.scenario.spec import Intervention

TXS = 800


def step_1_author_scenario() -> ScenarioSpec:
    """A mid-run endorser brownout followed by an arrival burst."""
    scenario = ScenarioSpec(
        name="walkthrough_brownout",
        description="Org1 endorsers slow 6x mid-run, then a 2x arrival burst",
        interventions=(
            Intervention(
                kind="endorser_slowdown", at=1.5, duration=4.0, target="Org1", factor=6.0
            ),
            Intervention(kind="burst_arrivals", at=3.0, duration=2.5, factor=2.0),
        ),
    )
    print("=== 1. authored scenario (JSON, usable with `repro scenario --spec`) ===")
    print(scenario.to_json())
    return scenario


def step_2_run_scenario(scenario: ScenarioSpec) -> None:
    """Steady-state vs under-scenario headline numbers."""
    print("\n=== 2. steady-state vs under scenario ===")
    config, family, requests = make_synthetic(
        "default", seed=7, total_transactions=TXS
    )()
    deployment = family.deploy()
    _, steady = run_workload(config, deployment.contracts, requests)

    config, family, requests = make_synthetic(
        "default", seed=7, total_transactions=TXS
    )()
    deployment = family.deploy()
    network, faulted = run_scenario(scenario, config, deployment.contracts, requests)

    print(f"{'run':<16}{'tput(tps)':>10}{'lat(s)':>8}{'success%':>10}")
    for label, result in (("steady-state", steady), ("under scenario", faulted)):
        row = result.summary_row()
        print(
            f"{label:<16}{row['success_throughput_tps']:>10}"
            f"{row['avg_latency_s']:>8}{row['success_rate_pct']:>10}"
        )
    print("applied timeline:")
    for at, kind, detail in sorted(network.scenario_engine.timeline):
        print(f"  {at:8.3f}s  {kind:<24} {detail}")


def step_3_suite_with_cache(cache_dir: Path) -> None:
    """One registry experiment, cold then warm (cached) execution."""
    print("\n=== 3. suite executor + result cache ===")
    specs = [
        spec.with_overrides(total_transactions=TXS)
        for spec in select(["scenario_faults/crash_burst"])
    ]
    cache = ResultCache(cache_dir)
    cold = run_suite(specs, jobs=1, cache=cache)
    print(f"cold: {cold.summary()}")
    warm = run_suite(specs, jobs=1, cache=cache)
    print(f"warm: {warm.summary()}")
    assert warm.simulated_runs == 0, "warm cache must not simulate"
    for outcome in warm.outcomes:
        for row in outcome.rows:
            print(
                f"  {row.label:<24} tput={row.throughput:<7} "
                f"lat={row.latency:<6} success={row.success_pct}%"
            )


def main() -> None:
    """Run the three walkthrough steps in a temporary working directory."""
    scenario = step_1_author_scenario()
    step_2_run_scenario(scenario)
    with tempfile.TemporaryDirectory(prefix="repro-walkthrough-") as tmp:
        step_3_suite_with_cache(Path(tmp) / "cache")
    print("\nwalkthrough complete.")


if __name__ == "__main__":
    main()
