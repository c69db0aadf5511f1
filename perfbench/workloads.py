"""The benchmark's three workloads, built only from the package's public API.

Each workload builds its inputs once from a seed (:meth:`__init__` is the
timed set-up) and then runs one *iteration* per :meth:`iterate` call —
iterations run back to back in a closed loop, while inside each simulated
run arrivals follow the workload's open-loop schedule at its fixed
simulated send rate.  An iteration returns an :class:`Iteration`: a
digest over every simulated output (which must repeat exactly for a
fixed seed), the simulated headline numbers, the host time spent in the
calls that drive the kernel, and the materialized networks whose
committed history the benchmark re-verifies outside the timed region.

Inputs come from ``repro.workloads``, ``repro.contracts``,
``repro.scenario.library``, ``repro.control.spec`` and ``repro.shard``,
the way the bench registry's makers build them — never from the bench
harness, its executor, ``repro.bench.perf`` or ``repro.sim.batch`` — and
no kernel tier is selected, so the program's default path is measured.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean
from time import perf_counter

import repro.analysis.forensics as forensics
import repro.core.apply as core_apply
from repro.analysis.forensics import report_digest
from repro.contracts.registry import drm_family, ehr_family, scm_family, voting_family
from repro.control.spec import ControlSpec
from repro.core.recommender import BlockOptR
from repro.fabric.network import run_workload
from repro.fabric.retry import RetryPolicy
from repro.scenario.library import get_scenario
from repro.shard import plan_shards, run_sharded
from repro.workloads import ControlVariables, synthetic_workload
from repro.workloads.usecases import (
    UseCaseSpec,
    drm_workload,
    ehr_workload,
    scm_workload,
    voting_workload,
)

#: Committed goldens of the repository's own test suite.
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"


@dataclass
class Iteration:
    """Everything one iteration produced."""

    #: SHA-256 over the canonical JSON of every simulated output.
    digest: str
    #: Simulated headline numbers (deterministic for a fixed seed).
    sim: dict[str, float]
    #: Simulated transactions finished (committed + aborted, retries included).
    finished: int
    #: Host seconds inside the calls that drive the kernel.
    kernel_s: float
    #: Host seconds in ``BlockOptR.analyze_network`` (recommend_loop only).
    analyze_s: float | None = None
    #: Values a committed golden may pin for this input.
    pins: dict = field(default_factory=dict)
    #: Networks with a materialized ledger, for the serializability check.
    materialized: list = field(default_factory=list)


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _run_summary(result) -> dict:
    """Every simulated number of a :class:`~repro.fabric.results.RunResult`."""
    return {
        "total_issued": result.total_issued,
        "success_count": result.success_count,
        "failure_counts": result.failure_counts,
        "makespan": result.makespan,
        "success_throughput": result.success_throughput,
        "avg_latency": result.avg_latency,
        "p95_latency": result.p95_latency,
        "success_rate": result.success_rate,
        "blocks": result.blocks,
        "avg_block_size": result.avg_block_size,
        "cut_reasons": result.cut_reasons,
        "utilization": result.utilization,
        "early_aborts": result.early_aborts,
    }


def p95_supported(result) -> bool:
    """True when at least ten latency samples lie beyond the run's p95."""
    n = result.success_count
    return n > 0 and (n - 1) - int(0.95 * (n - 1)) >= 10


def _headline(results) -> dict[str, float]:
    """Mean success rate and latencies over ``results`` (p95 where exposed)."""
    sim = {
        "success_pct": fmean(r.success_rate * 100.0 for r in results),
        "latency_avg_s": fmean(r.avg_latency for r in results),
    }
    if all(p95_supported(r) for r in results):
        sim["latency_p95_s"] = fmean(r.p95_latency for r in results)
    return sim


def _timed_run(config, contracts, requests, scenario=None):
    start = perf_counter()
    network, result = run_workload(config, contracts, requests, scenario=scenario)
    return network, result, perf_counter() - start


def _scaled(paper_count: int, total: int) -> int:
    """A per-10,000-transaction count of the paper at budget ``total``."""
    return max(100, round(paper_count * total / 10_000))


class RecommendLoop:
    """The paper's Figure 5 loop on SCM, DRM, EHR and voting (Figs. 13-16).

    Per use case: baseline run with a materialized ledger, BlockOptR's
    ``analyze_network``, ``apply_recommendations`` with exactly what it
    recommended, and the optimized re-run.
    """

    name = "recommend_loop"
    sizes = {"full": 4000, "tiny": 300}
    use_cases = ("scm", "drm", "ehr", "voting")

    def __init__(self, seed: int, transactions: int) -> None:
        self.seed = seed
        self.transactions = transactions
        self.cases = []
        for use_case in self.use_cases:
            spec = UseCaseSpec(total_transactions=transactions, seed=seed)
            if use_case == "scm":
                config, _, requests = scm_workload(spec)
                family = scm_family()
            elif use_case == "drm":
                config, _, requests = drm_workload(spec)
                family = drm_family()
            elif use_case == "ehr":
                config, _, requests = ehr_workload(spec)
                family = ehr_family()
            else:
                config, _, requests = voting_workload(
                    spec,
                    query_count=_scaled(1000, transactions),
                    vote_count=_scaled(5000, transactions),
                )
                family = voting_family()
            self.cases.append((use_case, config, family, family.deploy(), requests))

    def iterate(self) -> Iteration:
        payload = {}
        baselines, optimized, networks = [], [], []
        kernel_s = analyze_s = 0.0
        finished = 0
        for use_case, config, family, deployment, requests in self.cases:
            network, base, elapsed = _timed_run(config, deployment.contracts, requests)
            kernel_s += elapsed
            start = perf_counter()
            report = BlockOptR().analyze_network(network)
            analyze_s += perf_counter() - start
            applied = core_apply.apply_recommendations(
                report.recommendations, config, family, requests
            )
            opt_network, opt, elapsed = _timed_run(
                applied.config, applied.deployment.contracts, applied.requests
            )
            kernel_s += elapsed
            finished += base.total_issued + opt.total_issued
            baselines.append(base)
            optimized.append(opt)
            networks += [network, opt_network]
            payload[use_case] = {
                "baseline": _run_summary(base),
                "recommended": [
                    [rec.kind.value, sorted(rec.actions.items())]
                    for rec in report.recommendations
                ],
                "applied": [kind.value for kind in applied.applied],
                "skipped": [kind.value for kind in applied.skipped],
                "optimized": _run_summary(opt),
            }
        sim = _headline(baselines)
        sim["opt_success_gain_pp"] = fmean(
            (o.success_rate - b.success_rate) * 100.0 for b, o in zip(baselines, optimized)
        )
        sim["opt_latency_cut_pct"] = fmean(
            (b.avg_latency - o.avg_latency) / b.avg_latency * 100.0
            for b, o in zip(baselines, optimized)
        )
        return Iteration(
            digest=_digest(payload),
            sim=sim,
            finished=finished,
            kernel_s=kernel_s,
            analyze_s=analyze_s,
            materialized=networks,
        )

    def golden(self) -> dict | None:
        """No committed golden pins the recommended-only loop."""
        return None


class ShardedStream:
    """``plan_shards("default", channels=4)`` then ``run_sharded``: the scale path.

    Every channel streams through a ``RunStream`` into bounded
    accumulators; no ledger is materialized.
    """

    name = "sharded_stream"
    sizes = {"full": 50_000, "tiny": 2000}
    channels = 4

    def __init__(self, seed: int, transactions: int) -> None:
        self.seed = seed
        self.transactions = transactions
        self.plan = plan_shards(
            "default", channels=self.channels, total_transactions=transactions, seed=seed
        )

    def iterate(self) -> Iteration:
        start = perf_counter()
        stitched = run_sharded(self.plan)
        kernel_s = perf_counter() - start
        digest = stitched.digest()
        return Iteration(
            digest=digest,
            sim={
                "success_pct": stitched.success_rate * 100.0,
                "latency_avg_s": stitched.avg_latency,
            },
            finished=stitched.committed + stitched.aborted,
            kernel_s=kernel_s,
            pins={"digest": digest},
        )

    def golden(self) -> dict | None:
        """The ``large_scale`` digest golden with this exact plan, if any."""
        for path in sorted(GOLDEN_DIR.glob("large_scale__*.json")):
            data = json.loads(path.read_text())
            if (
                data.get("base") == "default"
                and data.get("channels") == self.channels
                and data.get("total_transactions") == self.transactions
                and data.get("seed") == self.seed
                and data.get("interval_seconds") == self.plan.interval_seconds
            ):
                return {"digest": data["digest"]}
        return None


class FaultedGuardian:
    """Two library scenarios under 2-attempt retries with the SLO guardian on.

    ``partial_outage`` crashes peers and times endorsements out;
    ``rolling_contention`` drives the guardian to switch on the
    ``reorder`` mitigation, so the conflict-aware scheduler runs.  Each
    run is followed by ``forensics_report``.
    """

    name = "faulted_guardian"
    sizes = {"full": 4000, "tiny": 800}
    scenarios = ("partial_outage", "rolling_contention")
    #: Seed of the ``slo_guardian`` registry cells the golden pins.
    golden_seed = 7

    def __init__(self, seed: int, transactions: int) -> None:
        self.seed = seed
        self.transactions = transactions
        spec = ControlVariables(total_transactions=transactions, seed=seed)
        self.config, self.deployment, self.requests = synthetic_workload(spec)
        self.config.retry = RetryPolicy(max_attempts=2)
        self.config.control = ControlSpec(policy="guardian")
        self.specs = [get_scenario(name) for name in self.scenarios]

    def iterate(self) -> Iteration:
        payload, pins = {}, {}
        results, networks = [], []
        kernel_s = 0.0
        for scenario in self.specs:
            network, result, elapsed = _timed_run(
                self.config, self.deployment.contracts, self.requests, scenario=scenario
            )
            kernel_s += elapsed
            report = forensics.forensics_report(network)
            timeline = network.controller.timeline
            results.append(result)
            networks.append(network)
            payload[scenario.name] = {
                "run": _run_summary(result),
                "timeline": timeline.digest(),
                "forensics": report_digest(report),
                "retries": [
                    network.retries_issued,
                    network.retries_recovered,
                    network.retries_exhausted,
                ],
            }
            row = result.summary_row()
            pins[scenario.name] = {
                "guardian": {
                    "throughput": row["success_throughput_tps"],
                    "latency": row["avg_latency_s"],
                    "success_pct": row["success_rate_pct"],
                },
                "decisions": len(timeline.decisions),
                "timeline_digest": timeline.digest(),
            }
        return Iteration(
            digest=_digest(payload),
            sim=_headline(results),
            finished=sum(r.total_issued for r in results),
            kernel_s=kernel_s,
            pins=pins,
            materialized=networks,
        )

    def golden(self) -> dict | None:
        """The ``slo_guardian`` comparison golden, when it pins this input."""
        path = GOLDEN_DIR / "slo_guardian__comparison.json"
        if not path.is_file() or self.seed != self.golden_seed:
            return None
        data = json.loads(path.read_text())
        if data.get("total_transactions") != self.transactions:
            return None
        return {
            name: {key: data["scenarios"][name][key] for key in ("guardian", "decisions", "timeline_digest")}
            for name in self.scenarios
            if name in data.get("scenarios", {})
        } or None


WORKLOADS = {cls.name: cls for cls in (RecommendLoop, ShardedStream, FaultedGuardian)}
