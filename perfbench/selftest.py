"""Self-test of the benchmark: every workload at a tiny size, and every gate.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

It checks that

* each workload, untraced and traced, prints a result line with exactly
  the keys ``correct``, ``attempted``, ``failed`` and ``metrics``, and
  exactly the metrics ``BENCHMARK.json`` names,
  with their units, and zero failed operations;
* the full record names every end-to-end metric that applies to the
  workload, with the unit and direction of ``run.END_TO_END``;
* the per-layer split has the predicted shape: post-processing only on
  ``recommend_loop``, ``logs.stream`` only on ``sharded_stream``, the
  controller only on ``faulted_guardian``;
* each correctness gate trips: a raising iteration, a non-serializable
  history, a digest that differs from iteration 1's, and a golden
  mismatch all count as failed operations;
* a directory holding only ``BENCHMARK.json`` and the benchmark's files
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import POST_PROCESSING  # noqa: E402

#: End-to-end metrics each workload must report (beyond the gated ones).
APPLIES = {
    "recommend_loop": (
        "analyze_s", "success_pct", "latency_avg_s",
        "opt_success_gain_pp", "opt_latency_cut_pct",
    ),
    "sharded_stream": ("success_pct", "latency_avg_s"),
    "faulted_guardian": ("success_pct", "latency_avg_s"),
}

#: ``latency_p95_s`` is reported only where ten samples lie beyond the p95;
#: the streamed summaries never expose it.
P95_POSSIBLE = ("recommend_loop", "faulted_guardian")

CHECKS: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    CHECKS.append(message)


def bench(workload: str, trace: int, out: Path) -> dict:
    """One tiny run; returns the parsed result line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny", "--out", str(out),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    check(done.returncode == 0, f"{workload} trace {trace}: exit 0 ({done.stderr[-400:]})")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(workload: str, trace: int, result: dict, spec: dict) -> None:
    tag = f"{workload} trace {trace}"
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    check(result["correct"] is True and result["failed"] == 0, f"{tag}: correct, 0 failed")
    check(result["attempted"] >= run.MIN_ITERATIONS, f"{tag}: attempted >= {run.MIN_ITERATIONS}")
    section = spec["per_layer" if trace else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in section}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    check(got == expected, f"{tag}: metric names and units match BENCHMARK.json")
    for metric in section:
        value = result["metrics"][metric["name"]]["value"]
        check(isinstance(value, (int, float)), f"{tag}: {metric['name']} is a number")


def check_end_to_end(workload: str, record: dict) -> None:
    names = set(run.GATED) | set(APPLIES[workload])
    metrics = record["end_to_end"]
    if workload in P95_POSSIBLE:
        names |= {"latency_p95_s"} & set(metrics)
    check(set(metrics) == names, f"{workload}: every applicable end-to-end metric")
    for name, metric in metrics.items():
        unit, better, kind = run.END_TO_END[name]
        check(
            (metric["unit"], metric["better"], metric["kind"]) == (unit, better, kind),
            f"{workload}: {name} has unit, direction and kind",
        )
    check(metric_positive(metrics, run.GATED), f"{workload}: gated metrics are never 0")
    check(set(record["host"]) >= {"python", "numpy", "nproc", "platform", "git_commit",
                                  "calibration_s"}, f"{workload}: host record stored")


def metric_positive(metrics: dict, names) -> bool:
    return all(metrics[name]["value"] > 0 for name in names)


def check_layers(workload: str, record: dict) -> None:
    layers = {name: metric["value"] for name, metric in record["per_layer"].items()}
    post = sum(layers[f"{layer}.self_s"] for layer in POST_PROCESSING)
    stream = layers["logs.stream.self_s"]
    if workload == "recommend_loop":
        check(post > 0 and stream == 0, f"{workload}: post-processing only, no stream")
    elif workload == "sharded_stream":
        check(post == 0 and stream > 0, f"{workload}: stream only, no post-processing")
        check(layers["logs.stream.records"] > 0, f"{workload}: records streamed")
    else:
        check(layers["control.decisions"] > 0, f"{workload}: controller decided")
        check(layers["analysis.forensics.calls"] > 0, f"{workload}: forensics ran")
    check(layers["trace.overhead"] > 0, f"{workload}: tracing overhead reported")
    check(0 <= layers["trace.unattributed_share"] < 1, f"{workload}: unattributed share")


class _Raising:
    name = "raising"

    def golden(self):
        return None

    def iterate(self):
        raise RuntimeError("transaction accounting mismatch (injected)")


def check_gates() -> None:
    """Each correctness gate, tripped on purpose, counts a failed operation."""
    from repro.fabric.transaction import Version
    from workloads import FaultedGuardian

    raising = run.Run(_Raising())
    raising.iterate()
    check(raising.attempted == 1 and len(raising.failures) == 1, "gate: a raise fails")

    workload = FaultedGuardian(7, FaultedGuardian.sizes["tiny"])
    checker = run.Checker(workload)
    check(checker.golden_applies, "gate: the slo_guardian golden pins the tiny input")
    check(not checker.problems(workload.iterate()), "gate: iteration 1 passes")

    corrupted = workload.iterate()
    corrupted.digest = "0" * 64
    check(
        any("differs from iteration 1" in p for p in checker.problems(corrupted)),
        "gate: a corrupted digest fails",
    )
    tampered = workload.iterate()
    tampered.pins["partial_outage"]["decisions"] += 1
    check(
        any("golden" in p for p in checker.problems(tampered)),
        "gate: a golden mismatch fails",
    )
    broken = workload.iterate()
    network = broken.materialized[0]
    contract = next(iter(network.contracts))
    network.state_db.namespace(contract).put("injected-key", 1, Version(block=0, tx=0))
    check(
        any("serializability" in p for p in checker.problems(broken)),
        "gate: a non-serializable history fails",
    )


def check_bare_directory() -> None:
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory() as scratch:
        bare = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(
                ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
            )
        done = subprocess.run(
            spec["command"] + ["--workload", "recommend_loop", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    check(done.returncode != 0 and not done.stdout.strip(), "bare directory: fails, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory() as scratch:
        for workload in run.WORKLOAD_NAMES:
            for trace in (0, 1):
                out = Path(scratch) / f"{workload}-{trace}.json"
                check_result(workload, trace, bench(workload, trace, out), spec)
                record = json.loads(out.read_text())
                if trace:
                    check_layers(workload, record)
                else:
                    check_end_to_end(workload, record)
    check_gates()
    check_bare_directory()
    print(f"selftest: {len(CHECKS)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
