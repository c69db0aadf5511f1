"""End-to-end and per-layer benchmark of the Fabric simulator and BlockOptR.

Run from the repository root::

    python3 perfbench/run.py --workload recommend_loop --seed 7 --seconds 30 --trace 0

One invocation is one fresh single-threaded process running one workload
(see ``perfbench/workloads.py``).  It sets the workload up, runs
iterations back to back for ``--seconds`` seconds, checks every
iteration's outputs, and prints a human-readable report followed, as the
last line of standard output, by one JSON object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the gated end-to-end metrics
(:data:`GATED`), measured with no instrumentation.  With ``--trace 1``
the process alternates untraced and traced iterations and the metrics
are the per-layer ones (:func:`per_layer_metrics`), taken from the traced
iterations (``perfbench/spans.py``), plus the tracing overhead and the
unattributed share.  Host times are in reference-host seconds: raw
seconds scaled by the host speed probed during the same region
(``perfbench/host.py``).  ``--out FILE`` also writes the full record — every
end-to-end metric including the simulated ones and the raw host values,
the host record, and the per-iteration samples — as JSON.

An operation is one iteration.  It fails when it raises (including the
network's transaction-accounting check), when a materialized run's
committed history is not serializable, when its digest differs from the
first iteration's, or when a committed golden pins the same input and
disagrees.  Simulated aborts are model output, not failures.

The exit code is 0 when the benchmark ran, whatever it found; a checkout
without the package exits 2 without printing a result.
"""

from __future__ import annotations

import time

#: Process-start reference for ``setup_s`` (taken before any import).
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from host import SpeedProbe, host_record, peak_rss_mb, scale  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD_NAMES = ("recommend_loop", "sharded_stream", "faulted_guardian")

#: Every end-to-end metric: name -> (unit, better, kind).  ``host``
#: numbers vary with the machine; ``sim`` numbers are deterministic for
#: a fixed seed and belong to the iteration digest.
END_TO_END = {
    "setup_s": ("s", "lower", "host"),
    "wall_s": ("s", "lower", "host"),
    "sim_tx_per_s": ("tx/s", "higher", "host"),
    "analyze_s": ("s", "lower", "host"),
    "peak_rss_mb": ("MiB", "lower", "host"),
    "success_pct": ("%", "higher", "sim"),
    "latency_avg_s": ("s", "lower", "sim"),
    "latency_p95_s": ("s", "lower", "sim"),
    "opt_success_gain_pp": ("pp", "higher", "sim"),
    "opt_latency_cut_pct": ("%", "higher", "sim"),
}

#: End-to-end metrics every workload reports; the ``--trace 0`` result line
#: carries exactly these (``BENCHMARK.json``'s ``end_to_end``).
GATED = ("wall_s", "sim_tx_per_s", "peak_rss_mb", "setup_s")

#: Iterations a run makes at least, whatever ``--seconds`` says.
MIN_ITERATIONS = 2
#: Set-up samples behind ``setup_s``: this process plus fresh children.
SETUP_SAMPLES = 5


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    from spans import LAYERS

    metrics: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = ("s", "lower")
        metrics[f"{layer}.calls"] = ("count", "lower")
    metrics.update(
        {
            "sim.kernel.events_per_tx": ("events/tx", "lower"),
            "fabric.orderer.tx_per_block": ("tx/block", "higher"),
            "fabric.validator.valid_ratio": ("ratio", "higher"),
            "fabric.network.retry_recovered_ratio": ("ratio", "higher"),
            "control.decisions": ("count", "lower"),
            "logs.stream.records": ("count", "higher"),
        }
    )
    for role in ("client", "endorser", "orderer", "validator"):
        metrics[f"fabric.{role}.sim_util"] = ("ratio", "lower")
        metrics[f"fabric.{role}.sim_wait_ms"] = ("ms", "lower")
    metrics["trace.overhead"] = ("ratio", "lower")
    metrics["trace.unattributed_share"] = ("ratio", "lower")
    return metrics


# -- correctness gates ----------------------------------------------------------


class Checker:
    """The correctness gates applied to every iteration, outside the timing."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.reference: str | None = None
        self._golden = workload.golden()

    @property
    def golden_applies(self) -> bool:
        return self._golden is not None

    def problems(self, iteration) -> list[str]:
        """Why ``iteration`` failed; empty when it passed every gate."""
        from repro.fabric.verify import verify_serializability

        found = []
        for network in iteration.materialized:
            report = verify_serializability(network)
            if not report.ok:
                found.append(
                    f"serializability: {len(report.mismatched_keys)} mismatched, "
                    f"{len(report.missing_keys)} missing keys"
                )
        if self.reference is None:
            self.reference = iteration.digest
        elif iteration.digest != self.reference:
            found.append(f"digest {iteration.digest[:16]} differs from iteration 1's")
        if self._golden is not None:
            pinned = {key: iteration.pins.get(key) for key in self._golden}
            if pinned != self._golden:
                found.append("differs from the committed golden for this input")
        return found


# -- measurement ----------------------------------------------------------------


class Run:
    """Closed-loop iterations of one workload, with their outcomes."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.checker = Checker(workload)
        self.attempted = 0
        self.failures: list[str] = []
        #: Passing iterations: (wall seconds, Iteration, traced, scale),
        #: where ``scale`` turns the iteration's host seconds into
        #: reference-host seconds (``host.py``).
        self.samples: list[tuple[float, object, bool, float]] = []
        self.layer_samples: list[dict[str, float]] = []
        #: Median probe time of every iteration, failed ones included.
        self.probes: list[float] = []
        self._probe = SpeedProbe()

    def iterate(self, tracer=None) -> None:
        """Run, time and check one iteration (traced when ``tracer`` is set)."""
        self.attempted += 1
        gc.collect()
        if tracer is not None:
            tracer.networks.clear()
            before = tracer.snapshot()
            tracer.install()
        self._probe.start()
        start = time.perf_counter()
        try:
            iteration = self.workload.iterate()
        except Exception as error:  # every raise is a failed operation
            self.failures.append(f"iteration {self.attempted}: {type(error).__name__}: {error}")
            return
        finally:
            wall = time.perf_counter() - start
            self.probes.append(self._probe.stop())
            if tracer is not None:
                tracer.uninstall()
        factor = scale(self.probes[-1])
        problems = self.checker.problems(iteration)
        if problems:
            self.failures.extend(f"iteration {self.attempted}: {p}" for p in problems)
            return
        if tracer is not None:
            self.layer_samples.append(layer_sample(tracer, before, wall, factor))
            tracer.networks.clear()
        iteration.materialized = []
        self.samples.append((wall, iteration, tracer is not None, factor))

    def untraced(self) -> list[tuple[float, object, float]]:
        """``(wall seconds, Iteration, scale)`` of the untraced iterations."""
        return [(wall, it, factor) for wall, it, traced, factor in self.samples if not traced]


def layer_sample(tracer, before, wall: float, factor: float) -> dict[str, float]:
    """Per-layer self time (reference-host seconds), calls and simulated
    counters of one traced iteration."""
    from spans import LAYERS

    self_before, calls_before = before
    sample: dict[str, float] = {}
    attributed = 0.0
    for layer in LAYERS:
        spent = tracer.self_s[layer] - self_before[layer]
        attributed += spent
        sample[f"{layer}.self_s"] = spent * factor
        sample[f"{layer}.calls"] = tracer.calls[layer] - calls_before[layer]
    sample["trace.wall_s"] = wall * factor
    sample["trace.unattributed_share"] = max(0.0, wall - attributed) / wall
    sample.update(simulated_counters(tracer.networks))
    return sample


def simulated_counters(networks) -> dict[str, float]:
    """Counts, ratios and modelled occupancy over every network of an iteration.

    ``sim_util``/``sim_wait_ms`` are the mean, over the iteration's
    networks, of the busiest server of each role: its busy time over the
    run's simulated horizon, and its mean queue wait, from ``Server.stats``.
    """
    from repro.fabric.transaction import TxStatus

    events = finished = validated = useful = blocks = 0
    retries = recovered = decisions = records = 0
    occupancy = {role: ([], []) for role in ("client", "endorser", "orderer", "validator")}
    for network in networks:
        events += network.kernel.events_processed
        if network.stream is not None:
            committed = network.ledger.committed_txs
            records += network.stream.records_streamed
        else:
            committed = sum(1 for _ in network.ledger.transactions(include_config=False))
        finished += committed + network.aborted_count
        counts = network.validator.status_counts
        validated += sum(counts.values())
        useful += counts[TxStatus.SUCCESS]
        blocks += network.orderer.blocks_cut
        retries += network.retries_issued
        recovered += network.retries_recovered
        if network.controller is not None:
            decisions += len(network.controller.timeline.decisions)
        horizon = network.kernel.now
        roles = {
            "client": network.clients.servers(),
            "endorser": network.endorsers.servers(),
            "orderer": [network.orderer.server],
            "validator": [network.validator.server],
        }
        for role, servers in roles.items():
            busiest = max(servers, key=lambda server: server.stats.busy_time)
            occupancy[role][0].append(busiest.stats.utilization(horizon))
            occupancy[role][1].append(busiest.stats.mean_wait * 1000.0)
    out = {
        "sim.kernel.events_per_tx": events / finished if finished else 0.0,
        "fabric.orderer.tx_per_block": validated / blocks if blocks else 0.0,
        "fabric.validator.valid_ratio": useful / validated if validated else 0.0,
        "fabric.network.retry_recovered_ratio": recovered / retries if retries else 0.0,
        "control.decisions": decisions,
        "logs.stream.records": records,
    }
    for role, (utils, waits) in occupancy.items():
        out[f"fabric.{role}.sim_util"] = sum(utils) / len(utils) if utils else 0.0
        out[f"fabric.{role}.sim_wait_ms"] = sum(waits) / len(waits) if waits else 0.0
    return out


def measure(run: Run, seconds: float, trace: bool) -> None:
    """Closed loop for ``seconds``; traced runs alternate with untraced ones."""
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    minimum = 2 * MIN_ITERATIONS if trace else MIN_ITERATIONS
    start = time.perf_counter()
    while run.attempted < minimum or time.perf_counter() - start < seconds:
        traced = trace and run.attempted % 2 == 1
        run.iterate(tracer if traced else None)


def setup_samples(args, own: tuple[float, float]) -> list[tuple[float, float]]:
    """``setup_s`` samples as ``(seconds, probe seconds)``: this process's,
    then fresh child processes', each probed during its own set-up."""
    samples = [own]
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--setup-only",
    ]
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        sample = json.loads(child.stdout.strip().splitlines()[-1])
        samples.append((sample["setup_s"], sample["probe_s"]))
    return samples


# -- reporting ------------------------------------------------------------------


def end_to_end(run: Run, setup: list[tuple[float, float]], rss: float) -> dict[str, dict]:
    """Every end-to-end metric that applies to the workload.

    Host times are medians in reference-host seconds (see ``host.py``);
    ``raw`` keeps the plain host-second median.
    """
    untraced = run.untraced()
    values: dict[str, float] = {"peak_rss_mb": rss}
    raw: dict[str, float] = {"peak_rss_mb": rss}
    per_sample = {
        "setup_s": [(seconds, scale(probe)) for seconds, probe in setup],
        "wall_s": [(wall, factor) for wall, _, factor in untraced],
        "sim_tx_per_s": [(it.finished / it.kernel_s, 1.0 / factor) for _, it, factor in untraced],
    }
    first = untraced[0][1]
    if first.analyze_s is not None:
        per_sample["analyze_s"] = [(it.analyze_s, factor) for _, it, factor in untraced]
    for name, pairs in per_sample.items():
        values[name] = median(value * factor for value, factor in pairs)
        raw[name] = median(value for value, _ in pairs)
    values.update(first.sim)
    out = {}
    for name, (unit, better, kind) in END_TO_END.items():
        if name in values:
            out[name] = {"value": values[name], "unit": unit, "better": better, "kind": kind}
            if name in raw:
                out[name]["raw"] = raw[name]
    out["wall_s"]["samples"] = len(untraced)
    out["setup_s"]["samples"] = len(setup)
    return out


def per_layer(run: Run) -> dict[str, dict]:
    """Medians over the traced iterations, plus overhead and unattributed share."""
    metrics = per_layer_metrics()
    samples = run.layer_samples
    untraced = [wall * factor for wall, _, factor in run.untraced()]
    values = {
        name: median(sample[name] for sample in samples)
        for name in metrics
        if name != "trace.overhead"
    }
    values["trace.overhead"] = median(s["trace.wall_s"] for s in samples) / median(untraced)
    return {
        name: {"value": values[name], "unit": unit, "better": better}
        for name, (unit, better) in metrics.items()
    }


def print_report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  size {record['size']}"
          f"  ({record['transactions']} tx)  trace {record['trace']}")
    host = record["host"]
    print("host " + "  ".join(f"{key} {value}" for key, value in host.items()))
    print(f"operations: {record['attempted']} attempted, {record['failed']} failed"
          f"; golden pin {'checked' if record['golden_checked'] else 'n/a'}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if record["trace"]:
        layers = record["per_layer"]
        print(f"{'per-layer metric':40} {'value':>14}  unit")
        for name, metric in layers.items():
            print(f"{name:40} {metric['value']:14.6g}  {metric['unit']}")
    else:
        print(f"{'end-to-end metric':22} {'value':>14}  {'unit':6} better  kind"
              f"  {'raw host value':>14}")
        for name, metric in record["end_to_end"].items():
            raw = f"{metric['raw']:14.6g}" if "raw" in metric else " " * 14
            extra = f"  (median of {metric['samples']})" if "samples" in metric else ""
            print(f"{name:22} {metric['value']:14.6g}  {metric['unit']:6} "
                  f"{metric['better']:6}  {metric['kind']:4}  {raw}{extra}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="transaction budget: the benchmark's, or a tiny one for the self-test",
    )
    parser.add_argument("--out", type=Path, help="also write the full record here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    probe = SpeedProbe()
    probe.start()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from workloads import WORKLOADS
    except ImportError as error:
        probe.stop()
        print(f"error: cannot import the package: {error}", file=sys.stderr)
        return 2

    cls = WORKLOADS[args.workload]
    transactions = cls.sizes[args.size]
    workload = cls(args.seed, transactions)
    own_setup = (time.perf_counter() - _STARTED, probe.stop())
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup[0], "probe_s": own_setup[1]}))
        return 0

    run = Run(workload)
    measure(run, args.seconds, bool(args.trace))
    rss = peak_rss_mb()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "transactions": transactions,
        "trace": args.trace,
        "seconds": args.seconds,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "golden_checked": run.checker.golden_applies,
        "digest": run.checker.reference,
    }
    measured = bool(run.untraced()) and (bool(run.layer_samples) or not args.trace)
    correct = not run.failures and measured
    if measured:
        if args.trace:
            record["per_layer"] = per_layer(run)
            metrics = record["per_layer"]
        else:
            record["end_to_end"] = end_to_end(run, setup_samples(args, own_setup), rss)
            record["wall_samples_s"] = [wall for wall, _, _ in run.untraced()]
            metrics = {name: record["end_to_end"][name] for name in GATED}
    else:
        metrics = {}
    record["probe_medians_s"] = run.probes
    record["host"] = host_record(ROOT, median(run.probes))
    print_report(record)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
