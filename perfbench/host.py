"""What the benchmark knows about the host: its speed while measuring, and its record.

Host speed on a shared virtual machine drifts by tens of percent within
seconds and more within an hour, and the drift moves every timing with
it.  :class:`SpeedProbe` measures that speed *during* a timed region: a
``SIGALRM`` every :data:`PROBE_INTERVAL_S` runs a fixed, tiny pure-Python
kernel (:func:`probe_kernel`) between two bytecodes of whatever is
running and records how long it took.  The median over the region is the
host's speed over exactly the window the timing covers, and the
benchmark reports host times in *reference-host seconds*: raw seconds
times :data:`PROBE_REF_S` over that median.  The kernel lives here, not
in the package, so no change to the program can move it; it allocates no
container the collector tracks, so the program's heap cannot move it
either.  A probe costs about 1/400 of the region it samples.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import time
from pathlib import Path
from statistics import median

#: Seconds between two probes.
PROBE_INTERVAL_S = 0.02
#: Median probe time of the reference host.  A host time ``t`` measured
#: while the probe took ``p`` is reported as ``t * PROBE_REF_S / p``.
PROBE_REF_S = 50e-6


def probe_kernel() -> float:
    """Seconds taken by a fixed pure-Python loop (about 50 microseconds)."""
    start = time.perf_counter()
    total = 0
    for i in range(600):
        total += (i * i) % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Samples :func:`probe_kernel` on a timer while a region runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe_kernel())

    def start(self) -> None:
        """Begin a region: arm the timer with a fresh sample list."""
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> float:
        """End the region; the median probe time over it."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a region shorter than one interval
            self.samples.append(probe_kernel())
        return median(self.samples)


def scale(probe_s: float) -> float:
    """Factor turning host seconds measured at ``probe_s`` into reference-host seconds."""
    return PROBE_REF_S / probe_s


def _git_commit(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(root: Path, calibration_s: float) -> dict:
    """What a number was measured on; compare raw numbers only when these match.

    ``calibration_s`` is the median :func:`probe_kernel` time over the
    run: metadata, not a gated metric.
    """
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "calibration_s": calibration_s,
    }


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
