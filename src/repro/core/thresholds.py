"""Configurable detection thresholds (paper defaults).

Section 6 fixes the defaults used throughout the evaluation:
``Et = 0.5, Rt1 = 300, Rt2 = 0.3, Bt = 0.6, It = 0.5``, plus the 40%
reorderable-MVCC share of Section 6.1.5.  Everything is user-tunable, as
the paper emphasizes ("the user can adapt these default values to
fine-tune the detection strategies").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Thresholds:
    """All knobs of the nine detection rules."""

    #: ``ins`` — interval (seconds) for the rate/failure distributions.
    interval_seconds: float = 1.0
    #: ``Rt1`` — a per-interval send rate at/above this counts as high traffic.
    rate_high: float = 300.0
    #: ``Rt2`` — failure fraction of an interval's traffic that counts as high.
    failure_fraction: float = 0.3
    #: ``Bt`` — block size adaptation triggers when the average block size is
    #: ``Bt`` (60%) larger or smaller than the derived transaction rate.
    block_tolerance: float = 0.6
    #: ``Et`` — endorser bottleneck sensitivity (see ``endorser_mode``).
    endorser_share: float = 0.5
    #: ``It`` — invoker share of one organization that flags a client bottleneck.
    invoker_share: float = 0.5
    #: Section 6.1.5: reordering is recommended when at least this share of
    #: MVCC failures is caused by reorderable activity pairs.
    reorderable_mvcc_share: float = 0.4
    #: Minimum number of MVCC failures before reordering is considered at all.
    reorderable_min_failures: int = 20
    #: ``Kt`` — hotkey detection: a key is hot when it appears in at least
    #: this share of failed transactions ...
    hotkey_failure_share: float = 0.1
    #: ... and at least this many failed transactions (absolute floor).
    hotkey_min_failures: int = 20
    #: Delta writes need at least this many increment/decrement candidates.
    delta_min_candidates: int = 5
    #: Pruning needs at least this many anomalous transactions per activity...
    pruning_min_anomalies: int = 5
    #: ...which must stay a minority of the activity's transactions.
    pruning_max_fraction: float = 0.5
    #: Endorser detection mode: ``"fair_share"`` flags an org endorsing more
    #: than ``(1 + Et)`` times its fair share (the paper's default "expect an
    #: even distribution"); ``"absolute"`` is the literal Table 1 condition
    #: ``EDsig(e) > |TX| * Et``.
    endorser_mode: str = "fair_share"

    def __post_init__(self) -> None:
        if not self.interval_seconds > 0:
            raise ValueError(f"interval_seconds must be positive, got {self.interval_seconds}")
        if not self.rate_high > 0:
            raise ValueError(f"rate_high must be positive, got {self.rate_high}")
        for name in (
            "failure_fraction",
            "block_tolerance",
            "endorser_share",
            "invoker_share",
            "reorderable_mvcc_share",
            "hotkey_failure_share",
            "pruning_max_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.endorser_mode not in ("fair_share", "absolute"):
            raise ValueError(f"unknown endorser_mode {self.endorser_mode!r}")


#: The defaults used in all of the paper's experiments.
PAPER_DEFAULTS = Thresholds()
