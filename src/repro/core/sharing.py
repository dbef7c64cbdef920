"""Spare-capacity sharing accounting and the "coverage worth" metric.

The paper's §2 headline: "a participant contributing just 50 satellites can
get coverage worth over 1000 satellites by trading off their spare
capacities with others."  This module quantifies that trade:

* :class:`SharingUpside` — how many go-it-alone satellites a party's
  *shared* coverage is worth.
* :func:`exchange_matrix` — who serves whom: the party-by-party matrix of
  traded capacity derived from engine sessions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.obs import get_logger, metrics
from repro.obs import timeline as obs_timeline
from repro.sim.events import SessionEvent

_LOG = get_logger(__name__)

_MATCHED = metrics.counter("core.sharing.matched_sessions")
_UNMATCHED = metrics.counter("core.sharing.unmatched_sessions")


@dataclass(frozen=True)
class SharingUpside:
    """A party's gain from pooling vs going it alone."""

    party: str
    contributed_satellites: int
    alone_coverage_fraction: float
    shared_coverage_fraction: float
    equivalent_alone_satellites: int

    @property
    def satellite_multiplier(self) -> float:
        """Equivalent satellites / contributed satellites (the 50-vs-1000 claim)."""
        if self.contributed_satellites == 0:
            return 0.0
        return self.equivalent_alone_satellites / self.contributed_satellites


def equivalent_satellite_count(
    target_coverage_fraction: float,
    coverage_by_count: Sequence[Tuple[int, float]],
) -> int:
    """Smallest go-it-alone constellation size achieving a coverage target.

    Args:
        target_coverage_fraction: Coverage to match.
        coverage_by_count: Monotone (satellite_count, coverage_fraction)
            calibration curve (e.g. the Fig. 2 sweep).

    Returns:
        The smallest count whose coverage is >= the target; if no point
        reaches it, returns the largest count in the curve (a lower bound).
    """
    if not coverage_by_count:
        raise ValueError("calibration curve must be non-empty")
    ordered = sorted(coverage_by_count)
    for count, coverage in ordered:
        if coverage >= target_coverage_fraction:
            return count
    return ordered[-1][0]


def sharing_upside(
    party: str,
    contributed: int,
    alone_coverage_fraction: float,
    shared_coverage_fraction: float,
    coverage_by_count: Sequence[Tuple[int, float]],
) -> SharingUpside:
    """Assemble the full upside record for one party."""
    return SharingUpside(
        party=party,
        contributed_satellites=contributed,
        alone_coverage_fraction=alone_coverage_fraction,
        shared_coverage_fraction=shared_coverage_fraction,
        equivalent_alone_satellites=equivalent_satellite_count(
            shared_coverage_fraction, coverage_by_count
        ),
    )


def exchange_matrix(
    sessions: Sequence[SessionEvent], parties: Sequence[str]
) -> np.ndarray:
    """Party-by-party traded volume: entry [i, j] = megabits party i's
    terminals consumed on party j's satellites (i != j; diagonal is own use).
    """
    index = {party: i for i, party in enumerate(parties)}
    matrix = np.zeros((len(parties), len(parties)))
    matched = 0
    for session in sessions:
        consumer = index.get(session.terminal_party)
        provider = index.get(session.sat_party)
        if consumer is None or provider is None:
            continue
        matrix[consumer, provider] += session.volume_megabits
        matched += 1
    _MATCHED.inc(matched)
    _UNMATCHED.inc(len(sessions) - matched)
    # Narrate the cross-party trades (run-level summary: one event per
    # ordered pair with nonzero traded volume; own use stays off the wire).
    for consumer_index, consumer in enumerate(parties):
        for provider_index, provider in enumerate(parties):
            if consumer_index == provider_index:
                continue
            volume = float(matrix[consumer_index, provider_index])
            if volume > 0.0:
                obs_timeline.emit(
                    obs_timeline.SHARING_TRADE,
                    0.0,
                    consumer,
                    party=consumer,
                    provider=provider,
                    megabits=volume,
                )
    if matched < len(sessions):
        _LOG.debug(
            "exchange matrix dropped %d sessions from unknown parties",
            len(sessions) - matched,
        )
    return matrix


def reciprocity_scores(matrix: np.ndarray) -> np.ndarray:
    """Per-party give/take balance in [-1, 1].

    +1 = pure provider (gives spare capacity, consumes none),
    -1 = pure consumer, 0 = balanced.  Diagonal (own use) is excluded.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    off = matrix - np.diag(np.diag(matrix))
    gives = off.sum(axis=0)  # Column j: everyone consuming on j's satellites.
    takes = off.sum(axis=1)  # Row i: i consuming on others' satellites.
    total = gives + takes
    with np.errstate(invalid="ignore", divide="ignore"):
        scores = np.where(total > 0.0, (gives - takes) / total, 0.0)
    return scores
