"""Coverage timelines and gap statistics.

Everything the paper's figures measure comes down to boolean coverage masks
over a time grid:

* Fig. 2 reports the *percentage of time without coverage* and the longest
  continuous gap at one site.
* Figs. 4–6 report *population-weighted coverage time* over the 21-city set
  and its changes as satellites are added or withdrawn.

This module turns masks into those statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def gap_lengths_s(mask: np.ndarray, step_s: float) -> np.ndarray:
    """Durations of the uncovered runs in a boolean coverage mask.

    Args:
        mask: 1-D boolean array; True = covered.
        step_s: Sample spacing in seconds.

    Returns:
        1-D float array of gap durations (seconds), in temporal order.
        A gap of k consecutive uncovered samples counts as k * step_s.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 1:
        raise ValueError(f"mask must be 1-D, got shape {mask.shape}")
    if mask.size == 0:
        return np.empty(0)
    uncovered = ~mask
    # Find run boundaries with a sentinel-padded diff.
    padded = np.concatenate(([False], uncovered, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    starts, stops = edges[::2], edges[1::2]
    return (stops - starts).astype(np.float64) * step_s


@dataclass(frozen=True)
class CoverageStats:
    """Summary statistics of one site's coverage over a horizon."""

    covered_fraction: float
    uncovered_fraction: float
    covered_time_s: float
    uncovered_time_s: float
    max_gap_s: float
    mean_gap_s: float
    gap_count: int

    @property
    def covered_percent(self) -> float:
        return 100.0 * self.covered_fraction

    @property
    def uncovered_percent(self) -> float:
        return 100.0 * self.uncovered_fraction


def coverage_stats(mask: np.ndarray, step_s: float) -> CoverageStats:
    """Compute :class:`CoverageStats` from a 1-D boolean coverage mask."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 1:
        raise ValueError(f"mask must be 1-D, got shape {mask.shape}")
    if mask.size == 0:
        raise ValueError("mask must be non-empty")
    covered = float(mask.mean())
    gaps = gap_lengths_s(mask, step_s)
    return CoverageStats(
        covered_fraction=covered,
        uncovered_fraction=1.0 - covered,
        covered_time_s=float(mask.sum()) * step_s,
        uncovered_time_s=float((~mask).sum()) * step_s,
        max_gap_s=float(gaps.max()) if gaps.size else 0.0,
        mean_gap_s=float(gaps.mean()) if gaps.size else 0.0,
        gap_count=int(gaps.size),
    )


def population_weighted_coverage_fraction(
    masks: np.ndarray, weights: Sequence[float]
) -> float:
    """Population-weighted coverage fraction over multiple sites.

    Args:
        masks: Boolean array of shape (S, T) — per-site coverage.
        weights: S non-negative weights; normalized internally.

    Returns:
        sum_s w_s * (covered fraction of site s), with weights normalized to
        sum to 1.  This is the paper's §3.2 objective ("population weighted
        coverage over 21 most populous cities").
    """
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 2:
        raise ValueError(f"masks must be (S, T), got shape {masks.shape}")
    weight_array = np.asarray(list(weights), dtype=np.float64)
    if weight_array.shape != (masks.shape[0],):
        raise ValueError(
            f"need {masks.shape[0]} weights, got {weight_array.shape}"
        )
    if np.any(weight_array < 0.0):
        raise ValueError("weights must be non-negative")
    total = weight_array.sum()
    if total <= 0.0:
        raise ValueError("weights must not all be zero")
    per_site = masks.mean(axis=1)
    return float(np.dot(weight_array / total, per_site))
