"""MP-LEO participants.

A :class:`Party` is any entity that contributes satellites to a shared
constellation — a country securing coverage, an ISP entering the market, or
a non-profit.  Its *stake* is its share of the constellation, which the
paper argues should bound both its influence and the damage its departure
can cause ("Any degradation should be proportional to their stake in the
network").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Sequence


class PartyObjective(enum.Enum):
    """What a participant optimizes for (§3.2).

    The paper notes participants "can either choose to optimize for their
    profit (e.g., private companies) or optimize for connectivity in their
    own region (e.g., countries)" and finds the two are correlated but not
    identical.
    """

    GLOBAL_PROFIT = "global_profit"
    REGIONAL_COVERAGE = "regional_coverage"


@dataclass(frozen=True)
class Party:
    """One MP-LEO participant.

    Attributes:
        name: Unique participant name.
        objective: Placement objective (profit vs regional coverage).
        home_region: City name anchoring a regional-coverage objective
            (ignored for global-profit parties).
        launch_budget: How many satellites the party can contribute.
    """

    name: str
    objective: PartyObjective = PartyObjective.GLOBAL_PROFIT
    home_region: str = ""
    launch_budget: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("party name must be non-empty")
        if self.launch_budget < 0:
            raise ValueError(
                f"launch budget must be non-negative, got {self.launch_budget}"
            )


def stake_shares(contributions: Dict[str, int]) -> Dict[str, float]:
    """Normalize per-party satellite counts into stake shares summing to 1.

    Raises:
        ValueError: If counts are negative or all zero.
    """
    if any(count < 0 for count in contributions.values()):
        raise ValueError("contributions must be non-negative")
    total = sum(contributions.values())
    if total == 0:
        raise ValueError("at least one party must contribute satellites")
    return {party: count / total for party, count in contributions.items()}


def contribution_ratio_split(
    total_satellites: int, ratios: Sequence[float]
) -> List[int]:
    """Split a satellite count among parties in given ratios (Fig. 6 setup).

    The paper's Fig. 6 varies 11 parties' contribution ratios from 1:1:...:1
    to 10:1:...:1 over a 1000-satellite constellation.  Largest-remainder
    apportionment keeps the counts integral and summing exactly to the total.

    Raises:
        ValueError: On empty/negative ratios or non-positive total.
    """
    if total_satellites <= 0:
        raise ValueError(f"total must be positive, got {total_satellites}")
    if not ratios:
        raise ValueError("ratios must be non-empty")
    if any(ratio <= 0 for ratio in ratios):
        raise ValueError("ratios must be positive")
    weight = sum(ratios)
    quotas = [total_satellites * ratio / weight for ratio in ratios]
    counts = [int(quota) for quota in quotas]
    remainders = [quota - count for quota, count in zip(quotas, counts)]
    shortfall = total_satellites - sum(counts)
    # Hand the leftover satellites to the largest remainders (stable order).
    order = sorted(range(len(ratios)), key=lambda i: (-remainders[i], i))
    for i in order[:shortfall]:
        counts[i] += 1
    return counts
