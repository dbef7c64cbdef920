"""MP-LEO: the paper's contribution — decentralized multi-party constellations.

* :mod:`repro.core.party` — participants and their stakes.
* :mod:`repro.core.registry` — the multi-party constellation registry:
  contributions, withdrawal, stake accounting.
* :mod:`repro.core.placement` — coverage-gap-driven satellite placement (the
  incentive-aligned strategy of §3.3) plus baselines.
* :mod:`repro.core.incentives` — proof-of-coverage rewards (§3.2).
* :mod:`repro.core.market` — data-market pricing and billing.
* :mod:`repro.core.ledger` — the token ledger mediating settlements.
* :mod:`repro.core.sharing` — spare-capacity exchange accounting and the
  "coverage worth" metric behind the paper's 50-vs-1000 claim.
* :mod:`repro.core.robustness` — withdrawal/robustness analysis (§3.4).
* :mod:`repro.core.governance` — multi-party control votes (§4).
* :mod:`repro.core.failures` — satellite failure/attrition models (§3.4).
* :mod:`repro.core.objectives` — regional vs profit placement objectives
  (§3.2) and their rank correlation.
* :mod:`repro.core.audit` — service-denial detection and slashing (§4).
* :mod:`repro.core.auction` — uniform-price double-auction clearing for the
  spot capacity market (§4's market-design question).
* :mod:`repro.core.economics` — constellation cost models and the
  go-it-alone vs MP-LEO comparison (§1-§2).
"""

from repro.core.party import Party
from repro.core.registry import MultiPartyConstellation
from repro.core.placement import (
    PlacementCandidate,
    best_candidate,
    gap_filling_candidates,
    score_candidates,
)
from repro.core.robustness import (
    WithdrawalImpact,
    largest_party_withdrawal,
    random_withdrawal_impact,
)

__all__ = [
    "Party",
    "MultiPartyConstellation",
    "PlacementCandidate",
    "gap_filling_candidates",
    "score_candidates",
    "best_candidate",
    "WithdrawalImpact",
    "random_withdrawal_impact",
    "largest_party_withdrawal",
]
