"""Multi-party control (§4).

The paper's open question: "Space-based trusted execution environments ...
can potentially be utilized to provide cryptographic guarantees on what runs
on the satellite and how they are controlled (e.g., by consensus from
multiple parties)."

This module models the *policy* layer of that idea: satellite commands that
require stake-weighted approval before a (simulated) TEE would execute them.
It captures the paper's trust property — a small coalition cannot deny
service network-wide — without pretending to implement cryptography.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Set


class CommandKind(enum.Enum):
    """Commands whose blast radius justifies multi-party approval."""

    DENY_REGION = "deny_region"  # Stop serving a geographic region.
    DEORBIT = "deorbit"
    SOFTWARE_UPDATE = "software_update"
    POWER_SAFE_MODE = "power_safe_mode"


#: Approval thresholds (fraction of total stake) per command kind.  Region
#: denial — the abuse the paper is most worried about — needs a supermajority.
DEFAULT_THRESHOLDS: Dict[CommandKind, float] = {
    CommandKind.DENY_REGION: 2.0 / 3.0,
    CommandKind.DEORBIT: 0.5,
    CommandKind.SOFTWARE_UPDATE: 0.5,
    CommandKind.POWER_SAFE_MODE: 0.25,
}


class GovernanceError(RuntimeError):
    """Raised on invalid votes or proposals."""


@dataclass
class Proposal:
    """One pending command awaiting stake-weighted approval."""

    proposal_id: int
    kind: CommandKind
    proposer: str
    target: str  # Satellite id or region name, depending on kind.
    approvals: Set[str] = field(default_factory=set)
    rejections: Set[str] = field(default_factory=set)


class GovernanceBoard:
    """Stake-weighted voting over satellite commands.

    Example:
        >>> board = GovernanceBoard({"a": 0.5, "b": 0.3, "c": 0.2})
        >>> proposal = board.propose("a", CommandKind.DENY_REGION, "taipei")
        >>> board.vote(proposal.proposal_id, "a", approve=True)
        >>> board.is_approved(proposal.proposal_id)
        False
    """

    def __init__(
        self,
        stakes: Dict[str, float],
        thresholds: Optional[Dict[CommandKind, float]] = None,
    ) -> None:
        if not stakes:
            raise GovernanceError("at least one party is required")
        if any(stake < 0.0 for stake in stakes.values()):
            raise GovernanceError("stakes must be non-negative")
        total = sum(stakes.values())
        if total <= 0.0:
            raise GovernanceError("total stake must be positive")
        self.stakes = {party: stake / total for party, stake in stakes.items()}
        self.thresholds = dict(DEFAULT_THRESHOLDS)
        if thresholds:
            self.thresholds.update(thresholds)
        self._proposals: Dict[int, Proposal] = {}
        self._next_id = 0

    def propose(self, proposer: str, kind: CommandKind, target: str) -> Proposal:
        """Open a proposal (the proposer implicitly approves).

        Raises:
            GovernanceError: If the proposer is not a stakeholder.
        """
        if proposer not in self.stakes:
            raise GovernanceError(f"unknown party {proposer!r}")
        proposal = Proposal(
            proposal_id=self._next_id,
            kind=kind,
            proposer=proposer,
            target=target,
            approvals={proposer},
        )
        self._proposals[proposal.proposal_id] = proposal
        self._next_id += 1
        return proposal

    def vote(self, proposal_id: int, party: str, approve: bool) -> None:
        """Cast or change a vote.

        Raises:
            GovernanceError: On unknown proposal or non-stakeholder.
        """
        proposal = self._proposals.get(proposal_id)
        if proposal is None:
            raise GovernanceError(f"unknown proposal {proposal_id}")
        if party not in self.stakes:
            raise GovernanceError(f"unknown party {party!r}")
        proposal.approvals.discard(party)
        proposal.rejections.discard(party)
        if approve:
            proposal.approvals.add(party)
        else:
            proposal.rejections.add(party)

    def approval_stake(self, proposal_id: int) -> float:
        """Total stake that has approved a proposal."""
        proposal = self._proposals.get(proposal_id)
        if proposal is None:
            raise GovernanceError(f"unknown proposal {proposal_id}")
        return sum(self.stakes[party] for party in proposal.approvals)

    def is_approved(self, proposal_id: int) -> bool:
        """Whether the proposal has cleared its command kind's threshold."""
        proposal = self._proposals.get(proposal_id)
        if proposal is None:
            raise GovernanceError(f"unknown proposal {proposal_id}")
        return self.approval_stake(proposal_id) >= self.thresholds[proposal.kind]
