"""Tests for multi-party governance."""

import pytest

from repro.core.governance import (
    CommandKind,
    GovernanceBoard,
    GovernanceError,
)


@pytest.fixture
def board():
    # Stakes mirror a skewed MP-LEO: one large party, several small ones.
    return GovernanceBoard({"big": 0.5, "m1": 0.2, "m2": 0.2, "m3": 0.1})


class TestSetup:
    def test_stakes_normalized(self):
        board = GovernanceBoard({"a": 2.0, "b": 2.0})
        assert board.stakes == {"a": 0.5, "b": 0.5}

    def test_empty_rejected(self):
        with pytest.raises(GovernanceError, match="at least one"):
            GovernanceBoard({})

    def test_negative_stake_rejected(self):
        with pytest.raises(GovernanceError, match="non-negative"):
            GovernanceBoard({"a": -1.0})

    def test_zero_total_rejected(self):
        with pytest.raises(GovernanceError, match="positive"):
            GovernanceBoard({"a": 0.0})


class TestVoting:
    def test_proposer_auto_approves(self, board):
        proposal = board.propose("big", CommandKind.DEORBIT, "SAT-1")
        assert board.approval_stake(proposal.proposal_id) == pytest.approx(0.5)

    def test_unknown_proposer_rejected(self, board):
        with pytest.raises(GovernanceError, match="unknown party"):
            board.propose("ghost", CommandKind.DEORBIT, "SAT-1")

    def test_deorbit_passes_at_half(self, board):
        proposal = board.propose("big", CommandKind.DEORBIT, "SAT-1")
        assert board.is_approved(proposal.proposal_id)  # 0.5 >= 0.5.

    def test_region_denial_needs_supermajority(self, board):
        """The paper's core trust property: the largest party alone cannot
        deny a region."""
        proposal = board.propose("big", CommandKind.DENY_REGION, "taipei")
        assert not board.is_approved(proposal.proposal_id)
        board.vote(proposal.proposal_id, "m1", approve=True)
        assert board.is_approved(proposal.proposal_id)  # 0.7 >= 2/3.

    def test_vote_change(self, board):
        proposal = board.propose("big", CommandKind.DENY_REGION, "taipei")
        board.vote(proposal.proposal_id, "m1", approve=True)
        board.vote(proposal.proposal_id, "m1", approve=False)
        assert not board.is_approved(proposal.proposal_id)

    def test_unknown_proposal_rejected(self, board):
        with pytest.raises(GovernanceError, match="unknown proposal"):
            board.vote(999, "big", approve=True)

    def test_unknown_voter_rejected(self, board):
        proposal = board.propose("big", CommandKind.DEORBIT, "S")
        with pytest.raises(GovernanceError, match="unknown party"):
            board.vote(proposal.proposal_id, "ghost", approve=True)


def _coalition_passes(board, coalition, kind):
    """Whether ``coalition`` alone carries a ``kind`` proposal."""
    proposer, *others = sorted(coalition)
    proposal = board.propose(proposer, kind, "target")
    for party in others:
        board.vote(proposal.proposal_id, party, approve=True)
    return board.is_approved(proposal.proposal_id)


class TestCoalitionAnalysis:
    def test_small_coalition_cannot_deny_region(self, board):
        assert not _coalition_passes(board, {"m1", "m2"}, CommandKind.DENY_REGION)

    def test_large_coalition_can(self, board):
        assert _coalition_passes(board, {"big", "m1"}, CommandKind.DENY_REGION)

    def test_smallest_party_alone_cannot_even_safe_mode(self, board):
        assert not _coalition_passes(board, {"m3"}, CommandKind.DENY_REGION)
        # m3 holds 0.1 < 0.25, so not even safe mode alone.
        assert not _coalition_passes(board, {"m3"}, CommandKind.POWER_SAFE_MODE)
        assert _coalition_passes(board, {"big"}, CommandKind.POWER_SAFE_MODE)

    def test_custom_thresholds(self):
        board = GovernanceBoard(
            {"a": 0.6, "b": 0.4},
            thresholds={CommandKind.DENY_REGION: 0.9},
        )
        proposal = board.propose("a", CommandKind.DENY_REGION, "r")
        board.vote(proposal.proposal_id, "b", approve=True)
        assert board.is_approved(proposal.proposal_id)  # 1.0 >= 0.9.
