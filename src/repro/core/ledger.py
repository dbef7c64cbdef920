"""The token ledger mediating MP-LEO settlements.

The paper (§3.2): "These financial exchanges can be mediated by centralized
or decentralized systems (e.g., cryptographic tokens)."  This module is the
accounting core either way: an append-only double-entry ledger with balances,
minting (for proof-of-coverage rewards and bootstrap incentives) and
transfers (for data-market settlements).  It deliberately models *economics*,
not consensus — consensus is a §4 open question handled in
:mod:`repro.core.governance`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List


class EntryKind(enum.Enum):
    MINT = "mint"
    TRANSFER = "transfer"


class LedgerError(RuntimeError):
    """Raised on invalid ledger operations (overdrafts, bad amounts)."""


@dataclass(frozen=True)
class LedgerEntry:
    """One immutable ledger record."""

    sequence: int
    kind: EntryKind
    amount: float
    debit: str  # Account debited ("" for mints).
    credit: str  # Account credited.
    memo: str = ""


class TokenLedger:
    """Append-only token ledger with non-negative balances.

    Example:
        >>> ledger = TokenLedger()
        >>> ledger.mint("taiwan", 100.0, memo="proof-of-coverage epoch 1")
        >>> ledger.transfer("taiwan", "korea", 25.0, memo="data settlement")
        >>> ledger.balance("korea")
        25.0
    """

    def __init__(self) -> None:
        self._balances: Dict[str, float] = {}
        self._entries: List[LedgerEntry] = []

    def _check_amount(self, amount: float) -> None:
        if not amount > 0.0:
            raise LedgerError(f"amount must be positive, got {amount}")

    def mint(self, account: str, amount: float, memo: str = "") -> LedgerEntry:
        """Create new tokens in an account (rewards, bootstrap issuance)."""
        self._check_amount(amount)
        if not account:
            raise LedgerError("account must be non-empty")
        self._balances[account] = self._balances.get(account, 0.0) + amount
        entry = LedgerEntry(
            sequence=len(self._entries),
            kind=EntryKind.MINT,
            amount=amount,
            debit="",
            credit=account,
            memo=memo,
        )
        self._entries.append(entry)
        return entry

    def transfer(
        self, debit: str, credit: str, amount: float, memo: str = ""
    ) -> LedgerEntry:
        """Move tokens between accounts.

        Raises:
            LedgerError: On overdraft or self-transfer.
        """
        self._check_amount(amount)
        if debit == credit:
            raise LedgerError("cannot transfer to the same account")
        if self.balance(debit) < amount:
            raise LedgerError(
                f"overdraft: {debit!r} has {self.balance(debit)}, needs {amount}"
            )
        self._balances[debit] -= amount
        self._balances[credit] = self._balances.get(credit, 0.0) + amount
        entry = LedgerEntry(
            sequence=len(self._entries),
            kind=EntryKind.TRANSFER,
            amount=amount,
            debit=debit,
            credit=credit,
            memo=memo,
        )
        self._entries.append(entry)
        return entry

    def balance(self, account: str) -> float:
        return self._balances.get(account, 0.0)

    def balances(self) -> Dict[str, float]:
        """All non-zero balances."""
        return {
            account: balance
            for account, balance in sorted(self._balances.items())
            if balance != 0.0
        }

    def verify(self) -> bool:
        """Replay all entries and confirm they reproduce current balances.

        The integrity check a decentralized implementation would do by
        consensus; here it guards against in-process mutation bugs.
        """
        replay: Dict[str, float] = {}
        for entry in self._entries:
            if entry.kind is EntryKind.MINT:
                replay[entry.credit] = replay.get(entry.credit, 0.0) + entry.amount
            elif entry.kind is EntryKind.TRANSFER:
                replay[entry.debit] = replay.get(entry.debit, 0.0) - entry.amount
                replay[entry.credit] = replay.get(entry.credit, 0.0) + entry.amount
        for account in set(replay) | set(self._balances):
            if abs(replay.get(account, 0.0) - self._balances.get(account, 0.0)) > 1e-9:
                return False
        return True
