"""Tests for the token ledger."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.core.ledger import EntryKind, LedgerError, TokenLedger


@pytest.fixture
def ledger():
    book = TokenLedger()
    book.mint("a", 100.0)
    book.mint("b", 50.0)
    return book


class TestMint:
    def test_balance(self, ledger):
        assert ledger.balance("a") == 100.0

    def test_total_supply(self, ledger):
        assert sum(ledger.balances().values()) == 150.0

    def test_rejects_zero_amount(self, ledger):
        with pytest.raises(LedgerError, match="positive"):
            ledger.mint("a", 0.0)

    def test_rejects_negative(self, ledger):
        with pytest.raises(LedgerError, match="positive"):
            ledger.mint("a", -5.0)

    def test_rejects_empty_account(self, ledger):
        with pytest.raises(LedgerError, match="account"):
            ledger.mint("", 5.0)

    def test_entry_recorded(self, ledger):
        entry = ledger.mint("c", 10.0, memo="reward")
        assert entry.kind is EntryKind.MINT
        assert entry.credit == "c"
        assert entry.memo == "reward"


class TestTransfer:
    def test_moves_balance(self, ledger):
        ledger.transfer("a", "b", 30.0)
        assert ledger.balance("a") == 70.0
        assert ledger.balance("b") == 80.0

    def test_preserves_supply(self, ledger):
        ledger.transfer("a", "b", 30.0)
        assert sum(ledger.balances().values()) == 150.0

    def test_overdraft_rejected(self, ledger):
        with pytest.raises(LedgerError, match="overdraft"):
            ledger.transfer("b", "a", 51.0)

    def test_self_transfer_rejected(self, ledger):
        with pytest.raises(LedgerError, match="same account"):
            ledger.transfer("a", "a", 1.0)

    def test_transfer_to_new_account(self, ledger):
        ledger.transfer("a", "newcomer", 10.0)
        assert ledger.balance("newcomer") == 10.0

    def test_unknown_debtor_is_overdraft(self, ledger):
        with pytest.raises(LedgerError, match="overdraft"):
            ledger.transfer("ghost", "a", 1.0)


class TestIntegrity:
    def test_verify_clean_ledger(self, ledger):
        ledger.transfer("a", "b", 10.0)
        ledger.mint("c", 5.0)
        assert ledger.verify()

    def test_verify_detects_tampering(self, ledger):
        ledger._balances["a"] += 1.0  # Simulated corruption.
        assert not ledger.verify()

    def test_verify_detects_tampered_entry(self, ledger):
        entry = ledger.transfer("a", "b", 10.0)
        ledger._entries[-1] = dataclasses.replace(entry, amount=11.0)
        assert not ledger.verify()

    def test_verify_detects_dropped_entry(self, ledger):
        ledger.mint("c", 5.0)
        del ledger._entries[-1]
        assert not ledger.verify()

    def test_balances_view_excludes_zero(self, ledger):
        ledger.transfer("b", "a", 50.0)
        assert "b" not in ledger.balances()

    def test_entries_sequence_monotone(self, ledger):
        entries = [ledger.transfer("a", "b", 1.0), ledger.mint("c", 1.0)]
        # The fixture's two mints hold sequences 0 and 1.
        assert [entry.sequence for entry in entries] == [2, 3]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["mint", "transfer"]),
                st.sampled_from(["x", "y", "z"]),
                st.sampled_from(["x", "y", "z"]),
                st.floats(0.01, 100.0),
            ),
            max_size=50,
        )
    )
    def test_random_operations_preserve_invariants(self, operations):
        """Balances stay non-negative and replay always verifies."""
        book = TokenLedger()
        for kind, debit, credit, amount in operations:
            try:
                if kind == "mint":
                    book.mint(credit, amount)
                else:
                    book.transfer(debit, credit, amount)
            except LedgerError:
                pass  # Overdrafts/self-transfers correctly rejected.
        assert all(balance >= 0.0 for balance in book._balances.values())
        assert book.verify()
