"""Tests for the data market."""

import pytest

from repro.core.ledger import LedgerError, TokenLedger
from repro.core.market import (
    CongestionPricing,
    DataMarket,
    FlatPricing,
)
from repro.sim.events import SessionEvent


def _session(consumer, provider, rate=100.0, duration=60.0, sat_id="S1"):
    return SessionEvent(
        terminal_name=f"ut-{consumer}",
        sat_id=sat_id,
        station_name=f"gs-{consumer}",
        terminal_party=consumer,
        sat_party=provider,
        start_s=0.0,
        stop_s=duration,
        rate_mbps=rate,
    )


class TestPricing:
    def test_flat_price(self):
        pricing = FlatPricing(tokens_per_megabit=0.01)
        session = _session("a", "b", rate=100.0, duration=60.0)  # 6000 Mb.
        assert pricing.price(session, 0.0) == pytest.approx(60.0)

    def test_flat_ignores_utilization(self):
        pricing = FlatPricing(0.01)
        session = _session("a", "b")
        assert pricing.price(session, 0.0) == pricing.price(session, 1.0)

    def test_congestion_raises_price_with_load(self):
        pricing = CongestionPricing(base_tokens_per_megabit=0.01, slope=4.0)
        session = _session("a", "b")
        idle = pricing.price(session, 0.0)
        busy = pricing.price(session, 1.0)
        assert busy == pytest.approx(5.0 * idle)

    def test_congestion_validates_utilization(self):
        pricing = CongestionPricing()
        with pytest.raises(ValueError, match="utilization"):
            pricing.price(_session("a", "b"), 1.5)

    def test_negative_prices_rejected(self):
        with pytest.raises(ValueError):
            FlatPricing(-0.1)
        with pytest.raises(ValueError):
            CongestionPricing(base_tokens_per_megabit=-0.1)


class TestBilling:
    def test_only_cross_party_billed(self):
        market = DataMarket(pricing=FlatPricing(0.01))
        sessions = [_session("a", "a"), _session("a", "b")]
        invoices = market.bill(sessions)
        assert len(invoices) == 1
        assert invoices[0].provider == "b"

    def test_zero_rate_sessions_skipped(self):
        market = DataMarket(pricing=FlatPricing(0.01))
        invoices = market.bill([_session("a", "b", rate=0.0)])
        assert invoices == []

    def test_utilization_passed_to_pricing(self):
        market = DataMarket(pricing=CongestionPricing(0.01, slope=1.0))
        session = _session("a", "b", sat_id="BUSY")
        cheap = market.bill([session], utilization_by_sat={"BUSY": 0.0})
        pricey = market.bill([session], utilization_by_sat={"BUSY": 1.0})
        assert pricey[0].tokens == pytest.approx(2 * cheap[0].tokens)

    def test_invoices_name_consumer_and_provider(self):
        market = DataMarket(pricing=FlatPricing(0.001))
        invoices = market.bill(
            [_session("a", "b"), _session("a", "c"), _session("b", "c")]
        )
        assert [(i.consumer, i.provider) for i in invoices] == [
            ("a", "b"), ("a", "c"), ("b", "c")
        ]
        assert all(i.tokens == pytest.approx(6.0) for i in invoices)


class TestSettlement:
    def test_simple_settlement(self):
        ledger = TokenLedger()
        ledger.mint("a", 100.0)
        market = DataMarket(pricing=FlatPricing(0.001))
        invoices = market.bill([_session("a", "b")])  # 6 tokens.
        transfers = market.settle(invoices, ledger)
        assert transfers[("a", "b")] == pytest.approx(6.0)
        assert ledger.balance("b") == pytest.approx(6.0)

    def test_pairwise_netting(self):
        ledger = TokenLedger()
        ledger.mint("a", 100.0)
        ledger.mint("b", 100.0)
        market = DataMarket(pricing=FlatPricing(0.001))
        invoices = market.bill(
            [
                _session("a", "b", rate=100.0),  # a owes b 6.
                _session("b", "a", rate=50.0),  # b owes a 3.
            ]
        )
        transfers = market.settle(invoices, ledger)
        assert transfers == {("a", "b"): pytest.approx(3.0)}
        assert ledger.balance("b") == pytest.approx(103.0)
        assert ledger.balance("a") == pytest.approx(97.0)

    def test_balanced_trade_transfers_nothing(self):
        ledger = TokenLedger()
        ledger.mint("a", 10.0)
        ledger.mint("b", 10.0)
        market = DataMarket(pricing=FlatPricing(0.001))
        invoices = market.bill(
            [_session("a", "b", rate=100.0), _session("b", "a", rate=100.0)]
        )
        transfers = market.settle(invoices, ledger)
        assert transfers == {}
        assert ledger.balance("a") == 10.0

    def test_insolvent_consumer_raises(self):
        ledger = TokenLedger()  # "a" has no balance.
        market = DataMarket(pricing=FlatPricing(0.001))
        invoices = market.bill([_session("a", "b")])
        with pytest.raises(LedgerError, match="overdraft"):
            market.settle(invoices, ledger)
