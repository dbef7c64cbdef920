"""Tests for the data market."""

import pytest

from repro.core.market import (
    CongestionPricing,
    DataMarket,
    FlatPricing,
)
from repro.obs import metrics
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


class TestPricingBounds:
    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError, match="slope"):
            CongestionPricing(slope=-1.0)

    @pytest.mark.parametrize("utilization", [0.0, 1.0])
    def test_congestion_accepts_utilization_bounds(self, utilization):
        pricing = CongestionPricing(base_tokens_per_megabit=0.01, slope=4.0)
        price = pricing.price(_session("a", "b"), utilization)
        assert price == pytest.approx(60.0 * (1.0 + 4.0 * utilization))

    @pytest.mark.parametrize("utilization", [-0.01, 1.01])
    def test_congestion_rejects_utilization_outside_unit_interval(self, utilization):
        with pytest.raises(ValueError, match="utilization"):
            CongestionPricing().price(_session("a", "b"), utilization)

    def test_zero_slope_is_flat_pricing(self):
        session = _session("a", "b")
        flat = FlatPricing(0.01)
        congestion = CongestionPricing(base_tokens_per_megabit=0.01, slope=0.0)
        for utilization in (0.0, 0.5, 1.0):
            assert congestion.price(session, utilization) == pytest.approx(
                flat.price(session, utilization)
            )

    def test_price_scales_with_volume(self):
        pricing = FlatPricing(0.01)
        short = pricing.price(_session("a", "b", duration=30.0), 0.0)
        long = pricing.price(_session("a", "b", duration=90.0), 0.0)
        assert long == pytest.approx(3.0 * short)


class TestBillingEdges:
    def test_no_sessions_no_invoices(self):
        assert DataMarket().bill([]) == []

    def test_default_pricing_is_flat(self):
        invoices = DataMarket().bill([_session("a", "b")])  # 6000 Mb.
        assert invoices[0].tokens == pytest.approx(6000.0 * 0.001)

    def test_free_pricing_issues_no_invoices(self):
        market = DataMarket(pricing=FlatPricing(0.0))
        assert market.bill([_session("a", "b")]) == []

    def test_unlisted_satellite_billed_at_idle_price(self):
        market = DataMarket(pricing=CongestionPricing(0.01, slope=4.0))
        session = _session("a", "b", sat_id="QUIET")
        listed = market.bill([session], utilization_by_sat={"QUIET": 0.0})
        unlisted = market.bill([session], utilization_by_sat={"OTHER": 1.0})
        assert unlisted[0].tokens == pytest.approx(listed[0].tokens)

    def test_invoice_keeps_its_session(self):
        session = _session("a", "b")
        (invoice,) = DataMarket().bill([session])
        assert invoice.session is session

    def test_bill_counts_invoices_and_tokens(self):
        invoices_before = metrics.counter("core.market.invoices").value
        tokens_before = metrics.counter("core.market.billed_tokens").value
        market = DataMarket(pricing=FlatPricing(0.01))
        market.bill([_session("a", "a"), _session("a", "b"), _session("b", "c")])
        assert metrics.counter("core.market.invoices").value - invoices_before == 2
        assert metrics.counter(
            "core.market.billed_tokens"
        ).value - tokens_before == pytest.approx(120.0)
