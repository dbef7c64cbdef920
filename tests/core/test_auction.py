"""Tests for the double-auction market clearing."""

import pytest
from hypothesis import given, strategies as st

from repro.core.auction import (
    Ask,
    AuctionResult,
    Bid,
    Trade,
    asks_from_spare_capacity,
    clear_double_auction,
)


class TestOrders:
    def test_bid_validation(self):
        with pytest.raises(ValueError, match="quantity"):
            Bid("a", 0.0, 1.0)
        with pytest.raises(ValueError, match="price"):
            Bid("a", 1.0, -1.0)

    def test_ask_validation(self):
        with pytest.raises(ValueError, match="quantity"):
            Ask("a", -1.0, 1.0)


class TestClearing:
    def test_simple_cross(self):
        result = clear_double_auction(
            [Bid("buyer", 100.0, 10.0)], [Ask("seller", 100.0, 4.0)]
        )
        assert result.cleared
        assert result.traded_quantity == 100.0
        assert result.clearing_price == pytest.approx(7.0)  # Midpoint.

    def test_no_cross_no_trade(self):
        result = clear_double_auction(
            [Bid("buyer", 100.0, 3.0)], [Ask("seller", 100.0, 5.0)]
        )
        assert not result.cleared
        assert result.trades == ()

    def test_empty_side(self):
        assert not clear_double_auction([], [Ask("s", 1.0, 1.0)]).cleared
        assert not clear_double_auction([Bid("b", 1.0, 1.0)], []).cleared

    def test_quantity_limited_by_short_side(self):
        result = clear_double_auction(
            [Bid("b", 50.0, 10.0)], [Ask("s", 200.0, 1.0)]
        )
        assert result.traded_quantity == 50.0

    def test_k_parameter_moves_price(self):
        bids = [Bid("b", 10.0, 10.0)]
        asks = [Ask("s", 10.0, 4.0)]
        seller_favoring = clear_double_auction(bids, asks, k=1.0)
        buyer_favoring = clear_double_auction(bids, asks, k=0.0)
        assert seller_favoring.clearing_price == pytest.approx(10.0)
        assert buyer_favoring.clearing_price == pytest.approx(4.0)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            clear_double_auction([Bid("b", 1.0, 1.0)], [Ask("s", 1.0, 1.0)], k=1.5)

    def test_efficient_quantity_multiple_orders(self):
        bids = [
            Bid("b1", 10.0, 10.0),
            Bid("b2", 10.0, 6.0),
            Bid("b3", 10.0, 2.0),  # Priced out.
        ]
        asks = [
            Ask("s1", 10.0, 1.0),
            Ask("s2", 10.0, 5.0),
            Ask("s3", 10.0, 9.0),  # Priced out.
        ]
        result = clear_double_auction(bids, asks)
        assert result.traded_quantity == 20.0
        # Marginal bid 6, marginal ask 5 -> price 5.5.
        assert result.clearing_price == pytest.approx(5.5)

    def test_high_bidders_and_cheap_sellers_trade_first(self):
        bids = [Bid("cheap", 10.0, 2.0), Bid("rich", 10.0, 20.0)]
        asks = [Ask("dear", 10.0, 15.0), Ask("bargain", 10.0, 1.0)]
        result = clear_double_auction(bids, asks)
        # Only rich x bargain crosses after sorting.
        assert result.buyer_quantity("rich") == 10.0
        assert result.buyer_quantity("cheap") == 0.0
        assert result.seller_quantity("bargain") == 10.0

    def test_partial_fill_across_orders(self):
        bids = [Bid("b1", 15.0, 10.0)]
        asks = [Ask("s1", 10.0, 1.0), Ask("s2", 10.0, 2.0)]
        result = clear_double_auction(bids, asks)
        assert result.traded_quantity == 15.0
        assert result.seller_quantity("s1") == 10.0
        assert result.seller_quantity("s2") == 5.0

    def test_trades_sum_to_traded_quantity(self):
        bids = [Bid(f"b{i}", 7.0, 10.0 - i) for i in range(5)]
        asks = [Ask(f"s{i}", 5.0, 1.0 + i) for i in range(5)]
        result = clear_double_auction(bids, asks)
        assert sum(t.quantity for t in result.trades) == pytest.approx(
            result.traded_quantity
        )

    def test_trades_are_valued_at_the_clearing_price(self):
        bids = [Bid(f"b{i}", 7.0, 10.0 - i) for i in range(5)]
        asks = [Ask(f"s{i}", 5.0, 1.0 + i) for i in range(5)]
        result = clear_double_auction(bids, asks)
        assert result.trades
        for trade in result.trades:
            assert trade.price == result.clearing_price
            assert trade.value == pytest.approx(trade.quantity * result.clearing_price)
        assert sum(t.value for t in result.trades) == pytest.approx(
            result.traded_quantity * result.clearing_price
        )

    @given(
        st.lists(
            st.tuples(st.floats(1.0, 50.0), st.floats(0.0, 20.0)),
            min_size=1, max_size=8,
        ),
        st.lists(
            st.tuples(st.floats(1.0, 50.0), st.floats(0.0, 20.0)),
            min_size=1, max_size=8,
        ),
    )
    def test_individual_rationality(self, bid_specs, ask_specs):
        """No buyer pays above its bid; no seller receives below its ask."""
        bids = [Bid(f"b{i}", q, p) for i, (q, p) in enumerate(bid_specs)]
        asks = [Ask(f"s{i}", q, p) for i, (q, p) in enumerate(ask_specs)]
        result = clear_double_auction(bids, asks)
        if not result.cleared:
            return
        bid_price = {bid.party: bid.price for bid in bids}
        ask_price = {ask.party: ask.price for ask in asks}
        for trade in result.trades:
            assert trade.price <= bid_price[trade.buyer] + 1e-9
            assert trade.price >= ask_price[trade.seller] - 1e-9

    @given(
        st.lists(
            st.tuples(st.floats(1.0, 50.0), st.floats(0.0, 20.0)),
            min_size=1, max_size=8,
        ),
        st.lists(
            st.tuples(st.floats(1.0, 50.0), st.floats(0.0, 20.0)),
            min_size=1, max_size=8,
        ),
    )
    def test_supply_demand_balance(self, bid_specs, ask_specs):
        """No party trades more than it ordered."""
        bids = [Bid(f"b{i}", q, p) for i, (q, p) in enumerate(bid_specs)]
        asks = [Ask(f"s{i}", q, p) for i, (q, p) in enumerate(ask_specs)]
        result = clear_double_auction(bids, asks)
        for bid in bids:
            assert result.buyer_quantity(bid.party) <= bid.quantity + 1e-9
        for ask in asks:
            assert result.seller_quantity(ask.party) <= ask.quantity + 1e-9


class TestAsksFromSpareCapacity:
    def test_conversion(self):
        asks = asks_from_spare_capacity({"a": 100.0, "b": 0.0, "c": 50.0}, 2.0)
        assert [ask.party for ask in asks] == ["a", "c"]
        assert all(ask.price == 2.0 for ask in asks)

    def test_rejects_negative_reserve(self):
        with pytest.raises(ValueError, match="reserve"):
            asks_from_spare_capacity({"a": 1.0}, -1.0)
