"""The MP-LEO data market (§3.2, §4).

"Consumers pay satellite operators to carry traffic, in proportion to
utilization.  These prices can be dynamically set, leading to open data
markets, or they can be predetermined."

Pieces:

* Pricing policies — :class:`FlatPricing` (predetermined) and
  :class:`CongestionPricing` (dynamic: price rises with satellite load,
  a simple open-market stand-in).
* :class:`DataMarket` — bills the session events the simulator produces and
  settles them on a :class:`~repro.core.ledger.TokenLedger`.  Intra-party
  sessions (a party's terminals on its own satellites) are free; only
  spare-capacity trades settle, matching the paper's model where the same
  participant "can both be a consumer ... and a provider".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.core.ledger import TokenLedger
from repro.obs import get_logger, metrics
from repro.obs import timeline as obs_timeline
from repro.sim.events import SessionEvent

_LOG = get_logger(__name__)

_INVOICES = metrics.counter("core.market.invoices")
_BILLED_TOKENS = metrics.counter("core.market.billed_tokens")
_SETTLEMENTS = metrics.counter("core.market.settlements")
_SETTLED_TOKENS = metrics.counter("core.market.settled_tokens")


class PricingPolicy(Protocol):
    """Maps a session to a price in tokens."""

    def price(self, session: SessionEvent, utilization: float) -> float:
        """Price one session given the provider satellite's mean utilization."""
        ...


@dataclass(frozen=True)
class FlatPricing:
    """Predetermined price per megabit."""

    tokens_per_megabit: float = 0.001

    def __post_init__(self) -> None:
        if self.tokens_per_megabit < 0.0:
            raise ValueError("price must be non-negative")

    def price(self, session: SessionEvent, utilization: float) -> float:
        return session.volume_megabits * self.tokens_per_megabit


@dataclass(frozen=True)
class CongestionPricing:
    """Dynamic price rising with provider utilization.

    price/Mb = base * (1 + slope * utilization); a crude open-market proxy:
    heavily used satellites command higher prices, idle ones discount to
    attract traffic (the equilibrium question the paper leaves open).
    """

    base_tokens_per_megabit: float = 0.001
    slope: float = 4.0

    def __post_init__(self) -> None:
        if self.base_tokens_per_megabit < 0.0:
            raise ValueError("base price must be non-negative")
        if self.slope < 0.0:
            raise ValueError("slope must be non-negative")

    def price(self, session: SessionEvent, utilization: float) -> float:
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization must be in [0, 1], got {utilization}")
        return session.volume_megabits * self.base_tokens_per_megabit * (
            1.0 + self.slope * utilization
        )


@dataclass(frozen=True)
class Invoice:
    """One priced spare-capacity session."""

    session: SessionEvent
    tokens: float

    @property
    def consumer(self) -> str:
        return self.session.terminal_party

    @property
    def provider(self) -> str:
        return self.session.sat_party


@dataclass
class DataMarket:
    """Bills sessions and settles spare-capacity trades on a ledger."""

    pricing: PricingPolicy = field(default_factory=FlatPricing)

    def bill(
        self,
        sessions: Sequence[SessionEvent],
        utilization_by_sat: Optional[Dict[str, float]] = None,
    ) -> List[Invoice]:
        """Price every cross-party session.

        Args:
            sessions: Engine session events.
            utilization_by_sat: Mean utilization per satellite id, for
                dynamic pricing (defaults to 0 for all).
        """
        utilization_by_sat = utilization_by_sat or {}
        invoices = []
        for session in sessions:
            if not session.is_spare_capacity:
                continue  # Own-satellite traffic is not traded.
            utilization = utilization_by_sat.get(session.sat_id, 0.0)
            tokens = self.pricing.price(session, utilization)
            if tokens > 0.0:
                invoices.append(Invoice(session=session, tokens=tokens))
        _INVOICES.inc(len(invoices))
        _BILLED_TOKENS.inc(sum(invoice.tokens for invoice in invoices))
        _LOG.debug(
            "billed %d spare-capacity sessions out of %d total",
            len(invoices), len(sessions),
        )
        return invoices

    def settle(
        self, invoices: Sequence[Invoice], ledger: TokenLedger
    ) -> Dict[Tuple[str, str], float]:
        """Net and transfer invoice amounts between parties on the ledger.

        Amounts are netted pairwise first (A owes B 10, B owes A 4 -> one
        6-token transfer), reducing ledger churn and matching how clearing
        houses settle.

        Returns:
            Map (debtor, creditor) -> transferred amount.

        Raises:
            LedgerError: If a debtor lacks balance (callers should bootstrap
                accounts or mint against collateral first).
        """
        net: Dict[Tuple[str, str], float] = {}
        for invoice in invoices:
            pair = (invoice.consumer, invoice.provider)
            net[pair] = net.get(pair, 0.0) + invoice.tokens

        transfers: Dict[Tuple[str, str], float] = {}
        seen = set()
        for (debtor, creditor), amount in sorted(net.items()):
            if (debtor, creditor) in seen:
                continue
            reverse = net.get((creditor, debtor), 0.0)
            seen.add((debtor, creditor))
            seen.add((creditor, debtor))
            balance = amount - reverse
            if balance > 0.0:
                ledger.transfer(debtor, creditor, balance, memo="market settlement")
                transfers[(debtor, creditor)] = balance
            elif balance < 0.0:
                ledger.transfer(creditor, debtor, -balance, memo="market settlement")
                transfers[(creditor, debtor)] = -balance
        # Settlement is a run-level act with no simulation timestamp of its
        # own; events land at t=0 and carry the counterparty + amount.
        for (payer, payee), amount in sorted(transfers.items()):
            obs_timeline.emit(
                obs_timeline.MARKET_SETTLEMENT,
                0.0,
                payer,
                party=payer,
                payee=payee,
                tokens=amount,
            )
        _SETTLEMENTS.inc(len(transfers))
        _SETTLED_TOKENS.inc(sum(transfers.values()))
        _LOG.debug(
            "settled %d invoices into %d netted transfers",
            len(invoices), len(transfers),
        )
        return transfers
