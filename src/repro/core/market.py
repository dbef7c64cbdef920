"""The MP-LEO data market (§3.2, §4).

"Consumers pay satellite operators to carry traffic, in proportion to
utilization.  These prices can be dynamically set, leading to open data
markets, or they can be predetermined."

Pieces:

* Pricing policies — :class:`FlatPricing` (predetermined) and
  :class:`CongestionPricing` (dynamic: price rises with satellite load,
  a simple open-market stand-in).
* :class:`DataMarket` — bills the session events the simulator produces.
  Intra-party sessions (a party's terminals on its own satellites) are
  free; only spare-capacity trades are billed, matching the paper's model
  where the same participant "can both be a consumer ... and a provider".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence

from repro.obs import get_logger, metrics
from repro.sim.events import SessionEvent

_LOG = get_logger(__name__)

_INVOICES = metrics.counter("core.market.invoices")
_BILLED_TOKENS = metrics.counter("core.market.billed_tokens")


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
    """Bills the spare-capacity trades among a run's sessions."""

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
