"""Gas schedule calibrated to the paper's measured costs.

The prototype measures (§VII):

* releasing an IoT system (deploying the SRA contract) costs ≈ 0.095
  ether of gas;
* submitting one detection report costs ≈ 0.011 ether (Fig. 6(b)),
  "negligible compared to the allocated incentives".

We reproduce those absolute numbers with an Ethereum-style split:
operation gas × gas price.  At the 100 gwei price, SRA deployment is
950,000 gas and a report is 110,000 gas.  The table is the one price
list of the reproduction: the contracts charge it, and Eq. 8–10's ψ, c
and cp (:class:`~repro.core.incentives.IncentiveParameters`) read it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from repro.units import GWEI, to_wei

__all__ = [
    "GAS_PRICE_WEI",
    "OPERATION_GAS",
    "PAPER_REPORT_COST_WEI",
    "PAPER_SRA_COST_WEI",
    "fee_wei",
    "gas_for",
]

#: ≈0.095 ether — cost the paper measures per SRA contract deployment.
PAPER_SRA_COST_WEI = to_wei(0.095)

#: ≈0.011 ether — cost the paper measures per detection report (Fig. 6(b)).
PAPER_REPORT_COST_WEI = to_wei(0.011)

#: The network gas price.
GAS_PRICE_WEI = 100 * GWEI

#: Gas units per operation; an operation not listed costs ``default``.
OPERATION_GAS: Mapping[str, int] = MappingProxyType(
    {
        "deploy_sra": 950_000,
        "submit_initial_report": 55_000,
        "submit_detailed_report": 55_000,
        "confirm_report": 40_000,
        "refund_insurance": 30_000,
        "transfer": 21_000,
        "default": 25_000,
    }
)


def gas_for(operation: str) -> int:
    """Gas units for an operation (falls back to ``default``)."""
    return OPERATION_GAS.get(operation, OPERATION_GAS["default"])


def fee_wei(operation: str) -> int:
    """Fee in wei: gas × price."""
    return gas_for(operation) * GAS_PRICE_WEI
