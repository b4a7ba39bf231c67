"""Smart-contract substrate: world state, gas, runtime, SmartCrowd contract.

Replaces the prototype's Ethereum/Solidity stack with a deterministic
Python contract host whose execution semantics (metered gas, value
escrow, atomic revert, event logs) match what the paper's incentive
scheme relies on.  Gas costs are calibrated to the paper's measured
0.095 ether per SRA deployment and 0.011 ether per detection report.
"""

from repro.contracts.contract import (
    CallContext,
    Contract,
    ContractError,
    ContractEvent,
    Receipt,
)
from repro.contracts.explorer import (
    DetectorStatement,
    Explorer,
    ReleaseStatement,
)
from repro.contracts.gas import (
    PAPER_REPORT_COST_WEI,
    PAPER_SRA_COST_WEI,
    fee_wei,
    gas_for,
)
from repro.contracts.smartcrowd_contract import (
    BountyAward,
    ContractPhase,
    SmartCrowdContract,
)
from repro.contracts.state import BURN_ADDRESS, InsufficientFunds, WorldState
from repro.contracts.vm import ContractRuntime

__all__ = [
    "BURN_ADDRESS",
    "BountyAward",
    "CallContext",
    "Contract",
    "ContractError",
    "ContractEvent",
    "ContractPhase",
    "ContractRuntime",
    "DetectorStatement",
    "Explorer",
    "InsufficientFunds",
    "PAPER_REPORT_COST_WEI",
    "PAPER_SRA_COST_WEI",
    "Receipt",
    "ReleaseStatement",
    "SmartCrowdContract",
    "WorldState",
    "fee_wei",
    "gas_for",
]
