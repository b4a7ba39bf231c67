"""Contract runtime: deploy/call with gas metering and atomic revert.

Stands in for the EVM the paper's prototype runs on.  Execution
semantics preserved from Ethereum:

* the caller pays ``gas × gas_price`` to the fee collector (the miner
  of the including block) whether or not the call succeeds;
* value sent with a call is credited to the contract's escrow account
  before the method body runs;
* any :class:`~repro.contracts.contract.ContractError` reverts all
  balance movements of the call (but not the gas fee);
* events are only visible for successful calls.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

from repro.contracts.contract import (
    CallContext,
    Contract,
    ContractError,
    ContractEvent,
    ContractRuntimeApi,
    Receipt,
)
from repro.contracts.gas import fee_wei, gas_for
from repro.contracts.state import BURN_ADDRESS, InsufficientFunds, WorldState
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import Address
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["ContractRuntime", "Receipt"]


class ContractRuntime(ContractRuntimeApi):
    """Deterministic smart-contract host over a :class:`WorldState`."""

    def __init__(self, telemetry: Optional[Telemetry] = None) -> None:
        self.state = WorldState()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Where gas fees go; the consensus layer points this at the
        #: current block's miner so fees become ψ·ω income (Eq. 8).
        self.fee_collector: Address = BURN_ADDRESS
        self.block_time: float = 0.0
        self._contracts: Dict[Address, Contract] = {}
        self._events: List[ContractEvent] = []
        self._pending_events: List[ContractEvent] = []
        self._deploy_counter = itertools.count()
        #: Escrow outflows of the call in flight (committed on success).
        self._pending_payout_wei = 0
        self._pending_payouts = 0

    # -- ContractRuntimeApi -------------------------------------------------

    def contract_balance(self, contract: Address) -> int:
        return self.state.balance(contract)

    def contract_pay(
        self, contract: Address, recipient: Address, amount_wei: int
    ) -> None:
        self.state.transfer(contract, recipient, amount_wei)
        # Buffered, then committed by _execute only if the call sticks —
        # a reverted call's payouts never happened.
        self._pending_payout_wei += amount_wei
        self._pending_payouts += 1

    def emit(self, event: ContractEvent) -> None:
        self._pending_events.append(event)

    # -- host interface -------------------------------------------------

    @property
    def events(self) -> List[ContractEvent]:
        """All events from successful calls, in order."""
        return list(self._events)

    def events_named(self, name: str) -> List[ContractEvent]:
        """Filter the log by event name."""
        return [event for event in self._events if event.name == name]

    def events_since(self, start: int) -> List[ContractEvent]:
        """Events committed at log position ``start`` or later.

        The log is append-only (reverted calls never commit), so a
        cursor over it is stable: incremental consumers
        (:class:`repro.query.EventIndex`) remember how many events they
        have absorbed and fetch only the suffix.
        """
        return list(self._events[start:])

    def get_contract(self, address: Address) -> Optional[Contract]:
        """Look up a deployed contract."""
        return self._contracts.get(address)

    def advance_time(self, block_time: float) -> None:
        """Move the simulated block timestamp forward."""
        if block_time < self.block_time:
            raise ValueError("block time cannot move backwards")
        self.block_time = block_time

    def deploy(
        self,
        contract: Contract,
        sender: Address,
        value_wei: int = 0,
        operation: str = "deploy_sra",
    ) -> Receipt:
        """Deploy a contract instance, charging deployment gas.

        The new contract address is derived from the sender and a
        deployment counter (as Ethereum derives it from sender+nonce).
        """
        address = Address(
            hash_fields(b"contract", sender.value, next(self._deploy_counter))[-20:]
        )
        return self._execute(
            operation=operation,
            sender=sender,
            value_wei=value_wei,
            contract=contract,
            address=address,
            method="on_deploy",
            args=(),
            kwargs={},
            is_deploy=True,
        )

    def call(
        self,
        address: Address,
        method: str,
        sender: Address,
        value_wei: int = 0,
        operation: Optional[str] = None,
        *args: Any,
        **kwargs: Any,
    ) -> Receipt:
        """Invoke ``method`` on the contract at ``address``."""
        contract = self._contracts.get(address)
        if contract is None:
            raise ContractError(f"no contract at {address}")
        return self._execute(
            operation=operation or method,
            sender=sender,
            value_wei=value_wei,
            contract=contract,
            address=address,
            method=method,
            args=args,
            kwargs=kwargs,
            is_deploy=False,
        )

    def _execute(
        self,
        operation: str,
        sender: Address,
        value_wei: int,
        contract: Contract,
        address: Address,
        method: str,
        args: tuple,
        kwargs: dict,
        is_deploy: bool,
    ) -> Receipt:
        if value_wei < 0:
            raise ValueError("call value cannot be negative")
        # Gas is charged up front and never refunded, as on Ethereum.
        fee = fee_wei(operation)
        gas_used = gas_for(operation)
        try:
            self.state.transfer(sender, self.fee_collector, fee)
        except InsufficientFunds as exc:
            if self.telemetry.enabled:
                self.telemetry.counter(
                    "contract.calls", operation=operation, outcome="no_gas"
                ).inc()
            return Receipt(
                success=False,
                contract=address,
                operation=operation,
                gas_used=0,
                fee_wei=0,
                error=f"cannot pay gas: {exc}",
            )

        snapshot = self.state.snapshot()
        self._pending_events = []
        self._pending_payout_wei = 0
        self._pending_payouts = 0
        try:
            self.state.transfer(sender, address, value_wei)
            ctx = CallContext(
                sender=sender,
                value_wei=value_wei,
                block_time=self.block_time,
                runtime=self,
            )
            if is_deploy:
                contract.address = address
                contract.owner = sender
                self._contracts[address] = contract
                result = contract.on_deploy(ctx)
            else:
                bound = getattr(contract, method, None)
                if bound is None or method.startswith("_"):
                    raise ContractError(f"no public method {method!r}")
                result = bound(ctx, *args, **kwargs)
        except (ContractError, InsufficientFunds) as exc:
            self.state.restore(snapshot)
            if is_deploy:
                self._contracts.pop(address, None)
                contract.address = None
                contract.owner = None
            self._pending_events = []
            if self.telemetry.enabled:
                telemetry = self.telemetry
                telemetry.counter(
                    "contract.calls", operation=operation, outcome="reverted"
                ).inc()
                # Gas is burned even on revert, as on Ethereum.
                telemetry.counter("contract.gas_wei").inc(fee)
                telemetry.histogram(
                    "contract.gas_used", operation=operation
                ).observe(gas_used)
                telemetry.event(
                    "contract.revert", operation=operation, error=str(exc)
                )
            return Receipt(
                success=False,
                contract=address,
                operation=operation,
                gas_used=gas_used,
                fee_wei=fee,
                error=str(exc),
            )
        committed_events = tuple(self._pending_events)
        self._events.extend(committed_events)
        self._pending_events = []
        if self.telemetry.enabled:
            telemetry = self.telemetry
            telemetry.counter(
                "contract.calls", operation=operation, outcome="ok"
            ).inc()
            telemetry.counter("contract.gas_wei").inc(fee)
            telemetry.histogram(
                "contract.gas_used", operation=operation
            ).observe(gas_used)
            if value_wei:
                # Escrow inflows: insurance/bounty deposits sent with calls.
                telemetry.counter("contract.deposit_wei").inc(value_wei)
            if self._pending_payout_wei:
                telemetry.counter("contract.payout_wei").inc(
                    self._pending_payout_wei
                )
                telemetry.counter("contract.payouts").inc(self._pending_payouts)
            if is_deploy:
                telemetry.event(
                    "contract.deploy",
                    operation=operation,
                    address=address.value.hex()[:16],
                    value_wei=value_wei,
                )
        return Receipt(
            success=True,
            contract=address,
            operation=operation,
            gas_used=gas_used,
            fee_wei=fee,
            return_value=result,
            events=committed_events,
        )
