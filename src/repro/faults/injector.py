"""The fault injector: replays a chaos plan against a live overlay.

:class:`FaultInjector` binds a :class:`~repro.faults.plan.ChaosPlan`
to a :class:`~repro.network.simulator.Simulator` and a
:class:`~repro.network.gossip.GossipNetwork`: every fault event is
scheduled on the simulation clock and applied exactly when simulated
time reaches it, interleaved deterministically with the workload's own
traffic.  Crashes and restarts go through the node lifecycle
(:meth:`~repro.network.node.Node.crash` /
:meth:`~repro.network.node.Node.restart`), so restart recovery hooks —
chain resync, mempool revalidation — fire exactly as they would in a
real process coming back up.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.faults.plan import DISK_FAULTS, ChaosPlan, FaultEvent, FaultKind
from repro.network.gossip import GossipNetwork
from repro.network.simulator import Simulator
from repro.store.faultinject import STORE_FAULTS
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules and applies a chaos plan.

    The injector keeps an applied-fault log (time, description) so
    gauntlet reports can interleave faults with invariant outcomes.
    """

    def __init__(
        self,
        simulator: Simulator,
        network: GossipNetwork,
        plan: ChaosPlan,
        rng: Optional[random.Random] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.simulator = simulator
        self.network = network
        self.plan = plan
        self._rng = rng if rng is not None else random.Random(0)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.log: List[Tuple[float, str]] = []
        self.faults_applied = 0
        self._armed = False

    def arm(self) -> int:
        """Schedule every plan event on the simulator; returns the count.

        Events are scheduled at absolute plan times; arming twice is an
        error (the plan would double-apply).  The plan's crash/restart
        ordering is validated first — a restart without a preceding
        crash, or a crash of an already-down node, is a plan bug and
        raises ValueError here rather than silently firing no-op
        lifecycle events mid-run.
        """
        if self._armed:
            raise RuntimeError("injector is already armed")
        self.plan.validate()
        self._armed = True
        for event in self.plan.events:
            self.simulator.schedule_at(
                max(event.at, self.simulator.now), self._apply, event
            )
        return len(self.plan.events)

    # -- application --------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind is FaultKind.CRASH:
            for name in event.targets[0]:
                self.network.crash_node(name)
        elif kind is FaultKind.RESTART:
            for name in event.targets[0]:
                self.network.restart_node(name)
        elif kind is FaultKind.PARTITION:
            side_a, side_b = event.targets
            self.network.partition(side_a, side_b)
        elif kind is FaultKind.HEAL_PARTITION:
            side_a, side_b = event.targets
            for a in side_a:
                for b in side_b:
                    self.network.heal_link(a, b)
        elif kind is FaultKind.SET_LOSS:
            self.network.loss_rate = event.value
        elif kind is FaultKind.SET_DUPLICATION:
            self.network.duplication_rate = event.value
        elif kind is FaultKind.DELAY_SPIKE:
            max_extra = event.value
            self.network.extra_delay = (
                lambda _src, _dst, rng, _cap=max_extra: rng.uniform(0.0, _cap)
            )
        elif kind is FaultKind.CLEAR_DELAY_SPIKE:
            self.network.extra_delay = None
        elif kind in DISK_FAULTS:
            self._apply_disk_fault(event)
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unknown fault kind {kind!r}")
        self.faults_applied += 1
        self.log.append((self.simulator.now, event.describe()))
        if self.telemetry.enabled:
            self.telemetry.counter("faults.injected", kind=kind.name.lower()).inc()
            self.telemetry.event("fault.injected", fault=event.describe())

    def _apply_disk_fault(self, event: FaultEvent) -> None:
        """Corrupt the target nodes' durable stores (they must exist).

        Plan validation already guarantees the node is down; real disk
        corruption happens *behind* a dead process, and the damage only
        surfaces when the restart's store recovery scans the log.
        """
        fault = STORE_FAULTS[event.kind.value]
        for name in event.targets[0]:
            store = getattr(self.network.node(name), "store", None)
            if store is None:
                raise ValueError(
                    f"{event.kind.value} targets {name!r}, which has no "
                    "durable store attached"
                )
            # Plan params are the fault's arguments in positional order.
            fault(store, *event.params)

    # -- views ---------------------------------------------------------------

    def describe_log(self) -> str:
        """The applied faults, one per line."""
        return "\n".join(description for _, description in self.log)
