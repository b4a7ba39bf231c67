"""The fault injector: replays a chaos plan against a live fleet.

:class:`FaultInjector` binds a :class:`~repro.faults.plan.ChaosPlan`
to any fleet engine — :class:`~repro.core.distributed.DistributedChain`,
either workflow front-end, or
:class:`~repro.shard.engine.ShardedSimulator` — and schedules every
fault event on the engine's clock, so it is applied exactly when fleet
time reaches it, interleaved deterministically with the workload's own
traffic.  A node fault goes through the engine's own verbs
(:meth:`~repro.core.distributed.FleetControlPlane.crash` /
``restart`` / ``inject_store_fault``), so restart recovery hooks —
store recovery, chain resync, mempool revalidation — fire exactly as
they would in a real process coming back up; a link fault is set on
every world's overlay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.faults.plan import ChaosPlan, FaultEvent, FaultKind
from repro.telemetry import NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:
    from repro.core.distributed import FleetControlPlane

__all__ = ["FaultInjector"]


class FaultInjector:
    """Arms a chaos plan on any fleet engine, through its fault verbs.

    The injector keeps an applied-fault log (time, description) so
    gauntlet reports can interleave faults with invariant outcomes.
    """

    def __init__(
        self,
        fleet: "FleetControlPlane",
        plan: ChaosPlan,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.fleet = fleet
        self.plan = plan
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.log: List[Tuple[float, str]] = []
        self.faults_applied = 0
        self._armed = False

    def arm(self) -> int:
        """Schedule every plan event on the fleet clock; returns the count.

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
        clock = self.fleet._clock
        for event in self.plan.events:
            clock.schedule_at(max(event.at, clock.now), self._apply, event)
        return len(self.plan.events)

    # -- application --------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        kind = event.kind
        fleet = self.fleet
        if kind is FaultKind.CRASH:
            for name in event.targets[0]:
                fleet.crash(name)
        elif kind is FaultKind.RESTART:
            for name in event.targets[0]:
                fleet.restart(name)
        elif kind is FaultKind.DISK_FAULT:
            for name in event.targets[0]:
                fleet.inject_store_fault(name, event.fault, **dict(event.params))
        else:
            for world in fleet._worlds:
                _apply_link_fault(world.network, event)
        self.faults_applied += 1
        self.log.append((fleet._clock.now, event.describe()))
        if self.telemetry.enabled:
            self.telemetry.counter("faults.injected", kind=event.name).inc()
            self.telemetry.event("fault.injected", fault=event.describe())

    # -- views ---------------------------------------------------------------

    def describe_log(self) -> str:
        """The applied faults, one per line."""
        return "\n".join(description for _, description in self.log)


def _apply_link_fault(network, event: FaultEvent) -> None:
    """Set one overlay's partition / loss / duplication / delay knob."""
    kind = event.kind
    if kind is FaultKind.PARTITION:
        side_a, side_b = event.targets
        network.partition(side_a, side_b)
    elif kind is FaultKind.HEAL_PARTITION:
        side_a, side_b = event.targets
        for a in side_a:
            for b in side_b:
                network.heal_link(a, b)
    elif kind is FaultKind.SET_LOSS:
        network.loss_rate = event.value
    elif kind is FaultKind.SET_DUPLICATION:
        network.duplication_rate = event.value
    elif kind is FaultKind.DELAY_SPIKE:
        max_extra = event.value
        network.extra_delay = (
            lambda _src, _dst, rng, _cap=max_extra: rng.uniform(0.0, _cap)
        )
    else:
        network.extra_delay = None  # CLEAR_DELAY_SPIKE
