"""The chaos plan DSL: a declarative schedule of faults.

A :class:`ChaosPlan` is an ordered list of :class:`FaultEvent`\\ s on
the simulated clock — node crashes and restarts, timed partitions,
and link-level fault knobs (loss, duplication, delay spikes).  Plans
are pure data: they can be built explicitly with the fluent methods,
generated randomly from a seed (:meth:`ChaosPlan.random`), inspected,
and replayed deterministically by the
:class:`~repro.faults.injector.FaultInjector`.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.store.faultinject import STORE_FAULTS

__all__ = ["ChaosPlan", "FaultEvent", "FaultKind"]

#: :meth:`ChaosPlan.random`'s schedule shape: the per-epoch crash coin
#: and the downtime range a crash is restarted after.
CRASH_PROBABILITY = 0.2
MIN_DOWNTIME = 30.0
MAX_DOWNTIME = 120.0


class FaultKind(enum.Enum):
    """Every fault the injector can apply."""

    CRASH = "crash"
    RESTART = "restart"
    PARTITION = "partition"
    HEAL_PARTITION = "heal_partition"
    SET_LOSS = "set_loss"
    SET_DUPLICATION = "set_duplication"
    DELAY_SPIKE = "delay_spike"
    CLEAR_DELAY_SPIKE = "clear_delay_spike"
    #: Corrupt a down node's durable store so its restart exercises the
    #: crash-recovery path: ``fault`` names the
    #: :data:`~repro.store.faultinject.STORE_FAULTS` row.
    DISK_FAULT = "disk_fault"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``targets`` holds node names for CRASH/RESTART and disk faults,
    and the two side groups for PARTITION/HEAL_PARTITION; ``value``
    carries the rate for SET_LOSS/SET_DUPLICATION and the maximum
    extra seconds for DELAY_SPIKE; a DISK_FAULT names its
    :data:`~repro.store.faultinject.STORE_FAULTS` row in ``fault`` and
    that function's keyword arguments in ``params``.
    """

    at: float
    kind: FaultKind
    targets: Tuple[Tuple[str, ...], ...] = ()
    value: float = 0.0
    fault: str = ""
    params: Tuple[Tuple[str, int], ...] = ()

    @property
    def name(self) -> str:
        """The fault's name: the store-fault row for a disk fault, the
        kind's value otherwise (the ``faults.injected`` label)."""
        return self.fault or self.kind.value

    def describe(self) -> str:
        """Human-readable one-liner for chaos logs."""
        if self.kind in (FaultKind.CRASH, FaultKind.RESTART, FaultKind.DISK_FAULT):
            names = ",".join(self.targets[0]) if self.targets else "?"
            params = "".join(f" {key}={value}" for key, value in self.params)
            return f"t={self.at:.1f} {self.name} {names}{params}"
        if self.kind in (FaultKind.PARTITION, FaultKind.HEAL_PARTITION):
            sides = " | ".join(",".join(group) for group in self.targets)
            return f"t={self.at:.1f} {self.kind.value} [{sides}]"
        return f"t={self.at:.1f} {self.kind.value} value={self.value}"


@dataclass
class ChaosPlan:
    """An editable, replayable schedule of faults."""

    events: List[FaultEvent] = field(default_factory=list)

    # -- fluent builders ---------------------------------------------------

    def _add(self, *events: FaultEvent) -> "ChaosPlan":
        """Append ``events`` once every one of them has a finite time ≥ 0."""
        for event in events:
            if not 0 <= event.at < math.inf:  # false for NaN too
                raise ValueError(
                    f"fault time must be finite and >= 0, not {event.at!r}"
                )
        self.events.extend(events)
        return self

    def crash(self, node: str, at: float) -> "ChaosPlan":
        """Kill ``node`` at time ``at``."""
        return self._add(FaultEvent(at=at, kind=FaultKind.CRASH, targets=((node,),)))

    def restart(self, node: str, at: float) -> "ChaosPlan":
        """Restart ``node`` at time ``at`` (recovery hooks run)."""
        return self._add(FaultEvent(at=at, kind=FaultKind.RESTART, targets=((node,),)))

    def crash_for(self, node: str, at: float, downtime: float) -> "ChaosPlan":
        """Crash ``node`` at ``at`` and restart it ``downtime`` later."""
        if not downtime > 0:
            raise ValueError("downtime must be positive")
        return self._add(
            FaultEvent(at=at, kind=FaultKind.CRASH, targets=((node,),)),
            FaultEvent(at=at + downtime, kind=FaultKind.RESTART, targets=((node,),)),
        )

    def disk_fault(self, kind: str, node: str, at: float, **params: int) -> "ChaosPlan":
        """Corrupt ``node``'s durable store while it is down.

        ``kind`` is a :data:`~repro.store.faultinject.STORE_FAULTS` row
        and ``params`` its keyword arguments (``frame_index``/``keep_bytes``
        for ``torn_write``, ``frame_index``/``bit`` for ``bit_flip``,
        ``keep_oldest`` for ``drop_snapshot``); left out, they take the
        function's default.  The node must be crashed at ``at`` — see
        :meth:`validate`.
        """
        if kind not in STORE_FAULTS:
            raise ValueError(
                f"unknown store fault {kind!r} (use {tuple(STORE_FAULTS)})"
            )
        return self._add(
            FaultEvent(
                at=at, kind=FaultKind.DISK_FAULT, targets=((node,),),
                fault=kind, params=tuple(params.items()),
            )
        )

    def partition(
        self,
        side_a: Sequence[str],
        side_b: Sequence[str],
        at: float,
        heal_at: Optional[float] = None,
    ) -> "ChaosPlan":
        """Cut every link between two groups; optionally heal later."""
        groups = (tuple(side_a), tuple(side_b))
        events = [FaultEvent(at=at, kind=FaultKind.PARTITION, targets=groups)]
        if heal_at is not None:
            if not heal_at > at:
                raise ValueError("heal must come after the partition")
            events.append(
                FaultEvent(at=heal_at, kind=FaultKind.HEAL_PARTITION, targets=groups)
            )
        return self._add(*events)

    def set_loss(self, rate: float, at: float) -> "ChaosPlan":
        """Set the network-wide message loss rate at time ``at``."""
        if not 0.0 <= rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        return self._add(FaultEvent(at=at, kind=FaultKind.SET_LOSS, value=rate))

    def set_duplication(self, rate: float, at: float) -> "ChaosPlan":
        """Set the link duplication probability at time ``at``."""
        if not 0.0 <= rate < 1.0:
            raise ValueError("duplication rate must be in [0, 1)")
        return self._add(FaultEvent(at=at, kind=FaultKind.SET_DUPLICATION, value=rate))

    def delay_spike(
        self, max_extra: float, at: float, until: Optional[float] = None
    ) -> "ChaosPlan":
        """Add up to ``max_extra`` seconds of random latency per hop.

        Delay spikes also *reorder* messages (two copies on the same
        link can overtake each other).  ``until`` clears the spike.
        """
        if max_extra <= 0:
            raise ValueError("delay spike must be positive")
        events = [FaultEvent(at=at, kind=FaultKind.DELAY_SPIKE, value=max_extra)]
        if until is not None:
            if not until > at:
                raise ValueError("spike end must come after its start")
            events.append(FaultEvent(at=until, kind=FaultKind.CLEAR_DELAY_SPIKE))
        return self._add(*events)

    # -- random generation --------------------------------------------------

    @classmethod
    def random(
        cls,
        names: Sequence[str],
        duration: float,
        epoch: float,
        rng: Optional[random.Random] = None,
    ) -> "ChaosPlan":
        """Generate a crash/restart schedule by epoch-wise coin flips.

        Each epoch, every listed node crashes with
        :data:`CRASH_PROBABILITY` and restarts after a downtime drawn
        from [:data:`MIN_DOWNTIME`, :data:`MAX_DOWNTIME`].  Just under
        half the nodes (at least one) may be down at once, so the system
        never loses a usable majority, and every crash is restarted
        before ``duration`` — the plan always *heals*.
        """
        if epoch <= 0 or duration <= 0:
            raise ValueError("duration and epoch must be positive")
        rng = rng if rng is not None else random.Random(0)
        max_concurrent_down = max(1, (len(names) - 1) // 2)
        plan = cls()
        #: node -> time it comes back up (tracks concurrency cap)
        down_until: Dict[str, float] = {}
        tick = 0.0
        while tick < duration:
            for name in names:
                if down_until.get(name, 0.0) > tick:
                    continue  # still down
                concurrent = sum(1 for t in down_until.values() if t > tick)
                if concurrent >= max_concurrent_down:
                    break
                if rng.random() >= CRASH_PROBABILITY:
                    continue
                crash_at = tick + rng.uniform(0.0, epoch * 0.5)
                downtime = rng.uniform(MIN_DOWNTIME, MAX_DOWNTIME)
                # The plan must fully heal: clamp the restart inside it.
                restart_at = min(crash_at + downtime, duration - 1e-6)
                if restart_at <= crash_at:
                    continue
                plan.crash(name, crash_at)
                plan.restart(name, restart_at)
                down_until[name] = restart_at
            tick += epoch
        plan.sort()
        return plan

    # -- validation ----------------------------------------------------------

    def validate(self) -> "ChaosPlan":
        """Check crash/restart ordering; raises ValueError on nonsense.

        Replays the schedule in time order (stable, so builder order
        breaks ties — matching how the injector applies simultaneous
        events) and rejects:

        * a RESTART of a node that is not down at that time,
        * a second CRASH of a node that is already down,
        * a disk fault against a node that is *not* down (a live store
          is mid-use; real disk corruption surfaces at recovery).

        Returns self, so it chains fluently.
        """
        down_since: Dict[str, float] = {}
        for event in sorted(self.events, key=lambda e: e.at):
            if event.kind is FaultKind.CRASH:
                for name in event.targets[0]:
                    if name in down_since:
                        raise ValueError(
                            f"crash of {name!r} at t={event.at:g} while it "
                            f"is already down (crashed at "
                            f"t={down_since[name]:g} with no restart in "
                            "between)"
                        )
                    down_since[name] = event.at
            elif event.kind is FaultKind.RESTART:
                for name in event.targets[0]:
                    if name not in down_since:
                        raise ValueError(
                            f"restart of {name!r} at t={event.at:g} has no "
                            "preceding crash: the node is already up"
                        )
                    del down_since[name]
            elif event.kind is FaultKind.DISK_FAULT:
                for name in event.targets[0]:
                    if name not in down_since:
                        raise ValueError(
                            f"{event.fault} against {name!r} at "
                            f"t={event.at:g} requires the node to be down "
                            "(schedule a crash before the disk fault)"
                        )
        return self

    # -- inspection ----------------------------------------------------------

    def sort(self) -> "ChaosPlan":
        """Order events by time (stable, so builder order breaks ties)."""
        self.events.sort(key=lambda event: event.at)
        return self

    def crashes(self) -> List[FaultEvent]:
        """All CRASH events."""
        return [e for e in self.events if e.kind is FaultKind.CRASH]

    def restarts(self) -> List[FaultEvent]:
        """All RESTART events."""
        return [e for e in self.events if e.kind is FaultKind.RESTART]

    def heals_completely(self) -> bool:
        """True if every crash has a later restart and every partition
        a later heal — i.e. the plan ends with the system whole."""
        downed: Dict[str, int] = {}
        partitions = 0
        for event in sorted(self.events, key=lambda e: e.at):
            if event.kind is FaultKind.CRASH:
                for name in event.targets[0]:
                    downed[name] = downed.get(name, 0) + 1
            elif event.kind is FaultKind.RESTART:
                for name in event.targets[0]:
                    downed[name] = max(0, downed.get(name, 0) - 1)
            elif event.kind is FaultKind.PARTITION:
                partitions += 1
            elif event.kind is FaultKind.HEAL_PARTITION:
                partitions = max(0, partitions - 1)
        return partitions == 0 and all(count == 0 for count in downed.values())

    def horizon(self) -> float:
        """Time of the last scheduled fault (0.0 for an empty plan)."""
        return max((event.at for event in self.events), default=0.0)

    def describe(self) -> str:
        """Multi-line human-readable plan listing."""
        return "\n".join(
            event.describe() for event in sorted(self.events, key=lambda e: e.at)
        )

    def __len__(self) -> int:
        return len(self.events)
