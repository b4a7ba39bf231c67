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
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.store.faultinject import STORE_FAULTS

__all__ = ["ChaosPlan", "DISK_FAULTS", "FaultEvent", "FaultKind"]


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
    # Disk faults: corrupt a down node's durable store so its restart
    # exercises the crash-recovery path (see repro.store.faultinject).
    TORN_WRITE = "torn_write"
    BIT_FLIP = "bit_flip"
    DROP_SNAPSHOT = "drop_snapshot"
    DROP_INDEX = "drop_index"


#: Fault kinds that modify a node's on-disk store: the ones the store's
#: own fault table can apply.
DISK_FAULTS = frozenset(FaultKind(name) for name in STORE_FAULTS)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``targets`` holds node names for CRASH/RESTART and disk faults,
    and the two side groups for PARTITION/HEAL_PARTITION; ``value``
    carries the rate for SET_LOSS/SET_DUPLICATION and the maximum
    extra seconds for DELAY_SPIKE; ``params`` carries the disk-fault
    knobs (frame index, bytes/bit, snapshots kept).
    """

    at: float
    kind: FaultKind
    targets: Tuple[Tuple[str, ...], ...] = ()
    value: float = 0.0
    params: Tuple[int, ...] = ()

    def describe(self) -> str:
        """Human-readable one-liner for chaos logs."""
        if self.kind in (FaultKind.CRASH, FaultKind.RESTART) or (
            self.kind in DISK_FAULTS
        ):
            names = ",".join(self.targets[0]) if self.targets else "?"
            suffix = f" params={self.params}" if self.params else ""
            return f"t={self.at:.1f} {self.kind.value} {names}{suffix}"
        if self.kind in (FaultKind.PARTITION, FaultKind.HEAL_PARTITION):
            sides = " | ".join(",".join(group) for group in self.targets)
            return f"t={self.at:.1f} {self.kind.value} [{sides}]"
        return f"t={self.at:.1f} {self.kind.value} value={self.value}"


@dataclass
class ChaosPlan:
    """An editable, replayable schedule of faults."""

    events: List[FaultEvent] = field(default_factory=list)

    # -- fluent builders ---------------------------------------------------

    def _add(self, event: FaultEvent) -> "ChaosPlan":
        if event.at < 0:
            raise ValueError("fault time cannot be negative")
        self.events.append(event)
        return self

    def crash(self, node: str, at: float) -> "ChaosPlan":
        """Kill ``node`` at time ``at``."""
        return self._add(FaultEvent(at=at, kind=FaultKind.CRASH, targets=((node,),)))

    def restart(self, node: str, at: float) -> "ChaosPlan":
        """Restart ``node`` at time ``at`` (recovery hooks run)."""
        return self._add(FaultEvent(at=at, kind=FaultKind.RESTART, targets=((node,),)))

    def crash_for(self, node: str, at: float, downtime: float) -> "ChaosPlan":
        """Crash ``node`` at ``at`` and restart it ``downtime`` later."""
        if downtime <= 0:
            raise ValueError("downtime must be positive")
        return self.crash(node, at).restart(node, at + downtime)

    # -- disk faults (durable stores) --------------------------------------

    def torn_write(
        self, node: str, at: float, frame: int = -1, keep_bytes: int = -1
    ) -> "ChaosPlan":
        """Tear ``node``'s block log mid-frame while it is down.

        ``frame`` picks the victim frame (negative counts from the
        end); ``keep_bytes`` is how much of it survives (default about
        half).  The node must be crashed at ``at`` — see
        :meth:`validate`.
        """
        return self._add(
            FaultEvent(
                at=at, kind=FaultKind.TORN_WRITE, targets=((node,),),
                params=(frame, keep_bytes),
            )
        )

    def bit_flip(self, node: str, at: float, frame: int = -1, bit: int = -1) -> "ChaosPlan":
        """Flip one bit of a stored frame while ``node`` is down."""
        return self._add(
            FaultEvent(
                at=at, kind=FaultKind.BIT_FLIP, targets=((node,),),
                params=(frame, bit),
            )
        )

    def drop_snapshot(
        self, node: str, at: float, keep_oldest: int = 0
    ) -> "ChaosPlan":
        """Delete ``node``'s ledger snapshots while it is down.

        ``keep_oldest=0`` loses them all (genesis replay on recovery);
        ``keep_oldest=1`` leaves a *stale* one (older anchor, longer
        delta replay).
        """
        if keep_oldest < 0:
            raise ValueError("keep_oldest cannot be negative")
        return self._add(
            FaultEvent(
                at=at, kind=FaultKind.DROP_SNAPSHOT, targets=((node,),),
                params=(keep_oldest,),
            )
        )

    def drop_index(self, node: str, at: float) -> "ChaosPlan":
        """Delete ``node``'s persisted serving index while it is down.

        The block log survives, so chain recovery is unaffected; the
        fault forces the next query service over this store onto the
        cold from-genesis build path instead of a warm start.
        """
        return self._add(
            FaultEvent(at=at, kind=FaultKind.DROP_INDEX, targets=((node,),))
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
        self._add(FaultEvent(at=at, kind=FaultKind.PARTITION, targets=groups))
        if heal_at is not None:
            if heal_at <= at:
                raise ValueError("heal must come after the partition")
            self._add(
                FaultEvent(at=heal_at, kind=FaultKind.HEAL_PARTITION, targets=groups)
            )
        return self

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
        self._add(FaultEvent(at=at, kind=FaultKind.DELAY_SPIKE, value=max_extra))
        if until is not None:
            if until <= at:
                raise ValueError("spike end must come after its start")
            self._add(FaultEvent(at=until, kind=FaultKind.CLEAR_DELAY_SPIKE))
        return self

    # -- random generation --------------------------------------------------

    @classmethod
    def random(
        cls,
        names: Sequence[str],
        duration: float,
        epoch: float,
        crash_probability: float = 0.2,
        min_downtime: float = 30.0,
        max_downtime: float = 120.0,
        max_concurrent_down: Optional[int] = None,
        start: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> "ChaosPlan":
        """Generate a crash/restart schedule by epoch-wise coin flips.

        Each epoch, every listed node crashes with ``crash_probability``
        and restarts after a sampled downtime.  At most
        ``max_concurrent_down`` nodes (default: just under half) are
        down at once, so the system never loses a usable majority, and
        every crash is restarted before ``start + duration`` — the plan
        always *heals*.
        """
        if epoch <= 0 or duration <= 0:
            raise ValueError("duration and epoch must be positive")
        if not 0.0 <= crash_probability <= 1.0:
            raise ValueError("crash probability must be in [0, 1]")
        if not 0 < min_downtime <= max_downtime:
            raise ValueError("need 0 < min_downtime <= max_downtime")
        rng = rng if rng is not None else random.Random(0)
        if max_concurrent_down is None:
            max_concurrent_down = max(1, (len(names) - 1) // 2)
        plan = cls()
        end = start + duration
        #: node -> time it comes back up (tracks concurrency cap)
        down_until: Dict[str, float] = {}
        tick = start
        while tick < end:
            for name in names:
                if down_until.get(name, 0.0) > tick:
                    continue  # still down
                concurrent = sum(1 for t in down_until.values() if t > tick)
                if concurrent >= max_concurrent_down:
                    break
                if rng.random() >= crash_probability:
                    continue
                crash_at = tick + rng.uniform(0.0, epoch * 0.5)
                downtime = rng.uniform(min_downtime, max_downtime)
                # The plan must fully heal: clamp the restart inside it.
                restart_at = min(crash_at + downtime, end - 1e-6)
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
            elif event.kind in DISK_FAULTS:
                for name in event.targets[0]:
                    if name not in down_since:
                        raise ValueError(
                            f"{event.kind.value} against {name!r} at "
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
