"""Block validation rules.

Every provider validates a received block before adopting it (§VI-A:
"SmartCrowd can defend against this misbehavior by enabling each newly
generated block to be correctly verified by IoT providers").  A block
from a misbehaved provider that violates any structural rule is
rejected regardless of its PoW.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.chain.block import Block, ChainRecord
from repro.chain.chain import Blockchain
from repro.chain.merkle import compute_merkle_root
from repro.chain.pow import check_pow

__all__ = ["BlockValidator", "ValidationResult", "RecordValidator"]

#: Hook: semantic validation of one record (wired to Algorithm 1 by core).
RecordValidator = Callable[[ChainRecord], bool]

#: Maximum allowed clock skew into the future, seconds (Bitcoin uses 2 h;
#: our simulated clocks are tighter).
MAX_FUTURE_DRIFT = 120.0


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of block validation, with the reasons for rejection."""

    ok: bool
    errors: tuple

    @classmethod
    def success(cls) -> "ValidationResult":
        return cls(ok=True, errors=())

    @classmethod
    def failure(cls, errors: List[str]) -> "ValidationResult":
        return cls(ok=False, errors=tuple(errors))


class BlockValidator:
    """Structural + PoW + (pluggable) semantic validation of blocks.

    ``record_validator`` is the hook where :mod:`repro.core` installs
    Algorithm 1 — signature/identifier checks and ``AutoVerif`` — so the
    chain layer stays agnostic to report semantics.
    """

    def __init__(
        self,
        record_validator: Optional[RecordValidator] = None,
        require_pow: bool = True,
    ) -> None:
        self._record_validator = record_validator
        self._require_pow = require_pow

    def validate(
        self,
        block: Block,
        chain: Blockchain,
        now: Optional[float] = None,
    ) -> ValidationResult:
        """Validate ``block`` against the current ``chain`` state.

        ``now`` is the validator's local clock; when given, blocks
        timestamped more than :data:`MAX_FUTURE_DRIFT` ahead of it are
        rejected (Bitcoin's future-timestamp rule).
        """
        errors: List[str] = []

        parent = chain.get_block(block.header.prev_block_id)
        if parent is None:
            errors.append("unknown parent block")
        else:
            if block.height != parent.height + 1:
                errors.append(
                    f"bad height {block.height}, parent at {parent.height}"
                )
            if block.header.timestamp < parent.header.timestamp:
                errors.append("timestamp precedes parent")

        if now is not None and block.header.timestamp > now + MAX_FUTURE_DRIFT:
            errors.append("timestamp too far in the future")

        if block.block_id in chain:
            errors.append("duplicate block")

        expected_root = compute_merkle_root([r.to_bytes() for r in block.records])
        if block.header.merkle_root != expected_root:
            errors.append("merkle root mismatch")

        if self._require_pow and not check_pow(block.header):
            errors.append("proof of work does not meet target")

        seen_ids = set()
        for record in block.records:
            if record.record_id in seen_ids:
                errors.append("duplicate record id within block")
                break
            seen_ids.add(record.record_id)

        if not errors:
            # Judged against the branch this block extends (not the
            # validator's canonical chain): the same record may exist on
            # both sides of a fork, and adopting the heavier side must
            # stay possible.
            for record in block.records:
                if chain.record_on_branch(
                    record.record_id, block.header.prev_block_id
                ):
                    errors.append("record already on this branch")
                    break

        if self._record_validator is not None and not errors:
            for record in block.records:
                if not self._record_validator(record):
                    errors.append(
                        f"record {record.record_id.hex()[:12]} failed semantic validation"
                    )
                    break

        if errors:
            return ValidationResult.failure(errors)
        return ValidationResult.success()
