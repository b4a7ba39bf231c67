"""Strict hex-argument parsing shared by the RPC and query layers.

Before this module, every call site parsed hex identifiers its own way
(``bytes.fromhex(text.removeprefix("0x"))`` and friends), and the edge
cases disagreed: ``"0x"`` decoded to the *empty* id and came back as a
polite "not found" instead of a malformed-input error, whitespace-laced
strings slipped through (``bytes.fromhex`` ignores spaces), an ``"0X"``
prefix was treated as two hex digits, and odd-length input surfaced a
bare ``ValueError`` in some paths and a typed error in others.

:func:`parse_hex` is the one validator: optional ``0x``/``0X`` prefix,
at least one digit, even length, hex digits only (mixed case fine), and
an optional exact byte length.  Callers pass their own error type —
the query layer :class:`~repro.query.service.QueryError`, and the RPC
facade its subclass :class:`~repro.rpc.RpcError` for the one id it
parses itself (a receipt's) — always carrying the offending value
verbatim.
"""

from __future__ import annotations

from typing import Optional, Type, Union

__all__ = ["parse_hex"]

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def parse_hex(
    value: Union[str, bytes, bytearray],
    what: str = "value",
    length: Optional[int] = None,
    error: Type[Exception] = ValueError,
) -> bytes:
    """Parse a hex identifier into bytes, rejecting malformed input.

    ``what`` names the argument in error messages ("transaction id",
    "address", ...); ``length``, when given, is the exact byte length
    the decoded value must have; ``error`` is the exception type raised
    — always with the offending value in the message.
    """
    if isinstance(value, (bytes, bytearray)):
        raw = bytes(value)
        if length is not None and len(raw) != length:
            raise error(
                f"malformed {what} {value!r}: expected {length} bytes, "
                f"got {len(raw)}"
            )
        return raw
    if not isinstance(value, str):
        raise error(
            f"{what} must be bytes or 0x hex, got {type(value).__name__}"
        )
    digits = value[2:] if value[:2] in ("0x", "0X") else value
    if not digits:
        detail = (
            "no digits after the 0x prefix" if value else "empty string"
        )
        raise error(f"malformed {what} {value!r}: not valid hex ({detail})")
    if len(digits) % 2:
        raise error(
            f"malformed {what} {value!r}: not valid hex "
            f"(odd length: {len(digits)} digit(s))"
        )
    for char in digits:
        # bytes.fromhex silently skips whitespace; checking characters
        # first keeps "0x00 11" malformed instead of quietly decoded.
        if char not in _HEX_DIGITS:
            raise error(
                f"malformed {what} {value!r}: not valid hex "
                f"({char!r} is not a hex digit)"
            )
    raw = bytes.fromhex(digits)
    if length is not None and len(raw) != length:
        raise error(
            f"malformed {what} {value!r}: expected {length} bytes, "
            f"got {len(raw)}"
        )
    return raw
