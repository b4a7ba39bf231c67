"""One framing layer — pinned structurally.

``repro/codec.py::unpack_all`` is the only loop under ``src/`` that
walks a ``u32 length ‖ bytes`` sequence, ``repro/store/frames.py`` the
only module that computes a frame checksum, and ``CodecError`` the one
root a reader of outside bytes catches.  This walk fails the day a
module grows its own walker (three of the six that used to exist did
not check the last prefix), its own CRC header parser, or a handler
that has to name two error roots again.
"""

import ast

#: Modules that may slice a length out of a buffer inside a loop.
WALKERS = {"codec.py"}  # the u32 walker
CHECKSUMMERS = {"store/frames.py"}

#: Names of the callback scanner and the per-read index hook it needed.
DELETED_NAMES = ("_indexed_frames", "on_payload")


def _is_call(node, owner: str, name: str) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == name
        and getattr(node.func.value, "id", None) == owner
    )


def _length_reads(nodes):
    """Lines of a while/for that read a length out of a buffer at an offset.

    Two spellings: ``int.from_bytes(buffer[a:b], ...)`` and a
    ``unpack_from(buffer, offset)`` call, the latter also under a name
    the module bound to it (``_U32 = struct.Struct(">I").unpack_from``).
    ``iter_unpack`` over fixed-width rows takes no offset and is no walk.
    """
    unpackers = {"unpack_from"}
    for node in nodes:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "unpack_from"
        ):
            unpackers.update(
                target.id for target in node.targets if isinstance(target, ast.Name)
            )
    for loop in nodes:
        if not isinstance(loop, (ast.While, ast.For)):
            continue
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            if (
                _is_call(node, "int", "from_bytes")
                and node.args
                and isinstance(node.args[0], ast.Subscript)
                and isinstance(node.args[0].slice, ast.Slice)
            ) or (
                getattr(node.func, "attr", getattr(node.func, "id", None))
                in unpackers
            ):
                yield node.lineno


def _length_reads_in_loops(src_modules):
    for source in src_modules:
        for line in _length_reads(source.nodes):
            yield source.module, line


def _checksum_calls(src_modules):
    for source in src_modules:
        for node in source.nodes:
            if _is_call(node, "zlib", "crc32"):
                yield source.module, node.lineno


def test_only_the_codec_walks_length_prefixes(src_modules):
    strays = sorted(
        {
            f"src/repro/{module}:{line}"
            for module, line in _length_reads_in_loops(src_modules)
            if module not in WALKERS
        }
    )
    assert not strays, (
        "a u32 length ‖ bytes sequence is walked by repro.codec.unpack_all "
        "only (it is strict; a hand-written loop usually is not):\n  "
        + "\n  ".join(strays)
    )


def test_only_the_frame_module_checksums(src_modules):
    strays = [
        f"src/repro/{module}:{line}"
        for module, line in _checksum_calls(src_modules)
        if module not in CHECKSUMMERS
    ]
    assert not strays, (
        "the CRC frame header is parsed by repro/store/frames.py only "
        "(FrameScan, read_frame, read_single_frame):\n  " + "\n  ".join(strays)
    )


def test_the_walk_sees_what_it_guards(src_modules):
    assert {module for module, _ in _length_reads_in_loops(src_modules)} == WALKERS
    assert {module for module, _ in _checksum_calls(src_modules)} == CHECKSUMMERS


def test_the_walk_sees_every_spelling_of_a_length_read():
    source = """
import struct
_U16 = struct.Struct(">H").unpack_from
_ROW = struct.Struct(">II")
def walkers(buffer, rows):
    offset = 0
    while offset < len(buffer):
        offset += 4 + int.from_bytes(buffer[offset:offset + 4], "big")
    while offset < len(buffer):
        offset += 2 + _U16(buffer, offset)[0]
    for _ in range(3):
        offset += 4 + struct.unpack_from(">I", buffer, offset)[0]
    for _ in range(3):
        offset += 8 + _ROW.unpack_from(buffer, offset)[1]
def not_walkers(buffer, rows):
    for left, right in _ROW.iter_unpack(rows):
        int.from_bytes(buffer, "big")
    return _U16(buffer, 0)
"""
    assert list(_length_reads(tuple(ast.walk(ast.parse(source))))) == [8, 10, 12, 14]


def test_no_handler_names_two_error_roots(src_modules):
    strays = []
    for module, _, _, nodes in src_modules:
        for node in nodes:
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = {
                    getattr(name, "id", getattr(name, "attr", None))
                    for name in ast.walk(node.type)
                }
                if {"CodecError", "StoreError"} <= caught:
                    strays.append(f"src/repro/{module}:{node.lineno}")
    assert not strays, (
        "bytes that do not decode raise CodecError (StoreCorruption and "
        "FrameError sit under it); StoreError is misuse and is not caught "
        "beside it:\n  " + "\n  ".join(strays)
    )


def test_the_callback_scanner_stays_deleted(src_modules):
    strays = [
        f"src/repro/{module}: {name}"
        for module, text, _, _ in src_modules
        for name in DELETED_NAMES
        if name in text
    ]
    assert not strays, (
        "FrameScan is an iterator that knows where it stopped; the store "
        "owns its FrameInfo list:\n  " + "\n  ".join(strays)
    )
