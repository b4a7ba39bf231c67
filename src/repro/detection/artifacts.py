"""Concrete artifact analysis: flaws embedded in the image bytes.

The probabilistic :class:`~repro.detection.detector.Detector` models
*who finds what, when*; this module makes the detection path literal:
vulnerabilities are embedded into the released firmware image as
obfuscated byte markers at build time, and a
:class:`MarkerStaticAnalyzer` finds them by actually scanning the bytes
a detector downloaded from ``U_l`` — so a repackaged or truncated
download provably yields different findings, and "analysis" is an
operation on the artifact, not on simulator ground truth.

Marker format (deliberately simple — the point is the dataflow, not
steganography): ``MAGIC || len || xor_obfuscated(canonical key ||
severity || category)``.  The obfuscation models the real-world gap
between weak scanners (single-byte-XOR crackers) and strong ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.detection.iot_system import IoTSystem
from repro.detection.vulnerability import Severity, Vulnerability

__all__ = [
    "MarkerStaticAnalyzer",
    "build_marked_system",
    "embed_vulnerability_markers",
    "extract_markers",
]

#: Marker framing magic — what a signature scanner greps for.
MAGIC = b"\x7fVULN\x7f"


def _obfuscate(data: bytes, key: int) -> bytes:
    """Single-byte XOR obfuscation with the key prepended."""
    return bytes([key]) + bytes(b ^ key for b in data)


def _deobfuscate(blob: bytes) -> bytes:
    key = blob[0]
    return bytes(b ^ key for b in blob[1:])


def _encode_flaw(vulnerability: Vulnerability) -> bytes:
    return "|".join(
        [vulnerability.key, vulnerability.severity.value, vulnerability.category]
    ).encode()


def _decode_flaw(data: bytes, system_name: str) -> Vulnerability:
    key, severity, category = data.decode().split("|")
    return Vulnerability(
        key=key,
        severity=Severity(severity),
        category=category,
        summary=f"{category} recovered from {system_name} image",
    )


def embed_vulnerability_markers(
    image: bytes,
    vulnerabilities: Sequence[Vulnerability],
    rng: Optional[random.Random] = None,
) -> bytes:
    """Scatter obfuscated flaw markers through an image.

    Markers are inserted at random block boundaries so they are not
    trivially at the tail; each gets an independent XOR key.
    """
    rng = rng if rng is not None else random.Random(0)
    if not vulnerabilities:
        return image
    chunk = max(1, len(image) // (len(vulnerabilities) + 1))
    pieces: List[bytes] = []
    offset = 0
    for vulnerability in vulnerabilities:
        cut = min(len(image), offset + chunk)
        pieces.append(image[offset:cut])
        payload = _obfuscate(_encode_flaw(vulnerability), rng.randrange(1, 256))
        pieces.append(MAGIC + len(payload).to_bytes(2, "big") + payload)
        offset = cut
    pieces.append(image[offset:])
    return b"".join(pieces)


def extract_markers(image: bytes, system_name: str) -> List[Vulnerability]:
    """Recover every embedded flaw from an image (a perfect analyzer)."""
    found: List[Vulnerability] = []
    position = 0
    while True:
        position = image.find(MAGIC, position)
        if position < 0:
            return found
        length = int.from_bytes(
            image[position + len(MAGIC) : position + len(MAGIC) + 2], "big"
        )
        start = position + len(MAGIC) + 2
        blob = image[start : start + length]
        if len(blob) == length and length > 0:
            try:
                found.append(_decode_flaw(_deobfuscate(blob), system_name))
            except (ValueError, UnicodeDecodeError):
                pass  # corrupted marker (truncated download)
        position = start + length


def build_marked_system(
    name: str,
    version: str = "1.0.0",
    vulnerability_count: int = 0,
    rng: Optional[random.Random] = None,
) -> IoTSystem:
    """An IoT release whose image physically contains its flaw markers.

    ``artifact_hash`` (U_h) commits to the *marked* image, so the hash
    check and the analysis operate on the same bytes.
    """
    from repro.detection.iot_system import build_system

    rng = rng if rng is not None else random.Random(hash((name, version)) & 0xFFFF)
    base = build_system(name, version, vulnerability_count, rng=rng)
    marked_image = embed_vulnerability_markers(base.image, base.ground_truth, rng)
    return IoTSystem(
        name=base.name,
        version=base.version,
        image=marked_image,
        download_link=base.download_link,
        ground_truth=base.ground_truth,
    )


@dataclass
class MarkerStaticAnalyzer:
    """A detector engine that scans downloaded bytes for markers.

    ``crack_rate`` models analyzer strength: the probability it cracks
    any given marker's obfuscation (a weak engine recovers only some of
    what it greps).  Analysis consumes the image the caller provides —
    scanning a repackaged image finds the *repackaged* content, which
    is exactly how U_h tampering becomes detectable end to end.
    """

    crack_rate: float = 1.0
    rng: Optional[random.Random] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.crack_rate <= 1.0:
            raise ValueError("crack rate must be in [0, 1]")
        if self.rng is None:
            self.rng = random.Random(0)

    def analyze(self, image: bytes, system_name: str) -> List[Vulnerability]:
        """Scan an image; return the flaws this engine recovers."""
        recovered = extract_markers(image, system_name)
        if self.crack_rate >= 1.0:
            return recovered
        return [flaw for flaw in recovered if self.rng.random() < self.crack_rate]

    def analyze_release(self, system: IoTSystem) -> List[Vulnerability]:
        """Convenience: download from U_l (the system's image) and scan."""
        return self.analyze(system.image, system.name)
