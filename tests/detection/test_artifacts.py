"""Tests for concrete artifact analysis (markers in image bytes)."""

import random

import pytest

from repro.crypto.hashing import sha3_256
from repro.detection.artifacts import (
    MAGIC,
    MarkerStaticAnalyzer,
    build_marked_system,
    embed_vulnerability_markers,
    extract_markers,
)
from repro.detection.iot_system import repackage_with_malware
from repro.detection.vulnerability import sample_vulnerabilities


class TestEmbedding:
    def test_clean_image_unchanged(self):
        image = b"firmware" * 100
        assert embed_vulnerability_markers(image, []) == image

    def test_markers_round_trip(self):
        flaws = sample_vulnerabilities("cam", 4, random.Random(1))
        image = embed_vulnerability_markers(b"\x00" * 2048, flaws, random.Random(2))
        recovered = extract_markers(image, "cam")
        assert {f.key for f in recovered} == {f.key for f in flaws}
        assert {f.severity for f in recovered} == {f.severity for f in flaws}

    def test_markers_obfuscated_not_plaintext(self):
        flaws = sample_vulnerabilities("cam", 1, random.Random(3))
        image = embed_vulnerability_markers(b"\x00" * 512, flaws, random.Random(4))
        assert flaws[0].key.encode() not in image  # not greppable raw
        assert MAGIC in image  # but framed

    def test_original_content_preserved(self):
        original = bytes(range(256)) * 8
        flaws = sample_vulnerabilities("cam", 3, random.Random(5))
        marked = embed_vulnerability_markers(original, flaws, random.Random(6))
        # Stripping the markers back out leaves the original bytes.
        stripped = marked
        while MAGIC in stripped:
            at = stripped.find(MAGIC)
            length = int.from_bytes(
                stripped[at + len(MAGIC) : at + len(MAGIC) + 2], "big"
            )
            stripped = stripped[:at] + stripped[at + len(MAGIC) + 2 + length :]
        assert stripped == original

    def test_truncated_image_loses_tail_markers(self):
        flaws = sample_vulnerabilities("cam", 4, random.Random(7))
        image = embed_vulnerability_markers(b"\x00" * 2048, flaws, random.Random(8))
        truncated = image[: len(image) // 3]
        assert len(extract_markers(truncated, "cam")) < 4


class TestMarkedSystem:
    def test_ground_truth_matches_embedded(self):
        system = build_marked_system("cam", vulnerability_count=3, rng=random.Random(9))
        recovered = extract_markers(system.image, system.name)
        assert {f.key for f in recovered} == {f.key for f in system.ground_truth}

    def test_artifact_hash_commits_to_marked_image(self):
        system = build_marked_system("cam", vulnerability_count=2, rng=random.Random(10))
        assert system.artifact_hash == sha3_256(system.image)

    def test_clean_marked_system_has_no_markers(self):
        system = build_marked_system("cam", vulnerability_count=0)
        assert extract_markers(system.image, "cam") == []


class TestAnalyzer:
    def test_perfect_analyzer_finds_everything(self):
        system = build_marked_system("cam", vulnerability_count=5, rng=random.Random(11))
        analyzer = MarkerStaticAnalyzer(crack_rate=1.0)
        found = analyzer.analyze_release(system)
        assert len(found) == 5

    def test_weak_analyzer_finds_subset(self):
        system = build_marked_system("cam", vulnerability_count=40, rng=random.Random(12))
        analyzer = MarkerStaticAnalyzer(crack_rate=0.3, rng=random.Random(13))
        found = analyzer.analyze_release(system)
        assert 0 < len(found) < 40

    def test_invalid_crack_rate_rejected(self):
        with pytest.raises(ValueError):
            MarkerStaticAnalyzer(crack_rate=1.5)

    def test_analysis_operates_on_supplied_bytes(self):
        # Scanning the honest image vs a repackaged one yields different
        # findings — the analyzer sees what was actually downloaded.
        honest = build_marked_system("cam", vulnerability_count=1, rng=random.Random(14))
        tampered = repackage_with_malware(honest, "evil-market")
        analyzer = MarkerStaticAnalyzer()
        honest_found = {f.key for f in analyzer.analyze(honest.image, "cam")}
        tampered_found = {f.key for f in analyzer.analyze(tampered.image, "cam")}
        # The marker set is identical (repackaging appends, not strips)…
        assert honest_found <= tampered_found or honest_found == tampered_found
        # …but the artifact hash differs, which is what the SRA catches.
        assert sha3_256(tampered.image) != honest.artifact_hash

    def test_findings_verifiable_against_ground_truth(self):
        system = build_marked_system("cam", vulnerability_count=3, rng=random.Random(15))
        analyzer = MarkerStaticAnalyzer()
        truth = {f.key for f in system.ground_truth}
        assert all(f.key in truth for f in analyzer.analyze_release(system))
