"""The registry's verified-signature memo: once per deployment, exactly.

Every replica of a deployment shares one :class:`IdentityRegistry`, and
``IdentityRegistry.verify`` remembers the ``(key point, digest, r, s)``
of signatures that passed ``ecdsa.verify``.  These tests pin what makes
that safe: a hit needs all four fields equal, failures are never
remembered, the memo is bounded, and it belongs to one deployment.
``ecdsa.verify`` is counted by patching it through the module, the same
seam ``bench/trace.py`` uses for ``crypto.verify.calls``.
"""

import random
from contextlib import closing
from dataclasses import replace

import pytest

from repro.adversary.attacks import spoof_sra, tamper_sra_insurance
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core.registry import IdentityRegistry
from repro.core.reports import build_report_pair
from repro.core.sra import make_sra
from repro.core.stakeholders import DecentralizedDeployment
from repro.core.verification import ReportVerifier, VerdictCode
from repro.crypto import ecdsa
from repro.crypto.ecdsa import Signature
from repro.crypto.hashing import sha3_256
from repro.crypto.keys import KeyPair
from repro.detection import build_detector_fleet, build_system, describe
from repro.network.latency import ConstantLatency
from repro.network.messages import Message, MessageKind
from repro.shard import FleetSpec
from repro.units import to_wei


@pytest.fixture
def computed(monkeypatch):
    """Every call that reaches ``ecdsa.verify``, as memo-key tuples."""
    calls = []
    real = ecdsa.verify

    def counting(public_key, digest, signature, *rest):
        calls.append((public_key, bytes(digest), signature.r, signature.s))
        return real(public_key, digest, signature, *rest)

    monkeypatch.setattr(ecdsa, "verify", counting)
    return calls


@pytest.fixture
def registry(detector_keys, provider_keys):
    registry = IdentityRegistry()
    registry.register("det-x", detector_keys.public)
    registry.register("provider-x", provider_keys.public)
    return registry


DIGEST = sha3_256(b"memo")


class TestExactKey:
    def test_second_check_of_one_signature_is_not_computed(
        self, registry, detector_keys, computed
    ):
        signature = detector_keys.sign(DIGEST)
        assert registry.verify("det-x", DIGEST, signature)
        assert registry.verify("det-x", DIGEST, signature)
        assert registry.verify("det-x", bytes(DIGEST), Signature(signature.r, signature.s))
        assert len(computed) == 1

    def test_a_hit_needs_key_digest_r_and_s_all_equal(
        self, registry, detector_keys, computed
    ):
        signature = detector_keys.sign(DIGEST)
        assert registry.verify("det-x", DIGEST, signature)
        near_misses = [
            ("det-x", sha3_256(b"other"), signature),
            ("det-x", DIGEST, Signature(signature.r ^ 1, signature.s)),
            ("det-x", DIGEST, Signature(signature.r, signature.s ^ 1)),
            ("det-x", DIGEST, Signature(signature.r, ecdsa.CURVE.n - signature.s)),
            ("det-x", DIGEST, Signature(signature.s, signature.r)),
            ("provider-x", DIGEST, signature),
        ]
        for entity_id, digest, candidate in near_misses:
            assert not registry.verify(entity_id, digest, candidate)
        assert len(computed) == 1 + len(near_misses)

    def test_the_key_is_the_point_not_the_name(
        self, registry, detector_keys, computed
    ):
        registry.register("det-alias", detector_keys.public)
        signature = detector_keys.sign(DIGEST)
        assert registry.verify("det-x", DIGEST, signature)
        assert registry.verify("det-alias", DIGEST, signature)
        assert len(computed) == 1

    def test_unknown_entity_is_false_and_not_computed(
        self, registry, detector_keys, computed
    ):
        signature = detector_keys.sign(DIGEST)
        assert registry.verify("det-x", DIGEST, signature)
        assert not registry.verify("nobody", DIGEST, signature)
        assert len(computed) == 1


class TestSuccessesOnly:
    def test_a_failure_is_computed_every_time(self, registry, other_keys, computed):
        forged = other_keys.sign(DIGEST)
        for _ in range(3):
            assert not registry.verify("det-x", DIGEST, forged)
        assert len(computed) == 3
        assert not registry._verified

    def test_malformed_inputs_fail_like_ecdsa_verify(self, registry, detector_keys):
        signature = detector_keys.sign(DIGEST)
        assert not registry.verify("det-x", DIGEST[:31], signature)
        for not_bytes in (None, DIGEST.hex(), 7, [DIGEST]):
            assert not registry.verify("det-x", not_bytes, signature)
        # A bytearray digest is valid to ecdsa.verify; it is computed, not kept.
        assert registry.verify("det-x", bytearray(DIGEST), signature)
        assert not registry.verify("det-x", DIGEST, Signature(0, signature.s))
        assert not registry.verify("det-x", DIGEST, Signature(ecdsa.CURVE.n, signature.s))
        assert not registry._verified

    @pytest.mark.parametrize("shape", ("none", "tuple", "float s", "str r"))
    def test_malformed_signature_shape_returns_false(
        self, registry, detector_keys, computed, shape
    ):
        """Only a Signature of two ints is looked up or computed; anything
        else is False before the memo, like ``ecdsa.verify``."""
        signed = detector_keys.sign(DIGEST)
        r, s = signed.r, signed.s
        assert registry.verify("det-x", DIGEST, signed)
        signature = {
            "none": None,
            "tuple": (r, s),
            "float s": Signature(r, float(s)),
            "str r": Signature(str(r), s),
        }[shape]
        del computed[:]
        assert not registry.verify("det-x", DIGEST, signature)
        assert not computed


class TestBound:
    def test_flood_of_distinct_valid_signatures(self, registry, monkeypatch):
        computed = []

        def accept_all(public_key, digest, signature, *rest):
            computed.append(digest)
            return True

        monkeypatch.setattr(ecdsa, "verify", accept_all)
        bound = IdentityRegistry.VERIFIED_BOUND
        digests = [sha3_256(index.to_bytes(4, "big")) for index in range(bound + 500)]
        signature = Signature(1, 1)
        for digest in digests:
            assert registry.verify("det-x", digest, signature)
        assert len(registry._verified) == bound
        del computed[:]
        # The newest are remembered; the oldest were dropped and are
        # computed again, which in turn stays within the bound.
        assert registry.verify("det-x", digests[-1], signature)
        assert registry.verify("det-x", digests[500], signature)
        assert computed == []
        assert registry.verify("det-x", digests[0], signature)
        assert registry.verify("det-x", digests[499], signature)
        assert computed == [digests[0], digests[499]]
        assert len(registry._verified) == bound


# --- through Algorithm 1 ----------------------------------------------------


@pytest.fixture
def system():
    return build_system("memo-cam", vulnerability_count=2, rng=random.Random(1))


@pytest.fixture
def pair(detector_keys, system):
    descriptions = tuple(
        describe(flaw, system.name, random.Random(2)) for flaw in system.ground_truth
    )
    return build_report_pair(
        b"\x09" * 32, "det-x", detector_keys, detector_keys.address, descriptions
    )


def _forged_initial(initial, attacker):
    """Same fields and id as ``initial``, signed by the wrong key."""
    return replace(initial, signature=attacker.sign(initial.report_id))


def _forged_detailed(detailed, attacker):
    return replace(detailed, signature=attacker.sign(detailed.report_id))


class TestForgeriesAroundAGenuineReport:
    @pytest.mark.parametrize("genuine_first", (True, False))
    def test_initial(self, registry, pair, other_keys, genuine_first):
        verifier = ReportVerifier(registry)
        initial, _ = pair
        forged = _forged_initial(initial, other_keys)
        tampered = replace(initial, wallet=other_keys.address)
        if genuine_first:
            assert verifier.verify_initial(initial).ok
        for _ in range(2):
            assert verifier.verify_initial(forged).code is VerdictCode.BAD_SIGNATURE
            assert verifier.verify_initial(tampered).code is VerdictCode.BAD_IDENTIFIER
        assert verifier.verify_initial(initial).ok
        assert verifier.verify_initial(forged).code is VerdictCode.BAD_SIGNATURE

    @pytest.mark.parametrize("genuine_first", (True, False))
    def test_detailed(self, registry, pair, system, other_keys, genuine_first):
        verifier = ReportVerifier(registry)
        initial, detailed = pair
        forged = _forged_detailed(detailed, other_keys)
        stolen = replace(detailed, wallet=other_keys.address)
        if genuine_first:
            assert verifier.verify_detailed(detailed, initial, system).ok
        for _ in range(2):
            assert (
                verifier.verify_detailed(forged, initial, system).code
                is VerdictCode.BAD_SIGNATURE
            )
            assert (
                verifier.verify_detailed(stolen, initial, system).code
                is VerdictCode.BAD_IDENTIFIER
            )
        assert verifier.verify_detailed(detailed, initial, system).ok
        assert (
            verifier.verify_detailed(forged, initial, system).code
            is VerdictCode.BAD_SIGNATURE
        )

    def test_a_remembered_signature_does_not_skip_the_other_checks(
        self, registry, pair, system
    ):
        """The memo answers the signature question only: the commitment
        cross-check and AutoVerif still run on every call."""
        verifier = ReportVerifier(registry)
        initial, detailed = pair
        assert verifier.verify_detailed(detailed, initial, system).ok
        other_commitment = replace(initial, detailed_hash=b"\x00" * 32)
        assert (
            verifier.verify_detailed(detailed, other_commitment, system).code
            is VerdictCode.COMMITMENT_MISMATCH
        )
        other_system = build_system("other", vulnerability_count=1, rng=random.Random(9))
        assert (
            verifier.verify_detailed(detailed, initial, other_system).code
            is VerdictCode.AUTOVERIF_FAILED
        )

    @pytest.mark.parametrize("genuine_first", (True, False))
    def test_sra(self, registry, provider_keys, other_keys, system, genuine_first):
        genuine = make_sra("provider-x", provider_keys, system, to_wei(1000), to_wei(250))
        spoofed = spoof_sra("provider-x", other_keys, system, to_wei(1000), to_wei(250))
        assert spoofed.claimed_id == genuine.claimed_id  # differs in P_Sign only
        tampered = tamper_sra_insurance(genuine, to_wei(1))
        unknown = replace(genuine, body=replace(genuine.body, provider_id="nobody"))
        if genuine_first:
            assert genuine.verify_registered(registry)
        for _ in range(2):
            assert not spoofed.verify_registered(registry)
            assert not tampered.verify_registered(registry)
            assert not unknown.verify_registered(registry)
        assert genuine.verify_registered(registry)
        assert not spoofed.verify_registered(registry)


# --- a whole deployment -----------------------------------------------------


def _deployment(seed=7, store_dir=None):
    spec = (
        FleetSpec(full_nodes=len(PAPER_HASHPOWER_SHARES), store_dir=store_dir)
        if store_dir is not None
        else None
    )
    return DecentralizedDeployment(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(thread_counts=(5, 8), seed=seed),
        latency=ConstantLatency(0.05),
        confirmation_depth=4,
        seed=seed,
        spec=spec,
    )


def _release(seed=7):
    return build_system("memo-sys", vulnerability_count=3, rng=random.Random(seed + 1))


def _deliver_to_all(deployment, kind, payload):
    for name, provider in deployment.providers.items():
        provider.deliver(Message.wrap(kind, payload, name))


class TestDeployment:
    @pytest.mark.parametrize("genuine_first", (True, False))
    def test_spoofed_sra_rejected_by_every_provider(self, genuine_first):
        deployment = _deployment()
        system = _release()
        attacker = KeyPair.from_seed(b"memo-attacker")
        spoofed = spoof_sra("provider-1", attacker, system, to_wei(1000), to_wei(250))
        if genuine_first:
            sra = deployment.announce("provider-1", system)
            deployment.simulator.advance()
            assert all(sra.sra_id in p.known_sras for p in deployment.providers.values())
            for provider in deployment.providers.values():
                del provider.known_sras[sra.sra_id]  # so a wrong accept would show
        else:
            deployment.directory.publish(system)
        _deliver_to_all(deployment, MessageKind.SRA_ANNOUNCE, spoofed)
        for provider in deployment.providers.values():
            assert provider.rejected_messages == 1
            assert spoofed.sra_id not in provider.known_sras
        if not genuine_first:
            sra = deployment.announce("provider-1", system)
            deployment.simulator.advance()
            assert all(sra.sra_id in p.known_sras for p in deployment.providers.values())

    @pytest.mark.parametrize("genuine_first", (True, False))
    def test_forged_reports_rejected_by_every_provider(self, genuine_first):
        deployment = _deployment()
        system = _release()
        sra = deployment.announce("provider-1", system)
        deployment.simulator.advance()
        detector = next(iter(deployment.detectors.values()))
        attacker = KeyPair.from_seed(b"memo-attacker")
        description = describe(system.ground_truth[0], system.name, random.Random(3))
        initial, detailed = build_report_pair(
            sra.sra_id, detector.name, detector.keys, detector.keys.address,
            (description,),
        )
        forged_initial = _forged_initial(initial, attacker)
        forged_detailed = _forged_detailed(detailed, attacker)
        if genuine_first:
            _deliver_to_all(deployment, MessageKind.INITIAL_REPORT, initial)
        _deliver_to_all(deployment, MessageKind.INITIAL_REPORT, forged_initial)
        if not genuine_first:
            for provider in deployment.providers.values():
                assert initial.report_id not in provider.known_initials
            _deliver_to_all(deployment, MessageKind.INITIAL_REPORT, initial)
        if genuine_first:
            _deliver_to_all(deployment, MessageKind.DETAILED_REPORT, detailed)
        _deliver_to_all(deployment, MessageKind.DETAILED_REPORT, forged_detailed)
        if not genuine_first:
            _deliver_to_all(deployment, MessageKind.DETAILED_REPORT, detailed)
        for provider in deployment.providers.values():
            assert provider.rejected_messages == 2
            assert provider.known_initials[initial.report_id] == initial
            pending = provider.mempool.pending_ids()
            assert initial.report_id in pending and detailed.report_id in pending

    def test_each_signature_is_computed_once_per_deployment(self, computed):
        deployment = _deployment()
        deployment.announce("provider-1", _release())
        deployment.advance_for(240.0)
        assert sum(p.rejected_messages for p in deployment.providers.values()) == 0
        reports = sum(len(p.known_initials) for p in deployment.providers.values())
        assert reports >= 2 * len(deployment.providers)  # every replica ran Algorithm 1
        assert len(computed) == len(set(computed))
        # one SRA + every R† + every published R*, not that times five replicas
        assert len(deployment.registry._verified) == len(computed)
        assert 1 + reports // len(deployment.providers) <= len(computed) < reports

    def test_two_deployments_of_one_seed_share_nothing(self, computed):
        first = _deployment()
        first.announce("provider-1", _release())
        first.advance_for(240.0)
        first_calls = list(computed)
        assert first_calls
        second = _deployment()
        assert not second.registry._verified
        second.announce("provider-1", _release())
        second.advance_for(240.0)
        # Same seed, same signatures: a process-wide memo would have
        # answered all of these; a deployment's own memo computes them.
        assert computed[len(first_calls):] == first_calls

    @pytest.mark.parametrize("durable", (False, True), ids=("volatile", "store-backed"))
    def test_crash_and_restart_keep_the_outcome(self, durable, tmp_path, computed):
        """A provider that was down rebuilds its views from the chain and
        then verifies live traffic through the same memo as its peers."""

        def run(store_dir):
            deployment = _deployment(store_dir=store_dir)
            sra = deployment.announce("provider-1", _release())
            deployment.advance_for(60.0)
            deployment.crash("provider-3")
            deployment.advance_for(120.0)
            deployment.restart("provider-3")
            deployment.advance_for(240.0)
            deployment.simulator.advance()
            return deployment, sra

        with closing(run(str(tmp_path / "stores") if durable else None)[0]) as deployment:
            assert len(computed) == len(set(computed))
            assert deployment.converged()
            victim = deployment.providers["provider-3"]
            peer = deployment.providers["provider-1"]
            assert victim.known_sras.keys() == peer.known_sras.keys()
            assert victim.known_initials.keys() == peer.known_initials.keys()
            paid = sum(c.total_paid_wei() for c in deployment.contracts.values())
            assert paid > 0
            assert paid == sum(
                deployment.detector_balance(name) for name in deployment.detectors
            )
