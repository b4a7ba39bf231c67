"""SmartCrowd core — the paper's contribution.

Insuranced SRAs (Eq. 1-2), two-phase detection reports (Eq. 3-5),
Algorithm 1 report verification, the incentive scheme (Eq. 7-10), the
fleet engine with the two front-ends that run all four phases of §IV-B
on it, and the consumer reference client.
"""

from repro.core.consumer import (
    ConsumerClient,
    ProviderTrackRecord,
    SecurityReference,
)
from repro.core.distributed import DistributedChain, ReplicaNode
from repro.core.lightclient import (
    HeaderChain,
    LightClient,
    RecordProof,
    prove_record,
)
from repro.core.incentives import (
    IncentiveParameters,
    detector_cost,
    detector_incentive,
    provider_incentive,
    provider_punishment,
)
from repro.core.platform import (
    DetectorStats,
    PlatformConfig,
    ReleaseCase,
    SmartCrowdPlatform,
)
from repro.core.registry import IdentityRegistry
from repro.core.reports import (
    DetailedReport,
    InitialReport,
    build_report_pair,
    detailed_report_hash,
)
from repro.core.sra import SRA, SignedSRA, make_sra
from repro.core.stakeholders import (
    ConsumerStakeholder,
    DecentralizedDeployment,
    DetectorStakeholder,
    ProviderStakeholder,
    SystemDirectory,
)
from repro.core.verification import ReportVerifier, Verdict, VerdictCode
from repro.core.workflow import WorkflowChain

__all__ = [
    "ConsumerClient",
    "ConsumerStakeholder",
    "DecentralizedDeployment",
    "DetailedReport",
    "DetectorStakeholder",
    "DetectorStats",
    "DistributedChain",
    "HeaderChain",
    "IdentityRegistry",
    "IncentiveParameters",
    "InitialReport",
    "LightClient",
    "PlatformConfig",
    "ProviderStakeholder",
    "ProviderTrackRecord",
    "RecordProof",
    "ReleaseCase",
    "ReplicaNode",
    "ReportVerifier",
    "SRA",
    "SecurityReference",
    "SignedSRA",
    "SmartCrowdPlatform",
    "SystemDirectory",
    "Verdict",
    "VerdictCode",
    "WorkflowChain",
    "build_report_pair",
    "detailed_report_hash",
    "detector_cost",
    "detector_incentive",
    "make_sra",
    "prove_record",
    "provider_incentive",
    "provider_punishment",
]
