"""The five workloads, by name (see ``bench.spec.WORKLOADS`` for why)."""

from bench.workloads.fleet import FleetGossip, FleetSharded
from bench.workloads.lifecycle import Lifecycle
from bench.workloads.query_mix import QueryMix
from bench.workloads.settle_replay import SettleReplay

WORKLOADS = {
    workload.name: workload
    for workload in (
        Lifecycle(), FleetGossip(), FleetSharded(), SettleReplay(), QueryMix()
    )
}
