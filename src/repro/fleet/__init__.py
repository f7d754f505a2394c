"""Elastic serving fleet: autoscaling, disaggregation, SLO admission.

The production layer above :mod:`repro.serve`, on both substrates:

* :mod:`repro.fleet.policy` — deterministic autoscaling policies
  (static / reactive-with-hysteresis / predictive-sinusoid) over the
  shared :class:`FleetObservation` contract;
* :mod:`repro.fleet.slo` — SLO classes, the stable priority queue, and
  load-shedding admission control, shared verbatim by both substrates;
* :mod:`repro.fleet.engine` — the functional path: :class:`FleetServer`,
  a real elastic fleet of :class:`~repro.serve.PipelineServer` replicas
  where scale-down and crash share one decommission path (prefill/decode
  disaggregation is a placement of that one server,
  ``PipelineServer(g_prefill=...)``, not a class of this package);
* :mod:`repro.fleet.sim` — the DES twin: replica-seconds vs p99 TTFT
  economics of autoscaling under diurnal/flash-crowd traffic, cold
  starts, drains, and priced KV handoffs.
"""

from .engine import FleetRunReport, FleetServer
from .policy import (AutoscalerPolicy, FleetObservation, PredictivePolicy,
                     ReactivePolicy, ScaleEvent, StaticPolicy)
from .sim import (FleetModel, FleetStats, service_rate_per_replica,
                  simulate_fleet)
from .slo import (AdmissionController, DEFAULT_SLO_CLASSES, PriorityQueue,
                  SLOClass)

__all__ = [
    "AutoscalerPolicy",
    "FleetObservation",
    "ScaleEvent",
    "StaticPolicy",
    "ReactivePolicy",
    "PredictivePolicy",
    "SLOClass",
    "DEFAULT_SLO_CLASSES",
    "PriorityQueue",
    "AdmissionController",
    "FleetServer",
    "FleetRunReport",
    "FleetModel",
    "FleetStats",
    "service_rate_per_replica",
    "simulate_fleet",
]
