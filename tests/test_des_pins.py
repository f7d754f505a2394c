"""Exact pins of the DES pipeline models and their closed forms.

Recorded on the tree *before* ``simulate_baseline_batch`` moved onto
``simulate_schedule``'s walk (parent 7736e41), so the merge is held to
the last bit rather than to the inequalities in ``test_baselines.py``.
Every value is the ``repr`` of the float the parent returned and is
compared with ``==`` (one closed-form row to 2 ulp, see
``ESTIMATE_ULP_PINS``).

Nothing here may be re-recorded by a refactor.  ``MPI_PINS`` is the one
family a modelling change has moved (CHANGES.md, PR 24): a static walk
awaits a send only under a blocking backend.

``SCHEDULE_PINS``, ``SERVING_PINS`` and the fleet tables are the
deterministic DES numbers the old JSON benchmark baselines held within a
20 % band (the schedule DES, the serving sweep and the elastic fleet),
now held to the last bit.
"""

import math

import pytest

from repro.baselines import ThreeDConfig, simulate_baseline_batch
from repro.core import (AxoNNConfig, WEAK_SCALING_MODELS,
                        estimate_batch_time, simulate_batch)
from repro.experiments import (autoscale_serving_model, fleet_report,
                               serving_rows)
from repro.experiments.fleet import _admission, _autoscale_spec, _policy_row
from repro.fleet import (FleetModel, PredictivePolicy, ReactivePolicy,
                         StaticPolicy, service_rate_per_replica,
                         simulate_fleet)
from repro.sched import build_schedule
from repro.sched.des import simulate_schedule
from repro.serve import ArrivalSpec
from repro.tuning import estimate_baseline_time

SPEC = WEAK_SCALING_MODELS["12B"]


def baseline_cfg(framework, schedule, g_intra, g_inter, sigma,
                 backend_p2p="nccl"):
    """Two data-parallel replicas of 24 microbatches of 2."""
    return ThreeDConfig(
        spec=SPEC, num_gpus=2 * g_intra * g_inter, g_intra=g_intra,
        g_inter=g_inter, g_data=2, microbatch_size=2, batch_size=96,
        framework=framework, schedule=schedule, backend_p2p=backend_p2p,
        compute_jitter=sigma, jitter_seed=3)


def ablation_cfg(sigma):
    """The static side of ``scheduling_jitter_ablation``."""
    return ThreeDConfig(
        spec=SPEC, num_gpus=48, g_intra=1, g_inter=6, g_data=8,
        microbatch_size=8, batch_size=768, framework="megatron",
        backend_p2p="mpi", compute_jitter=sigma)


def axonn_cfg(g_intra=1, g_inter=6, **kw):
    base = dict(spec=SPEC, num_gpus=48, g_inter=g_inter, g_intra=g_intra,
                g_data=48 // (g_inter * g_intra), microbatch_size=8,
                batch_size=768, memopt=True)
    base.update(kw)
    return AxoNNConfig(**base)


def table2_cfg(framework, g_intra, g_inter, g_data, mbs):
    return ThreeDConfig(
        spec=SPEC, num_gpus=48, g_intra=g_intra, g_inter=g_inter,
        g_data=g_data, microbatch_size=mbs, batch_size=768,
        framework=framework)


#: (framework, schedule, g_intra, g_inter, sigma) ->
#: (pipeline_s, allreduce_s, optimizer_s), NCCL point-to-point
NCCL_PINS = {
    ('megatron', '1f1b', 1, 1, 0.0):
        (32.87810446600921, 2.192797437090909, 0.2990358976),
    ('megatron', '1f1b', 1, 1, 0.2):
        (34.95532454997902, 2.192797437090909, 0.2990358976),
    ('megatron', '1f1b', 1, 2, 0.0):
        (17.53379796418965, 2.235030068363636, 0.1524220672),
    ('megatron', '1f1b', 1, 2, 0.2):
        (18.914244742125618, 2.235030068363636, 0.1524220672),
    ('megatron', '1f1b', 1, 6, 0.0):
        (7.346862713376584, 2.4039605934545456, 0.0546795136),
    ('megatron', '1f1b', 1, 6, 0.2):
        (7.980856166369798, 2.4039605934545456, 0.0546795136),
    ('megatron', '1f1b', 3, 1, 0.0):
        (14.472390101774554, 2.192837437090909, 0.0996812992),
    ('megatron', '1f1b', 3, 1, 0.2):
        (15.219585704675847, 2.192837437090909, 0.0996812992),
    ('megatron', '1f1b', 3, 2, 0.0):
        (7.816784212079481, 2.2351100683636362, 0.050810022399999995),
    ('megatron', '1f1b', 3, 2, 0.2):
        (8.300815211628187, 2.2351100683636362, 0.050810022399999995),
    ('megatron', '1f1b', 3, 6, 0.0):
        (3.423556112816116, 0.8134001978181818, 0.0182291712),
    ('megatron', '1f1b', 3, 6, 0.2):
        (3.620175073885164, 0.8134001978181818, 0.0182291712),
    ('megatron', 'gpipe', 1, 1, 0.0):
        (32.87810446600922, 2.192797437090909, 0.2990358976),
    ('megatron', 'gpipe', 1, 1, 0.2):
        (34.95532454997902, 2.192797437090909, 0.2990358976),
    ('megatron', 'gpipe', 1, 2, 0.0):
        (17.533797964189656, 2.235030068363636, 0.1524220672),
    ('megatron', 'gpipe', 1, 2, 0.2):
        (18.40581219498391, 2.235030068363636, 0.1524220672),
    ('megatron', 'gpipe', 1, 6, 0.0):
        (7.346862713376588, 2.4039605934545456, 0.0546795136),
    ('megatron', 'gpipe', 1, 6, 0.2):
        (8.138571991676574, 2.4039605934545456, 0.0546795136),
    ('megatron', 'gpipe', 3, 1, 0.0):
        (14.472390101774549, 2.192837437090909, 0.0996812992),
    ('megatron', 'gpipe', 3, 1, 0.2):
        (15.219585704675852, 2.192837437090909, 0.0996812992),
    ('megatron', 'gpipe', 3, 2, 0.0):
        (7.816784212079484, 2.2351100683636362, 0.050810022399999995),
    ('megatron', 'gpipe', 3, 2, 0.2):
        (8.121599852822564, 2.2351100683636362, 0.050810022399999995),
    ('megatron', 'gpipe', 3, 6, 0.0):
        (3.4235561128161116, 0.8134001978181818, 0.0182291712),
    ('megatron', 'gpipe', 3, 6, 0.2):
        (3.6928556103864674, 0.8134001978181818, 0.0182291712),
    ('deepspeed', '1f1b', 1, 1, 0.0):
        (32.87810446600921, 2.192797437090909, 0.7112243080727272),
    ('deepspeed', '1f1b', 1, 1, 0.2):
        (34.95532454997902, 2.192797437090909, 0.7112243080727272),
    ('deepspeed', '1f1b', 1, 2, 0.0):
        (17.53379796418965, 2.235030068363636, 0.6484805506909092),
    ('deepspeed', '1f1b', 1, 2, 0.2):
        (18.914244742125618, 2.235030068363636, 0.6484805506909092),
    ('deepspeed', '1f1b', 1, 6, 0.0):
        (7.346862713376584, 2.4039605934545456, 0.6418619051636363),
    ('deepspeed', '1f1b', 1, 6, 0.2):
        (7.980856166369798, 2.4039605934545456, 0.6418619051636363),
    ('deepspeed', '1f1b', 3, 1, 0.0):
        (14.472390101774554, 2.192837437090909, 0.6115670088727273),
    ('deepspeed', '1f1b', 3, 1, 0.2):
        (15.219585704675847, 2.192837437090909, 0.6115670088727273),
    ('deepspeed', '1f1b', 3, 2, 0.0):
        (7.816784212079481, 2.2351100683636362, 0.5977145282909091),
    ('deepspeed', '1f1b', 3, 2, 0.2):
        (8.300815211628187, 2.2351100683636362, 0.5977145282909091),
    ('deepspeed', '1f1b', 3, 6, 0.0):
        (3.423556112816116, 0.8134001978181818, 0.22599663505454548),
    ('deepspeed', '1f1b', 3, 6, 0.2):
        (3.620175073885164, 0.8134001978181818, 0.22599663505454548),
    ('deepspeed', 'gpipe', 1, 1, 0.0):
        (32.87810446600922, 2.192797437090909, 0.7112243080727272),
    ('deepspeed', 'gpipe', 1, 1, 0.2):
        (34.95532454997902, 2.192797437090909, 0.7112243080727272),
    ('deepspeed', 'gpipe', 1, 2, 0.0):
        (17.533797964189656, 2.235030068363636, 0.6484805506909092),
    ('deepspeed', 'gpipe', 1, 2, 0.2):
        (18.40581219498391, 2.235030068363636, 0.6484805506909092),
    ('deepspeed', 'gpipe', 1, 6, 0.0):
        (7.346862713376588, 2.4039605934545456, 0.6418619051636363),
    ('deepspeed', 'gpipe', 1, 6, 0.2):
        (8.138571991676574, 2.4039605934545456, 0.6418619051636363),
    ('deepspeed', 'gpipe', 3, 1, 0.0):
        (14.472390101774549, 2.192837437090909, 0.6115670088727273),
    ('deepspeed', 'gpipe', 3, 1, 0.2):
        (15.219585704675852, 2.192837437090909, 0.6115670088727273),
    ('deepspeed', 'gpipe', 3, 2, 0.0):
        (7.816784212079484, 2.2351100683636362, 0.5977145282909091),
    ('deepspeed', 'gpipe', 3, 2, 0.2):
        (8.121599852822564, 2.2351100683636362, 0.5977145282909091),
    ('deepspeed', 'gpipe', 3, 6, 0.0):
        (3.4235561128161116, 0.8134001978181818, 0.22599663505454548),
    ('deepspeed', 'gpipe', 3, 6, 0.2):
        (3.6928556103864674, 0.8134001978181818, 0.22599663505454548),
}

#: (schedule, g_intra, g_inter, sigma) -> pipeline_s of the Megatron-LM
#: model under ``backend_p2p="mpi"``; ``"ablation"`` rows are
#: ``ablation_cfg(sigma)``
MPI_PINS = {
    ('1f1b', 1, 1, 0.0):
        32.87810446600921,
    ('1f1b', 1, 1, 0.2):
        34.95532454997902,
    ('1f1b', 1, 2, 0.0):
        17.522419936456306,
    ('1f1b', 1, 2, 0.2):
        18.906248252525614,
    ('1f1b', 1, 6, 0.0):
        7.33339922430992,
    ('1f1b', 1, 6, 0.2):
        7.962277697036472,
    ('1f1b', 3, 1, 0.0):
        14.472390101774554,
    ('1f1b', 3, 1, 0.2):
        15.219585704675847,
    ('1f1b', 3, 2, 0.0):
        7.8054061843461495,
    ('1f1b', 3, 2, 0.2):
        8.292818722028189,
    ('1f1b', 3, 6, 0.0):
        3.4111193544161167,
    ('1f1b', 3, 6, 0.2):
        3.6020695952895747,
    ('gpipe', 1, 1, 0.0):
        32.87810446600922,
    ('gpipe', 1, 1, 0.2):
        34.95532454997902,
    ('gpipe', 1, 2, 0.0):
        17.52241993645631,
    ('gpipe', 1, 2, 0.2):
        18.389241850450567,
    ('gpipe', 1, 6, 0.0):
        7.333399224309924,
    ('gpipe', 1, 6, 0.2):
        8.118500099409909,
    ('gpipe', 3, 1, 0.0):
        14.472390101774549,
    ('gpipe', 3, 1, 0.2):
        15.219585704675852,
    ('gpipe', 3, 2, 0.0):
        7.805406184346152,
    ('gpipe', 3, 2, 0.2):
        8.105029508289231,
    ('gpipe', 3, 6, 0.0):
        3.4111193544161122,
    ('gpipe', 3, 6, 0.2):
        3.6719503335864676,
    ('ablation', 0.0):
        15.84699656572545,
    ('ablation', 0.1):
        16.175411394486623,
}

#: AxoNNConfig keyword overrides -> estimate_batch_time
ESTIMATE_PINS = {
    ():
        22.979420761631324,
    (('g_inter', 12),):
        21.65074561007983,
    (('g_inter', 6), ('g_intra', 2)):
        22.536295560484916,
    (('backend_p2p', 'nccl'), ('g_inter', 3), ('g_intra', 2)):
        21.384338120535993,
    (('g_inter', 6), ('memopt', False)):
        20.471860302913143,
}

#: same keys, held to 2 ulp rather than ``==``: with ``g_intra > 1`` the
#: parent's two closed forms added the collective seconds to the slot in
#: two different associations, so no one formula reproduces both to the
#: last bit on every configuration (it does wherever ``g_intra == 1``)
ESTIMATE_ULP_PINS = {
    (('g_inter', 12), ('g_intra', 4), ('overlap', False)):
        37.79154785062907,
}

#: (framework, g_intra, g_inter, g_data, mbs) -> estimate_baseline_time
ESTIMATE_BASELINE_PINS = {
    ('deepspeed', 3, 2, 8, 2):
        20.252073668410894,
    ('megatron', 3, 16, 1, 8):
        19.96559653413277,
    ('deepspeed', 1, 6, 8, 4):
        19.480294042739718,
    ('megatron', 1, 12, 4, 8):
        20.37045497621316,
    ('deepspeed', 2, 3, 8, 4):
        18.72271450143358,
    ('megatron', 2, 12, 2, 8):
        18.326080715167045,
    ('deepspeed', 6, 1, 8, 1):
        29.885310057182476,
    ('megatron', 6, 8, 1, 4):
        23.489453177676086,
}

#: (g_intra, g_inter, sigma) -> simulate_batch(...).pipeline_s
AXONN_PINS = {
    (1, 1, 0.0):
        10.553447210222117,
    (1, 1, 0.2):
        10.361850872500591,
    (1, 6, 0.0):
        15.84699656572545,
    (1, 6, 0.2):
        17.96972296944463,
    (2, 1, 0.0):
        13.330638356999366,
    (2, 1, 0.2):
        12.670055322352116,
    (2, 6, 0.0):
        18.781641113985515,
    (2, 6, 0.2):
        19.988679631057998,
}

#: (stages, schedule) -> simulate_schedule(build_schedule(schedule,
#: stages, 8)): (makespan, bubble_fraction, peak_memory); 12B stage
#: costs, no jitter
SCHEDULE_PINS = {
    (4, '1f1b'):
        (1.514161815113673, 0.29844360891258825, 18481152),
    (4, 'axonn'):
        (1.514161815113673, 0.29844360891258825, 18481152),
    (4, 'gpipe'):
        (1.514161815113673, 0.29844360891258814, 36962304),
    (4, 'interleaved'):
        (1.31970935554555, 0.19502434830102522, 50823168),
    (4, 'zb-h1'):
        (1.38057857515841, 0.23053861790400254, 18481152),
    (8, '1f1b'):
        (1.0597315986102762, 0.49877218914362376, 36962304),
    (8, 'axonn'):
        (1.0597315986102762, 0.49877218914362376, 36962304),
    (8, 'gpipe'):
        (1.0597315986102762, 0.49877218914362376, 36962304),
    (8, 'interleaved'):
        (0.8347216199585779, 0.36358309577135595, 73924608),
    (8, 'zb-h1'):
        (0.9044388204215189, 0.41267564231797516, 36962304),
}

#: serving_rows(fast=True): the load sweep's roofline, saturated
#: throughput, light-load TTFT and overload p99 TTFT
SERVING_PINS = {
    'roofline_tok_s': 1043.9710519943667,
    'saturated_throughput_tok_s': 945.05,
    'roofline_fraction': 0.9052454071351966,
    'ttft_p50_ms_light': 3.7299631705733916,
    'ttft_p99_ms_light': 13.652809375996979,
    'ttft_p99_ms_overload': 3475.373753788188,
}

#: (scenario, policy) -> the row's numbers in ``_policy_row`` order
#: (replica_seconds, ttft_p50_ms, ttft_p99_ms, tpot_ms, slo_attainment,
#: completed, rejected_backpressure, rejected_admission, rejected_down,
#: cold_starts, scale_events, peak_replicas), then ``throughput_tok_s``
#: and ``handoffs`` for disaggregation, then the rejection rate
FLEET_PINS = {
    ('autoscaling', 'static-peak'):
        (1500.0, 95.14181907767494, 201.6450160257524, 133.4729429910968,
         1.0, 9444.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0),
    ('autoscaling', 'reactive'):
        (1018.0, 122.89148920879889, 441.72805480583503, 182.98597157627086,
         0.9978822532825075, 9444.0, 0.0, 0.0, 0.0, 15.0, 32.0, 8.0, 0.0),
    ('autoscaling', 'predictive'):
        (1000.0, 125.82173371923133, 214.9773290005768, 189.38815460940418,
         1.0, 9444.0, 0.0, 0.0, 0.0, 25.0, 51.0, 6.0, 0.0),
    ('flash', 'static-peak'):
        (600.0, 68.49741230658691, 185.65438447242644, 80.9292932175994,
         1.0, 2686.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0),
    ('flash', 'reactive'):
        (346.0, 115.48790533878872, 2526.071960085933, 160.0954082465003,
         0.848071679002727, 2567.0, 119.0, 0.0, 0.0, 8.0, 18.0, 6.0,
         0.04430379746835443),
    ('flash', 'predictive'):
        (276.0, 237.21791033014128, 5424.84857595648, 233.76342340247555,
         0.6513994910941476, 2358.0, 328.0, 0.0, 0.0, 16.0, 35.0, 5.0,
         0.12211466865227104),
    ('disaggregation', 'unified'):
        (480.0, 189.7070184381395, 540.6514863947791, 248.44452648332862,
         1.0, 914.0, 0.0, 0.0, 0.0, 0.0, 0.0, 8.0, 743.1666666666666, 0.0,
         0.0),
    ('disaggregation', 'disaggregated'):
        (480.0, 228.45971888694461, 529.8341730769264, 90.72552902528815,
         1.0, 914.0, 0.0, 0.0, 0.0, 0.0, 0.0, 8.0, 743.1666666666666,
         914.0, 0.0),
}

#: fleet_report(fast=True)["failover"]
FAILOVER_PINS = {
    'crash_at_s': 10.0,
    'retire_at_s': 20.0,
    'arrived': 622.0,
    'admitted': 622.0,
    'completed': 622.0,
    'restarted': 3.0,
    'crashes': 1.0,
    'retired': 3.0,
    'rejected_down': 0.0,
    'lost': 0.0,
}


def flash_rows():
    """Static vs reactive vs predictive under a flash crowd: the diurnal
    scenario's fleet on 120 s of Poisson traffic at 0.9 mu that jumps
    4x at 30 s and decays over 15 s."""
    serving = autoscale_serving_model()
    spec = _autoscale_spec(0)
    mu = service_rate_per_replica(serving, spec)
    horizon = 120.0
    arrivals = ArrivalSpec(rate_per_s=0.9 * mu, seed=0, kind="flash",
                           flash_at_s=horizon / 4, flash_factor=4.0,
                           flash_decay_s=15.0)
    model = FleetModel(serving=serving, cold_start_s=5.0,
                       control_interval_s=1.0, drain_timeout_s=10.0)
    policies = [
        ("static-peak", StaticPolicy(serving.n_replicas)),
        ("reactive", ReactivePolicy(min_replicas=1,
                                    max_replicas=serving.n_replicas,
                                    cooldown_s=5.0)),
        ("predictive", PredictivePolicy(period_s=horizon, lead_s=10.0,
                                        min_replicas=1,
                                        max_replicas=serving.n_replicas,
                                        target_utilization=0.6)),
    ]
    return [_policy_row(name, simulate_fleet(
                model, policy, arrivals, horizon, request_spec=spec,
                seq_len=64, admission=_admission()))
            for name, policy in policies]


def pinned_row(row):
    """A fleet row's numbers in order, then its rejection rate."""
    rejected = (row["rejected_backpressure"] + row["rejected_admission"]
                + row["rejected_down"])
    return tuple(v for k, v in row.items() if k != "policy") + (
        rejected / max(1.0, row["completed"] + rejected),)


@pytest.fixture(scope="module")
def fleet():
    report = fleet_report(fast=True)
    report["flash"] = flash_rows()
    return report


@pytest.mark.parametrize("key", sorted(NCCL_PINS), ids=str)
def test_baseline_nccl_batch_is_pinned(key):
    r = simulate_baseline_batch(baseline_cfg(*key))
    assert (r.pipeline_s, r.allreduce_s, r.optimizer_s) == NCCL_PINS[key]


@pytest.mark.parametrize("key", sorted(MPI_PINS, key=str), ids=str)
def test_baseline_mpi_pipeline_is_pinned(key):
    cfg = ablation_cfg(key[1]) if key[0] == "ablation" \
        else baseline_cfg("megatron", *key, backend_p2p="mpi")
    assert simulate_baseline_batch(cfg).pipeline_s == MPI_PINS[key]


@pytest.mark.parametrize("key", sorted(ESTIMATE_PINS), ids=str)
def test_estimate_batch_time_is_pinned(key):
    assert estimate_batch_time(axonn_cfg(**dict(key))) == ESTIMATE_PINS[key]


@pytest.mark.parametrize("key", sorted(ESTIMATE_ULP_PINS), ids=str)
def test_estimate_batch_time_is_pinned_to_2ulp(key):
    want = ESTIMATE_ULP_PINS[key]
    got = estimate_batch_time(axonn_cfg(**dict(key)))
    assert abs(got - want) <= 2 * math.ulp(want)


@pytest.mark.parametrize("key", sorted(ESTIMATE_BASELINE_PINS), ids=str)
def test_estimate_baseline_time_is_pinned(key):
    assert estimate_baseline_time(table2_cfg(*key)) == \
        ESTIMATE_BASELINE_PINS[key]


@pytest.mark.parametrize("key", sorted(AXONN_PINS), ids=str)
def test_axonn_pipeline_is_pinned(key):
    g_intra, g_inter, sigma = key
    cfg = axonn_cfg(g_intra, g_inter, compute_jitter=sigma)
    assert simulate_batch(cfg).pipeline_s == AXONN_PINS[key]


@pytest.mark.parametrize("key", sorted(SCHEDULE_PINS), ids=str)
def test_schedule_is_pinned(key):
    stages, name = key
    sim = simulate_schedule(build_schedule(name, stages, 8))
    assert (sim.makespan, sim.bubble_fraction, sim.peak_memory) == \
        SCHEDULE_PINS[key]


def test_serving_sweep_is_pinned():
    rows = serving_rows(fast=True)
    roofline = rows[0]["roofline_tok_s"]
    saturated = max(r["throughput_tok_s"] for r in rows)
    assert {
        'roofline_tok_s': roofline,
        'saturated_throughput_tok_s': saturated,
        'roofline_fraction': saturated / roofline,
        'ttft_p50_ms_light': rows[0]["ttft_p50_ms"],
        'ttft_p99_ms_light': rows[0]["ttft_p99_ms"],
        'ttft_p99_ms_overload': rows[-1]["ttft_p99_ms"],
    } == SERVING_PINS


@pytest.mark.parametrize("key", sorted(FLEET_PINS), ids=str)
def test_fleet_row_is_pinned(fleet, key):
    scenario, policy = key
    row = next(r for r in fleet[scenario] if r["policy"] == policy)
    assert pinned_row(row) == FLEET_PINS[key]


def test_fleet_failover_is_pinned(fleet):
    assert fleet["failover"] == FAILOVER_PINS


def test_fleet_claims_all_hold(fleet):
    assert fleet["claims"] and all(fleet["claims"].values()), fleet["claims"]
