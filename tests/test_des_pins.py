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
"""

import math

import pytest

from repro.baselines import ThreeDConfig, simulate_baseline_batch
from repro.core import (AxoNNConfig, WEAK_SCALING_MODELS,
                        estimate_batch_time, simulate_batch)
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
