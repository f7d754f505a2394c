"""Exact pins of the DES kernel's event order, seen through every model.

Recorded on the tree where every ``Store.put`` still scheduled an
acknowledgement event and every ``Resource`` still kept a busy log
(parent 08eb5d6), so a change to how :mod:`repro.sim` processes events
is held to the last bit on each path that drives it: the Algorithm 2
walk, the static schedule walk under both point-to-point backends (the
NCCL walk awaits the send process, so it crosses the delivery hop), the
serving twin through a crash and failover, the elastic fleet through a
crash and a retire, the OSU ping-pong (which yields ``isend``), the ring
all-reduce, and the resilience run.  Three serving cases were added on
2d71612, before a replica's stage processes became a closed form: groups
queueing inside a replica, the closed loop's ``done_event`` path, and
fleet replicas that warm on the same control tick.

Each case stores ``(spans, sha256, fields)``: the number of spans the
run recorded, the digest of their ``track`` / ``name`` / ``start`` /
``end`` in recording order (floats as ``repr``), and the result's own
fields, compared with ``==``.  A list-valued field is pinned as the
digest of its ``repr``.

Nothing here may be re-recorded by a refactor.
"""

import hashlib

import pytest

from repro.cluster import Machine, summit
from repro.comm import microbench
from repro.comm.algorithms import ring_allreduce_des
from repro.core import WEAK_SCALING_MODELS, AxoNNConfig, simulate_batch
from repro.experiments import make_axonn_config
from repro.fleet import (FleetModel, ReactivePolicy, StaticPolicy,
                         service_rate_per_replica, simulate_fleet)
from repro.resilience import Fault, FaultPlan, FailureModel, \
    simulate_resilient_run
from repro.sched import SCHEDULE_NAMES, build_schedule
from repro.sched.des import simulate_schedule
from repro.serve import (ArrivalSpec, RequestSpec, ServingModel,
                         simulate_closed_loop, simulate_serving)


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def timeline(spans):
    """``(count, sha256)`` of the spans in recording order."""
    return len(spans), digest([(s.track, s.name, repr(s.start), repr(s.end))
                               for s in spans])


def batch_case(name):
    cfg = make_axonn_config("12B", 2048) if name == "12B" else AxoNNConfig(
        spec=WEAK_SCALING_MODELS["12B"], num_gpus=48, g_inter=6, g_data=8,
        microbatch_size=1, batch_size=768, include_optimizer=False,
        memopt=False)
    machine = Machine(spec=summit(-(-cfg.num_gpus // 6)), trace=True)
    r = simulate_batch(cfg, machine=machine)
    return machine.tracer.spans, {
        "pipeline_s": r.pipeline_s, "allreduce_s": r.allreduce_s,
        "optimizer_s": r.optimizer_s,
        "dp_opt_combined_s": r.dp_opt_combined_s}


def schedule_case(name, backend):
    machine = Machine(spec=summit(1), trace=True)
    r = simulate_schedule(build_schedule(name, 4, 8), sigma=0.05,
                          machine=machine, backend_p2p=backend)
    return machine.tracer.spans, {
        "makespan": r.makespan, "busy": r.busy,
        "bubble_fraction": r.bubble_fraction,
        "peak_activation_bytes": r.peak_activation_bytes}


def serving_fields(s):
    return {
        "n_arrived": s.n_arrived, "n_admitted": s.n_admitted,
        "n_rejected": s.n_rejected, "n_completed": s.n_completed,
        "n_restarts": s.n_restarts, "tokens_out": s.tokens_out,
        "concurrency_integral": s.concurrency_integral,
        "latencies": digest((s.ttft_s, s.tpot_s, s.sojourn_s))}


SERVING = ServingModel(n_replicas=2, g_inter=4, stage_alpha_s=1e-3,
                       decode_s_per_item=5e-4, prefill_s_per_token=1e-4,
                       max_batch=8)


def serve_case():
    spans = []
    s = simulate_serving(SERVING, ArrivalSpec(rate_per_s=30.0, seed=2), 10.0,
                         RequestSpec(mean_prompt=8, mean_new_tokens=8),
                         plan=FaultPlan.of(Fault("crash", rank=0, tick=5)),
                         spans=spans)
    return spans, serving_fields(s)


def serve_queued_case():
    """Groups queue inside a replica: twice as many groups in flight as
    stages, and prompts long enough that a decode group dispatched behind
    a prefill catches it at an inner stage and waits there."""
    spans = []
    model = ServingModel(n_replicas=2, g_inter=4, stage_alpha_s=1e-3,
                         decode_s_per_item=5e-4, prefill_s_per_token=2e-4,
                         max_batch=8, pipeline_limit=8)
    s = simulate_serving(model, ArrivalSpec(rate_per_s=12.0, seed=6), 10.0,
                         RequestSpec(mean_prompt=48, mean_new_tokens=8),
                         seq_len=256, spans=spans)
    return spans, serving_fields(s)


def closed_loop_case():
    """Clients wait on each request's ``done_event``."""
    s = simulate_closed_loop(SERVING, n_clients=24, horizon_s=5.0,
                             request_spec=RequestSpec(mean_prompt=8,
                                                      mean_new_tokens=8))
    return [], serving_fields(s)


def fleet_case(layout):
    spans = []
    serving = ServingModel(n_replicas=2, g_inter=2, stage_alpha_s=1e-3,
                           decode_s_per_item=5e-4, prefill_s_per_token=1e-4,
                           max_batch=8)
    spec = RequestSpec(mean_prompt=8, mean_new_tokens=8)
    model = FleetModel(serving=serving, cold_start_s=0.5,
                       control_interval_s=0.5, drain_timeout_s=2.0,
                       disaggregated=layout == "disaggregated",
                       n_prefill_replicas=1, n_decode_replicas=2)
    plan = FaultPlan.of(Fault("crash", rank=0, tick=4),
                        Fault("retire", rank=1, tick=8))
    s = simulate_fleet(
        model, ReactivePolicy(min_replicas=1, max_replicas=4,
                              cooldown_s=2.0),
        ArrivalSpec(rate_per_s=1.5 * service_rate_per_replica(serving, spec),
                    seed=4),
        15.0, spec, plan=plan, spans=spans)
    return spans, fleet_fields(s)


def fleet_same_tick_case():
    """Three replicas spawned on one control tick warm together on a later
    tick (``cold_start_s`` is two intervals) into a flash crowd's backlog,
    so equal groups leave different replicas at the same float time."""
    spans = []
    serving = ServingModel(n_replicas=1, g_inter=2, stage_alpha_s=1e-3,
                           decode_s_per_item=5e-4, prefill_s_per_token=1e-4,
                           max_batch=8)
    spec = RequestSpec(mean_prompt=8, mean_new_tokens=8)
    model = FleetModel(serving=serving, cold_start_s=1.0,
                       control_interval_s=0.5, drain_timeout_s=2.0)
    mu = service_rate_per_replica(serving, spec)
    s = simulate_fleet(
        model, StaticPolicy(4),
        ArrivalSpec(rate_per_s=0.8 * mu, kind="flash", flash_at_s=0.25,
                    flash_factor=6.0, flash_decay_s=3.0, seed=7),
        8.0, spec, spans=spans)
    return spans, fleet_fields(s)


def fleet_fields(s):
    return {
        "n_arrived": s.n_arrived, "n_admitted": s.n_admitted,
        "n_rejected": s.n_rejected, "n_completed": s.n_completed,
        "n_restarts": s.n_restarts, "tokens_out": s.tokens_out,
        "replica_seconds": s.replica_seconds,
        "n_cold_starts": s.n_cold_starts, "n_retired": s.n_retired,
        "n_crashes": s.n_crashes, "n_handoffs": s.n_handoffs,
        "peak_replicas": s.peak_replicas,
        "scale_events": digest(s.scale_events),
        "latencies": digest((s.ttft_s, s.tpot_s, s.sojourn_s))}


def pingpong_case(backend, scope):
    machine = Machine(spec=summit(2), trace=True)
    (row,) = microbench.osu_latency(backend, scope == "intra", sizes=[1 << 20],
                                    machine=machine)
    return machine.tracer.spans, {"latency_s": row["latency_s"]}


def ring_case(backend):
    machine = Machine(spec=summit(2), trace=True)
    proc = machine.env.process(
        ring_allreduce_des(machine, list(range(8)), 64 << 20,
                           machine.cal.backend(backend)), name="ring")
    machine.run()
    return machine.tracer.spans, {"seconds": proc.value}


def resilience_case():
    spans = []
    r = simulate_resilient_run(FailureModel(
        step_time_s=1.0, checkpoint_write_s=5.0, restart_s=20.0,
        mtbf_s=300.0, interval_steps=50, total_steps=2000, seed=3),
        spans=spans)
    return spans, {
        "total_time_s": r.total_time_s, "n_failures": r.n_failures,
        "n_checkpoints": r.n_checkpoints, "lost_work_s": r.lost_work_s,
        "checkpoint_time_s": r.checkpoint_time_s,
        "restart_time_s": r.restart_time_s}


CASES = {
    **{("batch", name): (batch_case, name) for name in ("12B", "fig5")},
    **{("schedule", name, backend): (schedule_case, name, backend)
       for name in SCHEDULE_NAMES for backend in ("mpi", "nccl")},
    ("serve", "crash"): (serve_case,),
    ("serve", "queued"): (serve_queued_case,),
    ("serve", "closed-loop"): (closed_loop_case,),
    **{("fleet", layout): (fleet_case, layout)
       for layout in ("unified", "disaggregated")},
    ("fleet", "same-tick"): (fleet_same_tick_case,),
    **{("pingpong", backend, scope): (pingpong_case, backend, scope)
       for backend in ("mpi", "nccl") for scope in ("intra", "inter")},
    **{("ring", backend): (ring_case, backend) for backend in ("mpi", "nccl")},
    ("resilience",): (resilience_case,),
}

#: case -> (spans recorded, sha256 of the timeline, result fields)
PINS = {
    ('batch', '12B'): (
        1388,
        '4fcb33eda720e1ebddf1f9922dfd1322f79c3d3d9cb51a5d94e5167854778106',
        {'pipeline_s': 34.9232858662364,
         'allreduce_s': 6.756301038545463,
         'optimizer_s': 1.8917825651200084,
         'dp_opt_combined_s': 6.765843603664976}),
    ('batch', 'fig5'): (
        2113,
        '1a068dd0efb93732100d1673cba387ce2b7fb97a2055e7fb0456182a7f8dfe55',
        {'pipeline_s': 14.077206365411993,
         'allreduce_s': 4.194061038545454,
         'optimizer_s': 0.0,
         'dp_opt_combined_s': 4.194061038545453}),
    ('fleet', 'disaggregated'): (
        8594,
        'b7d043c2d30cb648bf535c72b15b787d1f120710111be967b83d5f3f0f2164c3',
        {'n_arrived': 3314,
         'n_admitted': 864,
         'n_rejected': 2450,
         'n_completed': 862,
         'n_restarts': 2,
         'tokens_out': 7725,
         'replica_seconds': 47.0,
         'n_cold_starts': 2,
         'n_retired': 1,
         'n_crashes': 1,
         'n_handoffs': 862,
         'peak_replicas': 4,
         'scale_events': 'f615978201712537e215428f91b79b8ca4e433ff253fe1461e8aea578d66c423',
         'latencies': '778ad2c550de77bc77929385d45ddf7d76407bff44172466e85dda09ca45ae25'}),
    ('fleet', 'unified'): (
        33353,
        '95cd5f78dd8d6876dcac13aee8575a4cf872a163590e9bd6fc5d8e2a2342a519',
        {'n_arrived': 3314,
         'n_admitted': 3314,
         'n_rejected': 0,
         'n_completed': 3314,
         'n_restarts': 4,
         'tokens_out': 30030,
         'replica_seconds': 43.5,
         'n_cold_starts': 3,
         'n_retired': 1,
         'n_crashes': 1,
         'n_handoffs': 0,
         'peak_replicas': 4,
         'scale_events': 'abe7d2d635c9fa5de4c4bf021fe5716121a6a2de5eb9eddb94c2e1db1e4efd7d',
         'latencies': '22ca5ed4d9cd3f90abb6b746270ab88faa61009c44254acd188a0a6b64fc867a'}),
    ('fleet', 'same-tick'): (
        20531,
        '812c696d80f73f985d5256f7b31241c5b874612a3ec5b2ad3f682adb76915237',
        {'n_arrived': 2565,
         'n_admitted': 2033,
         'n_rejected': 532,
         'n_completed': 2033,
         'n_restarts': 0,
         'tokens_out': 18492,
         'replica_seconds': 30.5,
         'n_cold_starts': 3,
         'n_retired': 0,
         'n_crashes': 0,
         'n_handoffs': 0,
         'peak_replicas': 4,
         'scale_events': '1c513a3c9f38bc528fb53a8a06ab2a703ed5d18d4693dc1473af73defc8723dc',
         'latencies': 'f130f9729df984f212159d9b69728d76ed8ec11e161eaa6ae8ab02fad1bec92d'}),
    ('pingpong', 'mpi', 'inter'): (
        2,
        '4985e0f2b42ca299cdca1794693d56770a807c0b5d791ec8630b5c81557f6808',
        {'latency_s': 9.538133333333333e-05}),
    ('pingpong', 'mpi', 'intra'): (
        2,
        'b0acb19d9ff237ff53da7fae2a6d79f0e7b59bdb02bde60911e29946fec36fb4',
        {'latency_s': 2.930168888888889e-05}),
    ('pingpong', 'nccl', 'inter'): (
        2,
        'bc50ba87034fc2179d29bb6ec439ea5e6cb485deecedd11f385b9074e495fff4',
        {'latency_s': 9.938133333333332e-05}),
    ('pingpong', 'nccl', 'intra'): (
        2,
        '4e8e4f9b25d6e2a50accc6c5c811e364c885d4cf1d3603e90c586ee99c0b79d0',
        {'latency_s': 6.242880000000001e-05}),
    ('resilience',): (
        100,
        'b4242ac0061cb48e578d2dc1e146c1097db6ded9d9bf5e0ea994aef167e790f1',
        {'total_time_s': 2596.9079566782375,
         'n_failures': 11,
         'n_checkpoints': 40,
         'lost_work_s': 177.0155448629521,
         'checkpoint_time_s': 200.0,
         'restart_time_s': 219.8924118152854}),
    ('ring', 'mpi'): (
        112,
        '540cc08bdfb0a1bb29f4b1c9062e10cce8bfdda7b0ff2de8c28b31597af23df9',
        {'seconds': 0.009898709333333335}),
    ('ring', 'nccl'): (
        112,
        'fd5e7e4390145501f2132538adce1f0af9b35f4cfa908c7c67ae2e57d478a0b5',
        {'seconds': 0.00995470933333333}),
    ('schedule', '1f1b', 'mpi'): (
        112,
        '5e042aa28098a3184cb4e2fdf3724d9fcc49f39284e7346df3ecaed5786d0d05',
        {'makespan': 1.5298207993891173,
         'busy': (1.0298685731049884,
                  1.047384481285424,
                  1.0493452644942232,
                  1.136991440594784),
         'bubble_fraction': 0.3032534004665871,
         'peak_activation_bytes': (18481152, 13860864, 9240576, 4620288)}),
    ('schedule', '1f1b', 'nccl'): (
        112,
        '9bf35d3b1b04868b42407b52cf99cf2c0efee10a084ddbae3d1027610a48fece',
        {'makespan': 1.5323256164557844,
         'busy': (1.0298685731049884,
                  1.047384481285424,
                  1.0493452644942232,
                  1.136991440594784),
         'bubble_fraction': 0.30439233774917995,
         'peak_activation_bytes': (18481152, 13860864, 9240576, 4620288)}),
    ('schedule', 'axonn', 'mpi'): (
        112,
        '36201d2965f28094e8cc1c7e56c26c539f528a3e9582a9d909a4d6b152c10b5a',
        {'makespan': 1.5298207993891173,
         'busy': (1.0298685731049884,
                  1.047384481285424,
                  1.0493452644942232,
                  1.136991440594784),
         'bubble_fraction': 0.3032534004665871,
         'peak_activation_bytes': (18481152, 18481152, 18481152, 4620288)}),
    ('schedule', 'axonn', 'nccl'): (
        112,
        'e976b7f1c950de8c3d763a7177b272f578ff574941ab5f636eb6bb4e48c0bc28',
        {'makespan': 1.5323256164557844,
         'busy': (1.0298685731049884,
                  1.047384481285424,
                  1.0493452644942232,
                  1.136991440594784),
         'bubble_fraction': 0.30439233774917995,
         'peak_activation_bytes': (18481152, 18481152, 18481152, 4620288)}),
    ('schedule', 'gpipe', 'mpi'): (
        112,
        '57f4a5c6880ac4d32a3ece3d1a6d554cd42796620454e8fe0696df30edab3e8f',
        {'makespan': 1.5396847289995956,
         'busy': (1.0298685731049881,
                  1.0473844812854236,
                  1.0493452644942234,
                  1.136991440594784),
         'bubble_fraction': 0.307717080130802,
         'peak_activation_bytes': (36962304, 36962304, 36962304, 36962304)}),
    ('schedule', 'gpipe', 'nccl'): (
        112,
        '213a660c68c9d13ace89be736bf77512869b1450c07e309bd703883573313a64',
        {'makespan': 1.541924863399596,
         'busy': (1.0298685731049881,
                  1.0473844812854236,
                  1.0493452644942234,
                  1.1369914405947839),
         'bubble_fraction': 0.3087228404114375,
         'peak_activation_bytes': (36962304, 36962304, 36962304, 36962304)}),
    ('schedule', 'interleaved', 'mpi'): (
        240,
        '28a8f1b19924ce29003764b5d383fd1a67b32aea8e4225f7bb62e80fc3ce88d7',
        {'makespan': 1.333836546284131,
         'busy': (1.036779822467631,
                  1.0432496605144967,
                  1.0431092004334248,
                  1.1265286471031422),
         'bubble_fraction': 0.2034879868980889,
         'peak_activation_bytes': (50823168, 41582592, 32342016, 23101440)}),
    ('schedule', 'interleaved', 'nccl'): (
        240,
        'c5646d0d8daffc373b5e19af6bbbccede80f36887e28e7bbcb7f3449d2cb37b4',
        {'makespan': 1.3399329110841314,
         'busy': (1.036779822467631,
                  1.0432496605144967,
                  1.0431092004334248,
                  1.126528647103142),
         'bubble_fraction': 0.20711192042437498,
         'peak_activation_bytes': (50823168, 41582592, 32342016, 23101440)}),
    ('schedule', 'zb-h1', 'mpi'): (
        144,
        'f25ce5f0fafad93f03823a959d38ae1cb174ec3a1a63d51675c3357f40bb694d',
        {'makespan': 1.3965111748632628,
         'busy': (1.029900573104988,
                  1.0474164812854239,
                  1.049377264494223,
                  1.137023440594784),
         'bubble_fraction': 0.23671972050332968,
         'peak_activation_bytes': (18481152, 13860864, 9240576, 4620288)}),
    ('schedule', 'zb-h1', 'nccl'): (
        144,
        '0ce8c0a2b6ba989752da228b880b6767cba7684f7c5ca36e1a85c3d560f1ac3a',
        {'makespan': 1.398992323663263,
         'busy': (1.029900573104988,
                  1.0474164812854239,
                  1.049377264494223,
                  1.137023440594784),
         'bubble_fraction': 0.2380734176734315,
         'peak_activation_bytes': (18481152, 13860864, 9240576, 4620288)}),
    ('serve', 'crash'): (
        3258,
        '19c773692d72453a530abed233a657d30ffe4224c4169511546f3c13fd0e1f49',
        {'n_arrived': 329,
         'n_admitted': 329,
         'n_rejected': 0,
         'n_completed': 329,
         'n_restarts': 1,
         'tokens_out': 2928,
         'concurrency_integral': 19.63200208792974,
         'latencies': '31fa9b1bf55b103de870c7735896ce378d2c553836dfcbde8e5f14431e02a962'}),
    ('serve', 'queued'): (
        1272,
        '34ec21c803c916e7b32b3125b4576ecf189ad7f14b78d4430b984ec7f4172157',
        {'n_arrived': 119,
         'n_admitted': 119,
         'n_rejected': 0,
         'n_completed': 119,
         'n_restarts': 0,
         'tokens_out': 1153,
         'concurrency_integral': 11.652663903741338,
         'latencies': '838ef02b4fcecec28ac12e948ab405fc5317dd1240c6be0f24a3b7ce6e003d8a'}),
    ('serve', 'closed-loop'): (
        0,
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
        {'n_arrived': 777,
         'n_admitted': 777,
         'n_rejected': 0,
         'n_completed': 777,
         'n_restarts': 0,
         'tokens_out': 6939,
         'concurrency_integral': 121.851599999999,
         'latencies': '227990e32e695fc223d7b53de04a610250aa7ebe8d56453524737936b1899ea6'}),
}


def run_case(key):
    fn, *args = CASES[key]
    spans, fields = fn(*args)
    return (*timeline(spans), fields)


@pytest.mark.parametrize("key", sorted(CASES), ids="-".join)
def test_sim_timeline_is_pinned(key):
    assert run_case(key) == PINS[key]


#: case -> events the run processes.  A group costs one event on its
#: replica, not two per stage; a per-stage event coming back shows here.
EVENTS = {
    ("serve", "crash"): 3197,
    ("fleet", "unified"): 19185,
    ("fleet", "disaggregated"): 10911,
}


@pytest.mark.parametrize("key", sorted(EVENTS), ids="-".join)
def test_event_budget_is_pinned(key, env_steps):
    fn, *args = CASES[key]
    fn(*args)
    assert len(env_steps) == EVENTS[key]
