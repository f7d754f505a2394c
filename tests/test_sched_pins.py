"""Exact pins of the schedule IR's analytics and of its validator.

Recorded on the tree where a ``Schedule`` still carried a materialised
``deps`` map (parent 8979886), so moving dependencies to the
``required_deps`` rule is held to the last bit: the unit-cost critical
path and peak residency of every shipped schedule, and the validator's
verdict on every single adjacent swap of every rank's program — the
move :func:`repro.sched.search.perturb` makes.  Floats are the ``repr``
of what the parent returned and are compared with ``==``.

Nothing here may be re-recorded by a refactor.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.sched import (ScheduleError, build_schedule, critical_path,
                         peak_resident_activations, validate)
from repro.sched.builders import _list_schedule, zero_bubble_ir
from repro.sched.ir import BWD, FWD, W, Task

#: (name, n_stages, m) -> (makespan, busy per rank, peak residency per rank)
CRITICAL_PATH_PINS = {
    ('axonn', 2, 4): (15.0, (12.0, 12.0), (2, 1)),
    ('1f1b', 2, 4): (15.0, (12.0, 12.0), (2, 1)),
    ('gpipe', 2, 4): (15.0, (12.0, 12.0), (4, 4)),
    ('interleaved', 2, 4): (13.5, (12.0, 12.0), (5, 3)),
    ('zb-h1', 2, 4): (14.0, (12.0, 12.0), (2, 1)),
    ('axonn', 4, 8): (33.0, (24.0,) * 4, (4, 4, 4, 1)),
    ('1f1b', 4, 8): (33.0, (24.0,) * 4, (4, 3, 2, 1)),
    ('gpipe', 4, 8): (33.0, (24.0,) * 4, (8, 8, 8, 8)),
    ('interleaved', 4, 8): (28.5, (24.0,) * 4, (11, 9, 7, 5)),
    ('zb-h1', 4, 8): (30.0, (24.0,) * 4, (4, 3, 2, 1)),
    ('axonn', 16, 64): (
        261.0, (192.0,) * 16,
        (16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 15, 14, 12, 9, 1)),
    ('1f1b', 16, 64): (
        237.0, (192.0,) * 16,
        (16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1)),
    ('gpipe', 16, 64): (237.0, (192.0,) * 16, (64,) * 16),
    ('interleaved', 16, 64): (
        214.5, (192.0,) * 16,
        (47, 45, 43, 41, 39, 37, 35, 33, 31, 29, 27, 25, 23, 21, 19, 17)),
    ('zb-h1', 16, 64): (
        222.0, (192.0,) * 16,
        (16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1)),
}

#: (name, n_stages, m) -> (swaps tried, sha256 of the sorted
#: ``[rank, k, verdict]`` list).  Verdict counts, for the reader:
#: 1f1b 2x4 cycle 20 / accepted 8 / in-flight 2; gpipe 2x4 17 / 13 / 0;
#: zb-h1 2x4 24 / 12 / 2; axonn 2x4 as 1f1b; interleaved 2x4 52 / 26 / 0;
#: 1f1b 4x8 104 / 48 / 4; gpipe 4x8 99 / 57 / 0; zb-h1 4x8 112 / 72 / 4;
#: axonn 4x8 106 / 46 / 4; interleaved 4x8 232 / 116 / 0.
SWAP_PINS = {
    ('1f1b', 2, 4): (
        30, '801525937f586ec051b07894a26982a491df7529ffa4cf5e89b007d17905a108'),
    ('gpipe', 2, 4): (
        30, 'd056a048c3fe77fd19bda9b8c6a109da50d6577a10c7fc05c2b57032231b8c46'),
    ('zb-h1', 2, 4): (
        38, 'cd1cf96ce0158b6b74d4cf94b362cece9c67128eb4f0a1926c700125124acea4'),
    ('axonn', 2, 4): (
        30, '801525937f586ec051b07894a26982a491df7529ffa4cf5e89b007d17905a108'),
    ('interleaved', 2, 4): (
        78, '5e6055164d1805507637c9ea2e7672e2baae6b954107eeafc52b8444a529d124'),
    ('1f1b', 4, 8): (
        156, 'd86aa000281b6c3687503552cac92826a68ae592c90149b17b9d7c80ffed52c7'),
    ('gpipe', 4, 8): (
        156, '277dc8c16659ff0efc7dd20d9fc6df74f2477d08211348dd96db86bbf1b15440'),
    ('zb-h1', 4, 8): (
        188, '33f8f56cb52656fce06f662af0bf28a9e2f77d2530e93b21f0559156aba52f18'),
    ('axonn', 4, 8): (
        156, '0b50ebb8341e95480c8b1b34639d3f101a3535b4eda6a4102213572822f4788d'),
    ('interleaved', 4, 8): (
        348, '9e57b3eed1fd8d45709f27b24c82b7aa1d4e7cca671995a3b52888d294a65935'),
}

#: The rejection categories an adjacent swap can hit, by message text.
CATEGORIES = ("cycle", "FIFO mismatch", "in-flight")


def grid_id(key):
    name, n_stages, m = key
    return f"{name}-{n_stages}x{m}"


@pytest.mark.parametrize("key", sorted(CRITICAL_PATH_PINS), ids=grid_id)
def test_critical_path_and_residency(key):
    sched = build_schedule(*key)
    cp = critical_path(sched)
    assert (cp.makespan, cp.busy, peak_resident_activations(sched)) == \
        CRITICAL_PATH_PINS[key]


def verdict(schedule):
    try:
        validate(schedule)
    except ScheduleError as e:
        hits = [c for c in CATEGORIES if c in str(e)]
        assert hits, f"uncategorised rejection: {e}"
        return hits[0]
    return "accepted"


@pytest.mark.parametrize("key", sorted(SWAP_PINS), ids=grid_id)
def test_every_adjacent_swap_verdict(key):
    sched = build_schedule(*key)
    out = []
    for rank, order in enumerate(sched.rank_order):
        for k in range(len(order) - 1):
            swapped = list(order)
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            orders = list(sched.rank_order)
            orders[rank] = tuple(swapped)
            out.append((rank, k, verdict(dataclasses.replace(
                sched, rank_order=tuple(orders)))))
    digest = hashlib.sha256(json.dumps(sorted(out)).encode()).hexdigest()
    assert (len(out), digest) == SWAP_PINS[key]


#: (n_stages, m) -> sha256 of ``repr(zero_bubble_ir(n_stages, m).rank_order)``,
#: recorded from the list scheduler that rescanned every pending task at
#: each decision point.  The deepest grid is the regression case for that
#: scan's quadratic cost.
ZB_ORDER_PINS = {
    (2, 3): '90abb55dd090b7f589c64eef82f2a0c6b41433bd22f1a81478c447dcc25addfb',
    (4, 8): 'e4ed7f0f7a8fd20f620066794e8705c2d4087be5b8bd2fb470fb15eea439d840',
    (4, 48): '721dcb33ca8177f37352eb4bb5f33b3569a056d926bd251aeb4035ba5396dc3c',
    (16, 64): '2803853b47d52c074c64081d0411b507c31903afe2d74b3dfdcf106f1ba4fbff',
    (16, 256): '8013c455774cfc241df904d92fc1782b7c489dd1efb752c6b986acd9616f4848',
}


@pytest.mark.parametrize("grid", sorted(ZB_ORDER_PINS),
                         ids=lambda g: f"{g[0]}x{g[1]}")
def test_zero_bubble_rank_order_digest(grid):
    order = zero_bubble_ir(*grid).rank_order
    assert hashlib.sha256(repr(order).encode()).hexdigest() == \
        ZB_ORDER_PINS[grid]


def rescanning_list_schedule(S, m, V, split_w, cap):
    """The list scheduler as it was before its ready index: every pending
    task of an idle rank is rescanned at each decision point."""
    last = V * S - 1
    finish, orders = {}, [[] for _ in range(S)]
    busy_until, inflight, chan = [0] * S, [0] * S, {}

    def head_ready(dst, plane, v, mb, now):
        q = chan.get((dst, plane), [])
        return bool(q) and q[0][1:] == (v, mb) and q[0][0] <= now

    kinds = (FWD, BWD, W) if split_w else (FWD, BWD)
    pending = {Task(k, v, mb) for k in kinds for v in range(V * S)
               for mb in range(m)}
    now = guard = 0
    while pending:
        guard += 1
        if guard > 16 * len(finish) + 16 * len(pending) + 64:
            raise RuntimeError("wedged")
        for rank in range(S):
            if busy_until[rank] > now:
                continue
            ready_b, ready_f, ready_w = [], [], []
            for t in pending:
                v, mb = t.stage, t.mb
                if v % S != rank:
                    continue
                if t.kind == BWD:
                    done = finish.get(Task(FWD, v, mb))
                    if done is not None and done <= now and (
                            v == last or head_ready(rank, "B", v, mb, now)):
                        ready_b.append(t)
                elif t.kind == FWD:
                    if v == 0 or head_ready(rank, "F", v, mb, now):
                        ready_f.append(t)
                elif finish.get(Task(BWD, v, mb), now + 1) <= now:
                    ready_w.append(t)
            if ready_b:
                t, cost = min(ready_b, key=lambda t: (t.mb, -t.stage)), \
                    1 if split_w else 2
            elif ready_f and inflight[rank] < cap(rank):
                t, cost = min(ready_f, key=lambda t: (t.mb, t.stage)), 1
            elif ready_w:
                t, cost = min(ready_w, key=lambda t: (t.mb, t.stage)), 1
            else:
                continue
            pending.discard(t)
            v, mb, done = t.stage, t.mb, now + cost
            finish[t] = busy_until[rank] = done
            orders[rank].append(t)
            if t.kind == FWD:
                inflight[rank] += 1
                if v > 0:
                    chan[(rank, "F")].pop(0)
                if v < last:
                    chan.setdefault(((v + 1) % S, "F"), []).append(
                        (done, v + 1, mb))
            elif t.kind == BWD:
                if v < last:
                    chan[(rank, "B")].pop(0)
                if not split_w:
                    inflight[rank] -= 1
                if v > 0:
                    chan.setdefault(((v - 1) % S, "B"), []).append(
                        (done, v - 1, mb))
            else:
                inflight[rank] -= 1
        future = [b for b in busy_until if b > now]
        now = min(future) if future else now + 1
    return orders


@pytest.mark.parametrize("split_w", [True, False])
@pytest.mark.parametrize("n_chunks,capped", [(1, True), (1, False),
                                             (2, False), (3, False)])
def test_list_schedule_matches_the_rescanning_reference(n_chunks, capped,
                                                        split_w):
    """The indexed scheduler against the rescanning one, beyond the one
    configuration zb-h1 builds: several chunks per rank, an unsplit
    backward, and no in-flight cap (zb-h1's cap of ``S - r`` wedges
    both once a rank holds more than one chunk)."""
    for S in range(1, 5):
        for m in range(1, 9):
            cap = (lambda r: min(S - r, m)) if capped \
                else (lambda r: n_chunks * S * m)
            args = (S, m, n_chunks, split_w, cap)
            assert _list_schedule(*args) == rescanning_list_schedule(*args)
