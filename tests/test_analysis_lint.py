"""Unit tests for the repo-specific AST lint rules (REP001-REP012)."""

import textwrap

from repro.analysis import lint_source
from repro.analysis.lint import RULES


def _codes(source):
    return [i.code for i in lint_source(textwrap.dedent(source))]


class TestREP001:
    def test_upstream_gradient_flagged(self):
        src = """
        def op(x):
            def backward(g, a=x):
                a._accumulate_owned(g)
            return backward
        """
        assert _codes(src) == ["REP001"]

    def test_view_of_upstream_flagged(self):
        for expr in ("g[0]", "g.T", "g.reshape(2, 2)",
                     "np.broadcast_to(g, (2, 2))", "_unbroadcast(g, shape)"):
            src = f"""
            def op(x):
                def backward(g, a=x):
                    a._accumulate_owned({expr})
                return backward
            """
            assert _codes(src) == ["REP001"], expr

    def test_parent_data_view_flagged(self):
        src = """
        def op(x):
            def backward(g, a=x):
                a._accumulate_owned(a.data[:1])
            return backward
        """
        assert _codes(src) == ["REP001"]

    def test_unbroadcast_of_parent_data_flagged(self):
        # _unbroadcast may return its input unchanged, so it is looked
        # through on the parent-data side as well as the upstream side.
        src = """
        def op(x):
            def backward(g, a=x):
                a._accumulate_owned(_unbroadcast(a.data, s))
            return backward
        """
        assert _codes(src) == ["REP001"]

    def test_fresh_allocation_allowed(self):
        src = """
        def op(x):
            def backward(g, a=x):
                a._accumulate_owned(g * 2.0)
                a._accumulate_owned(-g)
                a._accumulate_owned(np.ascontiguousarray(
                    np.broadcast_to(g, a.data.shape)))
            return backward
        """
        assert _codes(src) == []

    def test_accumulate_unowned_always_allowed(self):
        src = """
        def op(x):
            def backward(g, a=x):
                a._accumulate(g)
            return backward
        """
        assert _codes(src) == []

    def test_only_backward_like_functions_checked(self):
        src = """
        def helper(q, target):
            target._accumulate_owned(q)
        """
        assert _codes(src) == []


class TestREP002:
    def test_non_recv_yield_flagged(self):
        src = """
        def program(tr):
            pkt = yield RECV
            yield "something-else"
        """
        assert _codes(src) == ["REP002"]

    def test_pure_recv_program_clean(self):
        src = """
        def program(tr):
            for _ in range(4):
                pkt = yield RECV
        """
        assert _codes(src) == []

    def test_bare_yield_marker_allowed(self):
        src = """
        def program(tr):
            if done:
                return
                yield
            pkt = yield RECV
        """
        assert _codes(src) == []

    def test_yield_from_flagged(self):
        src = """
        def program(tr):
            pkt = yield RECV
            yield from other()
        """
        assert _codes(src) == ["REP002"]

    def test_non_rank_generators_untouched(self):
        src = """
        def sim_proc(env):
            yield env.timeout(1.0)
            yield store.get()
        """
        assert _codes(src) == []

    def test_poll_is_a_valid_marker(self):
        # Algorithm 2 drains its inbox with the non-blocking POLL.
        src = """
        def program(tr):
            pkt = yield RECV
            while pkt is not None:
                pkt = yield POLL
        """
        assert _codes(src) == []


class TestREP003:
    def test_unseeded_default_rng_flagged(self):
        assert _codes("rng = np.random.default_rng()\n") == ["REP003"]

    def test_seeded_default_rng_allowed(self):
        assert _codes("rng = np.random.default_rng(7)\n") == []
        assert _codes("rng = np.random.default_rng(seed)\n") == []

    def test_legacy_api_flagged(self):
        assert _codes("x = np.random.randn(3)\n") == ["REP003"]
        assert _codes("np.random.seed(0)\n") == ["REP003"]

    def test_generator_methods_allowed(self):
        assert _codes("x = rng.standard_normal(3)\n") == []


class TestREP004:
    def test_unnamed_process_flagged(self):
        assert _codes("env.process(worker())\n") == ["REP004"]
        assert _codes("machine.env.process(worker())\n") == ["REP004"]

    def test_named_process_allowed(self):
        assert _codes("env.process(worker(), name='w')\n") == []

    def test_other_process_methods_untouched(self):
        assert _codes("pool.process(item)\n") == []


class TestREP005:
    def test_unprotected_grant_yield_flagged(self):
        src = """
        def proc(env, res):
            req = res.request()
            yield req
            yield env.timeout(1.0)
            res.release(req)
        """
        assert _codes(src) == ["REP005"]

    def test_direct_request_yield_flagged(self):
        # The grant object is discarded: nothing can ever release it.
        src = """
        def proc(env, res):
            yield res.request()
            yield env.timeout(1.0)
        """
        assert _codes(src) == ["REP005"]

    def test_try_finally_with_release_clean(self):
        src = """
        def proc(env, res):
            req = res.request()
            try:
                yield req
                yield env.timeout(1.0)
            finally:
                res.release(req)
        """
        assert _codes(src) == []

    def test_finally_without_release_still_flagged(self):
        src = """
        def proc(env, res):
            req = res.request()
            try:
                yield req
            finally:
                log.append("done")
        """
        assert _codes(src) == ["REP005"]

    def test_loop_acquire_pattern_clean(self):
        # The Fabric idiom: acquire several resources inside one guarded
        # block, release them all (including a still-pending request) in
        # the finally.
        src = """
        def transfer(env, resources):
            grants = []
            try:
                for res in resources:
                    req = res.request()
                    grants.append((res, req))
                    yield req
                yield env.timeout(1.0)
            finally:
                for res, req in reversed(grants):
                    res.release(req)
        """
        assert _codes(src) == []

    def test_non_request_yields_untouched(self):
        src = """
        def proc(env, store):
            item = yield store.get()
            yield env.timeout(1.0)
        """
        assert _codes(src) == []


class TestREP007:
    SERVE = "src/repro/serve/engine.py"

    def _codes_at(self, source, path):
        return [i.code for i in lint_source(textwrap.dedent(source), path)]

    def test_derived_seed_in_serve_flagged(self):
        for arg in ("time.time()", "os.getpid()", "hash(rid)"):
            src = f"rng = np.random.default_rng({arg})\n"
            assert self._codes_at(src, self.SERVE) == ["REP007"], arg

    def test_explicit_seed_allowed(self):
        for arg in ("0", "req.seed", "seed", "self.seed * 3 + rid",
                    "spec.seed + 1"):
            src = f"rng = np.random.default_rng({arg})\n"
            assert self._codes_at(src, self.SERVE) == [], arg

    def test_no_arg_case_belongs_to_rep003(self):
        src = "rng = np.random.default_rng()\n"
        assert self._codes_at(src, self.SERVE) == ["REP003"]

    def test_non_serve_paths_exempt(self):
        src = "rng = np.random.default_rng(time.time())\n"
        assert self._codes_at(src, "src/repro/nn/generation.py") == []

    def test_suppression_comment(self):
        src = ("rng = np.random.default_rng(time.time())"
               "  # lint-ok: REP007 demo\n")
        assert self._codes_at(src, self.SERVE) == []


class TestREP008:
    def test_lambda_payload_flagged(self):
        src = """
        def program(send):
            send(1, "forward", 0, lambda x: x + 1)
        """
        assert _codes(src) == ["REP008"]

    def test_generator_expression_payload_flagged(self):
        src = """
        def program(send):
            send(1, "forward", 0, (x for x in range(3)))
        """
        assert _codes(src) == ["REP008"]

    def test_method_send_with_lambda_flagged(self):
        src = """
        def step(transport):
            transport.send(0, 1, "forward", 0, lambda: None)
        """
        assert _codes(src) == ["REP008"]

    def test_local_function_payload_flagged(self):
        src = """
        def program(send):
            def hook(x):
                return x
            send(1, "forward", 0, hook)
        """
        assert _codes(src) == ["REP008"]

    def test_assigned_lambda_payload_flagged(self):
        src = """
        def program(send):
            hook = lambda x: x
            send(1, "forward", 0, hook)
        """
        assert _codes(src) == ["REP008"]

    def test_ndarray_and_scalar_payloads_clean(self):
        src = """
        def program(send, out):
            send(1, "forward", 0, out)
            send(1, "forward", 1, 3.5)
            send(1, "forward", 2, {"loss": 0.1})
        """
        assert _codes(src) == []

    def test_module_level_callable_by_name_clean(self):
        # Module-level functions pickle by reference (ProgramSpec relies
        # on this); only *locally defined* ones are flagged.
        src = """
        def dispatch(conn, fn, args):
            conn.send(("call", fn, args))
        """
        assert _codes(src) == []

    def test_generator_send_protocol_clean(self):
        src = """
        def drive(gen, pkt):
            return gen.send(pkt)
        """
        assert _codes(src) == []

    def test_suppression_comment(self):
        src = ('def f(send):\n'
               '    send(1, "t", 0, lambda: 1)  # lint-ok: REP008 demo\n')
        assert lint_source(src) == []


class TestREP009:
    BAD = """\
import time
from repro.runtime.transport import RECV


def program(rank, net):
    net.send(rank, 1, "forward", 0, None)
    time.sleep(0.1)
    pkt = yield RECV
"""

    def test_blocking_call_in_flight_flagged(self):
        issues = lint_source(self.BAD, "prog.py")
        assert [i.code for i in issues] == ["REP009"]
        assert issues[0].line == 7
        assert "time.sleep" in issues[0].message
        # A POLL is answered within the rank's own turn: it closes no window.
        polled = self.BAD.replace(
            "    time.sleep(0.1)\n", "    yield POLL\n    time.sleep(0.1)\n")
        assert [i.code for i in lint_source(polled, "prog.py")] == ["REP009"]

    def test_blocking_outside_the_window_allowed(self):
        good = """\
import time
from repro.runtime.transport import RECV


def program(rank, net):
    time.sleep(0.1)
    net.send(rank, 1, "forward", 0, None)
    pkt = yield RECV
    time.sleep(0.1)
"""
        assert lint_source(good, "prog.py") == []

    def test_non_rank_programs_untouched(self):
        # send + sleep but no `yield RECV`: not a rank program, not REP009's
        # business (the cooperative sweep never drives this function).
        src = ("import time\n"
               "def helper(net):\n"
               "    net.send(0, 1, 'x', 0)\n"
               "    time.sleep(0.1)\n")
        assert lint_source(src, "helper.py") == []

    def test_suppression_honored(self):
        suppressed = self.BAD.replace(
            "time.sleep(0.1)",
            "time.sleep(0.1)  # lint-ok: REP009 measured stall for a test")
        assert lint_source(suppressed, "prog.py") == []


class TestREP010:
    def test_sink_record_without_group_flagged(self):
        src = """
        def emit(trace, rank, mb):
            trace.record_collective(rank, "tp_allgather", key=("fwd", mb))
        """
        assert _codes(src) == ["REP010"]

    def test_sink_record_with_group_key_clean(self):
        src = """
        def emit(trace, rank, mb, group_key):
            trace.record_collective(rank, "tp_allgather",
                                    key=(group_key, "fwd", mb))
        """
        assert _codes(src) == []

    def test_raw_record_call_without_group_flagged(self):
        src = """
        def emit(self, mb, nbytes):
            self.record(self.rank, "tp_reduce_scatter", ("bwd", mb), nbytes)
        """
        assert _codes(src) == ["REP010"]

    def test_wrapper_forwarding_group_key_clean(self):
        # The TPComm shape: the wrapper owns the group key, call sites
        # pass only (op, direction, microbatch, nbytes).
        src = """
        class Comm:
            def record_collective(self, op, direction, microbatch, nbytes):
                self.record(self.rank, op,
                            (self.group_key, direction, microbatch), nbytes)

        def emit(comm, mb, n):
            comm.record_collective("tp_allgather", "fwd", mb, n)
        """
        assert _codes(src) == []

    def test_wrapper_dropping_group_key_flagged(self):
        src = """
        class Comm:
            def record_collective(self, op, direction, microbatch, nbytes):
                self.record(self.rank, op, (direction, microbatch), nbytes)
        """
        assert _codes(src) == ["REP010"]

    def test_mispaired_direction_flagged(self):
        # A reduce-scatter labeled "fwd" would make the follower's record
        # order diverge from the lead's.
        src = """
        def emit(comm, mb, n):
            comm.record_collective("tp_reduce_scatter", "fwd", mb, n)
        """
        assert _codes(src) == ["REP010"]

    def test_canonical_pairings_clean(self):
        src = """
        def emit(comm, mb, n):
            comm.record_collective("tp_allgather", "fwd", mb, n)
            comm.record_collective("tp_reduce_scatter", "bwd", mb, n)
        """
        assert _codes(src) == []

    def test_variable_op_untouched(self):
        # Sinks that relay a variable op (engine/parallel replay paths)
        # cannot be judged statically and are left alone.
        src = """
        def relay(recorder, rank, op, key):
            recorder.record_collective(rank, op, key=key)
        """
        assert _codes(src) == []

    def test_raw_sink_definition_exempt(self):
        # TraceRecorder.record_collective has no `direction` parameter:
        # it is the sink itself, not the TP wrapper.
        src = """
        class TraceRecorder:
            def record_collective(self, rank, op, key=None):
                self._record(kind="collective", rank=rank, tag=op, key=key)
        """
        assert _codes(src) == []

    def test_non_tp_collectives_untouched(self):
        src = """
        def emit(recorder, rank, slot):
            recorder.record_collective(rank, "allreduce_fp32", key=(0, slot))
        """
        assert _codes(src) == []


class TestREP011:
    SCHED = "src/repro/sched/builders.py"

    @staticmethod
    def _codes_at(source, path):
        return [i.code for i in lint_source(textwrap.dedent(source), path)]

    def test_recv_loop_in_sched_flagged(self):
        src = """
        def build(transport, m):
            for _ in range(m):
                pkt = yield RECV
        """
        assert self._codes_at(src, self.SCHED) == ["REP011"]

    def test_plane_yield_in_sched_flagged(self):
        src = """
        def build(net, m):
            pkt = yield "F"
            net.send(0, 1, "F", 0, pkt.data)
        """
        assert self._codes_at(src, self.SCHED) == ["REP011"]

    def test_compile_module_exempt(self):
        """No sched module is exempt: lowering is the runtime's
        (``runtime/rankprog.py``), so a ``compile.py`` under ``sched``
        would be a second lowering."""
        src = """
        def lower(net, m):
            pkt = yield "F"
            net.send(0, 1, "F", 0, pkt.data)
        """
        assert self._codes_at(src, "src/repro/sched/compile.py") == \
            ["REP011"]

    def test_outside_sched_untouched(self):
        src = """
        def program(transport, m):
            for _ in range(m):
                pkt = yield RECV
        """
        assert self._codes_at(src, "src/repro/runtime/rankprog.py") == []

    def test_pure_ir_builder_clean(self):
        src = """
        def build(n_stages, m):
            return [("F", mb) for mb in range(m)]
        """
        assert self._codes_at(src, self.SCHED) == []

    def test_suppression_honored(self):
        src = ('def build(net):\n'
               '    pkt = yield "F"  # lint-ok: REP011 demo\n')
        assert self._codes_at(src, self.SCHED) == []


class TestREP012:
    """Fleet policy code must be replayable: no wall clocks, no unseeded
    randomness anywhere under a ``fleet`` path component."""

    FLEET = "src/repro/fleet/policy.py"

    @staticmethod
    def _codes_at(source, path):
        return [i.code for i in lint_source(textwrap.dedent(source), path)]

    def test_wall_clock_flagged(self):
        src = "import time\nt = time.time()\n"
        assert self._codes_at(src, self.FLEET) == ["REP012"]

    def test_monotonic_and_perf_counter_flagged(self):
        for call in ("time.monotonic()", "time.perf_counter()",
                     "time.time_ns()"):
            src = f"import time\nt = {call}\n"
            assert self._codes_at(src, self.FLEET) == ["REP012"], call

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nt = datetime.now()\n"
        assert self._codes_at(src, self.FLEET) == ["REP012"]

    def test_stdlib_random_flagged(self):
        src = "import random\nx = random.random()\n"
        assert self._codes_at(src, "src/repro/fleet/sim.py") == ["REP012"]

    def test_unseeded_default_rng_flagged(self):
        src = ("import numpy as np\n"
               "r = np.random.default_rng(worker_id)\n")
        assert self._codes_at(src, self.FLEET) == ["REP012"]

    def test_seed_derived_rng_allowed(self):
        for arg in ("seed + 1", "req.seed", "self.seed"):
            src = f"import numpy as np\nr = np.random.default_rng({arg})\n"
            assert self._codes_at(src, self.FLEET) == [], arg

    def test_outside_fleet_untouched(self):
        src = "import time\nt = time.time()\n"
        assert self._codes_at(src, "src/repro/serve/sim.py") == []

    def test_any_fleet_path_component_counts(self):
        src = "import time\nt = time.perf_counter()\n"
        assert self._codes_at(src, "tests/fleet/helper.py") == ["REP012"]

    def test_suppression_honored(self):
        src = "import time\nt = time.time()  # lint-ok: REP012 demo\n"
        assert self._codes_at(src, self.FLEET) == []


class TestMachinery:
    def test_suppression_comment(self):
        src = "rng = np.random.default_rng()  # lint-ok: REP003 reason\n"
        assert lint_source(src) == []

    def test_bare_suppression_covers_all_rules(self):
        src = "env.process(np.random.default_rng())  # lint-ok\n"
        assert lint_source(src) == []

    def test_suppression_of_other_rule_does_not_mask(self):
        src = "rng = np.random.default_rng()  # lint-ok: REP004\n"
        assert [i.code for i in lint_source(src)] == ["REP003"]

    def test_issue_format(self):
        issue = lint_source("np.random.seed(1)\n", path="x.py")[0]
        assert str(issue).startswith("x.py:1:")
        assert "REP003" in str(issue)

    def test_syntax_error_reported_not_raised(self):
        issues = lint_source("def broken(:\n", path="bad.py")
        assert issues[0].code == "PARSE"

    def test_nested_scopes_are_checked_on_their_own(self):
        # Each def is its own scope: the inner generator's `yield 5` is not
        # the outer rank program's (no REP002), while the unnamed process
        # in it and the nested helper's owned `g` are still found.
        src = """\
def outer(rank, net, x):
    pkt = yield RECV

    def inner(env):
        yield 5
        env.process(inner(env))

    def helper(g):
        x._accumulate_owned(g)
"""
        assert [(i.code, i.line) for i in lint_source(src)] == [
            ("REP004", 6), ("REP001", 9)]

    def test_rule_catalogue_complete(self):
        assert set(RULES) == {"REP001", "REP002", "REP003", "REP004",
                              "REP005", "REP007", "REP008",
                              "REP009", "REP010", "REP011", "REP012"}
