"""Tests for repro.serve.engine: continuous-batching pipeline serving on
the functional runtime, token-for-token identical to serial generate."""

import itertools
from collections import Counter

import numpy as np
import pytest

from repro.nn import GPT, GPTConfig, generate
from repro.obs import Tracer
from repro.obs.protocol import TraceRecorder, verify_trace
from repro.serve import PipelineServer, Request, RequestSpec, make_requests

CFG = GPTConfig(vocab_size=31, seq_len=32, n_layer=4, n_head=2, hidden=12)


def serial_reference(cfg, requests):
    """What each request would produce through plain `generate`."""
    model = GPT(cfg)
    return {
        req.rid: generate(model, req.prompt, req.max_new_tokens,
                          temperature=req.temperature, top_k=req.top_k,
                          rng=np.random.default_rng(req.seed),
                          greedy=req.greedy)
        for req in requests
    }


def fake_clock():
    counter = itertools.count()
    return lambda: float(next(counter))


class TestTokenEquivalence:
    @pytest.mark.parametrize("g_inter,max_batch",
                             [(1, 4), (2, 1), (2, 4), (3, 2), (4, 8),
                              (6, 3)])
    def test_matches_serial_generate(self, g_inter, max_batch):
        requests = make_requests(
            CFG, 8, RequestSpec(mean_prompt=5, mean_new_tokens=5, seed=3))
        expected = serial_reference(CFG, requests)
        server = PipelineServer(CFG, g_inter=g_inter, max_batch=max_batch)
        got = server.serve(requests)
        assert set(got) == set(expected)
        for rid in got:
            assert np.array_equal(got[rid], expected[rid]), rid
        # every stage drained its KV caches
        assert all(s.inflight_requests == 0 for s in server.stages)

    @pytest.mark.parametrize("g_inter,g_prefill,max_batch", [
        (1, 0, 8), (2, 0, 6), (3, 0, 5), (1, 1, 8), (2, 1, 7), (1, 2, 6)])
    def test_wide_groups_match_serial_generate(self, g_inter, g_prefill,
                                               max_batch):
        """Under both placements the widest decode group really is
        ``max_batch`` requests in one stacked pass, and every one of them
        still gets serial ``generate``'s tokens."""
        requests = make_requests(
            CFG, 8, RequestSpec(mean_prompt=5, mean_new_tokens=5, seed=3))
        expected = serial_reference(CFG, requests)
        server = PipelineServer(CFG, g_inter=g_inter, g_prefill=g_prefill,
                                max_batch=max_batch)
        stage = server.stages[0]
        forward, widths = stage.forward, []

        def sampled(rids, xs):
            widths.append(len(rids))
            return forward(rids, xs)

        stage.forward = sampled
        got = server.serve(requests)
        for rid in got:
            assert np.array_equal(got[rid], expected[rid]), rid
        assert max(widths) == max_batch

    def test_without_continuous_batching_identical(self):
        """max_active=1 serves strictly one request at a time; outputs
        must not depend on the batching policy."""
        requests = make_requests(
            CFG, 6, RequestSpec(mean_prompt=4, mean_new_tokens=6, seed=9))
        expected = serial_reference(CFG, requests)
        got = PipelineServer(CFG, g_inter=2, max_batch=1,
                             max_active=1).serve(requests)
        for rid in got:
            assert np.array_equal(got[rid], expected[rid]), rid

    @pytest.mark.parametrize("options,peak", [
        (dict(max_batch=4), 4),
        (dict(max_batch=4, max_active=1), 1),
        (dict(max_batch=2, max_active=3), 3),
    ])
    def test_depth_one_obeys_its_options(self, options, peak):
        """A pipeline of depth one is continuously batched by the same
        pump as every other depth: ``max_active`` bounds how many
        requests are KV-resident at once, ``max_batch`` sets the default
        — no option is accepted and ignored."""
        requests = make_requests(
            CFG, 8, RequestSpec(mean_prompt=5, mean_new_tokens=5, seed=3))
        expected = serial_reference(CFG, requests)
        server = PipelineServer(CFG, g_inter=1, **options)
        stage, = server.stages
        forward, resident = stage.forward, []

        def sampled(rids, xs):
            resident.append(stage.inflight_requests)
            return forward(rids, xs)

        stage.forward = sampled
        got = server.serve(requests)
        for rid in got:
            assert np.array_equal(got[rid], expected[rid]), rid
        assert max(resident) == peak
        assert stage.inflight_requests == 0

    def test_greedy_request_is_deterministic_across_servers(self):
        req = Request(rid=0, prompt=np.array([1, 2, 3]), max_new_tokens=8,
                      greedy=True)
        a = PipelineServer(CFG, g_inter=2).serve([req])
        b = PipelineServer(CFG, g_inter=4, max_batch=2).serve([req])
        assert np.array_equal(a[0], b[0])

    def test_zero_token_request_returns_prompt(self):
        req = Request(rid=7, prompt=np.array([3, 1]), max_new_tokens=0)
        out = PipelineServer(CFG, g_inter=2).serve([req])
        assert np.array_equal(out[7], [3, 1])


class TestValidation:
    def test_prompt_plus_budget_over_seq_len_rejected(self):
        req = Request(rid=0, prompt=np.arange(1, 20), max_new_tokens=20)
        with pytest.raises(ValueError, match="seq_len"):
            PipelineServer(CFG, g_inter=2).serve([req])

    def test_duplicate_rid_rejected(self):
        reqs = [Request(rid=1, prompt=np.array([1]), max_new_tokens=1),
                Request(rid=1, prompt=np.array([2]), max_new_tokens=1)]
        with pytest.raises(ValueError, match="duplicate"):
            PipelineServer(CFG, g_inter=2).serve(reqs)

    def test_bad_sampling_params_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            PipelineServer(CFG).serve([Request(
                rid=0, prompt=np.array([1]), max_new_tokens=1,
                temperature=0.0)])
        with pytest.raises(ValueError, match="top_k"):
            PipelineServer(CFG).serve([Request(
                rid=0, prompt=np.array([1]), max_new_tokens=1, top_k=0)])

    def test_out_of_vocab_prompt_rejected(self):
        with pytest.raises(ValueError, match="vocabulary"):
            PipelineServer(CFG).serve([Request(
                rid=0, prompt=np.array([CFG.vocab_size]),
                max_new_tokens=1)])

    def test_bad_server_params_rejected(self):
        with pytest.raises(ValueError):
            PipelineServer(CFG, g_inter=0)
        with pytest.raises(ValueError):
            PipelineServer(CFG, max_batch=0)
        with pytest.raises(ValueError):
            PipelineServer(CFG, max_active=0)


class TestObservability:
    def _serve_traced(self, g_inter):
        tracer = Tracer(clock=fake_clock())
        requests = make_requests(
            CFG, 4, RequestSpec(mean_prompt=4, mean_new_tokens=4, seed=1))
        PipelineServer(CFG, g_inter=g_inter, max_batch=2,
                       tracer=tracer).serve(requests)
        return tracer, requests

    @pytest.mark.parametrize("g_inter", [1, 3])
    def test_request_spans_emitted(self, g_inter):
        tracer, requests = self._serve_traced(g_inter)
        spans = [s for s in tracer.spans if s.stream == "serve"]
        assert spans and spans == tracer.spans
        by_rid = {req.rid: [s.name for s in spans
                            if s.microbatch == req.rid]
                  for req in requests}
        for req in requests:
            names = by_rid[req.rid]
            # one prefill, then decode2..decodeN, then the request span
            assert names[0] == "prefill"
            assert names[-1] == "request"
            assert names[1:-1] == [f"decode{t}"
                                   for t in range(1, req.max_new_tokens)]

    @pytest.mark.parametrize("g_inter,g_prefill",
                             [(2, 1), (2, 2), (1, 3), (1, 0)])
    def test_every_placement_emits_the_same_spans(self, g_inter, g_prefill):
        """Tracing is a property of the one scheduler, not of a placement:
        the same requests leave the same ``serve`` spans wherever their
        prompts ran."""
        requests = make_requests(
            CFG, 6, RequestSpec(mean_prompt=4, mean_new_tokens=4, seed=1))

        def spans(**placement):
            tracer = Tracer(clock=fake_clock())
            PipelineServer(CFG, max_batch=2, tracer=tracer,
                           **placement).serve(requests)
            assert all(s.stream == "serve" for s in tracer.spans)
            return Counter((s.name, s.microbatch, s.category)
                           for s in tracer.spans)

        want = spans(g_inter=2)
        assert sum(want.values()) == sum(
            1 + r.max_new_tokens for r in requests)
        assert spans(g_inter=g_inter, g_prefill=g_prefill) == want

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False, clock=fake_clock())
        requests = make_requests(CFG, 2)
        PipelineServer(CFG, g_inter=2, tracer=tracer).serve(requests)
        assert tracer.spans == []


class TestProtocol:
    def test_transport_trace_is_clean(
            self, placements=((3, 0), (3, 1), (2, 2), (1, 3))):
        requests = make_requests(
            CFG, 5, RequestSpec(mean_prompt=4, mean_new_tokens=5, seed=2))
        for g_inter, g_prefill in placements:
            recorder = TraceRecorder()
            PipelineServer(CFG, g_inter=g_inter, max_batch=2,
                           recorder=recorder,
                           g_prefill=g_prefill).serve(requests)
            assert verify_trace(recorder) == [], (g_inter, g_prefill)
            assert recorder.events
