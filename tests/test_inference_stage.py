"""Tests for repro.runtime.InferenceStage.forward over a group: one walk
of the shard for ``w`` requests, each row bit-identical to the forward
that request would get alone, all-or-nothing when a row is bad."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import GPT, GPTConfig, KVCache, no_grad
from repro.perf import counting
from repro.runtime import InferenceStage

CFG = GPTConfig(vocab_size=17, seq_len=12, n_layer=3, n_head=2, hidden=8,
                init_seed=5)
MODEL = GPT(CFG)
MODEL.eval()


def pipeline(g_inter):
    return [InferenceStage(CFG, i, g_inter) for i in range(g_inter)]


def run_group(stages, rids, xs):
    """One group through every shard; returns each shard's output."""
    outs = []
    for stage in stages:
        out = stage.forward(rids, xs)
        xs = [out[i:i + 1] for i in range(len(rids))]
        outs.append(out)
    return outs


@given(
    g_inter=st.integers(1, 3),
    prompt_lens=st.lists(st.integers(1, 6), min_size=1, max_size=8),
    steps=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_stacked_rows_equal_single_request_forwards(g_inter, prompt_lens,
                                                    steps, seed):
    """Width 1-8, every request at its own depth of its own sequence: a
    row of the stacked pass equals the width-one pass of that request
    bit for bit — every shard's output, the logits serial ``GPT`` computes
    over its own ``KVCache``, and the KV rows left behind."""
    rids = list(range(len(prompt_lens)))
    tokens = np.random.default_rng(seed).integers(
        0, CFG.vocab_size, size=(len(rids), CFG.seq_len))
    stacked, alone = pipeline(g_inter), pipeline(g_inter)
    serial = {rid: KVCache(CFG) for rid in rids}
    for rid, n in zip(rids, prompt_lens):  # a prompt is a width-one group
        prompt = tokens[rid:rid + 1, :n]
        for stage in stacked + alone:
            stage.start_request(rid)
        got = run_group(stacked, [rid], [prompt])
        with no_grad():
            want, _ = MODEL(prompt, cache=serial[rid])
        assert np.array_equal(got[-1], want.data)
        run_group(alone, [rid], [prompt])
    for step in range(steps):
        xs = [tokens[rid:rid + 1, n + step:n + step + 1]
              for rid, n in zip(rids, prompt_lens)]
        got = run_group(stacked, rids, xs)
        for i, rid in enumerate(rids):
            want = run_group(alone, [rid], [xs[i]])
            for shard_got, shard_want in zip(got, want):
                assert np.array_equal(shard_got[i:i + 1], shard_want)
            with no_grad():
                logits, _ = MODEL(xs[i], cache=serial[rid])
            assert np.array_equal(got[-1][i:i + 1], logits.data)
    for rid in rids:
        for a, b in zip(stacked, alone):
            pos_a, kv_a = a.export_kv(rid)
            pos_b, kv_b = b.export_kv(rid)
            assert pos_a == pos_b == serial[rid].length
            assert kv_a.keys() == kv_b.keys()
            for slot in kv_a:
                block = serial[rid].blocks[slot - 1]
                for x, y, z in zip(kv_a[slot], kv_b[slot],
                                   (block.k, block.v)):
                    assert np.array_equal(x, y)
                    assert np.array_equal(x, z[:, :, :pos_a])


@pytest.mark.parametrize("g_inter", [1, 2])
def test_pass_cost_in_kernel_calls(g_inter):
    """The deterministic alpha and beta of a pass: a decode group bumps
    linear / layer_norm / gelu a number of times that does not depend on
    its width (4, 2 and 1 per block, 1 + 1 for the head), and
    masked_softmax exactly width x blocks."""
    for w in (1, 3, 8):
        stages = pipeline(g_inter)
        rids = list(range(w))
        for rid in rids:
            for stage in stages:
                stage.start_request(rid)
            run_group(stages, [rid], [np.full((1, 1 + rid % 3), rid)])
        with counting() as c:
            run_group(stages, rids, [np.array([[rid]]) for rid in rids])
        counts = c.snapshot()
        assert counts["linear"] == 4 * CFG.n_layer + 1
        assert counts["layer_norm"] == 2 * CFG.n_layer + 1
        assert counts["gelu"] == CFG.n_layer
        assert counts["masked_softmax"] == w * CFG.n_layer


class TestAllOrNothing:
    """Stacked, a bad row could tear the group: every row is checked
    before any cache is extended or position advanced."""

    def resident(self, stage_index=0, g_inter=2):
        stage = InferenceStage(CFG, stage_index, g_inter)
        width = CFG.hidden if stage_index else None
        for rid, n in [(0, 3), (1, 5), (2, 11)]:
            stage.start_request(rid)
            stage.forward([rid], [self.rows(n, width)])
        return stage

    @staticmethod
    def rows(t, width=None):
        if width is None:
            return np.ones((1, t), dtype=np.int64)
        return np.ones((1, t, width), dtype=np.float32)

    @staticmethod
    def state(stage):
        return (dict(stage._pos),
                {rid: [c.length for c in caches.values()]
                 for rid, caches in stage._caches.items()})

    @pytest.mark.parametrize("bad,match", [
        (np.array([[CFG.vocab_size]]), "request 1: token"),
        (np.array([[-1]]), "request 1: token"),
        (np.array([[1, 2]]), "request 1: .*ragged"),
    ], ids=["token-too-large", "token-negative", "ragged"])
    def test_failing_last_row_changes_nothing(self, bad, match):
        stage = self.resident()
        before = self.state(stage)
        with pytest.raises(ValueError, match=match):
            stage.forward([0, 1], [self.rows(1), bad])
        assert self.state(stage) == before

    @pytest.mark.parametrize("stage_index", [0, 1])
    def test_full_cache_in_last_row_changes_nothing(self, stage_index):
        """Past shard 0 no embedding stands in front of the caches: left
        to ``LayerKVCache.extend`` the overflow would surface after the
        rows before it had been appended."""
        stage = self.resident(stage_index)
        x = self.rows(1, CFG.hidden if stage_index else None)
        stage.forward([2], [x])  # request 2 is now at seq_len
        before = self.state(stage)
        with pytest.raises(ValueError, match="request 2: KV cache overflow"):
            stage.forward([0, 1, 2], [x] * 3)
        assert self.state(stage) == before

    def test_unknown_or_repeated_rid_changes_nothing(self):
        stage = self.resident(stage_index=1)
        before = self.state(stage)
        x = self.rows(1, CFG.hidden)
        with pytest.raises(RuntimeError, match="request 9 not started"):
            stage.forward([0, 9], [x, x])
        with pytest.raises(ValueError, match="distinct"):
            stage.forward([0, 0], [x, x])
        with pytest.raises(ValueError, match="distinct"):
            stage.forward([0, 1], [x])
        assert self.state(stage) == before
