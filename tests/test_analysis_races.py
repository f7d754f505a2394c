"""Tests for the shared-memory race detector: happens-before over the
instrumented ShmRing's push/pop events, clean on correct SPSC traffic
(synthetic and a real process-backend run), and positive on the seeded
torn-write mutant that drops a release edge."""

import numpy as np
import pytest

from repro.analysis.races import (
    RaceError,
    assert_race_free,
    check_races,
    drop_release,
    load_ring_events,
    ring_events_from_spans,
    synthetic_ring_events,
)
from repro.nn import GPTConfig
from repro.obs import Tracer
from repro.runtime import AxoNNTrainer


class TestSynthetic:
    def test_well_synchronized_traffic_is_clean(self):
        events = synthetic_ring_events()
        assert len(events) == 16  # 8 pushes + 8 pops
        assert check_races(events) == []
        assert_race_free(events)  # must not raise

    def test_traffic_exercises_wraparound(self):
        # 8 x 96-byte frames in a 256-byte ring: positions wrap several
        # times, so the aliasing test runs modulo capacity, not on raw
        # absolute positions.
        events = synthetic_ring_events()
        assert max(e.pos + e.size for e in events) > events[0].capacity

    def test_dropped_final_release_races(self):
        mutated = drop_release(synthetic_ring_events())
        races = check_races(mutated)
        assert len(races) >= 1
        race = races[0]
        assert race.ring == "0->1"
        assert {race.first.op, race.second.op} == {"push", "pop"}
        assert race.first.rank != race.second.rank
        assert "no happens-before order" in str(race)

    def test_early_dropped_release_is_masked(self):
        """An earlier push's missing release is folded in transitively by
        the writer's next release (program order), so only the final
        frame exposes the bug — exactly why drop_release defaults to the
        last push."""
        mutated = drop_release(synthetic_ring_events(), index=0)
        assert check_races(mutated) == []

    def test_assert_race_free_lists_the_races(self):
        with pytest.raises(RaceError, match="race on ring '0->1'"):
            assert_race_free(drop_release(synthetic_ring_events()))

    def test_drop_release_requires_a_push(self):
        with pytest.raises(ValueError):
            drop_release([])


class TestSpanExtraction:
    def test_ring_events_roundtrip_through_spans(self):
        tracer = Tracer()
        now = tracer.now()
        tracer.record(0, "sync", "ring-push", now, now, category="other",
                      ring="0->1", pos=0, size=104, capacity=1 << 20,
                      seen=0)
        tracer.record(0, "sync", "ring-pop", now, now, category="other",
                      ring="1->0", pos=0, size=104, capacity=1 << 20,
                      seen=104)
        tracer.record(0, "net", "forward", now, now, category="p2p")
        events = ring_events_from_spans(tracer.spans)
        assert [e.op for e in events] == ["push", "pop"]
        assert events[0].ring == "0->1" and events[0].size == 104
        assert events[1].seen == 104
        assert all(e.released for e in events)


class TestRealProcessBackend:
    """The acceptance pair: a real backend="process" run is race-free,
    and the same event log with one release edge dropped is not."""

    def _run(self, tmp_path):
        trace_dir = str(tmp_path / "ranks")
        cfg = GPTConfig(vocab_size=17, seq_len=6, n_layer=2, n_head=2,
                        hidden=8, dropout=0.0, init_seed=5)
        trainer = AxoNNTrainer(cfg, g_inter=2, g_data=1, microbatch_size=2,
                               backend="process", tracer=Tracer(),
                               backend_options={"trace_dir": trace_dir})
        rng = np.random.default_rng(4)
        x, y = rng.integers(0, 17, (4, 6)), rng.integers(0, 17, (4, 6))
        try:
            loss = trainer.train_batch(x, y).loss
        finally:
            trainer.close()
        assert np.isfinite(loss)
        return load_ring_events(trace_dir)

    def test_real_run_is_clean_and_mutant_is_not(self, tmp_path):
        events = self._run(tmp_path)
        assert events, "instrumented rings recorded no events"
        assert {e.op for e in events} == {"push", "pop"}
        # Both worker->worker rings observed from both endpoints.
        assert {e.ring for e in events} == {"0->1", "1->0"}

        assert check_races(events) == []

        races = check_races(drop_release(events))
        assert len(races) >= 1
        assert races[0].first.rank != races[0].second.rank
