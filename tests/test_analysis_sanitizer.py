"""Tests for the autograd sanitizer: the three seeded bug classes (aliased
``_accumulate_owned``, in-place mutation of a saved activation, NaN-producing
op), graph hygiene, and the zero-overhead-when-disabled contract."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn.functional import softmax
from repro.nn.sanitizer import (
    AnomalyError,
    GraphError,
    MutationError,
    OwnershipError,
    detect_anomaly,
    sanitize,
    sanitizer,
)


def _tensor(shape=(3, 4), requires_grad=True, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape).astype(np.float32),
                  requires_grad=requires_grad)


class TestSeededBugs:
    """Deliberately misimplemented backward closures, each named after the
    op it impersonates, must be flagged with that op name."""

    def test_aliased_accumulate_owned_flagged(self):
        """Seeded bug 1: passing the upstream gradient ``g`` straight to
        ``_accumulate_owned`` (the REP001 violation, at runtime)."""
        a = _tensor()

        def buggy_scale(x):
            out_data = x.data * 2.0

            def backward(g, a=x):
                a._accumulate_owned(g)  # WRONG: g is not owned

            return Tensor._make(out_data, (x,), backward)

        with sanitize():
            out = buggy_scale(a)
            with pytest.raises(OwnershipError) as excinfo:
                out.sum().backward()
        msg = str(excinfo.value)
        assert "buggy_scale" in msg
        assert "REP001" in msg

    def test_aliased_parent_data_flagged(self):
        """Variant: handing over a view of the parent's own buffer."""
        a = _tensor()

        def buggy_identity(x):
            def backward(g, a=x):
                a._accumulate_owned(a.data[:])  # WRONG: aliases a.data

            return Tensor._make(x.data.copy(), (x,), backward)

        with sanitize():
            out = buggy_identity(a)
            with pytest.raises(OwnershipError) as excinfo:
                out.sum().backward()
        assert "buggy_identity" in str(excinfo.value)
        assert "parent tensor's own data" in str(excinfo.value)

    def test_mutated_saved_activation_flagged(self):
        """Seeded bug 2: mutating a tensor saved for backward in place
        between forward and backward."""
        a = _tensor()

        def buggy_relu(x):
            out_data = np.maximum(x.data, 0)

            def backward(g, a=x):
                a._accumulate_owned(g * (a.data > 0))

            return Tensor._make(out_data, (x,), backward)

        with sanitize():
            out = buggy_relu(a)
            a.data *= 3.0  # in-place mutation after the save
            a.bump_version()
            with pytest.raises(MutationError) as excinfo:
                out.sum().backward()
        assert "buggy_relu" in str(excinfo.value)

    def test_unannotated_mutation_caught_by_fingerprint(self):
        """The content fingerprint catches mutations even without
        bump_version()."""
        a = _tensor()
        with sanitize():
            out = a.relu()
            a.data += 100.0  # no bump_version()
            with pytest.raises(MutationError, match="relu"):
                out.sum().backward()

    def test_nan_producing_op_flagged_in_forward(self):
        """Seeded bug 3: an op producing NaN, pinpointed at creation."""
        a = Tensor(np.array([-1.0, 2.0], dtype=np.float32),
                   requires_grad=True)
        with detect_anomaly(), np.errstate(invalid="ignore"):
            with pytest.raises(AnomalyError, match="'log'"):
                a.log()  # log(-1) = nan in the forward output

    def test_nonfinite_gradient_flagged_entering_backward(self):
        a = Tensor(np.array([0.5, 2.0], dtype=np.float32),
                   requires_grad=True)
        with detect_anomaly():
            out = a.relu()
            with pytest.raises(AnomalyError, match="relu"):
                out.backward(np.array([np.inf, 1.0], dtype=np.float32))


class TestGraphHygiene:
    def test_double_backward_raises(self):
        a = _tensor()
        with sanitize():
            out = (a * a).sum()
            out.backward()
            a.zero_grad()
            with pytest.raises(GraphError, match="double backward"):
                out.backward()

    def test_graph_leak_detected(self):
        a = _tensor()
        with sanitize():
            with sanitizer.watch_graphs() as watch:
                kept = a * 2.0  # interior node, never backwarded
            assert watch.created() >= 1
            leaked = watch.leaked()
            assert kept in leaked

    def test_no_leak_after_backward(self):
        a = _tensor()
        with sanitize():
            with sanitizer.watch_graphs() as watch:
                out = (a * 2.0).sum()
                out.backward()
                del out
            assert watch.leaked() == []


class TestCleanCodePasses:
    def test_shipped_ops_pass_under_sanitizer(self):
        """The shipped fused/primitive closures honour the ownership
        contract: a realistic composite graph backwards cleanly."""
        a = _tensor((4, 8), seed=1)
        b = _tensor((8, 8), seed=2)
        with sanitize(anomaly=True):
            out = softmax((a @ b).tanh() + 1.0, axis=-1)
            (out.mean() * 3.0).backward()
        assert a.grad is not None and np.isfinite(a.grad).all()
        assert b.grad is not None and np.isfinite(b.grad).all()

    def test_full_model_training_step_under_sanitizer(self):
        from repro.nn import GPTConfig, LMBatches, SyntheticCorpus
        from repro.runtime import SerialTrainer

        cfg = GPTConfig(vocab_size=32, seq_len=8, n_layer=2, n_head=2,
                        hidden=16)
        trainer = SerialTrainer(cfg)
        corpus = SyntheticCorpus(cfg.vocab_size, 1_000, seed=0)
        x, y = LMBatches(corpus, batch_size=4, seq_len=cfg.seq_len).batch(0)
        with sanitize():
            loss = trainer.train_batch(x, y)
        assert np.isfinite(loss if isinstance(loss, float) else loss.loss)

    def test_version_counter_semantics(self):
        t = _tensor()
        assert t.version == 0
        t.bump_version()
        t.bump_version()
        assert t.version == 2


class TestZeroOverheadContract:
    def test_disabled_by_default(self):
        assert sanitizer.enabled is False
        assert sanitizer.anomaly is False

    def test_context_restores_state(self):
        with sanitize(anomaly=True):
            assert sanitizer.enabled and sanitizer.anomaly
        assert not sanitizer.enabled and not sanitizer.anomaly

    def test_no_snapshots_recorded_when_disabled(self):
        a = _tensor()
        out = (a * a).sum()
        out.backward()
        assert len(sanitizer._records) == 0
        assert len(sanitizer._consumed) == 0

    def test_buggy_closure_unflagged_when_disabled(self):
        """Sanity check on the opt-in property: with the sanitizer off, the
        seeded bug passes silently (which is exactly why the sanitizer and
        lint rule exist)."""
        a = _tensor()

        def buggy(x):
            def backward(g, a=x):
                a._accumulate_owned(g)

            return Tensor._make(x.data * 2.0, (x,), backward)

        buggy(a).sum().backward()  # no error
        assert a.grad is not None
