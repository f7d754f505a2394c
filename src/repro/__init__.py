"""repro — a reproduction of *AxoNN: An asynchronous, message-driven
parallel framework for extreme-scale deep learning* (Singh & Bhatele,
IPDPS 2022).

The package has two complementary halves:

* a **functional runtime** (:mod:`repro.nn` + :mod:`repro.runtime`) that
  executes AxoNN's hybrid message-driven training algorithm with real
  numerics on an in-process rank transport — used to validate that the
  parallelization preserves optimizer semantics (paper Fig. 10);

* a **performance model** (:mod:`repro.sim`, :mod:`repro.cluster`,
  :mod:`repro.comm`, :mod:`repro.core`, :mod:`repro.baselines`) that runs
  the same algorithms as discrete-event programs on a Summit-calibrated
  simulated cluster — used to reproduce the paper's scaling and
  optimization studies (Figs. 3-9, 11, Tables I-II).

Quick start (functional)::

    from repro.nn import GPTConfig, SyntheticCorpus, LMBatches
    from repro.runtime import AxoNNTrainer

    cfg = GPTConfig(vocab_size=64, seq_len=16, n_layer=4, n_head=4,
                    hidden=32)
    trainer = AxoNNTrainer(cfg, g_inter=2, g_data=2, microbatch_size=2)
    corpus = SyntheticCorpus(cfg.vocab_size, 10_000, seed=0)
    batches = LMBatches(corpus, batch_size=8, seq_len=cfg.seq_len)
    for i in range(10):
        x, y = batches.batch(i)
        print(trainer.train_batch(x, y).loss)

Quick start (performance)::

    from repro.core import AxoNNConfig, WEAK_SCALING_MODELS, simulate_batch

    cfg = AxoNNConfig(spec=WEAK_SCALING_MODELS["12B"], num_gpus=48,
                      g_inter=6, g_data=8, microbatch_size=8,
                      batch_size=16384, memopt=True)
    print(simulate_batch(cfg).as_row())

Importing ``repro`` loads no subpackage; each one is imported on its
own, and the package's import graph is acyclic: a subpackage imports
only the layers before it in the order ``LAYERS`` in
``tests/test_layering.py`` lists and checks.  So the performance model
loads without the functional runtime.
"""

__version__ = "1.0.0"
