"""Save/restore of distributed training state.

Long training runs (the paper's Eq. 2 normalizes to 300 B tokens — months
of wall time) must survive restarts, so the trainer's full state — every
shard's parameters, the optimizer moments, the loss scale, and the batch
counter — round-trips through a plain dict of arrays (and, via
:func:`save_trainer` / :func:`load_trainer`, an ``.npz`` file).

Restoring requires a trainer with the same model configuration and grid;
resuming then continues bit-for-bit where the saved run left off, which the
tests assert.  *Bit-for-bit* requires more than arrays: the state also
captures every dropout module's RNG bit-generator state and the loss
scaler's good-step counter — without them a resumed run replays different
dropout masks (or grows the loss scale at the wrong step) and silently
forks the trajectory.  The crash-recovery equivalence guarantee of
:mod:`repro.resilience` is built directly on this completeness.
"""

from __future__ import annotations

import json
from typing import Dict

import numpy as np

from ..nn import AdamW
from .engine import AxoNNTrainer
from .offload import BucketedOffloadAdamW
from .stage import _dropout_modules

__all__ = ["trainer_state_dict", "load_trainer_state", "save_trainer",
           "load_trainer"]

_META_KEY = "__meta__"


def trainer_state_dict(trainer: AxoNNTrainer) -> Dict[str, np.ndarray]:
    """Flatten the trainer's full training state to named arrays."""
    state: Dict[str, np.ndarray] = {}
    for rank in sorted(trainer.stages):  # TP followers hold no stage
        stage = trainer.stages[rank]
        prefix = f"rank{rank}"
        for name, p in stage.named_parameters():
            state[f"{prefix}.param.{name}"] = p.data.copy()
        opt = trainer.optimizers[rank]
        if isinstance(opt, BucketedOffloadAdamW):
            state[f"{prefix}.opt.master"] = opt.host_master.copy()
            state[f"{prefix}.opt.exp_avg"] = opt.host_exp_avg.copy()
            state[f"{prefix}.opt.exp_avg_sq"] = opt.host_exp_avg_sq.copy()
            state[f"{prefix}.opt.steps"] = np.asarray(opt.steps)
        elif isinstance(opt, AdamW):
            for k, st in enumerate(opt.state):
                for key, arr in st.items():
                    state[f"{prefix}.opt.{k}.{key}"] = arr.copy()
            state[f"{prefix}.opt.steps"] = np.asarray(opt.steps)
        else:  # MixedPrecisionAdamW
            for k, (m, v) in enumerate(zip(opt.exp_avg, opt.exp_avg_sq)):
                state[f"{prefix}.opt.{k}.exp_avg"] = m.copy()
                state[f"{prefix}.opt.{k}.exp_avg_sq"] = v.copy()
            state[f"{prefix}.opt.steps"] = np.asarray(opt.steps)
    meta = {
        "batches_trained": trainer.batches_trained,
        "skipped_batches": trainer.skipped_batches,
        "loss_scale": trainer.scaler.scale,
        "loss_scale_good_steps": trainer.scaler.good_steps,
        "precision": trainer.precision,
        "g_inter": trainer.grid.g_inter,
        "g_data": trainer.grid.g_data,
        "g_intra": trainer.grid.g_intra,
        # Dropout RNG bit-generator states, per rank in traversal order.
        # PCG64 state dicts are plain ints, so they ride in the JSON meta.
        "rng_states": {
            f"rank{rank}": [m.rng.bit_generator.state
                            for m in _dropout_modules(trainer.stages[rank])]
            for rank in sorted(trainer.stages)
        },
    }
    state[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8).copy()
    return state


def load_trainer_state(trainer: AxoNNTrainer,
                       state: Dict[str, np.ndarray]) -> None:
    """Restore a state produced by :func:`trainer_state_dict`.

    The trainer must have the same grid shape and precision mode.
    """
    meta = json.loads(bytes(state[_META_KEY]).decode())
    saved_grid = (meta["g_inter"], meta["g_data"], meta.get("g_intra", 1))
    live_grid = (trainer.grid.g_inter, trainer.grid.g_data,
                 trainer.grid.g_intra)
    if saved_grid != live_grid:
        raise ValueError(
            f"grid mismatch: checkpoint is "
            f"{saved_grid[0]}x{saved_grid[1]}x{saved_grid[2]}, trainer is "
            f"{live_grid[0]}x{live_grid[1]}x{live_grid[2]}"
        )
    if meta["precision"] != trainer.precision:
        raise ValueError(
            f"precision mismatch: checkpoint is {meta['precision']!r}, "
            f"trainer is {trainer.precision!r}"
        )
    for rank in sorted(trainer.stages):
        stage = trainer.stages[rank]
        prefix = f"rank{rank}"
        for name, p in stage.named_parameters():
            key = f"{prefix}.param.{name}"
            if key not in state:
                raise KeyError(f"checkpoint missing {key}")
            p.data[...] = state[key]
        opt = trainer.optimizers[rank]
        if isinstance(opt, BucketedOffloadAdamW):
            opt.host_master[...] = state[f"{prefix}.opt.master"]
            opt.host_exp_avg[...] = state[f"{prefix}.opt.exp_avg"]
            opt.host_exp_avg_sq[...] = state[f"{prefix}.opt.exp_avg_sq"]
            opt.device_half[...] = opt.host_master.astype(np.float16)
            opt.steps = int(state[f"{prefix}.opt.steps"])
        elif isinstance(opt, AdamW):
            for k, st in enumerate(opt.state):
                for key in ("exp_avg", "exp_avg_sq", "momentum"):
                    full = f"{prefix}.opt.{k}.{key}"
                    live = st.get(key)
                    if full in state:
                        if live is None:
                            st[key] = state[full].copy()
                        else:  # in place: it may view a shared block
                            live[...] = state[full]
                    elif live is not None:
                        # The optimizer allocates moments lazily on the first
                        # step, so a checkpoint taken before that has none —
                        # restoring it must drop moments accumulated since,
                        # or a rollback-and-replay silently double-trains.
                        # Zero moments step exactly like absent ones.
                        live[...] = 0
            opt.steps = int(state[f"{prefix}.opt.steps"])
        else:  # MixedPrecisionAdamW
            for k in range(len(opt.params)):
                opt.exp_avg[k][...] = state[f"{prefix}.opt.{k}.exp_avg"]
                opt.exp_avg_sq[k][...] = \
                    state[f"{prefix}.opt.{k}.exp_avg_sq"]
            for p, h in zip(opt.params, opt.half_params):
                h[...] = p.data.astype(np.float16)
            opt.steps = int(state[f"{prefix}.opt.steps"])
    trainer.batches_trained = meta["batches_trained"]
    trainer.skipped_batches = meta["skipped_batches"]
    trainer.scaler.scale = meta["loss_scale"]
    trainer.scaler.good_steps = meta.get("loss_scale_good_steps", 0)
    rng_states = meta.get("rng_states")
    if rng_states is not None:
        for rank in sorted(trainer.stages):
            drops = _dropout_modules(trainer.stages[rank])
            saved = rng_states.get(f"rank{rank}", [])
            if len(saved) != len(drops):
                raise ValueError(
                    f"rank {rank}: checkpoint has {len(saved)} dropout RNG "
                    f"states, model has {len(drops)} dropout modules")
            for m, st in zip(drops, saved):
                m.rng.bit_generator.state = st


def save_trainer(trainer: AxoNNTrainer, path: str) -> None:
    """Write the trainer state to a compressed ``.npz`` file."""
    np.savez_compressed(path, **trainer_state_dict(trainer))


def load_trainer(trainer: AxoNNTrainer, path: str) -> None:
    """Restore a trainer from :func:`save_trainer` output."""
    with np.load(path) as archive:
        load_trainer_state(trainer, dict(archive))
