"""Functional (real-numerics) message-driven runtime.

Public surface:

* :class:`RankTransport`, :class:`Packet`, :data:`RECV`, :data:`POLL` —
  the deterministic cooperative transport;
* :class:`RankGrid` — the G_inter x G_data process grid;
* :class:`PipelineStage`, :func:`partition_layers` — network sharding;
* :class:`AxoNNTrainer` — Algorithms 1-2 end to end;
* :class:`SerialTrainer` — the single-GPU reference.
"""

from .checkpointing import (
    load_trainer,
    load_trainer_state,
    save_trainer,
    trainer_state_dict,
)
from .collectives import ring_allreduce, ring_allreduce_program
from .evaluate import evaluate_parallel, evaluate_serial, perplexity
from .engine import BACKENDS, AxoNNTrainer, TrainReport
from .grid import RankGrid
from .offload import BucketedOffloadAdamW
from .parallel import (ProcessBackend, ProcessPool, ProcessTransport,
                       ProgramSpec)
from .rankprog import inter_layer_step
from .serial import SerialTrainer, state_dict_as_slots
from .shm import ShmRing
from .stage import InferenceStage, PipelineStage, partition_layers
from .transport import (POLL, RECV, BaseRankTransport, DeadlockError,
                        Packet, ProtocolError, RankFailure, RankTransport)

__all__ = [
    "load_trainer",
    "load_trainer_state",
    "save_trainer",
    "trainer_state_dict",
    "evaluate_parallel",
    "evaluate_serial",
    "perplexity",
    "ring_allreduce",
    "ring_allreduce_program",
    "AxoNNTrainer",
    "TrainReport",
    "BACKENDS",
    "RankGrid",
    "BucketedOffloadAdamW",
    "ProcessBackend",
    "ProcessPool",
    "ProcessTransport",
    "ProgramSpec",
    "inter_layer_step",
    "SerialTrainer",
    "state_dict_as_slots",
    "InferenceStage",
    "PipelineStage",
    "partition_layers",
    "ShmRing",
    "BaseRankTransport",
    "RankTransport",
    "RankFailure",
    "Packet",
    "RECV",
    "POLL",
    "DeadlockError",
    "ProtocolError",
]
