"""The virtual process grid of the functional runtime.

Mirrors the paper's Fig. 2 extended with the follow-up 4D decomposition
(arXiv 2305.13525): ranks are arranged as ``G_inter`` pipeline stages x
``G_data`` data-parallel groups x ``G_intra`` tensor-parallel members.
Rank ids are dense integers; ``RankGrid`` provides the coordinate mapping
and the neighbour / group queries Algorithm 2 needs (``g^{i-1,j}``,
``g^{i+1,j}``, the all-reduce column) plus the intra-layer group of each
stage replica.

Layout: ``rank = ((j * G_inter) + i) * G_intra + t`` — with ``G_intra=1``
this degenerates to the original 2D numbering ``j * G_inter + i``, so all
pre-4D configurations keep their exact rank ids (and trace/checkpoint
compatibility).  Member ``t=0`` of each intra group is the *lead*: it
holds the stage's tensor-parallel shards and drives Algorithm 2, while
members ``t>0`` participate in the intra-stage weight all-gather /
gradient reduce-scatter exchanges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = ["RankGrid", "split_batch"]


@dataclass(frozen=True)
class RankGrid:
    """``G_inter x G_data x G_intra`` grid; intra-major rank numbering."""

    g_inter: int
    g_data: int
    g_intra: int = 1

    def __post_init__(self):
        if self.g_inter < 1 or self.g_data < 1 or self.g_intra < 1:
            raise ValueError("grid dimensions must be >= 1")

    @property
    def world_size(self) -> int:
        return self.g_inter * self.g_data * self.g_intra

    def rank_of(self, i: int, j: int, t: int = 0) -> int:
        """Rank of intra member ``t`` of pipeline stage ``i`` in
        data-parallel group ``j``."""
        if not (0 <= i < self.g_inter and 0 <= j < self.g_data
                and 0 <= t < self.g_intra):
            raise ValueError(
                f"coordinate ({i}, {j}, {t}) outside "
                f"{self.g_inter}x{self.g_data}x{self.g_intra} grid"
            )
        return ((j * self.g_inter) + i) * self.g_intra + t

    def coord_of(self, rank: int) -> Tuple[int, int]:
        """(stage, group) of ``rank`` — the 2D coordinate every pre-4D
        call site uses; the intra index is :meth:`tp_index`."""
        i, j, _t = self.coord3_of(rank)
        return i, j

    def coord3_of(self, rank: int) -> Tuple[int, int, int]:
        """(stage, group, intra member) of ``rank``."""
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} outside [0, {self.world_size})")
        rest, t = divmod(rank, self.g_intra)
        j, i = divmod(rest, self.g_inter)
        return i, j, t

    # -- intra-layer (tensor-parallel) group --------------------------------
    def tp_index(self, rank: int) -> int:
        """Intra-group member index ``t`` of ``rank`` (0 == lead)."""
        return self.coord3_of(rank)[2]

    def is_tp_lead(self, rank: int) -> bool:
        """True for the member that owns the stage and runs Algorithm 2."""
        return self.tp_index(rank) == 0

    def tp_lead(self, rank: int) -> int:
        """The lead rank of ``rank``'s intra-layer group."""
        i, j, _t = self.coord3_of(rank)
        return self.rank_of(i, j, 0)

    def tp_group(self, i: int, j: int) -> List[int]:
        """All intra-layer members of stage ``i`` in data group ``j``."""
        return [self.rank_of(i, j, t) for t in range(self.g_intra)]

    def tp_peers(self, rank: int) -> List[int]:
        """The other members of ``rank``'s intra-layer group."""
        i, j, t = self.coord3_of(rank)
        return [r for r in self.tp_group(i, j) if r != rank]

    # -- Algorithm 2 neighbours ---------------------------------------------
    def prev_in_pipeline(self, rank: int) -> Optional[int]:
        """``g^{i-1,j}`` (same intra member) or None for the first stage."""
        i, j, t = self.coord3_of(rank)
        return None if i == 0 else self.rank_of(i - 1, j, t)

    def next_in_pipeline(self, rank: int) -> Optional[int]:
        """``g^{i+1,j}`` (same intra member) or None for the last stage."""
        i, j, t = self.coord3_of(rank)
        return None if i == self.g_inter - 1 else self.rank_of(i + 1, j, t)

    def is_first_stage(self, rank: int) -> bool:
        return self.coord3_of(rank)[0] == 0

    def is_last_stage(self, rank: int) -> bool:
        return self.coord3_of(rank)[0] == self.g_inter - 1

    # -- groups -------------------------------------------------------------
    def pipeline_ranks(self, j: int, t: int = 0) -> List[int]:
        """Ranks of data-parallel group ``j`` (intra member ``t``) in
        stage order."""
        return [self.rank_of(i, j, t) for i in range(self.g_inter)]

    def data_parallel_ranks(self, i: int, t: int = 0) -> List[int]:
        """All ranks holding stage ``i`` at intra member ``t`` (the
        gradient all-reduce group; leads by default)."""
        return [self.rank_of(i, j, t) for j in range(self.g_data)]


def split_batch(x, y, g_data: int, microbatch_size: int):
    """Divide the batch into G_data shards, each into microbatches.

    Returns (per-group microbatch lists of (x, y), total microbatches).
    """
    b = x.shape[0]
    if b % g_data != 0:
        raise ValueError(f"batch size {b} not divisible by "
                         f"G_data={g_data}")
    shard = b // g_data
    if shard % microbatch_size != 0:
        raise ValueError(
            f"batch shard {shard} not divisible by microbatch size "
            f"{microbatch_size}"
        )
    per_shard = shard // microbatch_size
    groups = []
    for j in range(g_data):
        xs = x[j * shard:(j + 1) * shard]
        ys = y[j * shard:(j + 1) * shard]
        groups.append([
            (xs[k * microbatch_size:(k + 1) * microbatch_size],
             ys[k * microbatch_size:(k + 1) * microbatch_size])
            for k in range(per_shard)
        ])
    return groups, per_shard * g_data
