"""Continuous-batching pipeline-parallel inference on the functional runtime.

The serving twin of :class:`repro.runtime.AxoNNTrainer`: the same
message-driven Algorithm-2 machinery (rank generators suspended on
``yield RECV`` over :class:`~repro.runtime.transport.RankTransport`), but
forward-only and with *dynamic* work — requests arrive with different
prompt lengths and generation budgets, so the unit of scheduling is not a
fixed microbatch but a **group**: either one prefill (the whole prompt in a
single batched forward that fills the request's KV caches) or a batch of
single-token decode steps for whatever requests currently have a token
ready.  Rank 0 runs the continuous-batching scheduler; it admits a new
request into the in-flight batch the moment a slot frees up, rather than
waiting for the whole batch to drain (the Orca-style policy every modern
LLM server uses).

Numerics: each stage is an :class:`~repro.runtime.InferenceStage` built by
the same ``build_layer`` slots as training, decode steps attend over
per-request KV caches, and the final rank samples with the *shared*
:func:`repro.nn.sample_token` from a per-request
``np.random.default_rng(seed)`` stream.  A request therefore receives
bit-identical logits and consumes its RNG in exactly the same order as
``generate(model, ..., rng=np.random.default_rng(seed))`` — outputs are
token-for-token identical to the serial path, whatever the batching
policy or placement, which the equivalence tests assert directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import GPTConfig, sample_token
from ..obs import Tracer
from ..runtime.stage import InferenceStage
from ..runtime.transport import RECV, RankTransport

__all__ = ["Request", "PipelineServer", "TAG_ACT", "TAG_TOKEN", "TAG_STOP",
           "TAG_KV", "TAG_INGEST"]

TAG_ACT = "serve-act"      #: downstream group: tokens in, activations after
TAG_TOKEN = "serve-token"  #: sampled tokens, last rank -> scheduler
TAG_STOP = "serve-stop"    #: shutdown cascade once all requests finished
TAG_KV = "serve-kv"          #: prefill rank -> scheduler: exported KV slice
TAG_INGEST = "serve-ingest"  #: scheduler -> decode pipe: merged KV + logits


@dataclass(frozen=True)
class Request:
    """One generation request (the serving analogue of a `generate` call)."""

    rid: int
    prompt: np.ndarray
    max_new_tokens: int
    temperature: float = 1.0
    top_k: Optional[int] = None
    greedy: bool = False
    seed: int = 0

    def validate(self, cfg: GPTConfig) -> None:
        prompt = np.asarray(self.prompt)
        if prompt.ndim != 1 or prompt.size == 0:
            raise ValueError(f"request {self.rid}: prompt must be a "
                             "non-empty 1-D token array")
        if prompt.max() >= cfg.vocab_size or prompt.min() < 0:
            raise ValueError(f"request {self.rid}: prompt token outside "
                             "vocabulary")
        if self.max_new_tokens < 0:
            raise ValueError(f"request {self.rid}: max_new_tokens must "
                             "be >= 0")
        if prompt.size + self.max_new_tokens > cfg.seq_len:
            raise ValueError(
                f"request {self.rid}: prompt ({prompt.size}) + "
                f"max_new_tokens ({self.max_new_tokens}) exceeds seq_len "
                f"{cfg.seq_len}; the KV-cached pipeline serves full "
                "sequences up to the model context")
        if self.temperature <= 0:
            raise ValueError(f"request {self.rid}: temperature must be "
                             "positive")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"request {self.rid}: top_k must be >= 1")


class PipelineServer:
    """Serve batches of requests over pipeline ranks, in one of two
    placements of the same rank programs.

    Rank 0 is the scheduler and ``g_inter`` the depth of the pool that
    decodes (``stages``).  With ``g_prefill == 0`` (unified) that pool
    fills its own KV caches: rank 0 doubles as its first shard and a
    prompt is simply a request's first pass.  With ``g_prefill >= 1``
    (disaggregated) ranks ``0..g_prefill-1`` are a prompt-only pool
    (``prefill_stages``; the pools shard the network independently and may
    differ in depth): every prefill rank ships its KV slice home
    (``TAG_KV``) and the scheduler re-shards the merged cache down the
    decode pipe in one ``TAG_INGEST`` message — over the same FIFO
    channels as the decode traffic, so a request's first decode pass can
    never overtake its own KV.  Either way the request's whole RNG stream
    is consumed on the last decode shard, so outputs are identical across
    placements and to ``generate``.

    * ``max_batch`` — group width: how many single-token decode steps (or
      KV ingests) ride one pipeline pass.  ``max_batch=1`` degenerates to
      token-at-a-time passes; outputs are identical either way.
    * ``pipeline_limit`` — in-flight group cap of the decode pool (default
      ``g_inter``): how many groups may be travelling it simultaneously;
      keeps every stage busy without unbounded buffering.
    * ``max_active`` — KV-resident request cap of the decode pool, i.e.
      the continuous-batch size (default ``max_batch * pipeline_limit`` —
      enough resident requests to keep every pipeline slot filled with a
      full-width group, since a request's next token depends on its
      previous one finishing the whole pipeline).
    * ``tracer`` — optional :class:`~repro.obs.Tracer`; each request
      emits ``request``/``prefill``/``decode{t}`` spans on the ``serve``
      stream, so ``python -m repro trace`` tooling works unchanged.
    * ``recorder`` — optional protocol recorder forwarded to the
      transport (see :mod:`repro.obs.protocol`).
    * ``g_prefill`` — ranks in the prompt-only pool (``0``: unified).
    * ``prefill_limit`` — prompts in flight in the prefill pool (default
      ``g_prefill``), bounded so exported KV doesn't pile up.
    """

    def __init__(self, cfg: GPTConfig, g_inter: int = 1,
                 max_batch: int = 8, pipeline_limit: Optional[int] = None,
                 max_active: Optional[int] = None,
                 tracer: Optional[Tracer] = None,
                 recorder: Any = None, g_prefill: int = 0,
                 prefill_limit: Optional[int] = None):
        if g_inter < 1:
            raise ValueError("g_inter must be >= 1")
        if g_prefill < 0:
            raise ValueError("g_prefill must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_active is not None and max_active < 1:
            raise ValueError("max_active must be >= 1")
        self.cfg = cfg
        self.g_inter = g_inter
        self.g_prefill = g_prefill
        self.max_batch = max_batch
        self.pipeline_limit = max(1, pipeline_limit if pipeline_limit
                                  is not None else g_inter)
        self.prefill_limit = max(1, prefill_limit if prefill_limit
                                 is not None else g_prefill)
        self.max_active = max_active if max_active is not None \
            else max_batch * self.pipeline_limit
        self.tracer = tracer
        self.recorder = recorder
        self.stages = [InferenceStage(cfg, i, g_inter)
                       for i in range(g_inter)]
        self.prefill_stages = [InferenceStage(cfg, i, g_prefill)
                               for i in range(g_prefill)]

    # -- public API --------------------------------------------------------
    def serve(self, requests: Sequence[Request]) -> Dict[int, np.ndarray]:
        """Serve ``requests``; returns rid -> full sequence (prompt +
        generated), exactly what serial ``generate`` would return."""
        reqs: Dict[int, Request] = {}
        for req in requests:
            if req.rid in reqs:
                raise ValueError(f"duplicate request id {req.rid}")
            req.validate(self.cfg)
            reqs[req.rid] = req
        order = [req for req in requests if req.max_new_tokens > 0]
        results: Dict[int, List[int]] = {req.rid: [] for req in order}
        if order:
            P = self.g_prefill
            transport = RankTransport(P + self.g_inter,
                                      recorder=self.recorder)
            programs: Dict[int, Generator] = {
                0: self._scheduler_program(transport, reqs, order, results)}
            for r in range(1, P):
                programs[r] = self._prefill_program(r, transport)
            # unified: decode shard 0 runs inside the scheduler
            for j in range(0 if P else 1, self.g_inter):
                programs[P + j] = self._shard_program(j, transport, reqs)
            transport.run(programs)
        return {
            req.rid: np.concatenate([
                np.asarray(req.prompt, dtype=np.int64),
                np.asarray(results.get(req.rid, []), dtype=np.int64)])
            for req in requests
        }

    # -- span helpers ------------------------------------------------------
    def _now(self) -> float:
        return self.tracer.now() if self.tracer is not None and \
            self.tracer.enabled else 0.0

    def _emit(self, name: str, start: float, rid: int,
              category: str = "compute") -> None:
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.record(0, "serve", name, start, self.tracer.now(),
                               category=category, microbatch=rid)

    # -- one group through one decode shard --------------------------------
    def _shard_pass(self, j: int, tag: str, items: list,
                    reqs: Dict[int, Request], left: Dict[int, int],
                    rngs: Dict[int, np.random.Generator]
                    ) -> Tuple[str, list]:
        """Run one group through decode shard ``j``, wherever it lives.

        A ``TAG_ACT`` item is ``(rid, x)``: an int64 token array for shard
        0, the boundary activation after it; a request the shard has not
        seen is its prompt and fills the cache in place.  The items stay
        one per request on the wire and go through the stage as one
        stacked pass (a group is one prompt or ``w`` one-token steps, so
        its rows always share a length).  A ``TAG_INGEST``
        item ``(rid, pos, blocks, logits)`` seeds the cache from a prefill
        pool's export instead (each shard takes the slots it owns and
        passes the item on).  ``left`` counts the passes a request still
        owes this shard, so every shard frees its KV by count.  The last
        shard owns the request's whole RNG stream — first token included,
        whichever pool computed the prompt's logits — which is what makes
        every placement bit-identical to serial ``generate``.  Returns the
        tag and items to send on (from the last shard ``TAG_TOKEN`` and
        ``(rid, token, done)``).
        """
        stage = self.stages[j]
        is_last = j == self.g_inter - 1
        rids = [item[0] for item in items]
        if tag == TAG_INGEST:
            for rid, pos, blocks, _ in items:
                stage.import_kv(rid, pos, blocks)
                left[rid] = reqs[rid].max_new_tokens - 1
            logits = [item[3] for item in items]
        else:
            for rid in rids:
                if rid not in left:
                    stage.start_request(rid)
                    left[rid] = reqs[rid].max_new_tokens
                left[rid] -= 1
            out = stage.forward(rids, [x for _, x in items])
            items = [(rid, out[i:i + 1]) for i, rid in enumerate(rids)]
            logits = out[:, -1]
        if is_last:
            tag, items = TAG_TOKEN, []
            for rid, row in zip(rids, logits):
                req = reqs[rid]
                if rid not in rngs:
                    rngs[rid] = np.random.default_rng(req.seed)
                tok = sample_token(row, req.temperature, req.top_k,
                                   rngs[rid], req.greedy)
                items.append((rid, tok, left[rid] == 0))
        for rid in rids:
            if left[rid] == 0:
                stage.finish_request(rid)
                del left[rid]
                rngs.pop(rid, None)
        return tag, items

    def _prefill_pass(self, r: int, items: list) -> Tuple[list, list]:
        """Run one group of prompts through prefill shard ``r``; nothing
        stays resident.  Returns the boundary activations to send on and,
        for the scheduler, each request's KV slice ``(rid, r, blocks,
        logits)`` — the last shard's carries the final position's logits,
        which the decode tail samples the first token from."""
        stage = self.prefill_stages[r]
        is_tail = r == self.g_prefill - 1
        acts, kv_items = [], []
        for rid, x in items:
            stage.start_request(rid)
            out = stage.forward([rid], [x])
            _, piece = stage.export_kv(rid)
            stage.finish_request(rid)
            acts.append((rid, out))
            kv_items.append((rid, r, piece,
                             out[0, -1].copy() if is_tail else None))
        return acts, kv_items

    # -- rank programs -----------------------------------------------------
    def _scheduler_program(self, transport: RankTransport,
                           reqs: Dict[int, Request],
                           order: List[Request],
                           results: Dict[int, List[int]]) -> Generator:
        """Rank 0: the continuous-batching scheduler, owner of all flow
        control.

        One pump with the two admission front-ends the placements differ
        in, selected by ``g_prefill`` and nothing else: feed the prefill
        pool (bounded by ``prefill_limit``, KV slices merged as they come
        home) or enter the prompt into the decode pool directly.  New work
        (a prompt or an ingest batch) goes before decode groups, bounded
        by ``pipeline_limit`` / ``max_active``.  Unified, decode shard 0
        *is* this rank and its pass runs inline; at depth one the tail is
        local too and tokens come straight back.
        """
        P = self.g_prefill
        head = max(P, 1)               # world rank after the scheduler's hop
        pending = deque(order)
        kv_parts: Dict[int, Dict[int, tuple]] = {}  # rid -> rank -> slice
        ingest_ready: deque = deque()  # (rid, pos, merged blocks, logits)
        active: set = set()            # rids KV-resident in the decode pool
        ready: deque = deque()         # (rid, last token) awaiting a pass
        left: Dict[int, int] = {}      # decode shard 0's pass state, when
        rngs: Dict[int, np.random.Generator] = {}   # that shard is here
        prefill_inflight = inflight = seq = n_done = 0
        admit_t: Dict[int, float] = {}
        step_t: Dict[int, float] = {}

        def admit(req: Request) -> np.ndarray:
            admit_t[req.rid] = step_t[req.rid] = self._now()
            return np.asarray(req.prompt, dtype=np.int64)[None, :]

        def collect(tokens: List[Tuple[int, int, bool]]) -> None:
            nonlocal n_done
            for rid, tok, done in tokens:
                results[rid].append(tok)
                t = len(results[rid])
                self._emit("prefill" if t == 1 else f"decode{t - 1}",
                           step_t[rid], rid)
                if done:
                    active.discard(rid)
                    n_done += 1
                    self._emit("request", admit_t[rid], rid,
                               category="other")
                else:
                    ready.append((rid, tok))

        def dispatch(tag: str, items: list) -> None:
            nonlocal inflight, seq
            if P == 0:
                tag, items = self._shard_pass(0, tag, items, reqs, left,
                                              rngs)
            if tag == TAG_TOKEN:
                collect(items)
                return
            transport.send(0, head, tag, seq, items)
            seq += 1
            inflight += 1

        def merge(kv_items: list) -> None:
            # KV slices coming home, this rank's own included
            nonlocal prefill_inflight
            for rid, src, piece, logits in kv_items:
                parts = kv_parts.setdefault(rid, {})
                parts[src] = (piece, logits)
                if len(parts) == P:
                    prefill_inflight -= 1
                    merged: Dict[int, tuple] = {}
                    for blocks, _ in kv_parts.pop(rid).values():
                        merged.update(blocks)
                    ingest_ready.append(
                        (rid, int(np.asarray(reqs[rid].prompt).size),
                         merged, parts[P - 1][1]))  # the tail's logits

        def pump() -> None:
            nonlocal prefill_inflight, seq
            # feed the prefill pool (bounded so exported KV doesn't pile up)
            while (P and pending and prefill_inflight < self.prefill_limit
                   and len(ingest_ready) < self.max_active):
                req = pending.popleft()
                acts, kv_items = self._prefill_pass(
                    0, [(req.rid, admit(req))])
                prefill_inflight += 1
                if P > 1:
                    transport.send(0, 1, TAG_ACT, seq, acts)
                    seq += 1
                merge(kv_items)
            # feed the decode pool: new work first, then decode groups
            while inflight < self.pipeline_limit:
                if P == 0 and pending and len(active) < self.max_active:
                    req = pending.popleft()
                    active.add(req.rid)
                    dispatch(TAG_ACT, [(req.rid, admit(req))])
                elif ingest_ready and len(active) < self.max_active:
                    batch = []
                    while (ingest_ready and len(batch) < self.max_batch
                           and len(active) < self.max_active):
                        batch.append(ingest_ready.popleft())
                        active.add(batch[-1][0])
                    dispatch(TAG_INGEST, batch)
                elif ready:
                    items: List[Tuple[int, np.ndarray]] = []
                    for _ in range(min(len(ready), self.max_batch)):
                        rid, tok = ready.popleft()
                        step_t[rid] = self._now()
                        items.append(
                            (rid, np.asarray([[tok]], dtype=np.int64)))
                    dispatch(TAG_ACT, items)
                else:
                    return

        pump()
        while n_done < len(order):
            pkt = yield RECV
            if pkt.tag == TAG_KV:
                merge(pkt.data)
            else:  # TAG_TOKEN
                inflight -= 1
                collect(pkt.data)
            pump()
        if P > 1:
            transport.send(0, 1, TAG_STOP, 0, None)
        if head < P + self.g_inter:
            transport.send(0, head, TAG_STOP, 0, None)

    def _prefill_program(self, r: int,
                         transport: RankTransport) -> Generator:
        """Prefill rank ``r`` >= 1: one prompt pass per request, then the
        KV slice goes home to the scheduler and the request is gone."""
        is_tail = r == self.g_prefill - 1
        while True:
            pkt = yield RECV
            if pkt.tag == TAG_STOP:
                if not is_tail:
                    transport.send(r, r + 1, TAG_STOP, 0, None)
                return
            acts, kv_items = self._prefill_pass(r, pkt.data)
            if not is_tail:
                transport.send(r, r + 1, TAG_ACT, pkt.microbatch, acts)
            transport.send(r, 0, TAG_KV, pkt.microbatch, kv_items)

    def _shard_program(self, j: int, transport: RankTransport,
                       reqs: Dict[int, Request]) -> Generator:
        """Decode shard ``j`` on its own rank (world rank ``g_prefill +
        j``): receive a group, :meth:`_shard_pass`, send it on — or, from
        the last shard, the sampled tokens home."""
        rank = self.g_prefill + j
        onward = 0 if j == self.g_inter - 1 else rank + 1
        left: Dict[int, int] = {}
        rngs: Dict[int, np.random.Generator] = {}
        while True:
            pkt = yield RECV
            if pkt.tag == TAG_STOP:
                if onward:
                    transport.send(rank, onward, TAG_STOP, 0, None)
                return
            tag, items = self._shard_pass(j, pkt.tag, pkt.data, reqs, left,
                                          rngs)
            transport.send(rank, onward, tag, pkt.microbatch, items)
