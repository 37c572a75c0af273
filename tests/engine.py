"""Round-synchronous message-passing engine: the tests' oracle of round prices.

The library never runs messages; it prices every phase through closed
forms. The tests replay the BFS wave here, message by message, and hold
`runtime.bfs_build`'s levels and charge to the replay.

Execution model: every vertex runs the same program. ``init`` fires once
before any traffic and may send or halt; afterwards the engine repeatedly
delivers the previous step's messages and invokes ``on_round`` on each
non-halted vertex that received mail. A vertex that wants to act
spontaneously must do so in ``init``; everything else is message-driven.

Round accounting: a round is a delivery step in which at least one live
vertex receives a message. Late messages that only reach halted vertices
occupy their channels but do not extend the round count. Under this
convention a token flooded from one endpoint of a five-vertex path costs
4 rounds and the same program on a 4-clique costs 1.
"""

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from congestlab.graphcore import Graph
from congestlab.runtime import CongestError, Transcript

DEFAULT_WORDS = 4
DEFAULT_ROUND_CAP = 1 << 20


class BandwidthError(CongestError):
    """Two messages pushed onto one directed edge in one round."""

    def __init__(self, round_index: int, edge: Tuple[int, int]):
        self.round_index = round_index
        self.edge = edge
        super().__init__(
            f"bandwidth violation at round {round_index} on directed edge {edge}"
        )


class StallError(CongestError):
    """No traffic, no halts, and live vertices remain."""


@dataclass(frozen=True)
class Message:
    kind: str
    payload: Tuple[int, ...]
    src: int


class VertexProgram:
    """Base class: override init and on_round; both receive a Ctx."""

    def init(self, ctx: "Ctx") -> None:
        pass

    def on_round(self, ctx: "Ctx", inbox: List[Message]) -> None:
        raise NotImplementedError


class Ctx:
    """Per-vertex view handed to program handlers; `neighbors` is v's CSR row."""

    __slots__ = ("v", "n", "neighbors", "deg", "state", "rng", "round", "_engine", "halted")

    def __init__(self, v: int, g: Graph, rng: random.Random, engine: "_Engine"):
        self.v = v
        self.n = g.n
        self.neighbors = tuple(g.indices[g.indptr[v] : g.indptr[v + 1]].tolist())
        self.deg = g.deg[v]
        self.state: Any = None
        self.rng = rng
        self.round = 0
        self._engine = engine
        self.halted = False

    def send(self, to: int, kind: str, *words: int) -> None:
        if self.halted:
            raise CongestError(f"vertex {self.v} tried to send after halting")
        if to not in self._engine.nbr_sets[self.v]:
            raise CongestError(f"vertex {self.v} has no edge to {to}")
        if len(words) > self._engine.w:
            raise CongestError(
                f"payload of {len(words)} words exceeds the {self._engine.w}-word limit"
            )
        for word in words:
            if not isinstance(word, int):
                raise CongestError("payload words must be integers")
        self._engine.push(self.v, to, Message(kind, tuple(words), self.v))

    def halt(self) -> None:
        self.halted = True


class _Engine:
    def __init__(self, g: Graph, w: int):
        self.g = g
        self.w = w
        ptr, flat = g.indptr.tolist(), g.indices.tolist()
        self.nbr_sets = [frozenset(flat[a:b]) for a, b in zip(ptr, ptr[1:])]
        self.outbox: Dict[int, List[Message]] = {}
        self.sent_pairs: set = set()
        self.round_index = 0
        self.message_count = 0

    def push(self, src: int, dst: int, msg: Message) -> None:
        if (src, dst) in self.sent_pairs:
            raise BandwidthError(self.round_index, (src, dst))
        self.sent_pairs.add((src, dst))
        self.outbox.setdefault(dst, []).append(msg)
        self.message_count += 1

    def drain(self) -> Dict[int, List[Message]]:
        pending = self.outbox
        self.outbox = {}
        self.sent_pairs = set()
        for box in pending.values():
            box.sort(key=lambda m: m.src)
        return pending


def run(
    g: Graph,
    program: VertexProgram,
    seed: int = 0,
    round_cap: int = DEFAULT_ROUND_CAP,
    phase: str = "main",
    w: int = DEFAULT_WORDS,
) -> Tuple[Dict[int, Any], Transcript]:
    """Execute program on every vertex of g until all halt or the cap hits.

    Returns the final per-vertex states and a Transcript. Identical
    (g, program, seed) always produce identical results: vertices are
    processed in id order and each draws randomness only from its own
    stream seeded by (seed, vertex id, phase).
    """
    if round_cap <= 0:
        raise CongestError("round_cap must be positive")
    engine = _Engine(g, w)
    ctxs = [
        Ctx(v, g, random.Random(f"{seed}:{v}:{phase}"), engine) for v in range(g.n)
    ]
    for ctx in ctxs:
        program.init(ctx)

    transcript = Transcript(seed=seed)
    rounds = 0
    while True:
        if all(ctx.halted for ctx in ctxs):
            break
        pending = engine.drain()
        live = {v: box for v, box in pending.items() if not ctxs[v].halted}
        if not live:
            alive = [ctx.v for ctx in ctxs if not ctx.halted]
            raise StallError(
                f"no deliverable traffic after round {rounds}; "
                f"vertices still running: {alive[:8]}"
            )
        if rounds >= round_cap:
            transcript.cap_exhausted = True
            break
        rounds += 1
        engine.round_index = rounds
        for v in sorted(live):
            ctx = ctxs[v]
            ctx.round = rounds
            program.on_round(ctx, live[v])

    transcript.message_count = engine.message_count
    # push refuses a second message on a directed edge within a round, so
    # any traffic at all puts exactly one message on the busiest channel.
    transcript.channel_load = 1 if engine.message_count else 0
    transcript.charge(phase, rounds)
    return {ctx.v: ctx.state for ctx in ctxs}, transcript
