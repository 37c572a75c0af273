"""Round-synchronous message-passing simulator with bandwidth accounting.

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

Tree primitives are closed forms that read one number, the depth of the
BFS wave: `bfs_build` runs `graphcore.bfs_levels` over a component's
own graph and charges depth + 1, and `pipelined_convergecast` and
`broadcast` charge depth + k - 1. No production path runs the engine;
the tests audit each closed form against an engine replay or an explicit
per-item schedule.
"""

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from .graphcore import Graph, GraphError, bfs_levels

DEFAULT_WORDS = 4
DEFAULT_ROUND_CAP = 1 << 20


class CongestError(GraphError):
    pass


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


@dataclass
class Transcript:
    """Simulated cost of one run, charged phase by phase.

    Every charge goes through `charge`, and `rounds` is their total;
    `flag:` entries record non-default test-only settings, not rounds. A
    seed that is not an int (the derived string seeds) is recorded as 0.
    """

    message_count: int = 0
    channel_load: int = 0
    phases: Dict[str, int] = field(default_factory=dict)
    seed: int = 0
    cap_exhausted: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int):
            self.seed = 0

    @property
    def rounds(self) -> int:
        return sum(v for k, v in self.phases.items() if not k.startswith("flag:"))

    def charge(self, label: str, rounds: int) -> None:
        """Add rounds to phase `label`, which is listed even when they are 0."""
        self.phases[label] = self.phases.get(label, 0) + rounds

    def flag(self, name: str, scale: float) -> None:
        """Record a scale other than 1 as flag:<name>_millis."""
        if scale != 1:
            self.phases[f"flag:{name}_millis"] = int(scale * 1000)

    def as_json(self) -> Dict[str, Any]:
        return {
            "rounds": self.rounds,
            "message_count": self.message_count,
            "channel_load": self.channel_load,
            "phases": dict(sorted(self.phases.items())),
            "seed": self.seed,
            "cap_exhausted": self.cap_exhausted,
        }


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


# ---------------------------------------------------------------------------
# BFS waves and pipelined tree traffic
# ---------------------------------------------------------------------------


def bfs_build(g: Graph, old_ids=None) -> Tuple[np.ndarray, int]:
    """Run the BFS wave over a connected component given as its own graph.

    The wave starts at vertex 0, the smallest member once a component is
    relabeled monotonically. Returns `bfs_levels(g, 0)` and the wave's
    closed-form charge, depth + 1: it crosses one level per round, plus a
    round for the kickoff. A vertex the wave never reaches raises a
    CongestError: the component is not connected. The error names the
    root and the first missed vertices by `old_ids`, the caller's id of
    each vertex of g as `induced_subgraph` returns them, or by g's own ids
    when none are given. The tests replay the wave through `run`, and run
    the loop BFS, as oracles of levels and charge.
    """
    levels = bfs_levels(g, 0)
    missed = np.flatnonzero(levels < 0)[:8]
    if len(missed):
        names = np.arange(g.n) if old_ids is None else np.asarray(old_ids)
        raise CongestError(
            f"component is not connected: root {names[0]} does not reach"
            f" {names[missed].tolist()}"
        )
    return levels, int(levels.max()) + 1


def pipelined_convergecast(depth: int, items_per_vertex: int) -> int:
    """Rounds for the root to aggregate k items per vertex up a tree of this depth.

    One item crosses each tree edge per round, items flow back to back, and
    an inner vertex folds its children's copies of item j before relaying
    it, so stream j reaches the root j - 1 rounds behind stream 1. Total:
    depth + k - 1.
    """
    k = items_per_vertex
    if k < 0:
        raise CongestError("item count must be nonnegative")
    if k == 0 or depth == 0:
        return 0
    return depth + k - 1


def broadcast(depth: int, items: int) -> int:
    """Rounds for the root to push k items down a tree of this depth.

    Mirror schedule of the convergecast: depth + k - 1.
    """
    return pipelined_convergecast(depth, items)
