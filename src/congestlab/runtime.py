"""Round pricing: the run's Transcript and the closed forms of tree traffic.

Every layer charges its phases to a `Transcript`, whose `rounds` is the
total of the charges. Tree primitives are closed forms that read one
number, the depth of the BFS wave: `bfs_build` runs
`graphcore.bfs_levels` over a component's own graph and charges
depth + 1, and `pipelined_convergecast` and `broadcast` charge
depth + k - 1. The library runs no messages; the tests audit each closed
form against a replay through their message-passing engine
(`tests/engine.py`) or an explicit per-item schedule.
"""

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

import numpy as np

from .graphcore import Graph, GraphError, bfs_levels


class CongestError(GraphError):
    pass


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
    when none are given. The tests replay the wave through their engine, and
    run the loop BFS, as oracles of levels and charge.
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
