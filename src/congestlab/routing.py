"""Degree-class id assignment and a load-checked routing cost oracle.

Routing on a well-mixing component is priced, not packet-simulated: the
oracle verifies the per-vertex load cap, delivers every payload exactly
once, and charges rounds against the component's mixing-time estimate.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .graphcore import (
    EXACT_MIXING_LIMIT,
    Graph,
    GraphError,
    induced_subgraph,
    lambda2_normalized,
    log2m,
    mixing_time_bound,
    mixing_time_exact,
)
from . import runtime as rt

PAYLOAD_WORDS = rt.DEFAULT_WORDS


def kappa_default(n: int) -> int:
    """Congestion knob: 2 to the ceiling of sqrt(log2 n)."""
    if n <= 1:
        return 1
    return 2 ** math.ceil(math.sqrt(math.log2(n)))


def degree_class(deg: int) -> int:
    return 0 if deg <= 1 else int(math.log2(deg))


def class_of_new_id(new_id: int, counts: Sequence[int]) -> int:
    """Recover a vertex's degree class from its new id and the class counts."""
    upper = 0
    for cls, cnt in enumerate(counts):
        upper += cnt
        if new_id <= upper:
            return cls
    raise GraphError(f"new id {new_id} exceeds the assignment size {upper}")


@dataclass
class IdAssignment:
    new_id: Dict[int, int]
    old_id: Dict[int, int]
    counts: List[int]

    def class_of_vertex(self, v: int) -> int:
        return class_of_new_id(self.new_id[v], self.counts)


@dataclass(frozen=True)
class RoutingRequest:
    source: int
    destination: int
    payload: Tuple[int, ...] = ()


def assign_degree_class_ids(
    g: Graph, component: Sequence[int]
) -> Tuple[IdAssignment, int]:
    """Relabel a connected component with ids sorted by degree class.

    Vertices are numbered 1..n so that smaller ids never sit in a higher
    degree class; ties inside a class go by old id. Degrees count member
    neighbors only, and the BFS build rejects a disconnected component. The
    round charge prices the tree-based histogram exchange: one BFS build
    plus a convergecast and broadcast of the class counts.
    """
    members = sorted(set(component))
    if not members:
        raise GraphError("component is empty")
    if members[0] < 0 or members[-1] >= g.n:
        raise GraphError(f"component has a vertex outside 0..{g.n - 1}")
    tree, bfs_rounds = rt.bfs_build(g, members, members[0])
    mset = frozenset(members)
    deg_of = {v: len(g.neighbor_set(v) & mset) for v in members}

    n = len(members)
    counts = [0] * (int(log2m(n)) + 1)
    for v in members:
        counts[degree_class(deg_of[v])] += 1
    order = sorted(members, key=lambda v: (degree_class(deg_of[v]), v))
    new_id = {v: i + 1 for i, v in enumerate(order)}
    old_id = {i + 1: v for i, v in enumerate(order)}

    k = len(counts)
    charged = (
        bfs_rounds
        + rt.pipelined_convergecast(tree.depth, k)
        + rt.broadcast(tree.depth, k)
    )
    return IdAssignment(new_id, old_id, counts), charged


def mixing_estimate(sub: Graph) -> int:
    """Mixing time of a component graph: exact when small, spectral above.

    `sub` is the component itself, as `route` has already extracted it.
    Above EXACT_MIXING_LIMIT vertices the estimate is the verifier's
    spectral upper bound, mixing_time_bound at the component's lambda2.
    """
    if sub.m == 0:
        raise GraphError("mixing estimate needs at least one edge")
    if sub.n <= EXACT_MIXING_LIMIT:
        return mixing_time_exact(sub)
    tau = mixing_time_bound(sub, lambda2_normalized(sub))
    if tau == math.inf:
        raise GraphError("component does not mix (zero spectral gap)")
    return tau


def route(
    g: Graph,
    component: Sequence[int],
    requests: Sequence[RoutingRequest],
    kappa: Optional[int] = None,
) -> Tuple[Dict[int, List[Tuple[int, Tuple[int, ...]]]], int]:
    """Deliver point-to-point requests inside one component and price them.

    Every vertex may appear in at most deg(v) * kappa requests, counting
    source and destination slots separately; exceeding the cap raises an
    error naming the overloaded vertex. Delivery is exact. A non-empty
    request list is charged tau * kappa rounds, with tau the component's
    mixing-time estimate; the cap keeps every normalized load at most 1.
    """
    members = sorted(set(component))
    member_set = set(members)
    if kappa is None:
        kappa = kappa_default(len(members))
    if kappa < 1:
        raise GraphError("kappa must be at least 1")
    if not requests:
        return {}, 0

    sub, old_ids = induced_subgraph(g, members)
    deg_of = {old_ids[i]: sub.deg[i] for i in range(sub.n)}
    load: Dict[int, int] = {v: 0 for v in members}
    for req in requests:
        if req.source not in member_set or req.destination not in member_set:
            raise GraphError(
                f"request {req.source}->{req.destination} leaves the component"
            )
        if len(req.payload) > PAYLOAD_WORDS:
            raise GraphError(
                f"payload of {len(req.payload)} words exceeds {PAYLOAD_WORDS}"
            )
        load[req.source] += 1
        load[req.destination] += 1

    for v in members:
        cap = deg_of[v] * kappa
        if load[v] > cap:
            raise GraphError(
                f"vertex {v} carries load {load[v]} above its cap {cap}"
            )

    delivery: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
    for req in requests:
        delivery.setdefault(req.destination, []).append((req.source, req.payload))
    for box in delivery.values():
        box.sort()

    tau = mixing_estimate(sub)
    return delivery, tau * kappa
