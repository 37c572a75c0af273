"""Recursive edge decomposition into expander clusters plus sparse leftovers.

One partition call takes an edge set and pushes every edge toward one of
three buckets: cluster edges (connected pieces whose vertices all keep
high degree), per-vertex sparse sets carrying an acyclic low-out-degree
orientation, and removed cut edges. The driver recurses on pieces that
leave a call at half size or less until every piece is terminal.

Threshold conventions: the degree threshold is n^delta with n the vertex
count of the graph object, and every logarithmic factor (the 48 log^2 m
diameter bar, the 12 log m cut witness, the 6 log m removal ledger, the
walk target 1/(144 log m)) uses that object's edge count, so the driver
prices recursion levels against the full graph. Base-2 logs everywhere in
combinatorial thresholds; natural logs appear only inside walk parameters.

Round charges use the audited closed forms from the runtime module (BFS
depth, pipelined convergecast and broadcast) rather than replaying each
wave through the engine; the runtime tests validate those forms.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .graphcore import (
    Cut,
    Edge,
    Graph,
    GraphError,
    Orientation,
    bfs_levels,
    conductance,
    connected_components,
    edge_components,
    edge_key,
    induced_subgraph,
    is_connected,
    lambda2_normalized,
    ln_me4,
    log2m,
    mixing_time_exact,
    sparsest_cut_bruteforce,
    subgraph_from_edges,
    verify_orientation,
)
from . import nibble as nib
from . import runtime as rt

DIAMETER_FACTOR = 48.0
WITNESS_FACTOR = 12.0
LEDGER_FACTOR = 6.0
BALANCE_FRACTION = 32.0
EXACT_CUT_LIMIT = 24
EXACT_MIXING_LIMIT = 2000


def phi_nibble_default(m: int) -> float:
    """Walk conductance target used by the partition's sampling case."""
    return 1.0 / (144.0 * log2m(m))


def phi_star(m_graph: int, m_cluster: int) -> float:
    """Conductance floor a terminal cluster is certified against."""
    phi = phi_nibble_default(m_graph)
    return phi ** 3 / (19208.0 * ln_me4(m_cluster) ** 2)


# ---------------------------------------------------------------------------
# balanced index
# ---------------------------------------------------------------------------


def balanced_index(a: Sequence[int], m: int, bar_scale: float = 1.0) -> int:
    """Pick a middle index whose entry is small against the lighter side.

    Returns a 1-based j in [D/4, 3D/4] with a_j * 12 * log2(m) at most
    min(prefix, suffix), both sums excluding a_j itself. The scan walks the
    quarter adjacent to the lighter half, reversing the sequence when the
    prefix half is heavier. The analysis behind the scan assumes sum(a) <= m;
    that bound is deliberately not enforced, because level profiles of long
    thin graphs can exceed it while the scan still succeeds, and the scan
    raises anyway if no index qualifies. bar_scale relaxes the length bar
    for tests and must stay 1.0 in real runs.
    """
    d = len(a)
    if d == 0:
        raise GraphError("empty sequence")
    if any(x < 1 for x in a):
        raise GraphError("entries must be positive integers")
    if d < bar_scale * DIAMETER_FACTOR * log2m(m) ** 2:
        raise GraphError(f"sequence length {d} is below the 48 log^2 m bar for m={m}")
    seq = list(a)
    prefix_half = sum(seq[: d // 2])
    flipped = prefix_half > sum(seq) - prefix_half
    if flipped:
        seq.reverse()
        lo = math.ceil(d / 4) + 1
    else:
        lo = math.ceil(d / 4)
    lo = max(lo, 2)
    denom = Fraction(WITNESS_FACTOR * log2m(m))  # exact, big-int safe
    running = sum(seq[: lo - 1])
    for j in range(lo, d // 2 + 1):
        if seq[j - 1] * denom.numerator <= running * denom.denominator:
            return d + 1 - j if flipped else j
        running += seq[j - 1]
    raise GraphError("no balanced index: the sequence is too concentrated")


# ---------------------------------------------------------------------------
# high-diameter cut
# ---------------------------------------------------------------------------


def _tree_from_levels(sub: Graph, levels: List[int]) -> rt.BfsTree:
    """Assemble the min-parent BFS tree from a level array (local ids)."""
    parent: Dict[int, Optional[int]] = {}
    lvl: Dict[int, int] = {}
    root = levels.index(0)
    for v, d in enumerate(levels):
        if d < 0:
            continue
        lvl[v] = d
        parent[v] = None if v == root else min(
            u for u in sub.adj[v] if levels[u] == d - 1
        )
    return rt.BfsTree(root, parent, lvl, max(lvl.values()))


def high_diameter_cut(
    g: Graph,
    component: Sequence[int],
    root: int,
    threshold: float,
    threshold_scale: float = 1.0,
    m_for_logs: Optional[int] = None,
) -> Tuple[Cut, int]:
    """Cut a long component along a quiet BFS frontier.

    Requires the root's eccentricity to clear the (scaled) 48 log^2 m bar
    and no edge between two vertices of component degree at most
    threshold / 2. The side is the first j BFS levels, with j chosen by
    balanced_index over the level-crossing edge counts. Both guarantees,
    the size floor and the boundary-volume witness, are recomputed and
    asserted before returning. Rounds charged: the BFS wave, a pipelined
    convergecast of the crossing counts, and a broadcast of the answer.
    """
    members = sorted(set(component))
    if root not in set(members):
        raise GraphError(f"root {root} is not in the component")
    m_logs = g.m if m_for_logs is None else m_for_logs
    sub, old_ids = induced_subgraph(g, members)
    pos = {v: i for i, v in enumerate(old_ids)}
    levels = bfs_levels(sub, pos[root])
    if min(levels) < 0:
        raise GraphError("component is not connected")
    d_tilde = max(levels)
    bar = threshold_scale * DIAMETER_FACTOR * log2m(m_logs) ** 2
    if d_tilde < bar:
        raise GraphError(f"eccentricity {d_tilde} is below the diameter bar {bar:.1f}")

    low = [v for v in range(sub.n) if sub.deg[v] <= threshold / 2.0]
    low_set = set(low)
    for v in low:
        for u in sub.adj[v]:
            if u in low_set:
                raise GraphError(
                    f"edge {edge_key(old_ids[u], old_ids[v])} joins two "
                    "low-degree vertices"
                )

    crossing = [0] * d_tilde
    for u, v in sub.edges():
        lu, lv = levels[u], levels[v]
        if abs(lu - lv) == 1:
            crossing[max(lu, lv) - 1] += 1
    j = balanced_index(crossing, m_logs, bar_scale=threshold_scale)
    side_local = {v for v in range(sub.n) if levels[v] <= j - 1}
    local_cut = conductance(sub, side_local)
    cut = Cut(
        side=frozenset(old_ids[v] for v in side_local),
        boundary_size=local_cut.boundary_size,
        vol_side=local_cut.vol_side,
        vol_complement=local_cut.vol_complement,
        phi=local_cut.phi,
    )

    small = min(len(side_local), sub.n - len(side_local))
    assert small >= (d_tilde / BALANCE_FRACTION) * threshold, "size floor"
    assert cut.boundary_size * WITNESS_FACTOR * log2m(m_logs) <= min(
        cut.vol_side, cut.vol_complement
    ), "cut witness"

    tree = _tree_from_levels(sub, levels)
    rounds = (
        d_tilde + 1
        + rt.pipelined_convergecast(tree, d_tilde)
        + rt.broadcast(tree, 1)
    )
    return cut, rounds


# ---------------------------------------------------------------------------
# low-degree peeling
# ---------------------------------------------------------------------------


@dataclass
class PeelResult:
    e_diamond: List[Edge]
    es_parts: Dict[int, List[Edge]]
    iterations: int
    rounds_charged: int


def low_degree_peel(g: Graph, component: Sequence[int], threshold: float) -> PeelResult:
    """Batch-remove low-degree vertices until the remainder is uniformly dense.

    Each pass removes every vertex with between 1 and threshold remaining
    incident edges; a removed vertex takes its remaining edges with it,
    oriented away from itself, except that an edge between two vertices of
    the same batch goes to the smaller id. Passes repeat while they remove
    more than threshold / 2 vertices, so after the final pass every
    remaining degree sits strictly above threshold / 2.
    """
    members = sorted(set(component))
    member_set = set(members)
    adj: Dict[int, Set[int]] = {
        v: {u for u in g.adj[v] if u in member_set} for v in members
    }
    sub, _ = induced_subgraph(g, members)
    depth = 0
    for comp in connected_components(sub):
        levels = bfs_levels(sub, comp[0])
        depth = max(depth, max(levels[v] for v in comp))

    es_parts: Dict[int, List[Edge]] = {}
    iterations = 0
    while True:
        z = sorted(v for v in members if 1 <= len(adj[v]) <= threshold)
        if not z:
            break
        iterations += 1
        for v in z:
            for u in sorted(adj[v]):
                es_parts.setdefault(v, []).append(edge_key(u, v))
                adj[u].discard(v)
            adj[v] = set()
        if len(z) <= threshold / 2.0:
            break
    remaining = sorted({edge_key(u, v) for v in members for u in adj[v]})
    rounds = depth + 2 * iterations + 1
    return PeelResult(remaining, es_parts, iterations, rounds)


# ---------------------------------------------------------------------------
# one partition call
# ---------------------------------------------------------------------------


@dataclass
class ClusterPiece:
    vertices: frozenset
    edges: Tuple[Edge, ...]
    status: str  # "C3-1" (certified terminal) or "C3-2" (awaits recursion)


@dataclass
class PartitionStep:
    clusters: List[ClusterPiece]
    es_new: Dict[int, List[Edge]]
    er_new: List[Edge]
    witnesses: List[dict]
    s_vertices: frozenset
    halt_rounds: Dict[int, int]
    phases: Dict[str, int]
    rounds_charged: int


def _potential(sizes) -> float:
    return sum(s * math.log2(s) for s in sizes if s >= 1)


def black_box_partition(
    g: Graph,
    edges: Sequence[Edge],
    delta: float,
    seed=0,
    phi_nibble: Optional[float] = None,
    threshold_scale: float = 1.0,
    nibble_budget: Optional[int] = None,
    start_round: int = 0,
) -> PartitionStep:
    """Run the remove / split / case analysis over one edge set.

    Low-degree pairs shed their mutual edges first, the rest splits into
    components, and each component either exits at half the input size,
    gets cut along a long BFS profile, or is peeled and then walk-searched:
    a certified sparse cut sends its boundary to the removed set and both
    sides back into the loop, while a failed search ends the piece as a
    terminal cluster. Every removal batch carries its cut witness, and the
    removal ledger (removed count against the drop in the piece potential
    sum of |E_i| log |E_i|, priced at 6 log2 m) is asserted after every
    mutation of the piece pool.
    """
    if not edges:
        raise GraphError("edge set is empty")
    if not 0 < delta < 1:
        raise GraphError("delta must lie in (0, 1)")
    edges = sorted(edge_key(u, v) for u, v in edges)
    if len(set(edges)) != len(edges):
        raise GraphError("duplicate edges in input")
    threshold = g.n ** delta
    m_call = len(edges)
    m_log = log2m(g.m)
    if phi_nibble is None:
        phi_nibble = phi_nibble_default(g.m)

    clusters: List[ClusterPiece] = []
    es_new: Dict[int, List[Edge]] = {}
    er_new: List[Edge] = []
    witnesses: List[dict] = []
    halt_rounds: Dict[int, int] = {}
    phases: Dict[str, int] = {}
    rounds = start_round
    initial_potential = _potential([m_call])
    queue = deque([tuple(edges)])
    nibble_calls = 0

    def charge(label: str, amount) -> None:
        nonlocal rounds
        amount = max(int(amount), 0)
        phases[label] = phases.get(label, 0) + amount
        rounds += amount

    def ledger_assert(in_flight) -> None:
        sizes = [len(p) for p in queue]
        sizes += [len(c.edges) for c in clusters]
        sizes += [len(p) for p in in_flight]
        drop = initial_potential - _potential(sizes)
        assert LEDGER_FACTOR * m_log * len(er_new) <= drop + 1e-9, "removal ledger"

    def apply_cut(cut: Cut, piece_graph: Graph, to_global: List[int], label: str):
        in_side = [False] * piece_graph.n
        for v in cut.side:
            in_side[v] = True
        side_a: List[Edge] = []
        side_b: List[Edge] = []
        boundary: List[Edge] = []
        for a, b in piece_graph.edges():
            e = edge_key(to_global[a], to_global[b])
            if in_side[a] and in_side[b]:
                side_a.append(e)
            elif not in_side[a] and not in_side[b]:
                side_b.append(e)
            else:
                boundary.append(e)
        assert len(boundary) == cut.boundary_size
        assert cut.boundary_size * WITNESS_FACTOR * m_log <= min(
            cut.vol_side, cut.vol_complement
        ), "cut witness"
        er_new.extend(boundary)
        witnesses.append(
            {
                "kind": label,
                "boundary": len(boundary),
                "vol_small": int(min(cut.vol_side, cut.vol_complement)),
                "ledger_price": WITNESS_FACTOR * m_log,
            }
        )
        for part in (side_a, side_b):
            if part:
                queue.append(tuple(sorted(part)))

    while queue:
        piece = queue.popleft()

        # Remove-1: shed edges joining two low-degree vertices.
        piece_graph, piece_vertices = subgraph_from_edges(piece)
        low = {
            piece_vertices[v]
            for v in range(piece_graph.n)
            if piece_graph.deg[v] <= threshold
        }
        kept: List[Edge] = []
        for u, v in piece:
            if u in low and v in low:
                es_new.setdefault(min(u, v), []).append(edge_key(u, v))
            else:
                kept.append(edge_key(u, v))
        charge("partition:remove", 2)
        ledger_assert([kept])

        # Split-1: components of what remains.
        comp_items = [tuple(sorted(c)) for c in edge_components(kept)]
        split_depth = 0
        for item in comp_items:
            cg, _ = subgraph_from_edges(item)
            split_depth = max(split_depth, max(bfs_levels(cg, 0)))
        charge("partition:split", split_depth + 1)
        ledger_assert(comp_items)

        for idx, comp_edges in enumerate(comp_items):
            rest = comp_items[idx + 1 :]
            cg, cverts = subgraph_from_edges(comp_edges)

            if len(comp_edges) <= m_call / 2.0:
                clusters.append(ClusterPiece(frozenset(cverts), comp_edges, "C3-2"))
                for v in cverts:
                    halt_rounds[v] = rounds
                ledger_assert(rest)
                continue

            d_tilde = max(bfs_levels(cg, 0))
            bar = threshold_scale * DIAMETER_FACTOR * m_log ** 2

            if d_tilde >= bar:
                cut, hc_rounds = high_diameter_cut(
                    cg,
                    range(cg.n),
                    0,
                    threshold,
                    threshold_scale=threshold_scale,
                    m_for_logs=g.m,
                )
                charge("partition:case1", hc_rounds)
                apply_cut(cut, cg, cverts, "case1")
                ledger_assert(rest)
                continue

            peel = low_degree_peel(cg, range(cg.n), threshold)
            charge("partition:peel", peel.rounds_charged)
            for local_v, part in peel.es_parts.items():
                owner = cverts[local_v]
                es_new.setdefault(owner, []).extend(
                    edge_key(cverts[a], cverts[b]) for a, b in part
                )
                halt_rounds[owner] = rounds
            diamond = [edge_key(cverts[a], cverts[b]) for a, b in peel.e_diamond]
            d_items = [tuple(sorted(c)) for c in edge_components(diamond)]
            ledger_assert(rest + d_items)

            for jdx, d_edges in enumerate(d_items):
                d_rest = d_items[jdx + 1 :]
                dg, dverts = subgraph_from_edges(d_edges)
                dd = max(bfs_levels(dg, 0))
                if dd >= bar:
                    cut, hc_rounds = high_diameter_cut(
                        dg,
                        range(dg.n),
                        0,
                        threshold,
                        threshold_scale=threshold_scale,
                        m_for_logs=g.m,
                    )
                    charge("partition:case2a", hc_rounds)
                    apply_cut(cut, dg, dverts, "case2a")
                    ledger_assert(rest + d_rest)
                    continue

                nibble_calls += 1
                res = nib.distributed_nibble(
                    dg,
                    range(dg.n),
                    phi_nibble,
                    seed=f"{seed}:{nibble_calls}",
                    budget=nibble_budget,
                    simulate=True,
                )
                charge("partition:nibble", res.transcript.rounds)
                if res.status == "budget":
                    raise GraphError("walk budget exhausted during partition")
                if res.status == "cut":
                    apply_cut(res.cut, dg, dverts, "case2b")
                    ledger_assert(rest + d_rest)
                    continue

                # Terminal piece: peeling left every degree above half the
                # threshold and the walk search certified no sparse cut.
                assert min(dg.deg) > threshold / 2.0, "terminal degree floor"
                clusters.append(ClusterPiece(frozenset(dverts), d_edges, "C3-1"))
                for v in dverts:
                    halt_rounds[v] = rounds
                ledger_assert(rest + d_rest)

    all_vertices = {v for e in edges for v in e}
    cluster_vertices: Set[int] = set()
    for c in clusters:
        assert not (cluster_vertices & c.vertices), "clusters overlap"
        cluster_vertices |= c.vertices
    s_vertices = frozenset(all_vertices - cluster_vertices)
    for v in s_vertices | set(es_new):
        halt_rounds.setdefault(v, rounds)

    em_deg: Dict[int, int] = {}
    for c in clusters:
        for u, v in c.edges:
            em_deg[u] = em_deg.get(u, 0) + 1
            em_deg[v] = em_deg.get(v, 0) + 1
    for v, part in es_new.items():
        assert len(part) + em_deg.get(v, 0) <= threshold + 1e-9, "sparse cap"

    return PartitionStep(
        clusters=clusters,
        es_new=es_new,
        er_new=er_new,
        witnesses=witnesses,
        s_vertices=s_vertices,
        halt_rounds=halt_rounds,
        phases=phases,
        rounds_charged=rounds - start_round,
    )


# ---------------------------------------------------------------------------
# recursive driver
# ---------------------------------------------------------------------------


@dataclass
class Decomposition:
    delta: float
    threshold: float
    em: Dict[Edge, int]
    es: Dict[int, List[Edge]]
    er: List[Edge]
    orientation: Orientation
    clusters: Dict[int, frozenset]
    certificates: dict = field(default_factory=dict)

    def cluster_edges(self, cid: int) -> List[Edge]:
        return sorted(e for e, c in self.em.items() if c == cid)

    def as_json(self) -> dict:
        return {
            "delta": self.delta,
            "threshold": self.threshold,
            "clusters": [
                {
                    "id": cid,
                    "vertices": sorted(self.clusters[cid]),
                    "edges": [list(e) for e in self.cluster_edges(cid)],
                }
                for cid in sorted(self.clusters)
            ],
            "es": {
                str(v): [list(e) for e in sorted(part)]
                for v, part in sorted(self.es.items())
            },
            "er": [list(e) for e in sorted(self.er)],
            "certificates": self.certificates,
        }


def decomposition_from_json(doc: dict) -> "Decomposition":
    """Rebuild a Decomposition from its as_json dict.

    The edge-to-cluster map and the sparse orientation are not stored
    explicitly; both are recovered from the cluster edge lists and the
    per-owner sparse sets.
    """
    em: Dict[Edge, int] = {}
    clusters: Dict[int, frozenset] = {}
    for entry in doc["clusters"]:
        cid = int(entry["id"])
        clusters[cid] = frozenset(int(v) for v in entry["vertices"])
        for u, v in entry["edges"]:
            em[edge_key(int(u), int(v))] = cid
    es: Dict[int, List[Edge]] = {}
    orientation = Orientation()
    for owner, part in doc["es"].items():
        v = int(owner)
        es[v] = [edge_key(int(a), int(b)) for a, b in part]
        for a, b in es[v]:
            orientation.add(v, b if a == v else a)
    return Decomposition(
        delta=float(doc["delta"]),
        threshold=float(doc["threshold"]),
        em=em,
        es=es,
        er=[edge_key(int(a), int(b)) for a, b in doc["er"]],
        orientation=orientation,
        clusters=clusters,
        certificates=doc.get("certificates", {}),
    )


def decompose(
    g: Graph,
    delta: float,
    seed=0,
    threshold_scale: float = 1.0,
) -> Tuple[Decomposition, rt.Transcript]:
    """Partition every edge of g and certify the result.

    Pieces that leave a partition call at half size or less re-enter it
    until everything lands in a terminal cluster or a sparse set, with the
    recursion depth capped at 4 log2 m. The transcript sums the per-phase
    round charges; a non-default threshold_scale (test-only) is recorded
    in it. Raises if the finished decomposition fails verification.
    """
    if not 0 < delta < 1:
        raise GraphError("delta must lie in (0, 1)")
    threshold = g.n ** delta
    transcript = rt.Transcript(seed=seed if isinstance(seed, int) else 0)
    if threshold_scale != 1.0:
        transcript.phases["flag:threshold_scale_millis"] = int(threshold_scale * 1000)

    es: Dict[int, List[Edge]] = {}
    er: List[Edge] = []
    orientation = Orientation()
    terminal: List[ClusterPiece] = []
    witnesses: List[dict] = []
    halt_rounds: Dict[int, int] = {}

    depth_cap = max(int(4 * log2m(g.m)), 1)
    work = deque()
    if g.m:
        work.append((tuple(g.edge_list()), 0, 0))
    call_index = 0
    while work:
        piece, depth, start = work.popleft()
        if depth > depth_cap:
            raise GraphError(f"recursion depth exceeded the cap {depth_cap}")
        call_index += 1
        step = black_box_partition(
            g,
            piece,
            delta,
            seed=f"{seed}:{call_index}",
            threshold_scale=threshold_scale,
            start_round=start,
        )
        for label, amount in step.phases.items():
            transcript.phases[label] = transcript.phases.get(label, 0) + amount
        for v, part in step.es_new.items():
            bucket = es.setdefault(v, [])
            bucket.extend(part)
            assert len(bucket) <= threshold + 1e-9, "sparse cap grew past n^delta"
            for a, b in part:
                orientation.add(v, b if a == v else a)
        er.extend(step.er_new)
        witnesses.extend(step.witnesses)
        for v, r in step.halt_rounds.items():
            halt_rounds[v] = max(halt_rounds.get(v, 0), r)
        piece_vertices = {v for e in piece for v in e}
        for c in step.clusters:
            if c.status == "C3-1":
                terminal.append(c)
            else:
                assert len(c.vertices) < len(piece_vertices), "no vertex progress"
                work.append((c.edges, depth + 1, start + step.rounds_charged))

    em: Dict[Edge, int] = {}
    clusters: Dict[int, frozenset] = {}
    for cid, c in enumerate(sorted(terminal, key=lambda c: min(c.vertices)), start=1):
        clusters[cid] = c.vertices
        for e in c.edges:
            em[e] = cid

    transcript.rounds = transcript.phase_rounds()
    deco = Decomposition(
        delta=delta,
        threshold=threshold,
        em=em,
        es=es,
        er=er,
        orientation=orientation,
        clusters=clusters,
        certificates={
            "witnesses": witnesses,
            "halt_rounds": {str(v): r for v, r in sorted(halt_rounds.items())},
            "partition_calls": call_index,
        },
    )
    report = verify_decomposition(g, delta, deco)
    if not report.ok:
        raise GraphError(
            "decomposition failed verification: " + "; ".join(report.failures)
        )
    deco.certificates["verified"] = dict(report.checks)
    return deco, transcript


# ---------------------------------------------------------------------------
# verifier
# ---------------------------------------------------------------------------


@dataclass
class DecompositionReport:
    ok: bool
    checks: Dict[str, bool]
    failures: List[str]
    flags: List[str]


def verify_decomposition(g: Graph, delta: float, d: Decomposition) -> DecompositionReport:
    """Recheck every decomposition promise from scratch; report, don't raise.

    Hard checks: the three labels partition the edge set, clusters span
    connected components whose vertices keep at least n^delta / 2 cluster
    edges, the sparse orientation is acyclic with out-degrees capped at
    n^delta and gives each sparse edge the owner whose sparse set holds
    it, and at most a sixth of the edges were removed. Certificate checks per cluster: conductance at
    least the walk-derived floor (exact sparsest cut up to 24 vertices,
    spectral half-bound above that) and exact mixing time within the
    polylog cap for clusters of at most 2000 vertices; a miss there fails
    the check and is detailed in flags.
    """
    checks: Dict[str, bool] = {}
    failures: List[str] = []
    flags: List[str] = []
    threshold = g.n ** delta

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks[name] = bool(ok)
        if not ok:
            failures.append(f"{name}: {detail}" if detail else name)

    all_edges = set(g.edge_list())
    em_edges = set(d.em)
    es_edges = [e for part in d.es.values() for e in part]
    er_edges = list(d.er)
    labeled = list(em_edges) + es_edges + er_edges
    check(
        "partition",
        len(labeled) == len(set(labeled)) == len(all_edges)
        and set(labeled) == all_edges,
        "labels must cover every edge exactly once",
    )

    by_cluster: Dict[int, List[Edge]] = {}
    for e, cid in d.em.items():
        by_cluster.setdefault(cid, []).append(e)
    ok_clusters = not set(by_cluster) - set(d.clusters)
    conduct_ok = True
    mixing_ok = True
    for cid in sorted(d.clusters):
        cluster_edges = by_cluster.get(cid)
        if not cluster_edges:
            ok_clusters = False
            continue
        sub, old = subgraph_from_edges(cluster_edges)
        connected = is_connected(sub)
        if not connected or set(old) != set(d.clusters[cid]):
            ok_clusters = False
        floor = phi_star(g.m, sub.m)
        if sub.n <= EXACT_CUT_LIMIT:
            got = float(sparsest_cut_bruteforce(sub).phi)
            if got < floor:
                conduct_ok = False
                flags.append(f"cluster {cid}: conductance {got:.3g} below {floor:.3g}")
        else:
            lam2 = lambda2_normalized(sub)
            if lam2 / 2.0 < floor:
                conduct_ok = False
                flags.append(
                    f"cluster {cid}: spectral bound {lam2 / 2.0:.3g} below {floor:.3g}"
                )
        if sub.n <= EXACT_MIXING_LIMIT:
            cap = max(log2m(g.n), 1.0) ** 4
            if not connected:
                mixing_ok = False
                flags.append(f"cluster {cid}: disconnected, mixing undefined")
            elif mixing_time_exact(sub) > cap:
                mixing_ok = False
                flags.append(f"cluster {cid}: mixing above {cap:.0f}")
    check("clusters-connected", ok_clusters, "each cluster must span a component")

    em_deg: Dict[int, int] = {}
    for u, v in em_edges:
        em_deg[u] = em_deg.get(u, 0) + 1
        em_deg[v] = em_deg.get(v, 0) + 1
    check(
        "min-degree",
        all(dv >= threshold / 2.0 for dv in em_deg.values()),
        f"every clustered vertex needs at least {threshold / 2.0:.2f} cluster edges",
    )

    rep = verify_orientation(g, d.orientation, cap=threshold)
    es_owner = {e: v for v, part in d.es.items() for e in part}
    check(
        "orientation",
        rep.ok and d.orientation.owner_of() == es_owner,
        "; ".join(rep.violations[:3]) or "oriented edges differ from sparse sets",
    )

    check(
        "removed-fraction",
        len(er_edges) <= g.m / 6.0,
        f"{len(er_edges)} removed of {g.m}",
    )

    check("cluster-conductance", conduct_ok, "see flags")
    check("cluster-mixing", mixing_ok, "see flags")

    ok = all(checks.values())
    return DecompositionReport(ok, checks, failures, flags)
