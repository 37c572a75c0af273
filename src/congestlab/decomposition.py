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
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .graphcore import (
    EXACT_MIXING_LIMIT,
    Cut,
    Edge,
    Graph,
    GraphError,
    bfs_levels,
    conductance,
    edge_components,
    edge_key,
    is_connected,
    lambda2_normalized,
    ln_me4,
    log2m,
    mixing_time_bound,
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


def high_diameter_cut(
    g: Graph,
    root: int,
    threshold: float,
    threshold_scale: float = 1.0,
    m_for_logs: Optional[int] = None,
) -> Tuple[Cut, int]:
    """Cut a long connected piece graph along a quiet BFS frontier.

    g is the piece itself and root one of its vertices, in 0..n-1.
    Requires the root's eccentricity to clear the (scaled) 48 log^2 m bar
    and no edge between two vertices of degree at most threshold / 2.
    The side is the first j BFS levels, with j chosen by balanced_index
    over the level-crossing edge counts. Both guarantees, the size floor
    and the boundary-volume witness, are recomputed and asserted before
    returning. Rounds charged: the BFS wave, a pipelined convergecast of
    the crossing counts, and a broadcast of the answer.
    """
    if not 0 <= root < g.n:
        raise GraphError(f"root {root} is not a vertex of the piece (n={g.n})")
    m_logs = g.m if m_for_logs is None else m_for_logs
    levels = bfs_levels(g, root)
    if min(levels) < 0:
        raise GraphError("component is not connected")
    d_tilde = max(levels)
    bar = threshold_scale * DIAMETER_FACTOR * log2m(m_logs) ** 2
    if d_tilde < bar:
        raise GraphError(f"eccentricity {d_tilde} is below the diameter bar {bar:.1f}")

    low = [v for v in range(g.n) if g.deg[v] <= threshold / 2.0]
    low_set = set(low)
    for v in low:
        for u in g.adj[v]:
            if u in low_set:
                raise GraphError(
                    f"edge {edge_key(u, v)} joins two low-degree vertices"
                )

    crossing = [0] * d_tilde
    for u, v in g.edges():
        lu, lv = levels[u], levels[v]
        if abs(lu - lv) == 1:
            crossing[max(lu, lv) - 1] += 1
    j = balanced_index(crossing, m_logs, bar_scale=threshold_scale)
    cut = conductance(g, {v for v in range(g.n) if levels[v] <= j - 1})

    small = min(len(cut.side), g.n - len(cut.side))
    assert small >= (d_tilde / BALANCE_FRACTION) * threshold, "size floor"
    assert cut.boundary_size * WITNESS_FACTOR * log2m(m_logs) <= min(
        cut.vol_side, cut.vol_complement
    ), "cut witness"

    rounds = (
        d_tilde + 1
        + rt.pipelined_convergecast(d_tilde, d_tilde)
        + rt.broadcast(d_tilde, 1)
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


def low_degree_peel(g: Graph, threshold: float) -> PeelResult:
    """Batch-remove low-degree vertices of a piece graph until the rest is dense.

    g is the piece itself; every vertex of it takes part. Each pass
    removes every vertex with between 1 and threshold remaining incident
    edges; a removed vertex takes its remaining edges with it, oriented
    away from itself, except that an edge between two vertices of the
    same batch goes to the smaller id. Passes repeat while they remove
    more than threshold / 2 vertices, so after the final pass every
    remaining degree sits strictly above threshold / 2. No BFS runs here:
    the caller holds the piece's BFS depth from its split and charges the
    peel depth + 2 * iterations + 1 rounds.
    """
    adj: List[Set[int]] = [set(a) for a in g.adj]
    es_parts: Dict[int, List[Edge]] = {}
    iterations = 0
    while True:
        z = [v for v in range(g.n) if 1 <= len(adj[v]) <= threshold]
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
    remaining = sorted({edge_key(u, v) for v in range(g.n) for u in adj[v]})
    return PeelResult(remaining, es_parts, iterations)


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
    transcript: rt.Transcript


def _potential(sizes) -> float:
    return sum(s * math.log2(s) for s in sizes if s >= 1)


def black_box_partition(
    g: Graph,
    edges: Sequence[Edge],
    delta: float,
    seed=0,
    threshold_scale: float = 1.0,
    start_round: int = 0,
) -> PartitionStep:
    """Run the remove / split / case analysis over one edge set.

    One loop drains one deque. A piece entry gets Remove-1 (low-degree
    pairs shed their mutual edges) and Split-1, whose components go to the
    front in index order. A component then exits at half the input size
    (C3-2), is cut along a long BFS profile (case1, or case2a once
    peeled), is peeled (its cores go to the front; a peel that removes
    nothing re-queues it marked peeled), or, once peeled, is walk-searched:
    a certified sparse cut (case2b) sends its boundary to the removed set,
    a failed search makes it a terminal cluster (C3-1). Cut sides go to
    the back. Each cut carries its witness and is followed by the removal
    ledger: 6 log2 m per removed edge against the drop in sum |E_i| log
    |E_i| over the deque and the clusters. Only a cut grows the removed
    set and every other step only lowers that sum, so no other step needs
    the check. Each component's graph is built once, by edge_components.
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
    bar = threshold_scale * DIAMETER_FACTOR * m_log ** 2
    phi_nibble = phi_nibble_default(g.m)

    clusters: List[ClusterPiece] = []
    es_new: Dict[int, List[Edge]] = {}
    er_new: List[Edge] = []
    witnesses: List[dict] = []
    halt_rounds: Dict[int, int] = {}
    tx = rt.Transcript()
    initial_potential = _potential([m_call])
    # (sorted edges, None) for a piece, (sorted edges, (graph, vertex map,
    # BFS depth, peeled)) for a component.
    queue = deque([(tuple(edges), None)])
    nibble_calls = 0

    def apply_cut(cut: Cut, piece_graph: Graph, to_global: List[int], label: str):
        in_side = [False] * piece_graph.n
        for v in cut.side:
            in_side[v] = True
        # indexed by how many endpoints lie on the cut's side
        parts: Tuple[List[Edge], ...] = ([], [], [])
        for a, b in piece_graph.edges():
            parts[in_side[a] + in_side[b]].append(edge_key(to_global[a], to_global[b]))
        side_b, boundary, side_a = parts
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
                queue.append((tuple(sorted(part)), None))
        # removal ledger, over the deque and the finished clusters
        sizes = [len(entry[0]) for entry in queue] + [len(c.edges) for c in clusters]
        drop = initial_potential - _potential(sizes)
        assert LEDGER_FACTOR * m_log * len(er_new) <= drop + 1e-9, "removal ledger"

    def split(piece_edges, peeled: bool) -> List[tuple]:
        """One component entry per component, in edge_components order."""
        out = []
        for cg, cverts in edge_components(piece_edges):
            item = tuple((cverts[a], cverts[b]) for a, b in cg.edges())
            out.append((item, (cg, cverts, max(bfs_levels(cg, 0)), peeled)))
        return out

    while queue:
        piece, comp = queue.popleft()

        if comp is None:
            # Remove-1: shed edges joining two low-degree vertices. Pieces
            # hold sorted canonical edges, so u < v throughout.
            piece_deg = Counter(v for e in piece for v in e)
            kept: List[Edge] = []
            for u, v in piece:
                if piece_deg[u] <= threshold and piece_deg[v] <= threshold:
                    es_new.setdefault(u, []).append((u, v))
                else:
                    kept.append((u, v))
            tx.charge("partition:remove", 2)

            # Split-1: components of what remains.
            comps = split(kept, False)
            tx.charge("partition:split", max((c[1][2] for c in comps), default=0) + 1)
            queue.extendleft(reversed(comps))
            continue

        cg, cverts, d_tilde, peeled = comp
        if not peeled and len(piece) <= m_call / 2.0:
            clusters.append(ClusterPiece(frozenset(cverts), piece, "C3-2"))
            halt_rounds.update(dict.fromkeys(cverts, start_round + tx.rounds))
        elif d_tilde >= bar:
            label = "case2a" if peeled else "case1"
            cut, hc_rounds = high_diameter_cut(
                cg, 0, threshold, threshold_scale=threshold_scale, m_for_logs=g.m
            )
            tx.charge(f"partition:{label}", hc_rounds)
            apply_cut(cut, cg, cverts, label)
        elif not peeled:
            peel = low_degree_peel(cg, threshold)
            tx.charge("partition:peel", d_tilde + 2 * peel.iterations + 1)
            if peel.iterations == 0:
                queue.appendleft((piece, (cg, cverts, d_tilde, True)))
                continue
            now = start_round + tx.rounds
            for local_v, part in peel.es_parts.items():
                owner = cverts[local_v]
                es_new.setdefault(owner, []).extend(
                    (cverts[a], cverts[b]) for a, b in part
                )
                halt_rounds[owner] = now
            cores = split([(cverts[a], cverts[b]) for a, b in peel.e_diamond], True)
            queue.extendleft(reversed(cores))
        else:
            nibble_calls += 1
            res = nib.distributed_nibble(
                cg, range(cg.n), phi_nibble, seed=f"{seed}:{nibble_calls}"
            )
            tx.charge("partition:nibble", res.transcript.rounds)
            if res.status == "cut":
                apply_cut(res.cut, cg, cverts, "case2b")
                continue
            # Terminal piece: peeling left every degree above half the
            # threshold and the walk search certified no sparse cut.
            assert min(cg.deg) > threshold / 2.0, "terminal degree floor"
            clusters.append(ClusterPiece(frozenset(cverts), piece, "C3-1"))
            halt_rounds.update(dict.fromkeys(cverts, start_round + tx.rounds))

    all_vertices = {v for e in edges for v in e}
    cluster_vertices: Set[int] = set()
    for c in clusters:
        assert not (cluster_vertices & c.vertices), "clusters overlap"
        cluster_vertices |= c.vertices
    s_vertices = frozenset(all_vertices - cluster_vertices)
    now = start_round + tx.rounds
    for v in s_vertices | set(es_new):
        halt_rounds.setdefault(v, now)

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
        transcript=tx,
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
    clusters: Dict[int, frozenset]
    certificates: dict = field(default_factory=dict)

    def edges_by_cluster(self) -> Dict[int, List[Edge]]:
        """E_m grouped by cluster id in one pass; lists are unsorted."""
        groups: Dict[int, List[Edge]] = {}
        for e, cid in self.em.items():
            groups.setdefault(cid, []).append(e)
        return groups

    def as_json(self) -> dict:
        groups = self.edges_by_cluster()
        return {
            "delta": self.delta,
            "threshold": self.threshold,
            "clusters": [
                {
                    "id": cid,
                    "vertices": sorted(self.clusters[cid]),
                    "edges": [list(e) for e in sorted(groups.get(cid, ()))],
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


def _report_id(x) -> int:
    """An integer id from a report; owner keys arrive as decimal strings."""
    if (type(x) is int) or (isinstance(x, str) and x.isdecimal()):
        return int(x)
    raise GraphError(f"report id {x!r} is not a nonnegative integer")


def _report_edge(e) -> Edge:
    if not isinstance(e, (list, tuple)) or len(e) != 2:
        raise GraphError(f"report edge {e!r} is not a vertex pair")
    return edge_key(_report_id(e[0]), _report_id(e[1]))


def _report_field(x, kind: type, what: str):
    """x itself, if it has the JSON container type a report field needs."""
    if not isinstance(x, kind):
        raise GraphError(
            f"report {what} is a {type(x).__name__}, not a {kind.__name__}"
        )
    return x


def decomposition_from_json(doc: dict) -> "Decomposition":
    """Rebuild a Decomposition from its as_json dict.

    The edge-to-cluster map is recovered from the cluster edge lists. The
    per-owner sparse sets are read as listed, so an edge filed under an
    owner that is not one of its endpoints reaches the verifier unchanged.
    A container of the wrong JSON type, a non-integer id or an edge that is
    not a vertex pair raises GraphError.
    """
    doc = _report_field(doc, dict, "decomposition")
    em: Dict[Edge, int] = {}
    clusters: Dict[int, frozenset] = {}
    for entry in _report_field(doc["clusters"], list, "clusters"):
        entry = _report_field(entry, dict, "cluster entry")
        cid = _report_id(entry["id"])
        vertices = _report_field(entry["vertices"], list, "cluster vertices")
        clusters[cid] = frozenset(_report_id(v) for v in vertices)
        for e in _report_field(entry["edges"], list, "cluster edges"):
            em[_report_edge(e)] = cid
    es: Dict[int, List[Edge]] = {}
    for owner, part in _report_field(doc["es"], dict, "es").items():
        part = _report_field(part, list, "es part")
        es[_report_id(owner)] = [_report_edge(e) for e in part]
    try:
        delta, threshold = float(doc["delta"]), float(doc["threshold"])
    except (TypeError, ValueError):
        raise GraphError("report delta and threshold must be numbers") from None
    return Decomposition(
        delta=delta,
        threshold=threshold,
        em=em,
        es=es,
        er=[_report_edge(e) for e in _report_field(doc["er"], list, "er")],
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
    transcript = rt.Transcript(seed=seed)
    transcript.flag("threshold_scale", threshold_scale)

    es: Dict[int, List[Edge]] = {}
    er: List[Edge] = []
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
        for label, amount in step.transcript.phases.items():
            transcript.charge(label, amount)
        for v, part in step.es_new.items():
            bucket = es.setdefault(v, [])
            bucket.extend(part)
            assert len(bucket) <= threshold + 1e-9, "sparse cap grew past n^delta"
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
                work.append((c.edges, depth + 1, start + step.transcript.rounds))

    em: Dict[Edge, int] = {}
    clusters: Dict[int, frozenset] = {}
    for cid, c in enumerate(sorted(terminal, key=lambda c: min(c.vertices)), start=1):
        clusters[cid] = c.vertices
        for e in c.edges:
            em[e] = cid

    deco = Decomposition(
        delta=delta,
        threshold=threshold,
        em=em,
        es=es,
        er=er,
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
    edges, the sparse sets (owner -> edges oriented away from it) form an
    acyclic orientation of graph edges incident to their owners with
    out-degrees capped at n^delta, and at most a sixth of the edges were
    removed. Certificate checks per cluster: conductance at
    least the walk-derived floor (exact sparsest cut up to 24 vertices,
    spectral half-bound above that) and mixing time within the polylog
    cap, certified by the spectral bound, exact powering when it cannot
    decide. The bound needs lambda2, which only clusters above 24 vertices
    compute, and it never fails a cluster by itself. Above 2000 vertices
    there is no exact path, so a cluster the bound cannot certify fails
    the check. Every miss is detailed in flags.
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

    by_cluster = d.edges_by_cluster()
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
        lam2 = None
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
        cap = max(log2m(g.n), 1.0) ** 4
        miss = None
        if not connected:
            miss = "disconnected, mixing undefined"
        elif lam2 is not None and mixing_time_bound(sub, lam2) <= cap:
            pass  # certified by the spectral bound
        elif sub.n > EXACT_MIXING_LIMIT:
            miss = f"mixing not certified above {EXACT_MIXING_LIMIT} vertices"
        elif mixing_time_exact(sub) > cap:
            miss = f"mixing above {cap:.0f}"
        if miss:
            mixing_ok = False
            flags.append(f"cluster {cid}: {miss}")
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

    rep = verify_orientation(g, d.es, cap=threshold)
    check("orientation", rep.ok, "; ".join(rep.violations[:3]))

    check(
        "removed-fraction",
        len(er_edges) <= g.m / 6.0,
        f"{len(er_edges)} removed of {g.m}",
    )

    check("cluster-conductance", conduct_ok, "see flags")
    check("cluster-mixing", mixing_ok, "see flags")

    ok = all(checks.values())
    return DecompositionReport(ok, checks, failures, flags)
