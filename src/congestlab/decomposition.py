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

Round charges use the closed forms from the runtime module (BFS depth,
pipelined convergecast and broadcast); the runtime tests audit those
forms against an engine replay or an explicit per-item schedule.

Edges travel as sorted (k, 2) int rows of canonical pairs u < v from the
graph to the report. A Decomposition holds E_m as rows per cluster id,
E_s as one owner-sorted row array with the owner of each row, and E_r as
one array. The CLI hands the E_m and E_r arrays to its report writer as
they are, and the report reader builds the same arrays back.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .graphcore import (
    EXACT_MIXING_LIMIT,
    Cut,
    Edge,
    Graph,
    GraphError,
    _exact_ints,
    _labeled_rows,
    _lo_hi,
    _members,
    _pair_array,
    _pair_keys,
    _relabel,
    _require_vertices,
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
    levels: np.ndarray,
    threshold: float,
    threshold_scale: float = 1.0,
    m_for_logs: Optional[int] = None,
) -> Tuple[Cut, int]:
    """Cut a long connected piece graph along a quiet BFS frontier.

    g is the piece itself and levels its BFS levels from one root, as
    bfs_levels returns them. Requires the root's eccentricity, the top
    level, to clear the (scaled) 48 log^2 m bar and no edge between two
    vertices of degree at most threshold / 2.
    The side is the first j BFS levels, with j chosen by balanced_index
    over the level-crossing edge counts. Both guarantees, the size floor
    and the boundary-volume witness, are recomputed and asserted before
    returning. Rounds charged: the BFS wave, a pipelined convergecast of
    the crossing counts, and a broadcast of the answer.
    """
    levels = np.asarray(levels)
    if levels.shape != (g.n,):
        raise GraphError(f"levels of shape {levels.shape} for a piece of {g.n} vertices")
    if (levels < 0).any():
        raise GraphError("component is not connected")
    m_logs = g.m if m_for_logs is None else m_for_logs
    d_tilde = int(levels.max(initial=0))
    bar = threshold_scale * DIAMETER_FACTOR * log2m(m_logs) ** 2
    if d_tilde < bar:
        raise GraphError(f"eccentricity {d_tilde} is below the diameter bar {bar:.1f}")

    edges = g._edge_array()
    low = np.asarray(g.deg) <= threshold / 2.0
    both_low = edges[low[edges[:, 0]] & low[edges[:, 1]]]
    if len(both_low):
        u, v = both_low[0].tolist()
        raise GraphError(f"edge {(u, v)} joins two low-degree vertices")

    # edges between levels i - 1 and i, counted at index i - 1
    a, b = levels[edges[:, 0]], levels[edges[:, 1]]
    upper = np.maximum(a, b)[np.abs(a - b) == 1]
    crossing = np.bincount(upper - 1, minlength=d_tilde).tolist()
    j = balanced_index(crossing, m_logs, bar_scale=threshold_scale)
    cut = conductance(g, np.flatnonzero(levels <= j - 1).tolist())

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
    """A peel as arrays: `kept`, the edges left, sorted; `peeled`, the
    peeled edges grouped by owner, batch by batch; `owners`, the owner of
    each."""

    kept: np.ndarray
    peeled: np.ndarray
    owners: np.ndarray
    iterations: int


def low_degree_peel(g: Graph, threshold: float) -> PeelResult:
    """Batch-remove low-degree vertices of a piece graph until the rest is dense.

    g is the piece itself; every vertex of it takes part. Each pass
    removes every vertex with between 1 and threshold remaining incident
    edges; a removed vertex takes its remaining edges with it, oriented
    away from itself, except that an edge between two vertices of the
    same batch goes to the smaller id. Passes repeat while they remove
    more than threshold / 2 vertices, so after the final pass every
    remaining degree sits strictly above threshold / 2. A pass counts the
    remaining degrees with one bincount over the edges still alive, and
    lists a batch's edges by owner, then by other end. No BFS runs here:
    the caller holds the piece's BFS depth from its split and charges the
    peel depth + 2 * iterations + 1 rounds.
    """
    alive = g._edge_array()
    owners: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    peeled: List[np.ndarray] = [np.empty((0, 2), dtype=np.int64)]
    iterations = 0
    while True:
        deg = np.bincount(alive.ravel(), minlength=g.n)
        batch = (deg >= 1) & (deg <= threshold)
        size = int(np.count_nonzero(batch))
        if not size:
            break
        iterations += 1
        first_in = batch[alive[:, 0]]
        taken = first_in | batch[alive[:, 1]]
        part = alive[taken]
        owner = np.where(first_in[taken], part[:, 0], part[:, 1])
        # part is in key order, so each owner's other ends come out ascending
        order = np.argsort(owner, kind="stable")
        owners.append(owner[order])
        peeled.append(part[order])
        alive = alive[~taken]
        if size <= threshold / 2.0:
            break
    return PeelResult(alive, np.concatenate(peeled), np.concatenate(owners), iterations)


# ---------------------------------------------------------------------------
# one partition call
# ---------------------------------------------------------------------------


@dataclass
class ClusterPiece:
    vertices: frozenset
    edges: np.ndarray  # sorted (k, 2) rows
    status: str  # "C3-1" (certified terminal) or "C3-2" (awaits recursion)


@dataclass
class PartitionStep:
    """One partition call's output. `es_new` is the shed rows with the
    owner of each, `s_vertices` the sorted ids of the call's vertices in
    no cluster, and `halt_rounds` an (n,) int64 array of the round each
    vertex halted in, -1 for a vertex that did not halt in this call."""

    clusters: List[ClusterPiece]
    es_new: Tuple[np.ndarray, np.ndarray]  # (rows, the owner of each row)
    er_new: np.ndarray
    witnesses: List[dict]
    s_vertices: np.ndarray
    halt_rounds: np.ndarray
    transcript: rt.Transcript


def _potential(sizes) -> float:
    return sum(s * math.log2(s) for s in sizes if s >= 1)


def _sorted_edge_rows(g: Graph, edges) -> np.ndarray:
    """Distinct edges of g as canonical (k, 2) int64 rows sorted by their
    keys lo * n + hi. Anything else is a GraphError: a row that is not a
    pair of integer ids, an id outside 0..n-1 (checked first, since it
    would alias another edge's key), a loop or a pair that is not an edge
    of g, and an edge listed twice, in either orientation."""
    pairs = _pair_array(edges)
    if pairs is None:
        raise GraphError("edges must be pairs of integer vertex ids")
    _require_vertices(g, pairs)
    rows = np.column_stack(_lo_hi(pairs))
    keys = _pair_keys(rows, g.n).ravel()
    absent = ~_members(_pair_keys(g._edge_array(), g.n).ravel(), keys)
    if absent.any():
        u, v = pairs[absent.argmax()].tolist()
        raise GraphError(f"edge ({u}, {v}) is not an edge of the graph")
    order = np.argsort(keys)
    if (np.diff(keys[order]) == 0).any():
        raise GraphError("duplicate edges in input")
    return rows[order]


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
    `edges` are distinct edges of g, each in either orientation, in any
    order; `_sorted_edge_rows` refuses anything else with a GraphError and
    sorts them by key once. Pieces travel as sorted (k, 2) int arrays of
    canonical edges, and the returned clusters and edge sets hold such
    rows: each cluster its sorted piece, es_new its shed rows with an
    owner array in the order they were shed, and er_new the removed rows
    in the order they were cut.
    """
    if not len(edges):
        raise GraphError("edge set is empty")
    if not 0 < delta < 1:
        raise GraphError("delta must lie in (0, 1)")
    pairs = _sorted_edge_rows(g, edges)
    threshold = g.n ** delta
    m_call = len(pairs)
    m_log = log2m(g.m)
    bar = threshold_scale * DIAMETER_FACTOR * m_log ** 2
    phi_nibble = phi_nibble_default(g.m)

    clusters: List[ClusterPiece] = []
    shed = [(pairs[:0], pairs[:0, 0])]  # (E_s rows, the owner of each)
    removed = [pairs[:0]]
    witnesses: List[dict] = []
    halt_rounds = np.full(g.n, -1, dtype=np.int64)
    tx = rt.Transcript()
    initial_potential = _potential([m_call])
    # (edges, None) for a piece, (edges, (graph, vertex ids, BFS levels
    # from vertex 0, peeled)) for a component; edges in the input's ids,
    # vertex ids and levels indexed by the graph's.
    queue = deque([(pairs, None)])
    nibble_calls = 0

    def add_cluster(piece: np.ndarray, ids: np.ndarray, status: str) -> None:
        clusters.append(ClusterPiece(frozenset(ids.tolist()), piece, status))
        halt_rounds[ids] = start_round + tx.rounds

    def apply_cut(cut: Cut, piece_graph: Graph, ids: np.ndarray, label: str):
        in_side = np.zeros(piece_graph.n, dtype=bool)
        in_side[list(cut.side)] = True
        local = piece_graph._edge_array()
        # which ends of each edge lie on the cut's side
        a, b = in_side[local[:, 0]], in_side[local[:, 1]]
        ends = ids[local]
        boundary = ends[a != b]
        assert len(boundary) == cut.boundary_size
        assert cut.boundary_size * WITNESS_FACTOR * m_log <= min(
            cut.vol_side, cut.vol_complement
        ), "cut witness"
        removed.append(boundary)
        witnesses.append(
            {
                "kind": label,
                "boundary": len(boundary),
                "vol_small": int(min(cut.vol_side, cut.vol_complement)),
                "ledger_price": WITNESS_FACTOR * m_log,
            }
        )
        for part in (ends[a & b], ends[~(a | b)]):
            if len(part):
                queue.append((part, None))
        # removal ledger, over the deque and the finished clusters
        sizes = [len(entry[0]) for entry in queue] + [len(c.edges) for c in clusters]
        drop = initial_potential - _potential(sizes)
        cut_count = sum(map(len, removed))
        assert LEDGER_FACTOR * m_log * cut_count <= drop + 1e-9, "removal ledger"

    def split(piece: np.ndarray, peeled: bool) -> List[tuple]:
        """One component entry per component, in edge_components order."""
        out = []
        for cg, cverts in edge_components(piece):
            ids = np.asarray(cverts, dtype=np.int64)
            out.append((ids[cg._edge_array()], (cg, ids, bfs_levels(cg, 0), peeled)))
        return out

    while queue:
        piece, comp = queue.popleft()

        if comp is None:
            # Remove-1: shed edges joining two low-degree vertices to
            # their smaller end. Pieces hold sorted canonical edges.
            low = np.bincount(piece.ravel()) <= threshold
            both = low[piece[:, 0]] & low[piece[:, 1]]
            shed.append((piece[both], piece[both, 0]))

            # Split-1: components of what remains.
            tx.charge("partition:remove", 2)
            comps = split(piece[~both], False)
            depth = max((int(c[1][2].max()) for c in comps), default=0)
            tx.charge("partition:split", depth + 1)
            queue.extendleft(reversed(comps))
            continue

        cg, ids, levels, peeled = comp
        d_tilde = int(levels.max())
        if not peeled and len(piece) <= m_call / 2.0:
            add_cluster(piece, ids, "C3-2")
        elif d_tilde >= bar:
            label = "case2a" if peeled else "case1"
            cut, hc_rounds = high_diameter_cut(
                cg, levels, threshold, threshold_scale=threshold_scale, m_for_logs=g.m
            )
            tx.charge(f"partition:{label}", hc_rounds)
            apply_cut(cut, cg, ids, label)
        elif not peeled:
            peel = low_degree_peel(cg, threshold)
            tx.charge("partition:peel", d_tilde + 2 * peel.iterations + 1)
            if peel.iterations == 0:
                queue.appendleft((piece, (cg, ids, levels, True)))
                continue
            owners = ids[peel.owners]
            shed.append((ids[peel.peeled], owners))
            halt_rounds[owners] = start_round + tx.rounds
            queue.extendleft(reversed(split(ids[peel.kept], True)))
        else:
            nibble_calls += 1
            res = nib.distributed_nibble(
                cg, range(cg.n), phi_nibble, seed=f"{seed}:{nibble_calls}"
            )
            tx.charge("partition:nibble", res.transcript.rounds)
            if res.status == "cut":
                apply_cut(res.cut, cg, ids, "case2b")
                continue
            # Terminal piece: peeling left every degree above half the
            # threshold and the walk search certified no sparse cut.
            assert min(cg.deg) > threshold / 2.0, "terminal degree floor"
            add_cluster(piece, ids, "C3-1")

    # a cluster's vertices are its edges' ends: count them over 0..n-1
    hits = np.zeros(g.n, dtype=np.int64)
    for c in clusters:
        hits[list(c.vertices)] += 1
    assert (hits <= 1).all(), "clusters overlap"
    ends = np.zeros(g.n, dtype=bool)
    ends[pairs] = True
    s_vertices = np.flatnonzero(ends & (hits == 0))
    es_rows, es_owners = map(np.concatenate, zip(*shed))
    # the s-vertices and the owners that have not halted yet halt now
    waiting = np.zeros(g.n, dtype=bool)
    waiting[s_vertices] = waiting[es_owners] = True
    halt_rounds[waiting & (halt_rounds < 0)] = start_round + tx.rounds

    em = np.concatenate([pairs[:0]] + [c.edges for c in clusters])
    load = np.bincount(es_owners, minlength=g.n) + np.bincount(em.ravel(), minlength=g.n)
    assert (load[es_owners] <= threshold + 1e-9).all(), "sparse cap"

    return PartitionStep(
        clusters=clusters,
        es_new=(es_rows, es_owners),
        er_new=np.concatenate(removed),
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
    """E = E_m + E_s + E_r as (k, 2) rows. `em` maps each cluster id to
    its sorted E_m rows and `er` holds E_r, sorted. E_s is two aligned
    arrays: `es_rows`, each row oriented away from the vertex `es_owners`
    gives it. `decompose` groups them by ascending owner, each owner's
    rows sorted; a report read back keeps its listed order. Rows are
    int64, or Python ints when a report names an id past int64.

    `es` is E_s as the report lists it, derived on each read: each owner,
    in the order of its rows, mapped to its rows."""

    delta: float
    threshold: float
    em: Dict[int, np.ndarray]
    es_rows: np.ndarray
    es_owners: np.ndarray
    er: np.ndarray
    clusters: Dict[int, frozenset]
    certificates: dict = field(default_factory=dict)

    @property
    def es(self) -> Dict[int, np.ndarray]:
        owners = self.es_owners
        if not len(owners):
            return {}
        starts = np.flatnonzero(owners[1:] != owners[:-1]) + 1
        firsts = owners[np.append(0, starts)].tolist()
        return dict(zip(firsts, np.split(self.es_rows, starts)))

    def as_json(self) -> dict:
        """The decomposition as plain JSON lists."""
        return self._layout(np.ndarray.tolist)

    def _layout(self, rows: Callable[[np.ndarray], object]) -> dict:
        """The report layout, with each cluster's E_m rows and E_r passed
        through `rows`. The E_s parts are always lists: each holds at most
        n^delta rows, too few to repay an array writer's set-up."""
        return {
            "delta": self.delta,
            "threshold": self.threshold,
            "clusters": [
                {
                    "id": cid,
                    "vertices": sorted(self.clusters[cid]),
                    "edges": rows(self.em[cid]) if cid in self.em else [],
                }
                for cid in sorted(self.clusters)
            ],
            "es": {str(v): part.tolist() for v, part in self.es.items()},
            "er": rows(self.er),
            "certificates": self.certificates,
        }


def _report_id(x) -> int:
    """An integer id from a report; owner keys arrive as decimal strings."""
    if (type(x) is int) or (isinstance(x, str) and x.isdecimal()):
        return int(x)
    raise GraphError(f"report id {x!r} is not a nonnegative integer")


def _report_field(x, kind: type, what: str):
    """x itself, if it has the JSON container type a report field needs."""
    if not isinstance(x, kind):
        raise GraphError(
            f"report {what} is a {type(x).__name__}, not a {kind.__name__}"
        )
    return x


def _report_rows(edges, what: str, listed: Optional[Set[Edge]] = None) -> np.ndarray:
    """A report's edge list as (k, 2) canonical rows in listed order, each
    id kept at its value. With `listed`, the edges read so far, a repeat
    raises GraphError."""
    pairs = []
    for e in _report_field(edges, list, what):
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise GraphError(f"report edge {e!r} is not a vertex pair")
        e = edge_key(_report_id(e[0]), _report_id(e[1]))
        if listed is not None:
            if e in listed:
                raise GraphError(f"edge {e} is listed twice")
            listed.add(e)
        pairs.append(e)
    return _exact_ints(pairs).reshape(-1, 2)


def decomposition_from_json(doc: dict) -> "Decomposition":
    """Rebuild a Decomposition from its as_json dict.

    Each label set is read into the arrays `decompose` builds, in the
    order the report lists it. The per-owner sparse sets are read as
    listed into one row array and one owner array, so an edge filed under
    an owner that is not one of its endpoints reaches the verifier
    unchanged; an owner listed with no rows leaves none. A container of
    the wrong JSON type, a non-integer id, an edge that is not a vertex
    pair, or a cluster edge, cluster id or owner listed twice raises
    GraphError.
    """
    doc = _report_field(doc, dict, "decomposition")
    em: Dict[int, np.ndarray] = {}
    clusters: Dict[int, frozenset] = {}
    listed: Set[Edge] = set()
    owners_read: Set[int] = set()
    for entry in _report_field(doc["clusters"], list, "clusters"):
        entry = _report_field(entry, dict, "cluster entry")
        cid = _report_id(entry["id"])
        if cid in clusters:
            raise GraphError(f"cluster id {cid} is listed twice")
        vertices = _report_field(entry["vertices"], list, "cluster vertices")
        clusters[cid] = frozenset(_report_id(v) for v in vertices)
        em[cid] = _report_rows(entry["edges"], "cluster edges", listed)
    es_parts = [np.empty((0, 2), dtype=np.int64)]
    es_owners: List[int] = []
    for owner, part in _report_field(doc["es"], dict, "es").items():
        part = _report_field(part, list, "es part")
        owner = _report_id(owner)
        if owner in owners_read:
            raise GraphError(f"owner {owner} is listed twice")
        owners_read.add(owner)
        es_parts.append(_report_rows(part, "es part"))
        es_owners += [owner] * len(part)
    try:
        delta, threshold = float(doc["delta"]), float(doc["threshold"])
    except (TypeError, ValueError):
        raise GraphError("report delta and threshold must be numbers") from None
    return Decomposition(
        delta=delta,
        threshold=threshold,
        em=em,
        es_rows=np.concatenate(es_parts),
        es_owners=_exact_ints(es_owners),
        er=_report_rows(doc["er"], "er"),
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
    if not 0 < threshold_scale < math.inf:
        raise GraphError("threshold_scale must be a positive finite number")
    threshold = g.n ** delta
    transcript = rt.Transcript(seed=seed)
    transcript.flag("threshold_scale", threshold_scale)

    empty = np.empty((0, 2), dtype=np.int64)
    shed = [(empty, empty[:, 0])]  # (E_s rows, the owner of each) per step
    removed = [empty]
    terminal: List[ClusterPiece] = []
    witnesses: List[dict] = []
    halt_rounds = np.full(g.n, -1, dtype=np.int64)

    depth_cap = max(int(4 * log2m(g.m)), 1)
    work = deque()
    if g.m:
        work.append((g._edge_array(), 0, 0))
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
        shed.append(step.es_new)
        removed.append(step.er_new)
        witnesses.extend(step.witnesses)
        np.maximum(halt_rounds, step.halt_rounds, out=halt_rounds)
        for c in step.clusters:
            if c.status == "C3-1":
                terminal.append(c)
            else:
                # a C3-2 piece may keep every vertex of its call, but it
                # holds at most half of the call's edges
                assert 2 * len(c.edges) <= len(piece), "no edge progress"
                work.append((c.edges, depth + 1, start + step.transcript.rounds))

    terminal.sort(key=lambda c: min(c.vertices))
    rows, owners = map(np.concatenate, zip(*shed))
    # E_s grouped by owner, each owner's rows by key; keys lie below n^2
    order = np.argsort(owners * g.n ** 2 + _pair_keys(rows, g.n).ravel())
    er = np.concatenate(removed)
    halted = np.flatnonzero(halt_rounds >= 0)

    deco = Decomposition(
        delta=delta,
        threshold=threshold,
        em={cid: c.edges for cid, c in enumerate(terminal, start=1)},
        es_rows=rows[order],
        es_owners=owners[order],
        er=er[np.argsort(_pair_keys(er, g.n).ravel())],
        clusters={cid: c.vertices for cid, c in enumerate(terminal, start=1)},
        certificates={
            "witnesses": witnesses,
            "halt_rounds": dict(
                zip(map(str, halted.tolist()), halt_rounds[halted].tolist())
            ),
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
    edges, the sparse rows, each oriented away from its owner, form an
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

    em, _ = _labeled_rows(d.em)
    es, er = d.es_rows, d.er
    # Every id must be a vertex before it enters a key lo * n + hi: an id
    # of n or more would alias another edge's key.
    in_range = [
        p.dtype != object and bool(((p >= 0) & (p < g.n)).all()) for p in (em, es, er)
    ]
    partition = all(in_range)
    if partition:
        labeled = np.concatenate((em, es, er))
        partition = bool((labeled[:, 0] < labeled[:, 1]).all()) and np.array_equal(
            np.sort(_pair_keys(labeled, g.n).ravel()),
            _pair_keys(g._edge_array(), g.n).ravel(),
        )
    check("partition", partition, "labels must cover every edge exactly once")

    ok_clusters = not set(d.em) - set(d.clusters)
    conduct_ok = True
    mixing_ok = True
    for cid in sorted(d.clusters):
        if not len(d.em.get(cid, ())):
            ok_clusters = False
            continue
        sub, old = _relabel(d.em[cid])
        connected = is_connected(sub)
        if not connected or set(old.tolist()) != set(d.clusters[cid]):
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

    ends = em.ravel()
    em_deg = np.bincount(ends) if in_range[0] else np.unique(ends, return_counts=True)[1]
    check(
        "min-degree",
        bool((em_deg[em_deg > 0] >= threshold / 2.0).all()),
        f"every clustered vertex needs at least {threshold / 2.0:.2f} cluster edges",
    )

    rep = verify_orientation(g, d.es_rows, d.es_owners, cap=threshold)
    check("orientation", rep.ok, "; ".join(rep.violations[:3]))

    check(
        "removed-fraction",
        len(d.er) <= g.m / 6.0,
        f"{len(d.er)} removed of {g.m}",
    )

    check("cluster-conductance", conduct_ok, "see flags")
    check("cluster-mixing", mixing_ok, "see flags")

    ok = all(checks.values())
    return DecompositionReport(ok, checks, failures, flags)
