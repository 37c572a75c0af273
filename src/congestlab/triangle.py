"""Triangle detection, counting, and enumeration on the simulated network.

Three layers:

* sequential oracles (`brute_force_triangles`, plus a generic pattern
  oracle used by the tests),
* `enumerate_expander`: the class-triad algorithm for one well-mixing
  component together with its outward edges; it and the s-vertex
  `enumerate_subgraphs` (one run per edge component) list only their
  occurrences and hand them to one class-tuple core,
  `_list_by_class_tuples`, which runs the heavy collector or the tuple
  routing and attributes every occurrence; the tuple routing reads each
  owner from one table, a rank per sorted part tuple and an owner per rank,
* `enumerate_general`: one decomposition-driven loop over levels; each
  level splits its work into sparse-edge triangles (owner rules over the
  acyclic orientation) and per-cluster expander runs, and hands the
  leftover edges to the next level. Every triangle enters one set once,
  attributed to exactly one vertex.

Triangles are int arrays from lister to report: one CSR wedge lister,
`_triangles_of_edges`, serves the clusters and case 1 with sorted (k, 3)
rows, checking wedges in an edge table where the ids are dense. Case 1
reads E_s as the decomposition's row and owner arrays, and looks each
row's three edge keys up once among the sorted sparse-edge keys: the one
lookup picks the rows with a sparse edge and gives the tails of their
edges. The class-tuple core returns an owner
array aligned with the cluster rows, and one array rule,
`_case1_owners`, applies the orientation rules to every case-1 row at
once from the tails of its three edges; `TriangleSet` holds one sorted
key array and its owners, and its `extend` refuses a triangle reported
twice. The CLI writes `TriangleSet.rows()` straight into the report.

Round accounting follows the same policy as decomposition.py: phases are
charged through the audited closed forms. Class announcements cost one
round, sparse-edge announcements cost one round per owned edge, and each
bulk delivery is priced by routing.route from its (sender, receiver)
rows: route stretches kappa by the least multiplier that fits the
per-vertex loads, and the class-tuple core checks that multiplier
against a fixed concentration envelope.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, combinations_with_replacement, permutations
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .graphcore import (
    MAX_VERTICES,
    Edge,
    Graph,
    GraphError,
    _edge_keys,
    _find,
    _labeled_rows,
    _members,
    _pair_keys,
    _require_vertices,
    connected_components,
    edge_key,
    induced_subgraph,
    is_connected,
    subgraph_from_edges,
)
from .routing import IdAssignment, assign_degree_class_ids, route
from .decomposition import decompose
from . import runtime as rt

Triple = Tuple[int, int, int]

ORACLE_EDGE_CAP = 10 ** 6
ORACLE_COMBO_CAP = 5 * 10 ** 6
HEAVY_DEG_FACTOR = 20.0
CONCENTRATION_FACTOR = 24.0
DEGREE_CHECK_FACTOR = 20.0
LOAD_ENVELOPE = 600
WEDGE_BLOCK = 1 << 13  # wedges the lister expands per block
# The lister checks wedges in a table over all n^2 keys when n^2 is at most
# this multiple of the wedges and edges it would otherwise search.
EDGE_TABLE_FACTOR = 16


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


_ID_MASK = MAX_VERTICES - 1  # ids fit in 20 bits, so a triangle packs into an int64


class TriangleSet:
    """Canonical triangles a < b < c with their reporting vertices.

    The triangles are one sorted int64 key array, a << 40 | b << 20 | c,
    with an aligned owner array. `extend` merges a batch of rows and
    refuses any triangle reported twice, within the batch or against the
    rows already held.
    """

    def __init__(self) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        self._owners = np.empty(0, dtype=np.int64)

    def extend(self, rows, owners) -> None:
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
        owners = np.asarray(owners, dtype=np.int64).reshape(-1)
        if len(owners) != len(rows):
            raise GraphError(f"{len(owners)} owners for {len(rows)} triangles")
        a, b, c = rows.T
        if not np.all((0 <= a) & (a < b) & (b < c) & (c <= _ID_MASK)):
            raise GraphError("triangle rows must be vertex ids a < b < c")
        keys = a << 40
        keys |= b << 20
        keys |= c
        order = np.argsort(keys, kind="stable")
        keys, owners = keys[order], owners[order]
        del order
        again = _members(self._keys, keys)
        again[1:] |= keys[1:] == keys[:-1]
        if again.any():
            key = int(keys[again.argmax()])
            triple = (key >> 40, key >> 20 & _ID_MASK, key & _ID_MASK)
            raise GraphError(f"triangle {triple} reported twice")
        if len(self._keys):
            at = np.searchsorted(self._keys, keys)
            keys = np.insert(self._keys, at, keys)
            owners = np.insert(self._owners, at, owners)
        self._keys, self._owners = keys, owners

    def add(self, triple: Triple, owner: int) -> None:
        self.extend([triple], [owner])

    def rows(self) -> np.ndarray:
        """The triangles as lex-sorted (k, 3) int64 rows."""
        k = self._keys
        return np.column_stack((k >> 40, k >> 20 & _ID_MASK, k & _ID_MASK))

    def owners(self) -> np.ndarray:
        """The reporting vertex of each row of `rows()`, read-only."""
        view = self._owners.view()
        view.flags.writeable = False
        return view

    @property
    def triangles(self) -> Set[Triple]:
        return set(map(tuple, self.rows().tolist()))

    @property
    def attribution(self) -> Mapping[Triple, int]:
        return MappingProxyType(
            dict(zip(map(tuple, self.rows().tolist()), self._owners.tolist()))
        )

    @property
    def count(self) -> int:
        return len(self._keys)

    def reporter_counts(self) -> Dict[int, int]:
        """Triangles per reporting vertex, in increasing vertex order."""
        owners, counts = np.unique(self._owners, return_counts=True)
        return dict(zip(owners.tolist(), counts.tolist()))

    def as_json(self) -> dict:
        return {
            "triangles": self.rows().tolist(),
            "count": self.count,
            "attribution": {str(v): c for v, c in self.reporter_counts().items()},
        }


@dataclass
class SubgraphSet:
    """Canonical s-vertex occurrences with their reporting vertices."""

    size: int
    attribution: Dict[Tuple[int, ...], int] = field(default_factory=dict)

    @property
    def occurrences(self) -> Set[Tuple[int, ...]]:
        return set(self.attribution)

    @property
    def count(self) -> int:
        return len(self.attribution)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def brute_force_triangles(g: Graph) -> TriangleSet:
    """Exact triangle set by sorted-adjacency intersection.

    Each triple is attributed to its smallest vertex, which keeps the
    oracle's output usable wherever a TriangleSet is expected.
    """
    if g.m > ORACLE_EDGE_CAP:
        raise GraphError(f"oracle capped at {ORACLE_EDGE_CAP} edges, got {g.m}")
    ptr, flat = g.indptr.tolist(), g.indices.tolist()
    nbrs = [frozenset(flat[a:b]) for a, b in zip(ptr, ptr[1:])]
    rows = [(u, v, w) for u, v in g.edges() for w in nbrs[u] & nbrs[v] if w > v]
    result = TriangleSet()
    result.extend(rows, [u for u, _, _ in rows])
    return result


def _triangles_of_edges(edges) -> np.ndarray:
    """All triangles whose three edges lie in `edges`, as lex-sorted (k, 3)
    int64 rows a < b < c.

    A CSR wedge lister over the sorted, distinct edge keys u * n + v.
    Every edge is oriented low -> high, and each arc (u, v) takes every w
    in N+(v), expanded WEDGE_BLOCK wedges at a time: each triangle comes
    out once, from its lowest arc, and the rows come out sorted. A wedge's
    closing key u * n + w is looked up in a boolean table over 0..n^2 - 1
    when n^2 is at most EDGE_TABLE_FACTOR times the wedges plus edges, and
    searched among the keys otherwise, so the table never costs more than
    the searches it replaces.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if not len(edges):
        return np.empty((0, 3), dtype=np.int64)
    n = int(edges.max()) + 1
    keys = _edge_keys(edges, n)
    tails, heads = np.divmod(keys, n)
    indptr = np.searchsorted(tails, np.arange(n + 1))
    fan = indptr[heads + 1] - indptr[heads]
    ends = np.cumsum(fan)
    if not ends[-1]:
        return np.empty((0, 3), dtype=np.int64)
    if n * n <= EDGE_TABLE_FACTOR * (ends[-1] + len(keys)):
        table = np.zeros(n * n, dtype=bool)
        table[keys] = True
        member = table.__getitem__
    else:
        member = partial(_members, keys)
    # arc i's wedges are wedge numbers ends[i] - fan[i] .. ends[i] - 1
    shift = indptr[heads] - (ends - fan)
    starts = np.arange(0, ends[-1], WEDGE_BLOCK)
    bounds = np.unique(np.searchsorted(ends, starts, "right"))
    blocks = []
    for lo, hi in zip(bounds, np.append(bounds[1:], len(fan))):
        arc = np.repeat(np.arange(lo, hi), fan[lo:hi])
        w = heads[np.arange(ends[lo] - fan[lo], ends[hi - 1]) + shift[arc]]
        u = tails[arc]
        hit = member(u * n + w)
        blocks.append(np.column_stack((u[hit], heads[arc[hit]], w[hit])))
    return np.concatenate(blocks)


# ---------------------------------------------------------------------------
# class triads
# ---------------------------------------------------------------------------


def _iceil_root(n: int, s: int) -> int:
    q = 1
    while q ** s < n:
        q += 1
    return q


@dataclass
class TriadAllocation:
    """Owner table of the sorted class tuples, built locally from the
    degree-class id assignment: the average degree rounded down to a power
    of two fixes every vertex's class, and the tuples, in lexicographic
    order, go out in blocks of 2^class along the new-id order. `rank`, a
    dense (q,) * size table, gives each sorted tuple of 0-based parts its
    rank, and `owners[r]` is the member that owns rank r.
    """

    rank: np.ndarray
    owners: np.ndarray


def _allocate_tuples(ids: IdAssignment, g_in: Graph, q: int, size: int) -> TriadAllocation:
    total_deg = int(np.asarray(g_in.deg)[ids.order].sum())
    if total_deg == 0:
        raise GraphError("tuple allocation needs at least one edge")
    j = int(math.floor(math.log2(2.0 * (total_deg // 2) / len(ids.order))))
    # Degree class c is floor(log2 deg); against average 2^j the vertex
    # class becomes c - j + 2, with everything below average/2 in class 0.
    classes = np.repeat(np.arange(len(ids.counts)), ids.counts) - j + 2
    tuples = np.array(list(combinations_with_replacement(range(q), size)))
    rank = np.full((q,) * size, -1)
    rank[tuple(tuples.T)] = np.arange(len(tuples))
    # rank r goes to the first member whose block ends past it
    stop = np.cumsum(np.where(classes > 0, 2 ** classes.clip(min=0), 0))
    if stop[-1] < len(tuples):
        raise GraphError(
            f"class capacity covers {stop[-1]} of {len(tuples)} tuples; "
            "the input violates the average-degree counting fact"
        )
    owners = ids.order[np.searchsorted(stop, np.arange(len(tuples)), "right")]
    return TriadAllocation(rank, owners)


# ---------------------------------------------------------------------------
# concentration probe
# ---------------------------------------------------------------------------


@dataclass
class ProbeResult:
    per_trial: List[int]
    bound: float
    degree_ok: bool

    @property
    def max_pair_edges(self) -> int:
        return max(self.per_trial) if self.per_trial else 0


def edge_concentration_probe(g: Graph, q: int, seed=0, trials: int = 20) -> ProbeResult:
    """Sample random q-partitions and report the heaviest class pair.

    The degree precondition (max degree at most m/(q * 20 log2 n)) is
    recorded in the result rather than enforced; the acceptance instance
    itself sits outside it while the measured concentration bound still
    holds with a wide margin.
    """
    if q < 1:
        raise GraphError("q must be at least 1")
    if trials < 0:
        raise GraphError("trials must be nonnegative")
    bound = CONCENTRATION_FACTOR * g.m / float(q * q)
    if g.n >= 2 and g.m > 0:
        limit = g.m / (q * DEGREE_CHECK_FACTOR * math.log2(g.n))
        degree_ok = max(g.deg) <= limit
    else:
        degree_ok = True
    per_trial: List[int] = []
    e = g._edge_array()
    for t in range(trials):
        rng = random.Random(f"{seed}:probe:{t}")
        # parts ranked 0..k-1 (k <= n), so no pair key overflows for any q
        _, part = np.unique([rng.randint(1, q) for _ in range(g.n)], return_inverse=True)
        a, b = part[e[:, 0]], part[e[:, 1]]
        _, counts = np.unique(np.minimum(a, b) * g.n + np.maximum(a, b), return_counts=True)
        per_trial.append(int(counts.max()) if len(counts) else 0)
    return ProbeResult(per_trial, bound, degree_ok)


# ---------------------------------------------------------------------------
# sparse-edge owner rules
# ---------------------------------------------------------------------------


# Row positions: edge j of a sorted row (a, b, c) is ab, ac, bc, so vertex
# p's opposite edge is 2 - p; of the two other vertices, p's smaller one is
# _SMALLER_OTHER[p].
_INCIDENT = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]])  # vertex x edge
_SMALLER_OTHER = np.array([1, 0, 0])


def _case1_owners(rows: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """The unique reporter of each triangle touching oriented edges.

    `rows` are sorted (k, 3) triangles a < b < c, and `tails` the (k, 3)
    tails of their edges ab, ac and bc, -1 for an unoriented edge. The
    published rules apply in order, to every row at once: an out-degree-2
    apex lets the smaller head report; a sink (in-degree 2) the smaller
    tail; a lone oriented edge the third vertex; a directed path
    x -> z -> y its end y, the head of z's out-edge. They cover every
    acyclic pattern, as the exhaustive test checks; a row with no oriented
    edge or a cyclic pattern gets -1.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    tails = np.asarray(tails, dtype=np.int64).reshape(-1, 3)
    out = (tails[:, :, None] == rows[:, None, :]).sum(axis=1)
    deg = (tails >= 0).astype(np.int64) @ _INCIDENT
    inn = deg - out
    apex, sink = out == 2, inn == 2
    oriented = deg.sum(axis=1) // 2
    pos = np.select(
        [apex.any(axis=1), sink.any(axis=1), oriented == 1, oriented == 2],
        [
            _SMALLER_OTHER[apex.argmax(axis=1)],
            _SMALLER_OTHER[sink.argmax(axis=1)],
            (deg == 0).argmax(axis=1),
            ((inn == 1) & (out == 0)).argmax(axis=1),
        ],
        -1,
    )
    owners = rows[np.arange(len(rows)), pos]
    owners[pos < 0] = -1
    return owners


# ---------------------------------------------------------------------------
# class-tuple listing
# ---------------------------------------------------------------------------


def _list_by_class_tuples(
    tx: rt.Transcript,
    g: Graph,
    sub: Graph,
    ids_of,
    edges,
    occurrences: np.ndarray,
    s: int,
    seed,
    part_tag: str,
    label: str,
    heavy_scale: float,
    kappa: Optional[int],
) -> np.ndarray:
    """Attribute every occurrence to one vertex through class s-tuples.

    The class-tuple partition of Dolev, Lenzen and Peled ("Tri, Tri
    Again", DISC 2012), shared by the triangle and the s-vertex listings.
    The members run it over `edges`, each with one or both ends among
    them; an edge is sent by its member ends, and every delivery routes
    over `sub`, the members' graph as `induced_subgraph(g, members)`
    returns it with their sorted ids `ids_of`. With m the
    number of edges that lie inside the members: if the member with the
    most incident edges (ties to the smaller id) has at least
    heavy_scale * m / (20 n^((s-2)/s) log2 n), it collects every edge and
    reports every occurrence.
    Otherwise every vertex draws one of q = ceil(n^(1/s)) parts, each edge
    travels to the owners of all sorted class tuples holding its two
    parts, and each occurrence (a sorted vertex row of the (k, s) array)
    goes to the owner of its sorted part tuple, which must have heard of
    all its edges. Either way the deliveries are one batch of (sender,
    receiver) rows priced by `route`, whose load multiplier must stay
    within the concentration envelope. `edges` are (k, 2) rows u < v.
    Returns the owner of each occurrence row; the phases, under `label`,
    and the messages are charged to tx.
    """
    n = sub.n
    ids_of = np.asarray(ids_of, dtype=np.int64)
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    sends = np.isin(ends, ids_of)  # an edge is sent by its member ends
    inc = np.bincount(np.searchsorted(ids_of, ends[sends]), minlength=n)

    q = _iceil_root(n, s)
    envelope = LOAD_ENVELOPE * s * s * q ** (s - 2)
    heavy = heavy_scale * sub.m / (
        HEAVY_DEG_FACTOR * n ** ((s - 2.0) / s) * math.log2(max(n, 2))
    )

    at = int(inc.argmax())  # members are sorted, so ties go to the smaller id
    if inc[at] >= heavy:
        # Heavy collector: every member ships its incident edges to star.
        star = int(ids_of[at])
        inc[at] = 0
        requests = np.column_stack(
            (np.repeat(ids_of, inc), np.full(int(inc.sum()), star))
        )
        owners = np.full(len(occurrences), star, dtype=np.int64)
        phase = "collect"
    else:
        ids, id_rounds = assign_degree_class_ids(sub, ids_of)
        alloc = _allocate_tuples(IdAssignment(ids_of[ids.order], ids.counts), g, q, s)
        part = np.zeros(g.n, dtype=np.int64)  # 0-based; drawn where read
        for v in np.union1d(ends, occurrences).tolist():
            part[v] = random.Random(f"{seed}:{v}:{part_tag}").randint(1, q) - 1

        # Each edge goes to the owner of every sorted tuple of its two
        # parts and one rest tuple, from each member end: requests run
        # edge by edge, rest by rest, sender u before v.
        rests = np.array(list(combinations_with_replacement(range(q), s - 2)))
        k, r = len(ends), len(rests)
        grid = np.concatenate((np.repeat(part[ends], r, axis=0), np.tile(rests, (k, 1))), axis=1)
        to = alloc.owners[alloc.rank[tuple(np.sort(grid, axis=1).T)]].reshape(k, r)
        rows = np.stack(np.broadcast_arrays(ends[:, None, :], to[:, :, None]), axis=-1)
        requests = rows[np.broadcast_to(sends[:, None, :], (k, r, 2))]

        # A member knows its incident edges and every edge sent to it, as
        # keys vertex * k + edge index; an occurrence's owner must know
        # every edge among its vertices.
        eid = np.arange(k)[:, None]
        known = np.unique(np.concatenate(((ends * k + eid)[sends], (to * k + eid).ravel())))
        owners = alloc.owners[alloc.rank[tuple(np.sort(part[occurrences], axis=1).T)]]
        keys = _pair_keys(ends, g.n).ravel()
        by_key = np.argsort(keys)
        at, edge = _find(keys[by_key], _pair_keys(occurrences, g.n))
        heard = owners[:, None] * k + by_key[at]
        assert _members(known, heard[edge]).all(), "owner missed an edge"
        tx.charge(f"{label}:ids", id_rounds)
        tx.charge(f"{label}:classes", 1)
        phase = "deliver"

    charged, mult = route(sub, np.searchsorted(ids_of, requests), kappa)
    if mult > envelope:
        raise GraphError(
            f"routing load multiplier {mult} exceeds the envelope {envelope}"
        )
    tx.charge(f"{label}:{phase}", charged)
    tx.message_count += len(requests)
    return owners


# ---------------------------------------------------------------------------
# expander-path enumeration
# ---------------------------------------------------------------------------


def enumerate_expander(
    g: Graph,
    component: Sequence[int],
    e_out: Sequence[Edge],
    seed=0,
    kappa: Optional[int] = None,
    zeta_scale: float = 1.0,
) -> Tuple[TriangleSet, rt.Transcript]:
    """Enumerate all triangles inside one component plus its outward edges.

    The component's induced edges form the inward set; each e_out edge
    must have exactly one endpoint in the component, so the edges among
    the members are exactly g's and every delivery routes over g among
    them: one extraction of the members' graph gives the inward edges and
    carries the deliveries. The triangles of inward plus outward edges
    are attributed by the class-triad listing at tuple size 3: the member
    with the most incident edges, if that reaches m / (20 n^(1/3) log2 n),
    collects everything directly; otherwise every vertex samples one of
    q = ceil(n^(1/3)) parts, edges travel to the owners of the matching
    class triads, and each owner reports exactly the triangles whose
    sorted part triple equals one of its triads.
    """
    members = sorted(set(component))
    ids = np.asarray(members, dtype=np.int64)
    transcript = rt.Transcript(seed=seed)
    transcript.flag("zeta_scale", zeta_scale)

    pairs = np.asarray(e_out, dtype=np.int64).reshape(-1, 2)
    _require_vertices(g, np.append(ids, pairs))
    sub, _ = induced_subgraph(g, members)
    e_in = ids[sub._edge_array()]  # the relabel is monotone: rows stay sorted
    inside = np.zeros(g.n, dtype=bool)
    inside[ids] = True
    ends_in = inside[pairs]
    stray = ends_in[:, 0] == ends_in[:, 1]
    if stray.any():
        at = int(stray.argmax())
        e = edge_key(*pairs[at].tolist())
        if ends_in[at, 0]:
            raise GraphError(f"outward edge {e} already lies inside the component")
        raise GraphError(f"outward edge {e} does not touch the component")
    if not len(e_in):
        return TriangleSet(), transcript

    # Each outward edge is sent by its member end, which must have spare
    # inward degree: no member sends more outward edges than it has
    # inward ones. Read in sorted order, the first edge past its sender's
    # spare is refused.
    out = np.column_stack(np.divmod(_edge_keys(pairs, g.n), g.n))
    sender = np.where(inside[out[:, 0]], out[:, 0], out[:, 1])
    spare = np.bincount(e_in.ravel(), minlength=g.n)
    order = np.argsort(sender, kind="stable")
    rank = np.empty(len(out), dtype=np.int64)  # the edge's place among its sender's
    rank[order] = np.arange(len(out)) - np.searchsorted(sender[order], sender[order])
    over = rank >= spare[sender]
    if over.any():
        at = int(over.argmax())
        raise GraphError(
            f"outward edge {tuple(out[at].tolist())} exceeds the sending"
            f" capacity of {sender[at]}"
        )

    edges = np.concatenate((e_in, out))
    rows = _triangles_of_edges(edges)
    owners = _list_by_class_tuples(
        transcript, g, sub, ids, edges, rows,
        3, seed, "triad-class", "triangle", zeta_scale, kappa,
    )
    result = TriangleSet()
    result.extend(rows, owners)
    return result, transcript


# ---------------------------------------------------------------------------
# general enumeration
# ---------------------------------------------------------------------------


def enumerate_general(
    g: Graph,
    delta: float = 0.5,
    seed=0,
    kappa: Optional[int] = None,
) -> Tuple[TriangleSet, rt.Transcript]:
    """Enumerate every triangle of g with exactly-once attribution.

    One loop over levels. Each level decomposes its graph, reports the
    sparse-edge triangles through the orientation rules, runs the
    expander path on each cluster with its outward removed edges, and
    hands the leftover edges on as the next level's graph. Every level's
    triangle rows and owners, mapped back to g's ids through the composed
    (monotone) relabelings, enter one set in one batch at the end, which
    refuses a triangle reported twice. The depth is capped at log2 m since
    the leftover halves each level.
    """
    tx = rt.Transcript(seed=seed)
    found: List[np.ndarray] = []  # triangle rows in g's ids
    found_by: List[np.ndarray] = []  # their owners
    cap = max(int(math.log2(max(g.m, 2))) + 1, 1)
    # to_g maps this level's ids to g's; it is monotone, so mapped rows
    # stay sorted.
    level, to_g = 0, np.arange(g.n)
    while g.m > 0 and g.n >= 3:
        if level > cap:
            raise GraphError(f"recursion depth exceeded the cap {cap}")
        decomp, dtx = decompose(g, delta, seed=f"{seed}:L{level}")
        tx.charge(f"triangle:decompose:{level}", dtx.rounds)
        tx.message_count += dtx.message_count

        # Sparse-edge triangles: owners announce their edges for one round
        # per owned edge, and the orientation rules pick the unique
        # reporter. Every E_s row comes with its owner, its tail (decompose
        # has verified one owner per edge and an acyclic orientation), and
        # one lookup of each triangle's edges ab, ac and bc among their
        # sorted keys tells both whether it is case 1's and the tails.
        es_rows, tails = decomp.es_rows, decomp.es_owners
        if len(es_rows):
            tx.charge(f"triangle:case1:{level}", int(np.bincount(tails).max()))
            tx.message_count += int(np.diff(g.indptr)[tails].sum())
            rows = _triangles_of_edges(g._edge_array())
            es_keys = _pair_keys(es_rows, g.n).ravel()
            order = np.argsort(es_keys)
            at, hit = _find(es_keys[order], _pair_keys(rows, g.n))
            case1 = hit.any(axis=1)
            rows, hit = rows[case1], hit[case1]
            # the tails of each triangle's edges ab, ac and bc, -1 off E_s
            tri_tails = np.where(hit, tails[order[at[case1]]], -1)
            owners = _case1_owners(rows, tri_tails)
            mine = rows == owners[:, None]
            owned = mine[:, 0] | mine[:, 1] | mine[:, 2]
            assert owned.all(), "case-1 triangle without an owner"
            # The owner sees its two incident edges; the opposite one it
            # only hears of through the announcement of its tail.
            assert (tri_tails[:, ::-1][mine] >= 0).all(), "case-1 owner missed its opposite edge"
            found.append(to_g[rows])
            found_by.append(to_g[owners])

        # Clusters are vertex-disjoint, so g_m degrees are cluster degrees.
        # A vertex with more removed than cluster degree sends nothing, and
        # its cluster edges fall through to the next level with E_r.
        er = decomp.er
        em_rows, em_of = _labeled_rows(decomp.em)
        g_m = Graph(g.n, em_rows)
        cluster_of = np.full(g.n, -1)
        cluster_of[em_rows] = em_of[:, None]
        dropped = (cluster_of >= 0) & (
            np.diff(g_m.indptr) < np.bincount(er.ravel(), minlength=g.n)
        )
        cluster_of[dropped] = -1
        fallen = em_rows[dropped[em_rows[:, 0]] | dropped[em_rows[:, 1]]]
        left = _edge_keys(np.concatenate((er, fallen)), g.n)  # the next level's edges
        out_u, out_v = cluster_of[er[:, 0]], cluster_of[er[:, 1]]
        case2_rounds = 0
        for cid in sorted(decomp.clusters):
            part_set, etx = enumerate_expander(
                g_m, decomp.clusters[cid], er[(out_u == cid) | (out_v == cid)],
                seed=f"{seed}:L{level}:c{cid}", kappa=kappa,
            )
            case2_rounds = max(case2_rounds, etx.rounds)
            tx.message_count += etx.message_count
            rows, owners = part_set.rows(), part_set.owners()
            # The next level owns the triangles with all three edges left to it.
            ours = ~_members(left, _pair_keys(rows, g.n)).all(axis=1)
            found.append(to_g[rows[ours]])
            found_by.append(to_g[owners[ours]])
        if case2_rounds:
            tx.charge(f"triangle:case2:{level}", case2_rounds)

        if not len(left):
            break
        assert 2 * len(left) <= g.m, "leftover edges failed to halve"
        g, old_ids = subgraph_from_edges(np.column_stack(np.divmod(left, g.n)))
        to_g = to_g[old_ids]
        seed = f"{seed}:r{level}"
        level += 1
    result = TriangleSet()
    if found:
        rows, owners = np.concatenate(found), np.concatenate(found_by)
        found.clear()
        found_by.clear()
        result.extend(rows, owners)
    return result, tx


def count_triangles(g: Graph, delta: float = 0.5, seed=0) -> int:
    """Total triangle count as the sum of per-vertex report list sizes."""
    result, _ = enumerate_general(g, delta, seed)
    total = sum(result.reporter_counts().values())
    assert total == result.count
    return total


# ---------------------------------------------------------------------------
# s-vertex subgraph listing
# ---------------------------------------------------------------------------


def enumerate_subgraphs(
    g: Graph,
    s: int,
    pattern: Optional[Sequence[Edge]] = None,
    seed=0,
    kappa: Optional[int] = None,
    induced: bool = False,
    heavy_scale: float = 1.0,
) -> Tuple[SubgraphSet, rt.Transcript]:
    """List s-vertex pattern occurrences with exactly-once attribution.

    The occurrences come from a central scan of all s-subsets (capped at
    ORACLE_COMBO_CAP of them); the class-tuple listing shared with the
    triangle path attributes them at tuple size s: a heavy vertex (degree
    at least m / (20 n^((s-2)/s) log2 n)) collects the whole edge set,
    otherwise vertices sample q = ceil(n^(1/s)) parts and the sorted class
    tuples route every inter-part edge set to its owner. Matching is
    non-induced pattern containment unless `induced` is set; the default
    pattern is the s-clique, for which the two notions agree. Each edge
    component of g runs the listing on its own; a pattern that is not
    connected is refused when there are several.
    """
    if not 3 <= s <= 5:
        raise GraphError("tuple size must be between 3 and 5")
    if pattern is None:
        pattern = [(a, b) for a in range(s) for b in range(a + 1, s)]
    for a, b in pattern:
        if not (0 <= a < s and 0 <= b < s) or a == b:
            raise GraphError(f"pattern edge ({a}, {b}) is not over {s} slots")
    if math.comb(g.n, s) > ORACLE_COMBO_CAP:
        raise GraphError("instance too large for desk-scale subgraph listing")

    transcript = rt.Transcript(seed=seed)
    transcript.flag("heavy_scale", heavy_scale)
    if g.m == 0 or g.n < s:
        return SubgraphSet(s), transcript

    # A placement is the set of slot pairs one slot permutation maps the
    # pattern's edges onto; a subset matches when the slot pairs its edges
    # fill hold some placement, or equal one when `induced` is set.
    placements = {
        frozenset(edge_key(p[a], p[b]) for a, b in pattern)
        for p in permutations(range(s))
    }
    edge_set = set(g.edges())
    pairs = list(combinations(range(s), 2))

    def matches(verts: Tuple[int, ...]) -> bool:
        have = frozenset((a, b) for a, b in pairs if (verts[a], verts[b]) in edge_set)
        if induced:
            return have in placements
        return any(p <= have for p in placements)

    occurrences = np.array(
        list(filter(matches, combinations(range(g.n), s))), dtype=np.int64
    ).reshape(-1, s)
    # Each edge component lists its own occurrences: a connected pattern's
    # lie in one and hold no isolated vertex, so isolated vertices may join
    # the first. The slowest component sets the phases; messages add up.
    comps = [c for c in connected_components(g) if len(c) > 1]
    if len(comps) > 1 and not is_connected(Graph(s, sorted({edge_key(*e) for e in pattern}))):
        raise GraphError(f"a disconnected pattern can span the {len(comps)} edge components")
    comp_of = np.zeros(g.n, dtype=np.int64)
    for i, comp in enumerate(comps):
        comp_of[comp] = i
    edges = g._edge_array()
    owners = np.empty(len(occurrences), dtype=np.int64)
    txs = [rt.Transcript(seed=seed) for _ in comps]
    for i, (comp, part_tx) in enumerate(zip(comps, txs)):
        mine = comp_of[occurrences[:, 0]] == i
        owners[mine] = _list_by_class_tuples(
            part_tx, g, *induced_subgraph(g, comp), edges[comp_of[edges[:, 0]] == i],
            occurrences[mine],
            s, seed, "tuple-class", "subgraph", heavy_scale, kappa,
        )
    for label, rounds in max(txs, key=lambda t: t.rounds).phases.items():
        transcript.charge(label, rounds)
    transcript.message_count += sum(t.message_count for t in txs)
    attribution = dict(zip(map(tuple, occurrences.tolist()), owners.tolist()))
    return SubgraphSet(s, attribution), transcript
