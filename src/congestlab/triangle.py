"""Triangle detection, counting, and enumeration on the simulated network.

Three layers:

* sequential oracles (`brute_force_triangles`, plus a generic pattern
  oracle used by the tests),
* `enumerate_expander`: the class-triad algorithm for one well-mixing
  component together with its outward edges; it and the s-vertex
  `enumerate_subgraphs` list only their occurrences and hand them to one
  class-tuple core, `_list_by_class_tuples`, which runs the heavy
  collector or the tuple routing and attributes every occurrence,
* `enumerate_general`: one decomposition-driven loop over levels; each
  level splits its work into sparse-edge triangles (owner rules over the
  acyclic orientation) and per-cluster expander runs, and hands the
  leftover edges to the next level. Every triangle enters one set once,
  attributed to exactly one vertex.

Triangles are int arrays from lister to report: one CSR wedge lister,
`_triangles_of_edges`, serves the clusters and (keeping the rows with a
sparse edge) case 1 with sorted (k, 3) rows; the class-tuple core returns
an owner array aligned with them; `TriangleSet` holds one sorted key
array and its owners, and its `extend` refuses a triangle reported twice.
The CLI writes `TriangleSet.rows()` straight into the report.

Round accounting follows the same policy as decomposition.py: instead of
replaying the engine message by message, phases are charged through the
audited closed forms. Class announcements cost one round, sparse-edge
announcements cost one round per owned edge, and each bulk delivery is
priced by routing.route from its (sender, receiver) rows: route stretches
kappa by the least multiplier that fits the per-vertex loads, and the
class-tuple core checks that multiplier against a fixed concentration
envelope.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import chain, combinations, combinations_with_replacement, permutations
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .graphcore import (
    MAX_VERTICES,
    Edge,
    Graph,
    GraphError,
    _edge_keys,
    edge_key,
    induced_subgraph,  # unused here; perfbench checks it wraps this binding
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
    rows = [
        (u, v, w)
        for u, v in g.edges()
        for w in g.neighbor_set(u) & g.neighbor_set(v)
        if w > v
    ]
    result = TriangleSet()
    result.extend(rows, [u for u, _, _ in rows])
    return result


def _triangles_of_edges(edges, through=None) -> np.ndarray:
    """All triangles whose three edges lie in `edges`, as lex-sorted (k, 3)
    int64 rows a < b < c; with `through`, only those with an edge in it.

    A CSR wedge lister over the sorted, distinct edge keys u * n + v.
    Every edge is oriented low -> high, and each arc (u, v) takes every w
    in N+(v), expanded WEDGE_BLOCK wedges at a time: each triangle comes
    out once, from its lowest arc, and the rows come out sorted.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if not len(edges):
        return np.empty((0, 3), dtype=np.int64)
    if through is not None:
        through = np.asarray(through, dtype=np.int64).reshape(-1, 2)
        # n covers through's ids too, so that no pair there shares an edge's key
        n = int(np.concatenate((edges, through)).max()) + 1
    else:
        n = int(edges.max()) + 1
    keys = _edge_keys(edges, n)
    tails, heads = np.divmod(keys, n)
    indptr = np.searchsorted(tails, np.arange(n + 1))
    fan = indptr[heads + 1] - indptr[heads]
    ends = np.cumsum(fan)
    if not ends[-1]:
        return np.empty((0, 3), dtype=np.int64)
    # arc i's wedges are wedge numbers ends[i] - fan[i] .. ends[i] - 1
    shift = indptr[heads] - (ends - fan)
    starts = np.arange(0, ends[-1], WEDGE_BLOCK)
    bounds = np.unique(np.searchsorted(ends, starts, "right"))
    blocks = []
    for lo, hi in zip(bounds, np.append(bounds[1:], len(fan))):
        arc = np.repeat(np.arange(lo, hi), fan[lo:hi])
        w = heads[np.arange(ends[lo] - fan[lo], ends[hi - 1]) + shift[arc]]
        u = tails[arc]
        hit = _members(keys, u * n + w)
        blocks.append(np.column_stack((u[hit], heads[arc[hit]], w[hit])))
    rows = np.concatenate(blocks)
    if through is None:
        return rows
    picked = _edge_keys(through, n)
    a, b, c = rows.T
    held = _members(picked, a * n + b)
    held |= _members(picked, a * n + c)
    held |= _members(picked, b * n + c)
    return rows[held]


def _members(keys: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Mask of the entries of cand that occur in the sorted array keys."""
    if not len(keys):
        return np.zeros(len(cand), dtype=bool)
    at = np.searchsorted(keys, cand)
    at[at == len(keys)] = 0
    return keys[at] == cand


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
    """Ownership map from sorted class tuples to vertices.

    Built locally from the degree-class id assignment: the average degree
    rounded down to a power of two fixes every vertex's class, and the
    tuples are handed out in blocks of 2^class along the new-id order.
    """

    q: int
    size: int
    tuples: Tuple[Tuple[int, ...], ...]
    ranges: Dict[int, Tuple[int, int]]
    classes: Dict[int, int]
    delta_bar: int
    _owner: Dict[Tuple[int, ...], Optional[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Every class tuple maps to its owner, or to None outside all ranges.
        self._owner = dict.fromkeys(self.tuples)
        for v, (lo, hi) in self.ranges.items():
            self._owner.update(dict.fromkeys(self.tuples[lo:hi], v))

    def owner_of(self, class_tuple: Sequence[int]) -> int:
        key = tuple(sorted(class_tuple))
        if key not in self._owner:
            raise GraphError(f"{key} is not a class tuple for q={self.q}")
        owner = self._owner[key]
        if owner is None:
            raise GraphError(f"class tuple {key} was never allocated")
        return owner


def _allocate_tuples(ids: IdAssignment, g_in: Graph, q: int, size: int) -> TriadAllocation:
    members = sorted(ids.new_id)
    n = len(members)
    total_deg = sum(g_in.deg[v] for v in members)
    if total_deg == 0:
        raise GraphError("tuple allocation needs at least one edge")
    m = total_deg // 2
    j = int(math.floor(math.log2(2.0 * m / n)))
    delta_bar = 2 ** j

    # Degree class c is floor(log2 deg); against average 2^j the vertex
    # class becomes c - j + 2, with everything below average/2 in class 0.
    classes: Dict[int, int] = {}
    for v in members:
        classes[v] = max(ids.class_of_vertex(v) - j + 2, 0)

    tuples = tuple(combinations_with_replacement(range(1, q + 1), size))
    ranges: Dict[int, Tuple[int, int]] = {}
    ptr = 0
    for new in range(1, n + 1):
        if ptr >= len(tuples):
            break
        v = ids.old_id[new]
        i = classes[v]
        if i == 0:
            continue
        take = min(2 ** i, len(tuples) - ptr)
        ranges[v] = (ptr, ptr + take)
        ptr += take
    if ptr < len(tuples):
        raise GraphError(
            f"class capacity covers {ptr} of {len(tuples)} tuples; "
            "the input violates the average-degree counting fact"
        )
    return TriadAllocation(q, size, tuples, ranges, classes, delta_bar)


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
    for t in range(trials):
        rng = random.Random(f"{seed}:probe:{t}")
        part = [rng.randint(1, q) for _ in range(g.n)]
        counts: Dict[Tuple[int, int], int] = {}
        for u, v in g.edges():
            key = (min(part[u], part[v]), max(part[u], part[v]))
            counts[key] = counts.get(key, 0) + 1
        per_trial.append(max(counts.values()) if counts else 0)
    return ProbeResult(per_trial, bound, degree_ok)


# ---------------------------------------------------------------------------
# sparse-edge owner rules
# ---------------------------------------------------------------------------


def case1_report_owner(triangle, oriented) -> Optional[int]:
    """Pick the unique reporter of a triangle touching oriented edges.

    `oriented` holds (tail, head) pairs for the triangle's oriented edges;
    absent pairs are unoriented, and pairs off the triangle are ignored.
    Returns None when no edge is oriented. The caller passes only the
    triangle's own (at most three) pairs, so a call costs O(1).
    The three published rules (out-degree-2 apex, lone directed edge or
    directed path, common sink) cover every acyclic pattern, as the
    exhaustive test checks; a cyclic pattern matches none of them and
    returns None.
    """
    verts = tuple(sorted(set(triangle)))
    if len(verts) != 3:
        raise GraphError("a triangle needs three distinct vertices")
    vset = set(verts)
    pairs = {(a, b) for a, b in oriented if a in vset and b in vset and a != b}
    if not pairs:
        return None
    out = {v: sorted(b for a, b in pairs if a == v) for v in verts}
    inn = {v: sorted(a for a, b in pairs if b == v) for v in verts}

    for v in verts:
        if len(out[v]) == 2:
            return out[v][0]
    # A sink here has its opposite edge unoriented, or an end would be an apex.
    for v in verts:
        if len(inn[v]) == 2:
            return inn[v][0]
    if len(pairs) == 1:
        ((a, b),) = pairs
        return next(v for v in verts if v not in (a, b))
    if len(pairs) == 2:
        # Neither an apex nor a sink, so a directed path a -> z -> b.
        (z,) = {b for _, b in pairs} & {a for a, _ in pairs}
        return out[z][0]
    return None


# ---------------------------------------------------------------------------
# class-tuple listing
# ---------------------------------------------------------------------------


def _list_by_class_tuples(
    tx: rt.Transcript,
    g: Graph,
    members: Sequence[int],
    edges: Sequence[Edge],
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
    The sorted `members` run it over `edges`, each with one or both ends
    among them; an edge is sent by its member ends, and every delivery
    routes over g among the members. With m the number of edges that lie
    inside the members: if the member with the most incident edges (ties
    to the smaller id) has at least heavy_scale * m / (20 n^((s-2)/s)
    log2 n), it collects every edge and reports every occurrence.
    Otherwise every vertex draws one of
    q = ceil(n^(1/s)) parts, each edge travels to the owners of all sorted
    class tuples holding its two parts, and each occurrence (a sorted
    vertex row of the (k, s) array) goes to the owner of its sorted part
    tuple, which must have heard of all its edges. Either way the
    deliveries are one batch of (sender, receiver) rows priced by `route`,
    whose load multiplier must stay within the concentration envelope.
    Returns the owner of each occurrence row; the phases, under `label`,
    and the messages are charged to tx.
    """
    n = len(members)
    ids_of = np.asarray(members, dtype=np.int64)
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    sends = np.isin(ends, ids_of)  # an edge is sent by its member ends
    inc = np.bincount(np.searchsorted(ids_of, ends[sends]), minlength=n)

    q = _iceil_root(n, s)
    envelope = LOAD_ENVELOPE * s * s * q ** (s - 2)
    inner = int(sends.all(axis=1).sum())
    heavy = heavy_scale * inner / (
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
        ids, id_rounds = assign_degree_class_ids(g, members)
        parts = {
            v: random.Random(f"{seed}:{v}:{part_tag}").randint(1, q)
            for v in set(ends.ravel().tolist()).union(occurrences.ravel().tolist())
        }
        alloc = _allocate_tuples(ids, g, q, s)

        # A member knows its incident edges and every edge sent to it.
        rests = list(combinations_with_replacement(range(1, q + 1), s - 2))
        known: Dict[int, Set[Edge]] = {v: set() for v in members}
        rows: List[Tuple[int, int]] = []
        for e, sent in zip(edges, sends.tolist()):
            u, v = e
            senders = [x for x, member in zip(e, sent) if member]
            for sender in senders:
                known[sender].add(e)
            for rest in rests:
                owner = alloc.owner_of((parts[u], parts[v]) + rest)
                for sender in senders:
                    rows.append((sender, owner))
                    known[owner].add(e)
        requests = np.array(rows, dtype=np.int64).reshape(-1, 2)

        edge_set = set(edges)
        owner_list = []
        for occ in occurrences.tolist():
            owner = alloc.owner_of(tuple(parts[v] for v in occ))
            for e in combinations(occ, 2):
                if e in edge_set:
                    assert e in known[owner], "owner missed an edge"
            owner_list.append(owner)
        owners = np.array(owner_list, dtype=np.int64)
        tx.charge(f"{label}:ids", id_rounds)
        tx.charge(f"{label}:classes", 1)
        phase = "deliver"

    charged, mult = route(g, members, requests, kappa)
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
    them. The triangles of inward plus outward edges are attributed by the
    class-triad listing at tuple size 3: the member with the most incident
    edges, if that reaches m / (20 n^(1/3) log2 n), collects everything
    directly; otherwise every vertex samples one of q = ceil(n^(1/3))
    parts, edges travel to the owners of the matching class triads, and
    each owner reports exactly the triangles whose sorted part triple
    equals one of its triads.
    """
    members = sorted(set(component))
    mset = set(members)
    transcript = rt.Transcript(seed=seed)
    transcript.flag("zeta_scale", zeta_scale)

    e_in = [
        (u, v) for u in members for v in g.adj[u] if u < v and v in mset
    ]
    out_edges: Set[Edge] = set()
    for u, v in e_out:
        e = edge_key(u, v)
        if e[0] in mset and e[1] in mset:
            raise GraphError(f"outward edge {e} already lies inside the component")
        if e[0] not in mset and e[1] not in mset:
            raise GraphError(f"outward edge {e} does not touch the component")
        out_edges.add(e)
    if not e_in:
        return TriangleSet(), transcript

    # Each outward edge is sent by its member end, which must have spare
    # inward degree: no member sends more outward edges than it has
    # inward ones.
    spare: Dict[int, int] = {v: 0 for v in members}
    for u, v in e_in:
        spare[u] += 1
        spare[v] += 1
    for e in sorted(out_edges):
        sender = e[0] if e[0] in mset else e[1]
        if spare[sender] <= 0:
            raise GraphError(
                f"outward edge {e} exceeds the sending capacity of {sender}"
            )
        spare[sender] -= 1

    edges = e_in + list(out_edges)
    rows = _triangles_of_edges(edges)
    owners = _list_by_class_tuples(
        transcript, g, members, edges, rows,
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
        # reporter. The edge->tail map `tail` holds every E_s edge with its
        # owner (decompose has verified one owner per edge and an acyclic
        # orientation), so each triangle looks up only its own three edges.
        # Of the level's triangles, those with an E_s edge are case 1's.
        tail = {e: owner for owner, part in decomp.es.items() for e in part}
        if tail:
            tx.charge(f"triangle:case1:{level}", max(map(len, decomp.es.values())))
            tx.message_count += sum(
                len(part) * g.deg[owner] for owner, part in decomp.es.items()
            )
            through = np.fromiter(chain.from_iterable(tail), np.int64, 2 * len(tail))
            rows = _triangles_of_edges(g._edge_array(), through)
            owners = []
            for t in rows.tolist():
                a, b, c = t
                pairs = [
                    (tail[e], e[0] + e[1] - tail[e])
                    for e in ((a, b), (a, c), (b, c))
                    if e in tail
                ]
                owner = case1_report_owner(t, pairs)
                assert owner is not None
                # The owner sees its two incident edges; the opposite one
                # it only hears of through the announcement of its tail.
                assert edge_key(*(v for v in t if v != owner)) in tail, (
                    "case-1 owner missed its opposite edge"
                )
                owners.append(owner)
            found.append(to_g[rows])
            found_by.append(to_g[np.array(owners, dtype=np.int64)])

        recursion_set = set(decomp.er)
        case2_rounds = 0
        if decomp.clusters:
            # Clusters are vertex-disjoint, so g_m degrees are cluster
            # degrees. A vertex with more removed than cluster degree sends
            # nothing, and its cluster edges fall through to the next level
            # with E_r.
            g_m = Graph(g.n, decomp.em)
            deg_er: Dict[int, int] = {}
            for u, v in decomp.er:
                deg_er[u] = deg_er.get(u, 0) + 1
                deg_er[v] = deg_er.get(v, 0) + 1
            cluster_of: Dict[int, int] = {}
            for cid, verts in decomp.clusters.items():
                for v in verts:
                    if g_m.deg[v] >= deg_er.get(v, 0):
                        cluster_of[v] = cid
                    else:
                        recursion_set.update(edge_key(v, w) for w in g_m.adj[v])
            # The next level owns the triangles with all three edges left to it.
            left = _edge_keys(list(recursion_set), g.n)
            cluster_out: Dict[int, List[Edge]] = {cid: [] for cid in decomp.clusters}
            for e in decomp.er:
                cu, cv = cluster_of.get(e[0]), cluster_of.get(e[1])
                if cu is not None:
                    cluster_out[cu].append(e)
                if cv is not None and cv != cu:
                    cluster_out[cv].append(e)

            for cid in sorted(decomp.clusters):
                part_set, etx = enumerate_expander(
                    g_m, decomp.clusters[cid], cluster_out[cid],
                    seed=f"{seed}:L{level}:c{cid}", kappa=kappa,
                )
                case2_rounds = max(case2_rounds, etx.rounds)
                tx.message_count += etx.message_count
                rows, owners = part_set.rows(), part_set.owners()
                a, b, c = rows.T
                ours = ~(
                    _members(left, a * g.n + b)
                    & _members(left, a * g.n + c)
                    & _members(left, b * g.n + c)
                )
                found.append(to_g[rows[ours]])
                found_by.append(to_g[owners[ours]])
        if case2_rounds:
            tx.charge(f"triangle:case2:{level}", case2_rounds)

        if not recursion_set:
            break
        assert 2 * len(recursion_set) <= g.m, "leftover edges failed to halve"
        g, old_ids = subgraph_from_edges(recursion_set)
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


def detect_triangle(g: Graph, delta: float = 0.5, seed=0) -> bool:
    return count_triangles(g, delta, seed) > 0


# ---------------------------------------------------------------------------
# s-vertex subgraph listing
# ---------------------------------------------------------------------------


def _matches(pattern: Sequence[Edge], verts: Sequence[int], g: Graph, induced: bool) -> bool:
    s = len(verts)
    pat = {edge_key(a, b) for a, b in pattern}
    for perm in permutations(range(s)):
        ok = True
        for a in range(s):
            for b in range(a + 1, s):
                present = g.has_edge(verts[perm[a]], verts[perm[b]])
                wanted = edge_key(a, b) in pat
                if wanted and not present:
                    ok = False
                    break
                if induced and present and not wanted:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


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
    pattern is the s-clique, for which the two notions agree.
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

    occurrences = np.array(
        [
            verts
            for verts in combinations(range(g.n), s)
            if _matches(pattern, verts, g, induced)
        ],
        dtype=np.int64,
    ).reshape(-1, s)
    members = [v for v in range(g.n) if g.deg[v] > 0]
    owners = _list_by_class_tuples(
        transcript, g, members, g.edge_list(), occurrences,
        s, seed, "tuple-class", "subgraph", heavy_scale, kappa,
    )
    attribution = dict(zip(map(tuple, occurrences.tolist()), owners.tolist()))
    return SubgraphSet(s, attribution), transcript
