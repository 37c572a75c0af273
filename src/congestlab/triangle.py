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

Round accounting follows the same policy as decomposition.py: instead of
replaying the engine message by message, phases are charged through the
audited closed forms. Class announcements cost one round, sparse-edge
announcements cost one round per owned edge, and bulk deliveries are
priced by routing.route on the actual request multiset, with the load
multiplier checked against a fixed concentration envelope.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, permutations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .graphcore import (
    Edge,
    Graph,
    GraphError,
    edge_key,
    induced_subgraph,  # unused here; perfbench checks it wraps this binding
    subgraph_from_edges,
)
from .routing import (
    IdAssignment,
    RoutingRequest,
    assign_degree_class_ids,
    kappa_default,
    route,
)
from .decomposition import decompose
from . import runtime as rt

Triple = Tuple[int, int, int]

ORACLE_EDGE_CAP = 10 ** 6
ORACLE_COMBO_CAP = 5 * 10 ** 6
HEAVY_DEG_FACTOR = 20.0
CONCENTRATION_FACTOR = 24.0
DEGREE_CHECK_FACTOR = 20.0
LOAD_ENVELOPE = 600


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


@dataclass
class TriangleSet:
    """Canonical triangle triples with their reporting vertices."""

    attribution: Dict[Triple, int] = field(default_factory=dict)

    @property
    def triangles(self) -> Set[Triple]:
        return set(self.attribution)

    @property
    def count(self) -> int:
        return len(self.attribution)

    def reporter_counts(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for owner in self.attribution.values():
            out[owner] = out.get(owner, 0) + 1
        return out

    def add(self, triple: Triple, owner: int) -> None:
        if triple in self.attribution:
            raise GraphError(f"triangle {triple} reported twice")
        self.attribution[triple] = owner

    def as_json(self) -> dict:
        return {
            "triangles": [list(t) for t in sorted(self.attribution)],
            "count": self.count,
            "attribution": {
                str(v): c for v, c in sorted(self.reporter_counts().items())
            },
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
    result = TriangleSet()
    for u, v in g.edges():
        for w in g.neighbor_set(u) & g.neighbor_set(v):
            if w > v:
                result.add((u, v, w), u)
    return result


def _triangles_of_edges(edges: Iterable[Edge]) -> List[Triple]:
    """All triangles whose three edges lie in the given edge set."""
    adj: Dict[int, Set[int]] = {}
    canon = set()
    for u, v in edges:
        e = edge_key(u, v)
        if e in canon:
            continue
        canon.add(e)
        adj.setdefault(e[0], set()).add(e[1])
        adj.setdefault(e[1], set()).add(e[0])
    out: List[Triple] = []
    for u, v in sorted(canon):
        for w in adj[u] & adj[v]:
            if w > v:
                out.append((u, v, w))
    return out


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
# priced delivery
# ---------------------------------------------------------------------------


def _deliver(
    g: Graph,
    members: Sequence[int],
    requests: Sequence[RoutingRequest],
    kappa_base: int,
    envelope: int,
) -> Tuple[Dict[int, List[Tuple[int, Tuple[int, ...]]]], int, int]:
    """Route requests among `members` of g, stretching kappa to fit the load.

    A vertex's routing degree is its degree in g among the members; only
    `route` extracts their subgraph. The charge comes out as tau *
    kappa_base * mult, the per-unit routing price times the normalized
    load ceiling. A multiplier above the concentration envelope means the
    random classes failed to spread the load as promised and is an error.
    """
    if not requests:
        return {}, 0, 0
    mset = set(members)
    load: Dict[int, int] = {}
    for req in requests:
        load[req.source] = load.get(req.source, 0) + 1
        load[req.destination] = load.get(req.destination, 0) + 1
    mult = 1
    for v, l in load.items():
        deg = len(g.neighbor_set(v) & mset) if v in mset else 0
        if deg == 0:
            raise GraphError(f"vertex {v} has no edges to route over")
        mult = max(mult, math.ceil(l / (deg * kappa_base)))
    if mult > envelope:
        raise GraphError(
            f"routing load multiplier {mult} exceeds the envelope {envelope}"
        )
    delivery, charged = route(g, members, requests, kappa=kappa_base * mult)
    return delivery, charged, mult


# ---------------------------------------------------------------------------
# class-tuple listing
# ---------------------------------------------------------------------------


def _list_by_class_tuples(
    tx: rt.Transcript,
    g: Graph,
    members: Sequence[int],
    edges: Sequence[Edge],
    occurrences: Sequence[Tuple[int, ...]],
    s: int,
    seed,
    part_tag: str,
    label: str,
    heavy_scale: float,
    kappa: Optional[int],
) -> Dict[Tuple[int, ...], int]:
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
    vertex tuple) goes to the owner of its sorted part tuple, which must
    have heard of all its edges. Returns the attribution; the phases,
    under `label`, and the messages are charged to tx.
    """
    n = len(members)
    mset = set(members)
    universe = sorted(edges)
    incident: Dict[int, List[Edge]] = {}
    for e in universe:
        incident.setdefault(e[0], []).append(e)
        incident.setdefault(e[1], []).append(e)

    kappa_base = kappa if kappa is not None else kappa_default(n)
    q = _iceil_root(n, s)
    envelope = LOAD_ENVELOPE * s * s * q ** (s - 2)
    inner = sum(1 for u, v in universe if u in mset and v in mset)
    heavy = heavy_scale * inner / (
        HEAVY_DEG_FACTOR * n ** ((s - 2.0) / s) * math.log2(max(n, 2))
    )

    star = max(members, key=lambda v: (len(incident.get(v, ())), -v))
    if len(incident.get(star, ())) >= heavy:
        # Heavy collector: every member ships its incident edges to star.
        requests = [
            RoutingRequest(u, star, payload=e)
            for u in members
            if u != star
            for e in incident.get(u, ())
        ]
        _, charged, _ = _deliver(g, members, requests, kappa_base, envelope)
        tx.charge(f"{label}:collect", charged)
        tx.message_count += len(requests)
        return {occ: star for occ in occurrences}

    ids, id_rounds = assign_degree_class_ids(g, members)
    parts = {
        v: random.Random(f"{seed}:{v}:{part_tag}").randint(1, q) for v in incident
    }
    alloc = _allocate_tuples(ids, g, q, s)

    rests = list(combinations_with_replacement(range(1, q + 1), s - 2))
    requests = []
    for e in universe:
        u, v = e
        senders = [x for x in e if x in mset]
        for rest in rests:
            owner = alloc.owner_of((parts[u], parts[v]) + rest)
            for sender in senders:
                requests.append(RoutingRequest(sender, owner, payload=e))
    delivery, charged, _ = _deliver(g, members, requests, kappa_base, envelope)

    known: Dict[int, Set[Edge]] = {v: set(incident.get(v, ())) for v in members}
    for owner, box in delivery.items():
        known[owner].update(tuple(payload) for _, payload in box)
    edge_set = set(universe)
    attribution = {}
    for occ in occurrences:
        owner = alloc.owner_of(tuple(parts[v] for v in occ))
        for e in combinations(occ, 2):
            if e in edge_set:
                assert e in known[owner], "owner missed an edge"
        attribution[occ] = owner
    tx.charge(f"{label}:ids", id_rounds)
    tx.charge(f"{label}:classes", 1)
    tx.charge(f"{label}:deliver", charged)
    tx.message_count += len(requests)
    return attribution


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
    class-triad listing at tuple size 3: the member of largest total
    degree, if that reaches m / (20 n^(1/3) log2 n), collects everything
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
    attribution = _list_by_class_tuples(
        transcript, g, members, edges, _triangles_of_edges(edges),
        3, seed, "triad-class", "triangle", zeta_scale, kappa,
    )
    return TriangleSet(attribution), transcript


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
    hands the leftover edges on as the next level's graph. A level's
    triangles go straight into one set, mapped back to g's ids through
    the composed (monotone) relabelings. The depth is capped at log2 m
    since the leftover halves each level.
    """
    tx = rt.Transcript(seed=seed)
    result = TriangleSet()
    cap = max(int(math.log2(max(g.m, 2))) + 1, 1)
    level, to_g = 0, None
    while g.m > 0 and g.n >= 3:
        if level > cap:
            raise GraphError(f"recursion depth exceeded the cap {cap}")
        # to_g maps this level's ids to g's; it is monotone, so mapped
        # triples stay sorted.
        add = result.add if to_g is None else (
            lambda t, owner: result.add(
                (to_g[t[0]], to_g[t[1]], to_g[t[2]]), to_g[owner]
            )
        )

        decomp, dtx = decompose(g, delta, seed=f"{seed}:L{level}")
        tx.charge(f"triangle:decompose:{level}", dtx.rounds)
        tx.message_count += dtx.message_count

        # Sparse-edge triangles: owners announce their edges for one round
        # per owned edge, and the orientation rules pick the unique
        # reporter. The edge->tail map `tail` holds every E_s edge with its
        # owner (decompose has verified one owner per edge and an acyclic
        # orientation), so each triangle looks up only its own three edges.
        # Only the triangles through an E_s edge are listed: its endpoints'
        # common neighbours.
        tail = {e: owner for owner, part in decomp.es.items() for e in part}
        if tail:
            tx.charge(f"triangle:case1:{level}", max(map(len, decomp.es.values())))
            tx.message_count += sum(
                len(part) * g.deg[owner] for owner, part in decomp.es.items()
            )
            sparse_triangles = {
                tuple(sorted((a, b, w)))
                for a, b in tail
                for w in g.neighbor_set(a) & g.neighbor_set(b)
            }
            for t in sparse_triangles:
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
                add(t, owner)

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
                for t, owner in part_set.attribution.items():
                    a, b, c = t
                    if {(a, b), (a, c), (b, c)} <= recursion_set:
                        continue  # the next level owns these
                    add(t, owner)
        if case2_rounds:
            tx.charge(f"triangle:case2:{level}", case2_rounds)

        if not recursion_set:
            break
        assert 2 * len(recursion_set) <= g.m, "leftover edges failed to halve"
        g, old_ids = subgraph_from_edges(recursion_set)
        to_g = old_ids if to_g is None else [to_g[x] for x in old_ids]
        seed = f"{seed}:r{level}"
        level += 1
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

    occurrences = [
        verts
        for verts in combinations(range(g.n), s)
        if _matches(pattern, verts, g, induced)
    ]
    members = [v for v in range(g.n) if g.deg[v] > 0]
    attribution = _list_by_class_tuples(
        transcript, g, members, g.edge_list(), occurrences,
        s, seed, "tuple-class", "subgraph", heavy_scale, kappa,
    )
    return SubgraphSet(s, attribution), transcript
