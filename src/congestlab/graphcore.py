"""Graph core: immutable graphs, exact cut/conductance arithmetic, walk
matrices, mixing times, generators, and the brute-force oracles the rest of
the package is tested against.

Cut quantities (volume, boundary, conductance) are exact integer/rational;
walk distributions are float64 with a documented 1e-12 comparison slack.
"""

from __future__ import annotations

import math
import random
import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np
from scipy import sparse

Edge = Tuple[int, int]


class GraphError(ValueError):
    """Raised for malformed graphs, bad generator specs, or violated preconditions."""


def edge_key(u: int, v: int) -> Edge:
    """Canonical undirected edge key (min, max)."""
    return (u, v) if u < v else (v, u)


def log2m(m: float) -> float:
    """Base-2 log used in combinatorial thresholds; m < 2 is pinned to 1."""
    return 1.0 if m < 2 else math.log2(m)


def ln_me4(m: float) -> float:
    """Natural log of m*e^4, the scale factor in walk parameter formulas."""
    return math.log(m) + 4.0


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "m", "adj", "deg", "_nbr_sets")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        adj: List[List[int]] = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            k = edge_key(u, v)
            if k in seen:
                raise GraphError(f"duplicate edge {k}")
            seen.add(k)
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.m = len(seen)
        self.adj: Tuple[Tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)
        self.deg: Tuple[int, ...] = tuple(len(a) for a in self.adj)
        self._nbr_sets: Tuple[frozenset, ...] = tuple(frozenset(a) for a in self.adj)

    def neighbor_set(self, v: int) -> frozenset:
        return self._nbr_sets[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._nbr_sets[u]

    def edges(self) -> Iterator[Edge]:
        """Canonical edges, u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def edge_list(self) -> List[Edge]:
        return list(self.edges())

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, m={self.m})"

    def lazy_walk_matrix(self) -> np.ndarray:
        """Dense form of `lazy_walk_operator(self)`."""
        return lazy_walk_operator(self).toarray()


def as_vertex_set(s: Iterable[int]) -> frozenset:
    return s if isinstance(s, frozenset) else frozenset(s)


# ---------------------------------------------------------------------------
# cut arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cut:
    """A vertex cut with exact conductance."""

    side: frozenset
    boundary_size: int
    vol_side: int
    vol_complement: int
    phi: Fraction

    def as_json(self) -> dict:
        return {
            "side": sorted(self.side),
            "boundary_size": self.boundary_size,
            "vol_side": self.vol_side,
            "vol_complement": self.vol_complement,
            "phi": [self.phi.numerator, self.phi.denominator],
        }


def volume(g: Graph, s: Iterable[int]) -> int:
    """Sum of degrees of s in g; degrees always w.r.t. the graph passed in."""
    return sum(g.deg[v] for v in as_vertex_set(s))


def boundary(g: Graph, s: Iterable[int]) -> List[Edge]:
    """Edges of g with exactly one endpoint in s, in canonical sorted order."""
    ss = as_vertex_set(s)
    out = []
    for v in ss:
        for u in g.adj[v]:
            if u not in ss:
                out.append(edge_key(u, v))
    return sorted(set(out))


def conductance(g: Graph, s: Iterable[int]) -> Cut:
    """Exact rational conductance of the cut (s, complement)."""
    ss = as_vertex_set(s)
    if not ss or len(ss) >= g.n:
        raise GraphError("empty side: conductance needs a nonempty proper subset")
    if not all(0 <= v < g.n for v in ss):
        raise GraphError("vertex out of range")
    vol_s = volume(g, ss)
    vol_c = 2 * g.m - vol_s
    b = 0
    for v in ss:
        for u in g.adj[v]:
            if u not in ss:
                b += 1
    denom = min(vol_s, vol_c)
    if denom == 0:
        raise GraphError("empty side: cut has a side of zero volume")
    return Cut(ss, b, vol_s, vol_c, Fraction(b, denom))


def sparsest_cut_bruteforce(g: Graph) -> Cut:
    """Exhaustive minimum-conductance cut for n <= 24.

    Ties break to the lexicographically smallest side; the returned side is
    the one containing vertex 0 (always the lex-smaller of the two sides).
    Zero-volume sides are skipped, so the scan needs at least one edge.
    """
    if g.n > 24:
        raise GraphError(f"brute-force cut scan limited to n <= 24, got {g.n}")
    if g.n < 2 or g.m == 0:
        raise GraphError("sparsest cut undefined without at least one edge")
    n = g.n
    masks = [0] * n
    for u, v in g.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    total_vol = 2 * g.m
    full = (1 << n) - 1

    cur = 1  # subsets always contain vertex 0
    vol = g.deg[0]
    bnd = g.deg[0]
    best_b = bnd
    best_minv = min(vol, total_vol - vol)
    best_mask = cur
    if best_minv == 0:
        best_b, best_minv, best_mask = -1, -1, 0  # sentinel: no candidate yet

    def side_tuple(mask: int) -> Tuple[int, ...]:
        return tuple(v for v in range(n) if (mask >> v) & 1)

    for k in range(1, 1 << (n - 1)):
        v = (k & -k).bit_length()  # gray code flips vertex ctz(k)+1
        bit = 1 << v
        if cur & bit:
            # v's own bit never appears in masks[v] (no self-loops)
            inside = (masks[v] & (cur ^ bit)).bit_count()
            cur ^= bit
            vol -= g.deg[v]
            bnd += 2 * inside - g.deg[v]
        else:
            inside = (masks[v] & cur).bit_count()
            cur |= bit
            vol += g.deg[v]
            bnd += g.deg[v] - 2 * inside
        if cur == full:
            continue
        minv = min(vol, total_vol - vol)
        if minv <= 0:
            continue
        if best_minv < 0 or bnd * best_minv < best_b * minv:
            best_b, best_minv, best_mask = bnd, minv, cur
        elif bnd * best_minv == best_b * minv:
            if side_tuple(cur) < side_tuple(best_mask):
                best_b, best_minv, best_mask = bnd, minv, cur
    if best_minv <= 0:
        raise GraphError("no cut with two nonzero-volume sides exists")
    side = frozenset(side_tuple(best_mask))
    return conductance(g, side)


# ---------------------------------------------------------------------------
# spectra and mixing
# ---------------------------------------------------------------------------


def _adjacency(g: Graph) -> sparse.csr_matrix:
    """0/1 adjacency matrix in canonical CSR form, read off g.adj."""
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(g.deg, out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(g.adj), dtype=np.int64, count=2 * g.m)
    return sparse.csr_matrix((np.ones(2 * g.m), indices, indptr), shape=(g.n, g.n))


def lazy_walk_operator(g: Graph) -> sparse.csr_matrix:
    """Column-stochastic lazy transition matrix T = (A D^-1 + I)/2.

    Column s is the distribution after one lazy step from s.  A vertex
    with no neighbors keeps all its mass.
    """
    deg = np.asarray(g.deg, dtype=float)
    share = np.divide(0.5, deg, out=np.zeros(g.n), where=deg > 0)
    t = _adjacency(g) @ sparse.diags(share) + sparse.diags(np.where(deg > 0, 0.5, 1.0))
    t.sort_indices()  # the matvec order of the walk follows the index order
    return t


def normalized_laplacian(g: Graph) -> sparse.csr_matrix:
    """I - D^-1/2 A D^-1/2 with zero rows for isolated vertices."""
    deg = np.asarray(g.deg, dtype=float)
    half = sparse.diags(np.divide(1.0, np.sqrt(deg), out=np.zeros(g.n), where=deg > 0))
    lap = sparse.diags((deg > 0).astype(float)) - half @ _adjacency(g) @ half
    lap.sort_indices()
    return lap


def lambda2_normalized(g: Graph) -> float:
    """Second-smallest eigenvalue of the normalized Laplacian.

    Dense solve up to n=1500; sparse Lanczos with a fixed start vector above
    that, so results stay deterministic run to run. A disconnected graph
    above 1500 vertices gets its exact 0 without Lanczos, whose constant
    start vector can miss a null space larger than one.
    """
    if g.n < 2:
        return 0.0
    lap = normalized_laplacian(g)
    if g.n <= 1500:
        vals = np.linalg.eigvalsh(lap.toarray())
        return float(vals[1])
    if len(connected_components(g)) > 1:
        return 0.0
    import scipy.sparse.linalg as spla

    v0 = np.full(g.n, 1.0 / math.sqrt(g.n))
    try:
        vals = spla.eigsh(lap, k=2, which="SA", v0=v0, return_eigenvectors=False)
    except spla.ArpackError:
        # Plain Lanczos stalls when the spectral gap is tiny; shift-invert
        # about a point just below zero converges on the same pair.
        vals = spla.eigsh(
            lap, k=2, sigma=-0.01, which="LM", v0=v0, return_eigenvectors=False
        )
    return float(sorted(vals)[1])


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def bfs_levels(g: Graph, root: int) -> List[int]:
    """BFS level per vertex, -1 if unreachable."""
    lev = [-1] * g.n
    lev[root] = 0
    frontier = [root]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for u in g.adj[v]:
                if lev[u] < 0:
                    lev[u] = d
                    nxt.append(u)
        frontier = nxt
    return lev


MIXING_STEP_CAP = 5_000_000  # safety valve; Definition-1 scans never get near it
EXACT_MIXING_LIMIT = 2000  # largest graph whose mixing time is computed exactly


def mixing_time_exact(g: Graph) -> int:
    """Minimum t with |p_t^s(v) - pi(v)| <= pi(v)/n for all s, v.

    Dense powering of the lazy walk matrix from every start vertex at once.
    Requires a connected graph with an edge and n <= EXACT_MIXING_LIMIT.
    """
    if g.n > EXACT_MIXING_LIMIT:
        raise GraphError(f"exact mixing time limited to n <= {EXACT_MIXING_LIMIT}")
    if g.m == 0:
        raise GraphError("infinite mixing time: graph has no edges")
    if not is_connected(g):
        raise GraphError("infinite mixing time: graph is disconnected")
    t_mat = g.lazy_walk_matrix()
    pi = np.array(g.deg, dtype=np.float64) / (2.0 * g.m)
    tol = pi / g.n
    cur = np.eye(g.n)
    cap = min(max(1000, 40 * g.n * g.n), MIXING_STEP_CAP)
    for t in range(1, cap + 1):
        cur = t_mat @ cur
        dev = np.abs(cur - pi[:, None]).max(axis=1)
        if bool(np.all(dev <= tol)):
            return t
    raise GraphError(f"mixing time exceeded step cap {cap}")


LAMBDA2_MARGIN = 1e-9  # far above the eigensolvers' error on lambda2


def mixing_time_bound(g: Graph, lam2: float) -> float:
    """Spectral upper bound on `mixing_time_exact(g)` from lambda2.

    The lazy walk's nontrivial eigenvalues lie in [0, 1 - lam2/2], so
    |p_t^s(v)/pi(v) - 1| <= (1 - lam2/2)^t / pi_min (Levin, Peres and
    Wilmer, Markov Chains and Mixing Times, Thm 12.4), and Definition 1
    holds from t = ceil(ln(n / pi_min) / -ln(1 - lam/2)) on, with lam2
    the normalized-Laplacian lambda2 of g and lam = lam2 - LAMBDA2_MARGIN.
    Returns math.inf when lam <= 0, as for every disconnected g (an
    isolated vertex included): the bound cannot decide.
    """
    lam = lam2 - LAMBDA2_MARGIN
    if lam <= 0.0:
        return math.inf
    pi_min = min(g.deg) / (2.0 * g.m)
    rate = -math.log(max(1.0 - lam / 2.0, sys.float_info.min))
    return math.ceil(math.log(g.n / pi_min) / rate)


def mixing_time_check(g: Graph, t: int) -> bool:
    """Does the Definition-1 inequality hold at exactly step t."""
    t_mat = g.lazy_walk_matrix()
    pi = np.array(g.deg, dtype=np.float64) / (2.0 * g.m)
    cur = np.linalg.matrix_power(t_mat, t)
    dev = np.abs(cur - pi[:, None]).max(axis=1)
    return bool(np.all(dev <= pi / g.n))


# ---------------------------------------------------------------------------
# orientations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrientationReport:
    ok: bool
    violations: Tuple[str, ...]
    max_out_degree: int


def verify_orientation(
    g: Graph, owned: Dict[int, List[Edge]], cap: float
) -> OrientationReport:
    """Check the arboricity witness: per-owner cap and global acyclicity.

    owned maps each owner to the edges oriented away from it. Each listed
    edge must touch its owner, exist in g and have no second owner.
    Violations are reported, not raised, so tampered inputs stay inspectable.
    """
    violations: List[str] = []
    seen: Dict[Edge, int] = {}
    max_out = 0
    for v, es in sorted(owned.items()):
        max_out = max(max_out, len(es))
        if len(es) > cap:
            violations.append(f"vertex {v} owns {len(es)} edges, cap {cap:g}")
        for e in es:
            if v not in e:
                violations.append(f"edge {e} not incident to owner {v}")
                continue
            if not g.has_edge(*e):
                violations.append(f"edge {e} not in graph")
            if e in seen:
                violations.append(f"edge {e} owned by both {seen[e]} and {v}")
            seen[e] = v
    # Kahn toposort over owner -> other endpoint arcs.
    indeg: Dict[int, int] = {}
    succ: Dict[int, List[int]] = {}
    verts = set()
    for v, es in owned.items():
        for e in es:
            if v not in e:
                continue
            w = e[0] if e[1] == v else e[1]
            succ.setdefault(v, []).append(w)
            indeg[w] = indeg.get(w, 0) + 1
            verts.add(v)
            verts.add(w)
    dq = deque(sorted(x for x in verts if indeg.get(x, 0) == 0))
    done = 0
    while dq:
        x = dq.popleft()
        done += 1
        for w in succ.get(x, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                dq.append(w)
    if done != len(verts):
        violations.append("orientation contains a directed cycle")
    return OrientationReport(not violations, tuple(violations), max_out)


# ---------------------------------------------------------------------------
# subgraph extraction
# ---------------------------------------------------------------------------


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Tuple[Graph, List[int]]:
    """Induced subgraph with a monotone relabeling; returns (graph, old ids).

    Graphs are immutable, so when `vertices` is exactly 0..n-1 the graph
    itself comes back instead of a copy.
    """
    old = sorted(as_vertex_set(vertices))
    if len(old) == g.n and (not old or (old[0] == 0 and old[-1] == g.n - 1)):
        return g, old
    idx = {v: i for i, v in enumerate(old)}
    edges = [
        (idx[u], idx[v])
        for u, v in g.edges()
        if u in idx and v in idx
    ]
    return Graph(len(old), edges), old


def subgraph_from_edges(edges: Iterable[Edge]) -> Tuple[Graph, List[int]]:
    """Graph on exactly the endpoints of `edges` with a monotone relabeling."""
    es = sorted({edge_key(u, v) for u, v in edges})
    old = sorted({v for e in es for v in e})
    idx = {v: i for i, v in enumerate(old)}
    return Graph(len(old), [(idx[u], idx[v]) for u, v in es]), old


def connected_components(g: Graph) -> List[List[int]]:
    """Components as sorted vertex lists, ordered by minimum vertex."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        stack = [s]
        while stack:
            v = stack.pop()
            for u in g.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def edge_components(edges: Iterable[Edge]) -> List[Tuple[Graph, List[int]]]:
    """Split an edge set into connected components, one graph each.

    Returns (graph, old ids) per component, ordered by smallest vertex, each
    on exactly its component's endpoints with a monotone relabeling. The
    set's graph is built once and split by connected_components: a
    connected set comes back as that graph, and more components are
    relabeled in one pass over its edges. An empty set has no components.
    """
    whole, old = subgraph_from_edges(edges)
    comps = connected_components(whole)
    if len(comps) == 1:
        return [(whole, old)]
    which = [0] * whole.n
    pos = [0] * whole.n
    for c, verts in enumerate(comps):
        for i, v in enumerate(verts):
            which[v] = c
            pos[v] = i
    parts: List[List[Edge]] = [[] for _ in comps]
    for u, v in whole.edges():
        parts[which[u]].append((pos[u], pos[v]))
    return [
        (Graph(len(verts), part), [old[v] for v in verts])
        for verts, part in zip(comps, parts)
    ]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _rng(seed, *scope) -> random.Random:
    tag = ":".join(str(s) for s in (seed,) + scope)
    return random.Random(tag)  # str seeding hashes via sha512, platform-stable


def gen_clique(n: int) -> Graph:
    if n < 1:
        raise GraphError("clique needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def gen_star(n: int) -> Graph:
    """Star on n vertices: center 0, leaves 1..n-1."""
    if n < 2:
        raise GraphError("star needs n >= 2")
    return Graph(n, [(0, i) for i in range(1, n)])


def gen_hypercube(d: int) -> Graph:
    if d < 1:
        raise GraphError("hypercube needs d >= 1")
    n = 1 << d
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]
    return Graph(n, edges)


def gen_er(n: int, p: float, seed=0) -> Graph:
    if n < 1 or not (0.0 <= p <= 1.0):
        raise GraphError("er needs n >= 1 and p in [0, 1]")
    rng = _rng(seed, "er", n, p)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def gen_barbell(k: int, bridges: int = 1) -> Graph:
    """Two K_k cliques joined by `bridges` disjoint bridge edges."""
    if k < 2 or bridges < 1 or bridges > k:
        raise GraphError("barbell needs 2 <= bridges <= k")
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)] if k > 1 else []
    edges += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
    edges += [(i, k + i) for i in range(bridges)]
    return Graph(2 * k, edges)


def gen_planted_cut(n: int, p: float, cross: int, seed=0) -> Graph:
    """Two er(n, p) blocks plus exactly `cross` uniform cross pairs.

    Duplicate cross pairs are resampled so the budget is exact.
    """
    if n < 1 or cross < 0 or cross > n * n:
        raise GraphError("planted_cut needs n >= 1 and 0 <= cross <= n^2")
    rng = _rng(seed, "planted", n, p, cross)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    edges += [
        (n + i, n + j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    chosen = set()
    while len(chosen) < cross:
        u = rng.randrange(n)
        v = n + rng.randrange(n)
        if (u, v) not in chosen:
            chosen.add((u, v))
    return Graph(2 * n, edges + sorted(chosen))


def gen_caterpillar(blobs: int, blob_size: int) -> Graph:
    """Path of `blobs` cliques K_blob_size, consecutive blobs joined by one edge.

    Dedicated long-diameter generator for the high-diameter cut tests.
    """
    if blobs < 2 or blob_size < 2:
        raise GraphError("caterpillar needs blobs >= 2 and blob_size >= 2")
    edges = []
    for b in range(blobs):
        base = b * blob_size
        edges += [
            (base + i, base + j)
            for i in range(blob_size)
            for j in range(i + 1, blob_size)
        ]
        if b + 1 < blobs:
            edges.append((base + blob_size - 1, base + blob_size))
    return Graph(blobs * blob_size, edges)


# The parameters each generator takes; generate rejects any other.
_GENERATORS = {
    "clique": ("n",),
    "cycle": ("n",),
    "path": ("n",),
    "star": ("n",),
    "hypercube": ("d",),
    "er": ("n", "p"),
    "barbell": ("k", "bridges"),
    "planted_cut": ("n", "p", "cross"),
    "caterpillar": ("blobs", "blob_size"),
}


def parse_generator_spec(text: str) -> Tuple[str, dict]:
    """Parse 'name:k=v,k=v' generator specs as used by the CLI."""
    name, _, rest = text.partition(":")
    name = name.strip()
    if name not in _GENERATORS:
        raise GraphError(f"unknown generator '{name}'")
    params = {}
    if rest.strip():
        for item in rest.split(","):
            k, _, v = item.partition("=")
            k = k.strip()
            v = v.strip()
            if not k or not v:
                raise GraphError(f"malformed generator parameter '{item}'")
            try:
                params[k] = float(v) if ("." in v or "e" in v.lower()) else int(v)
            except ValueError:
                raise GraphError(f"parameter '{item}' is not a number") from None
    return name, params


def _count(params: dict, key: str, default=None) -> int:
    """A generator count as an int; a fractional value is a GraphError."""
    v = params[key] if default is None else params.get(key, default)
    if isinstance(v, float) and not v.is_integer():
        raise GraphError(f"parameter '{key}' must be a whole number, got {v}")
    return int(v)


def generate(spec, seed=0, **params) -> Graph:
    """Build a named test graph deterministically from (spec, seed).

    `spec` is either a 'name:k=v,...' string or a generator name with params
    passed as keywords. A parameter the generator does not take is a
    GraphError.
    """
    if isinstance(spec, str) and (":" in spec or not params):
        name, parsed = parse_generator_spec(spec)
        parsed.update(params)
        params = parsed
    else:
        name = spec
    if name not in _GENERATORS:
        raise GraphError(f"unknown generator '{name}'")
    for key in params:
        if key not in _GENERATORS[name]:
            raise GraphError(f"generator '{name}' takes no parameter '{key}'")
    if name == "clique":
        return gen_clique(_count(params, "n"))
    if name == "cycle":
        return gen_cycle(_count(params, "n"))
    if name == "path":
        return gen_path(_count(params, "n"))
    if name == "star":
        return gen_star(_count(params, "n"))
    if name == "hypercube":
        return gen_hypercube(_count(params, "d"))
    if name == "er":
        return gen_er(_count(params, "n"), float(params["p"]), seed)
    if name == "barbell":
        return gen_barbell(_count(params, "k"), _count(params, "bridges", 1))
    if name == "planted_cut":
        return gen_planted_cut(
            _count(params, "n"), float(params["p"]), _count(params, "cross"), seed
        )
    return gen_caterpillar(_count(params, "blobs"), _count(params, "blob_size"))


# ---------------------------------------------------------------------------
# edge-list text format
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the 'u v' per line edge-list format; '#' starts a comment.

    Self-loops and duplicate edges are rejected with their line numbers.
    """
    edges: List[Edge] = []
    seen: Dict[Edge, int] = {}
    max_v = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got '{raw.strip()}'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer vertex id")
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex id")
        if u == v:
            raise GraphError(f"line {lineno}: self-loop at vertex {u}")
        k = edge_key(u, v)
        if k in seen:
            raise GraphError(
                f"line {lineno}: duplicate of edge {k} first seen on line {seen[k]}"
            )
        seen[k] = lineno
        edges.append(k)
        max_v = max(max_v, u, v)
    return Graph(max_v + 1 if edges else 0, edges)


def load_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {g.n} vertices, {g.m} edges\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")
