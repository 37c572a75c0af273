"""Graph core: immutable graphs, exact cut/conductance arithmetic, walk
matrices, mixing times, generators, and the brute-force oracles the rest of
the package is tested against.

Cut quantities (volume, boundary, conductance) are exact integer/rational;
walk distributions are float64 with a documented 1e-12 comparison slack.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import math
import operator
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

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


MAX_VERTICES = 1 << 20  # larger vertex counts are refused before any allocation


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Its one representation is the canonical CSR arrays, built here once:
    vertex v's neighbours are `indices[indptr[v]:indptr[v + 1]]`, ascending.
    `deg`, `edges()` and the edge array are read off the same arrays.
    """

    __slots__ = ("n", "m", "deg", "indptr", "indices")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        if n > MAX_VERTICES:
            raise GraphError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
        self._set_arcs(n, _sorted_arcs(edges, n))

    @classmethod
    def _from_arcs(cls, n: int, arcs: np.ndarray) -> "Graph":
        """The graph on n <= MAX_VERTICES vertices whose arcs `_arcs`
        returned: already checked, so nothing is checked again."""
        g = cls.__new__(cls)
        g._set_arcs(n, arcs)
        return g

    def _set_arcs(self, n: int, arcs: np.ndarray) -> None:
        idx = np.int32 if len(arcs) < 2 ** 31 else np.int64
        # arc u -> v is the key u * n + v, so row u spans keys [u * n, u * n + n)
        self.indptr = np.searchsorted(arcs, np.arange(n + 1) * n).astype(idx)
        self.indices = (arcs % n).astype(idx)
        self.indptr.flags.writeable = self.indices.flags.writeable = False
        self.n = n
        self.m = len(arcs) // 2
        self.deg: Tuple[int, ...] = tuple(np.diff(self.indptr).tolist())

    def _edge_array(self) -> np.ndarray:
        """Canonical edges as a (m, 2) array, u < v, in sorted order."""
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        keep = src < self.indices
        return np.column_stack((src[keep], self.indices[keep]))

    def edges(self) -> Iterator[Edge]:
        """Canonical edges, u < v, in sorted order."""
        ids = _id_objects(self.n)
        u, v = self._edge_array().T
        return zip(ids[u].tolist(), ids[v].tolist())

    def edge_list(self) -> List[Edge]:
        return list(self.edges())

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, m={self.m})"


def _id_objects(n: int) -> np.ndarray:
    """Object array of the ints 0..n-1: indexing it and calling tolist()
    hands out one shared int per vertex rather than a new one per entry."""
    return np.arange(n).astype(object)


def _pair_array(rows) -> Optional[np.ndarray]:
    """rows as a (k, 2) int64 array, or None unless numpy reads them as one
    array of integer pairs. uint64 ids past int64 wrap to negatives."""
    if not len(rows):
        return np.empty((0, 2), dtype=np.int64)
    try:
        arr = np.asarray(rows)
    except ValueError:  # rows of unequal length
        return None
    if arr.dtype.kind not in "biu" or arr.shape[1:] != (2,):
        return None
    return arr.astype(np.int64)


def _lo_hi(pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The smaller and the larger end of each (k, 2) row, read by column:
    numpy reduces a width-2 axis many times slower than it combines the
    two columns."""
    u, v = pairs[:, 0], pairs[:, 1]
    return np.minimum(u, v), np.maximum(u, v)


def _sorted_arcs(edges: Iterable[Edge], n: int) -> np.ndarray:
    """Sorted arc keys u * n + v, both directions of every edge, of edges
    checked to form a simple graph on n.

    Edges pass only as one integer array of in-range, loop-free pairs
    whose sorted arcs are distinct: with lo < hi, an edge repeats exactly
    when its arcs do. Otherwise `_first_fault` reads the rows again in
    input order and raises for the first faulty one.
    """
    rows = edges if isinstance(edges, (list, tuple, np.ndarray)) else list(edges)
    arr = _pair_array(rows)
    arcs = None if arr is None else _arcs(arr, n)
    if arcs is None:
        raise _first_fault(rows, n)
    return arcs


def _arcs(pairs: np.ndarray, n: int) -> Optional[np.ndarray]:
    """The sorted arc keys of (k, 2) int64 pairs, or None unless they are
    in range, loop-free and distinct as edges."""
    lo, hi = _lo_hi(pairs)
    if (lo >= 0).all() and (lo < hi).all() and (hi < n).all():
        arcs = np.sort(np.concatenate((lo * n + hi, hi * n + lo)))
        if (arcs[1:] > arcs[:-1]).all():
            return arcs
    return None


def _first_fault(rows, n: int) -> GraphError:
    """The GraphError for the first row that is not a pair of integer ids
    in range, with distinct ends, and unlike every row before it."""
    seen = set()
    for row in rows:
        try:
            u, v = row
            u, v = operator.index(u), operator.index(v)
        except (TypeError, ValueError):
            return GraphError(f"edge {row!r} is not a pair of integer vertex ids")
        if not (0 <= u < n and 0 <= v < n):
            return GraphError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            return GraphError(f"self-loop at vertex {u}")
        k = edge_key(u, v)
        if k in seen:
            return GraphError(f"duplicate edge {k}")
        seen.add(k)
    # each row is sound, but their id types do not share one integer dtype
    return GraphError("edge ids are not all of one integer type")


def as_vertex_set(s: Iterable[int]) -> frozenset:
    return s if isinstance(s, frozenset) else frozenset(s)


def _require_vertices(g: "Graph", ids) -> None:
    """Refuse ids, of any shape, outside 0..g.n-1 with a GraphError."""
    ids = np.asarray(ids)
    out = ids[(ids < 0) | (ids >= g.n)]
    if out.size:
        raise GraphError(f"vertex {out[0]} is not in 0..{g.n - 1}")


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


def _side_mask(g: Graph, ss: frozenset) -> np.ndarray:
    """Boolean mask of the vertex set ss over 0..n-1."""
    ids = list(ss)
    _require_vertices(g, ids)
    mask = np.zeros(g.n, dtype=bool)
    mask[ids] = True
    return mask


def _crossing(g: Graph, mask: np.ndarray) -> np.ndarray:
    """Rows of g's edge array with exactly one end inside the mask."""
    e = g._edge_array()
    return e[mask[e[:, 0]] != mask[e[:, 1]]]


def volume(g: Graph, s: Iterable[int]) -> int:
    """Sum of degrees of s in g; degrees always w.r.t. the graph passed in."""
    return int(np.diff(g.indptr)[_side_mask(g, as_vertex_set(s))].sum())


def boundary(g: Graph, s: Iterable[int]) -> List[Edge]:
    """Edges of g with exactly one endpoint in s, in canonical sorted order."""
    return list(map(tuple, _crossing(g, _side_mask(g, as_vertex_set(s))).tolist()))


def conductance(g: Graph, s: Iterable[int]) -> Cut:
    """Exact rational conductance of the cut (s, complement)."""
    ss = as_vertex_set(s)
    if not ss or len(ss) >= g.n:
        raise GraphError("empty side: conductance needs a nonempty proper subset")
    vol_s = volume(g, ss)
    vol_c = 2 * g.m - vol_s
    b = len(_crossing(g, _side_mask(g, ss)))
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
    """0/1 adjacency matrix over g's own CSR arrays."""
    return sparse.csr_matrix(
        (np.ones(len(g.indices)), g.indices, g.indptr), shape=(g.n, g.n)
    )


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


# The spectral values of one CLI run, by (function, n, m, CSR digest);
# None outside `_spectral_memo`, where nothing is kept.
_SPECTRAL: contextvars.ContextVar[Optional[dict]] = contextvars.ContextVar(
    "spectral", default=None
)


@contextlib.contextmanager
def _spectral_memo():
    """Keep each `lambda2_normalized` and `mixing_time_exact` value while
    the block runs, so that a graph whose CSR arrays equal an earlier one's
    byte for byte gets the value computed for it. Both functions are
    deterministic, so a kept value is the float or int a new solve would
    return. Nothing outlives the block: a value is kept for one run of one
    seed, never from one call to the next."""
    token = _SPECTRAL.set({})
    try:
        yield
    finally:
        _SPECTRAL.reset(token)


def _memoized(name: str, compute, g: Graph):
    """compute(g), or inside `_spectral_memo` the value it gave for a graph
    of the same n, m and CSR content. A raised error is not kept."""
    memo = _SPECTRAL.get()
    if memo is None:
        return compute(g)
    # Graph keeps canonical CSR, so equal edge sets give equal bytes
    digest = hashlib.blake2b(g.indptr.tobytes(), digest_size=16)
    digest.update(g.indices.tobytes())
    key = (name, g.n, g.m, digest.digest())
    if key not in memo:
        memo[key] = compute(g)
    return memo[key]


# lambda2 is used only with this margin: the bounds below widen by it,
# and the Lanczos solve stops once its error is below half of it.
LAMBDA2_MARGIN = 1e-9
# Largest graph whose lambda2 comes from a dense eigvalsh solve, the
# measured crossover with the Lanczos solve on random, planted-cut and
# caterpillar pieces.
LAMBDA2_DENSE_LIMIT = 400


def lambda2_normalized(g: Graph) -> float:
    """Second-smallest eigenvalue of the normalized Laplacian L, to within
    LAMBDA2_MARGIN / 2.

    Inside `_spectral_memo` (one CLI run), a graph with the CSR content of
    an earlier one gets the value computed for that one.

    Dense solve up to LAMBDA2_DENSE_LIMIT vertices. Above that, a
    disconnected graph gets its exact 0, and a connected one runs Lanczos
    on L with its known null vector u = D^1/2 1 / |D^1/2 1| deflated:
    x -> L x + 2 u (u.x) moves u's eigenvalue from 0 to 2, the top of L's
    spectrum, so the smallest eigenvalue left is lambda2 (Saad, Numerical
    Methods for Large Eigenvalue Problems, 2nd ed., ch. 4). The start
    vector is a seeded random one with its u component removed, so
    results stay deterministic run to run; a constant start would be u
    itself on a regular graph. ARPACK stops once the Ritz pair's residual
    is at most tol * |theta|, which bounds the eigenvalue's error; with
    |theta| <= 2, tol = LAMBDA2_MARGIN / 4 keeps it within half the
    margin. Should Lanczos stall, shift-invert about a point just below
    zero takes the two smallest eigenvalues of L itself.
    """
    return _memoized("lambda2", _lambda2, g)


def _lambda2(g: Graph) -> float:
    if g.n < 2:
        return 0.0
    lap = normalized_laplacian(g)
    if g.n <= LAMBDA2_DENSE_LIMIT:
        vals = np.linalg.eigvalsh(lap.toarray())
        return float(vals[1])
    if len(connected_components(g)) > 1:
        return 0.0
    import scipy.sparse.linalg as spla

    u = np.sqrt(np.asarray(g.deg, dtype=float))
    u /= np.linalg.norm(u)

    def deflated(x: np.ndarray) -> np.ndarray:
        x = x.ravel()
        return lap @ x + (2.0 * (u @ x)) * u

    v0 = np.random.default_rng(0).standard_normal(g.n)
    v0 -= (u @ v0) * u
    op = spla.LinearOperator((g.n, g.n), matvec=deflated, dtype=float)
    try:
        vals = spla.eigsh(
            op, k=1, which="SA", v0=v0, tol=LAMBDA2_MARGIN / 4, return_eigenvectors=False
        )
        return float(vals[0])
    except spla.ArpackError:
        # Plain Lanczos stalls when the spectral gap is tiny; shift-invert
        # about a point just below zero converges on the smallest pair.
        v0 = np.full(g.n, 1.0 / math.sqrt(g.n))
        vals = spla.eigsh(
            lap, k=2, sigma=-0.01, which="LM", v0=v0, return_eigenvectors=False
        )
    return float(sorted(vals)[1])


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def bfs_levels(g: Graph, root: int) -> np.ndarray:
    """BFS level per vertex as an int64 array, -1 where the wave never arrives.

    The wave is a frontier over g's CSR rows; each new frontier is a mask
    of the fresh heads of the frontier's arcs, read off in ascending order.
    """
    if not 0 <= root < g.n:
        raise GraphError(f"root {root} is not a vertex of the graph (n={g.n})")
    reached = np.zeros(g.n, dtype=bool)
    reached[root] = True
    levels = np.full(g.n, -1, dtype=np.int64)
    levels[root] = 0
    frontier, d = np.array([root]), 0
    while len(frontier):
        d += 1
        starts = g.indptr[frontier]
        degs = g.indptr[frontier + 1] - starts
        arcs = np.repeat(starts - np.cumsum(degs) + degs, degs) + np.arange(degs.sum())
        fresh = np.zeros(g.n, dtype=bool)
        fresh[g.indices[arcs]] = True
        frontier = np.flatnonzero(fresh & ~reached)
        reached[frontier] = True
        levels[frontier] = d
    return levels


MIXING_STEP_CAP = 5_000_000  # safety valve; Definition-1 scans never get near it
EXACT_MIXING_LIMIT = 2000  # largest graph whose mixing time is computed exactly


def mixing_time_exact(g: Graph) -> int:
    """Minimum t with |p_t^s(v) - pi(v)| <= pi(v)/n for all s, v.

    Requires a connected graph with an edge and n <= EXACT_MIXING_LIMIT.
    The test holds at every t from the mixing time on: for a reversible
    walk, p_(t+1)^s / pi is an average of p_t^s / pi. So the first t is
    found between the spectral bounds t_low and t_spec at g's lambda2, by
    binary lifting over the dense lazy walk matrix's squares T^(2^k):
    O(log t) products of n x n matrices, which hold O(log t) of them.
    Each end of the bracket is tested too, and an end that fails widens
    it, so a wrong lambda2 costs products but cannot change t. The answer
    t is one whose T^t passes and whose T^(t-1) fails.
    Inside `_spectral_memo` (one CLI run), a graph with the CSR content of
    an earlier one gets the value computed for that one; a refusal is
    raised again each time.
    """
    return _memoized("mixing", _mixing_time, g)


def _mixing_time(g: Graph) -> int:
    if g.n > EXACT_MIXING_LIMIT:
        raise GraphError(f"exact mixing time limited to n <= {EXACT_MIXING_LIMIT}")
    if g.m == 0:
        raise GraphError("infinite mixing time: graph has no edges")
    if not is_connected(g):
        raise GraphError("infinite mixing time: graph is disconnected")
    pi = np.array(g.deg, dtype=np.float64) / (2.0 * g.m)
    tol = pi / g.n

    def mixed(power: np.ndarray) -> bool:
        return bool(np.all(np.abs(power - pi[:, None]).max(axis=1) <= tol))

    squares = [lazy_walk_operator(g).toarray()]  # squares[k] is T^(2^k)

    def times(k: int, power: Optional[np.ndarray]) -> np.ndarray:
        """T^(2^k) @ power, where None stands for T^0 = I."""
        while len(squares) <= k:
            squares.append(squares[-1] @ squares[-1])
        return squares[k] if power is None else squares[k] @ power

    cap = min(max(1000, 40 * g.n * g.n), MIXING_STEP_CAP)
    lam2 = lambda2_normalized(g)
    # T^t fails below t_low and passes from t_spec on, unless lambda2 is
    # off by more than its margin. The lift starts from the largest power
    # of two below t_low, whose power is a square; T^0 fails on any edge.
    hi = min(mixing_time_bound(g, lam2), cap)
    j = (min(mixing_time_lower_bound(g, lam2), hi) - 1).bit_length() - 1
    lo, low = (1 << j, times(j, None)) if j >= 0 else (0, None)
    if low is not None and mixed(low):
        lo, low = 0, None
    while True:
        # Lift lo to the last failing t below hi. After step k, T^(lo+2^k)
        # has passed or lo + 2^k >= hi, so lo + 1 < hi has passed.
        for k in reversed(range((hi - lo - 1).bit_length())):
            if lo + (1 << k) < hi:
                step = times(k, low)
                if not mixed(step):
                    lo, low = lo + (1 << k), step
        if lo + 1 < hi:
            return lo + 1
        top = times(0, low)
        if mixed(top):
            return hi
        if hi == cap:
            raise GraphError(f"mixing time exceeded step cap {cap}")
        lo, low, hi = hi, top, min(2 * hi, cap)


def _rate(lam: float) -> float:
    """-ln(1 - lam/2), the decay rate of the lazy walk's slowest mode at
    normalized-Laplacian eigenvalue lam; finite even where 1 - lam/2 <= 0."""
    return -math.log(max(1.0 - lam / 2.0, sys.float_info.min))


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
    return math.ceil(math.log(g.n / pi_min) / _rate(lam))


def mixing_time_lower_bound(g: Graph, lam2: float) -> int:
    """Spectral lower bound on `mixing_time_exact(g)` from lambda2.

    Take a right eigenvector f of the lazy walk P with eigenvalue
    1 - lam2/2 and s with |f(s)| largest. As f has pi-mean 0,
    (1 - lam2/2)^t f(s) = sum_v (P^t(s, v) - pi(v)) f(v), which
    Definition 1 bounds by |f(s)|/n. So the mixing time is at least
    ceil(ln n / -ln(1 - lam/2)) (Levin, Peres and Wilmer, Markov Chains
    and Mixing Times, Thm 12.5), with lam = lam2 + LAMBDA2_MARGIN.
    """
    return math.ceil(math.log(g.n) / _rate(lam2 + LAMBDA2_MARGIN))


# ---------------------------------------------------------------------------
# orientations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrientationReport:
    ok: bool
    violations: Tuple[str, ...]
    max_out_degree: int


def _exact_ints(values) -> np.ndarray:
    """values as an int64 array, or as one of Python ints when an id does
    not fit int64; unlike `_pair_array`, it never wraps an id."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)


def _labeled_rows(parts) -> Tuple[np.ndarray, np.ndarray]:
    """The (k, 2) rows of a label -> rows map stacked in its order, with
    the label of each row."""
    rows = [_exact_ints(p).reshape(-1, 2) for p in parts.values()]
    labels = _exact_ints(list(parts)).repeat([len(r) for r in rows])
    return np.concatenate([np.empty((0, 2), dtype=np.int64)] + rows), labels


def _members(keys: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Mask of the entries of cand, of any shape, that occur in the sorted
    array keys."""
    if not len(keys):
        return np.zeros(np.shape(cand), dtype=bool)
    at = np.searchsorted(keys, cand)
    at[at == len(keys)] = 0
    return keys[at] == cand


def verify_orientation(
    g: Graph, owned: Dict[int, np.ndarray], cap: float
) -> OrientationReport:
    """Check the arboricity witness: per-owner cap and global acyclicity.

    owned maps each owner to the (k, 2) rows of the edges oriented away
    from it. Each listed edge must touch its owner, exist in g and have no
    second owner. Owners are read in ascending order, each one's rows in
    their order, and so are the violations; a repeat names the previous
    owner. Violations are reported, not raised, so tampered inputs stay
    inspectable.
    """
    owners = sorted(owned)
    rows, tails = _labeled_rows({v: owned[v] for v in owners})
    sizes = [len(owned[v]) for v in owners]
    at_u = rows[:, 0] == tails
    incident = at_u | (rows[:, 1] == tails)
    # membership: ids in range first, then the keys lo * n + hi among g's
    # sorted ones
    lo, hi = _lo_hi(rows)
    in_graph = (lo >= 0) & (hi < g.n)
    if in_graph.any():
        keys = lo[in_graph].astype(np.int64) * g.n + hi[in_graph].astype(np.int64)
        g_edges = g._edge_array()
        in_graph[in_graph] = _members(g_edges[:, 0] * g.n + g_edges[:, 1], keys)
    # rank the ids, so that rows with ids past int64 key like the others
    ids, ranked = _rank(rows.ravel())
    u, w = ranked[0::2], ranked[1::2]
    key = u * len(ids) + w
    listed = np.flatnonzero(incident)
    listed = listed[np.argsort(key[listed], kind="stable")]
    again = key[listed[1:]] == key[listed[:-1]]
    previous = dict(zip(listed[1:][again].tolist(), tails[listed[:-1][again]].tolist()))

    events = []  # ((row position, 0 for the cap or 1), violation)
    start = 0
    for v, size in zip(owners, sizes):
        if size > cap:
            events.append(((start, 0), f"vertex {v} owns {size} edges, cap {cap:g}"))
        start += size
    for r in sorted(set(np.flatnonzero(~incident | ~in_graph).tolist()) | set(previous)):
        e, v = tuple(rows[r].tolist()), tails[r]
        if not incident[r]:
            events.append(((r, 1), f"edge {e} not incident to owner {v}"))
            continue
        if not in_graph[r]:
            events.append(((r, 1), f"edge {e} not in graph"))
        if r in previous:
            events.append(((r, 1), f"edge {e} owned by both {previous[r]} and {v}"))
    violations = [msg for _, msg in sorted(events, key=lambda ev: ev[0])]

    # owner -> other end arcs; a row (v, v) is a loop csgraph does not see
    src, dst = np.where(at_u, u, w)[incident], np.where(at_u, w, u)[incident]
    if len(src):
        arcs = sparse.csr_matrix((np.ones(len(src)), (src, dst)), shape=(len(ids),) * 2)
        count, _ = csgraph.connected_components(arcs, directed=True, connection="strong")
        if count < len(ids) or (src == dst).any():
            violations.append("orientation contains a directed cycle")
    return OrientationReport(not violations, tuple(violations), max(sizes, default=0))


# ---------------------------------------------------------------------------
# subgraph extraction
# ---------------------------------------------------------------------------


def _edge_keys(edges, n: int) -> np.ndarray:
    """The sorted, distinct keys lo * n + hi of the edges, ids below n."""
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo, hi = _lo_hi(pairs)
    keys = np.sort(lo * n + hi)
    return keys[np.diff(keys, prepend=-1) > 0]  # keys are nonnegative


# Ids are ranked through a table over 0..max when max is below this
# multiple of their count, and by sorting otherwise.
_RANK_TABLE_FACTOR = 4


def _rank(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted distinct entries of a 1-D int array and the rank of each
    entry among them, as `np.unique(values, return_inverse=True)` gives.
    Nonnegative ids whose largest is below `_RANK_TABLE_FACTOR` times
    their count are ranked without sorting: a boolean table marks the ids
    present and its cumsum counts the ones below each."""
    if values.dtype.kind in "iu" and len(values) and values.min() >= 0:
        top = int(values.max())
        if top < _RANK_TABLE_FACTOR * len(values):
            present = np.zeros(top + 1, dtype=bool)
            present[values] = True
            return np.flatnonzero(present), (np.cumsum(present) - 1)[values]
    return np.unique(values, return_inverse=True)


def _relabel(pairs: np.ndarray, extra: Iterable[int] = ()) -> Tuple[Graph, np.ndarray]:
    """The graph on the ids in the (k, 2) array `pairs` and in `extra`, each
    renamed to its rank among them (`_rank`: a table lookup for ids that
    fill most of 0..max, a sort otherwise); returns it with the sorted
    ids. A pair listed twice, in either orientation, is one edge.
    """
    ends = np.concatenate((pairs.ravel(), np.asarray(extra, dtype=np.int64)))
    ids, pos = _rank(ends)
    keys = _edge_keys(pos[: pairs.size], len(ids))
    return Graph(len(ids), np.column_stack(np.divmod(keys, len(ids)))), ids


def _split_by(labels: np.ndarray, count: int, items: np.ndarray) -> List[np.ndarray]:
    """items grouped by their labels 0..count-1, each group in input order."""
    bounds = np.cumsum(np.bincount(labels, minlength=count))[:-1]
    return np.split(items[np.argsort(labels, kind="stable")], bounds) if count else []


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Tuple[Graph, List[int]]:
    """Induced subgraph with a monotone relabeling; returns (graph, old ids).

    Graphs are immutable, so when `vertices` is exactly 0..n-1 the graph
    itself comes back instead of a copy. An id outside 0..n-1 is refused.
    """
    old = sorted(as_vertex_set(vertices))
    _require_vertices(g, old)
    if len(old) == g.n:
        return g, old
    pairs = g._edge_array()
    inside = np.zeros(g.n, dtype=bool)
    inside[old] = True
    return _relabel(pairs[inside[pairs[:, 0]] & inside[pairs[:, 1]]], old)[0], old


def subgraph_from_edges(edges: Iterable[Edge]) -> Tuple[Graph, List[int]]:
    """Graph on exactly the endpoints of `edges` with a monotone relabeling."""
    rows = edges if isinstance(edges, (list, tuple, np.ndarray)) else list(edges)
    pairs = _pair_array(rows)
    if pairs is None:
        raise GraphError("edges must be pairs of integer vertex ids")
    sub, ids = _relabel(pairs)
    return sub, ids.tolist()


def connected_components(g: Graph) -> List[List[int]]:
    """Components as sorted vertex lists, ordered by minimum vertex.

    csgraph numbers the components in order of their smallest vertex.
    """
    count, labels = csgraph.connected_components(_adjacency(g), directed=False)
    return [c.tolist() for c in _split_by(labels, count, np.arange(g.n))]


def edge_components(edges: Iterable[Edge]) -> List[Tuple[Graph, List[int]]]:
    """Split an edge set into connected components, one graph each.

    Returns (graph, old ids) per component, ordered by smallest vertex, each
    on exactly its component's endpoints with a monotone relabeling. The
    set's graph is built once and labeled by csgraph: a connected set comes
    back as that graph, and each of several components is relabeled from
    the set's edges. An empty set has no components.
    """
    whole, old = subgraph_from_edges(edges)
    count, labels = csgraph.connected_components(_adjacency(whole), directed=False)
    if count == 1:
        return [(whole, old)]
    pairs = whole._edge_array()
    parts = [_relabel(part) for part in _split_by(labels[pairs[:, 0]], count, pairs)]
    return [(sub, np.asarray(old)[ids].tolist()) for sub, ids in parts]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _rng(seed, *scope) -> random.Random:
    tag = ":".join(str(s) for s in (seed,) + scope)
    return random.Random(tag)  # str seeding hashes via sha512, platform-stable


# Vertex pairs drawn per chunk by `_coin_pairs`: 8 MB of doubles at a time.
_PAIR_CHUNK = 1 << 20


def _coin_pairs(rng: random.Random, n: int, p: float) -> np.ndarray:
    """Pairs (i, j), 0 <= i < j < n, each kept when its draw is below p.

    The pairs take rng's doubles in row-major order, as one `rng.random()`
    per pair would: numpy's MT19937 continues rng's stream and builds each
    double from the same two 32-bit words, `_PAIR_CHUNK` pairs at a time.
    rng is handed back where that loop would leave it.
    """
    version, words, gauss = rng.getstate()
    mt = np.random.RandomState(0)  # a fixed seed skips the OS entropy read
    mt.set_state(("MT19937", np.array(words[:-1], dtype=np.uint32), words[-1]))
    rows = np.arange(n + 1)
    before = rows * (2 * n - 1 - rows) // 2  # pairs in the rows above row i
    total = int(before[-1])
    hits = [np.empty(0, dtype=np.int64)]
    for start in range(0, total, _PAIR_CHUNK):
        draws = mt.random_sample(min(_PAIR_CHUNK, total - start))
        hits.append(np.flatnonzero(draws < p) + start)
    keys = np.concatenate(hits)
    i = np.searchsorted(before, keys, side="right") - 1
    _, key, pos = mt.get_state()[:3]
    rng.setstate((version, tuple(key.tolist()) + (int(pos),), gauss))
    return np.column_stack((i, keys - before[i] + i + 1))


def _clique_pairs(k: int, bases) -> np.ndarray:
    """The edges of a K_k on vertices base..base+k-1, for each base."""
    pairs = np.column_stack(np.triu_indices(k, 1))
    return (pairs + np.asarray(bases).reshape(-1, 1, 1)).reshape(-1, 2)


def gen_clique(n: int) -> Graph:
    if n < 1:
        raise GraphError("clique needs n >= 1")
    return Graph(n, _clique_pairs(n, [0]))


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    ids = np.arange(n)
    return Graph(n, np.column_stack((ids, (ids + 1) % n)))


def gen_path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    ids = np.arange(n - 1)
    return Graph(n, np.column_stack((ids, ids + 1)))


def gen_star(n: int) -> Graph:
    """Star on n vertices: center 0, leaves 1..n-1."""
    if n < 2:
        raise GraphError("star needs n >= 2")
    leaves = np.arange(1, n)
    return Graph(n, np.column_stack((np.zeros_like(leaves), leaves)))


def gen_hypercube(d: int) -> Graph:
    if d < 1:
        raise GraphError("hypercube needs d >= 1")
    n = 1 << d
    ids = np.arange(n)
    pairs = []
    for b in range(d):
        low = ids[ids & (1 << b) == 0]  # the ends with bit b clear
        pairs.append(np.column_stack((low, low | (1 << b))))
    return Graph(n, np.concatenate(pairs))


def gen_er(n: int, p: float, seed=0) -> Graph:
    """G(n, p): pair (i, j) is an edge when its `random()` draw, in
    row-major order from `_rng(seed, "er", n, p)`, is below p. The draws
    come in row chunks from the same MT19937 stream (`_coin_pairs`)."""
    if n < 1 or not (0.0 <= p <= 1.0):
        raise GraphError("er needs n >= 1 and p in [0, 1]")
    return Graph(n, _coin_pairs(_rng(seed, "er", n, p), n, p))


def gen_barbell(k: int, bridges: int = 1) -> Graph:
    """Two K_k cliques joined by `bridges` disjoint bridge edges."""
    if k < 2 or bridges < 1 or bridges > k:
        raise GraphError("barbell needs k >= 2 and 1 <= bridges <= k")
    ends = np.arange(bridges)
    bridge = np.column_stack((ends, k + ends))
    return Graph(2 * k, np.concatenate((_clique_pairs(k, [0, k]), bridge)))


def gen_planted_cut(n: int, p: float, cross: int, seed=0) -> Graph:
    """Two er(n, p) blocks plus exactly `cross` uniform cross pairs.

    One stream `_rng(seed, "planted", n, p, cross)` draws block A's pairs,
    then block B's (ids + n), as `gen_er` does, then the cross pairs one
    `randrange` pair at a time. Duplicate cross pairs are resampled so the
    budget is exact.
    """
    if n < 1 or not (0.0 <= p <= 1.0) or cross < 0 or cross > n * n:
        raise GraphError("planted_cut needs n >= 1, p in [0, 1] and 0 <= cross <= n^2")
    rng = _rng(seed, "planted", n, p, cross)
    block_a = _coin_pairs(rng, n, p)
    block_b = _coin_pairs(rng, n, p) + n
    chosen = set()
    while len(chosen) < cross:
        u = rng.randrange(n)
        v = n + rng.randrange(n)
        if (u, v) not in chosen:
            chosen.add((u, v))
    cut = np.array(sorted(chosen), dtype=np.int64).reshape(-1, 2)
    return Graph(2 * n, np.concatenate((block_a, block_b, cut)))


def gen_caterpillar(blobs: int, blob_size: int) -> Graph:
    """Path of `blobs` cliques K_blob_size, consecutive blobs joined by one edge.

    Dedicated long-diameter generator for the high-diameter cut tests.
    """
    if blobs < 2 or blob_size < 2:
        raise GraphError("caterpillar needs blobs >= 2 and blob_size >= 2")
    bases = np.arange(blobs) * blob_size
    joins = np.column_stack((bases[1:] - 1, bases[1:]))
    return Graph(blobs * blob_size, np.concatenate((_clique_pairs(blob_size, bases), joins)))


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
# The parameters a spec may leave out, with their values.
_DEFAULTS = {"barbell": {"bridges": 1}}
# The vertex count each generator builds, from its (count) parameters. A
# hypercube's dimension is capped at 21, already past the limit, so that a
# huge d costs no huge power; negative counts are left to the generator.
_VERTEX_COUNTS = {
    "clique": lambda c: c["n"],
    "cycle": lambda c: c["n"],
    "path": lambda c: c["n"],
    "star": lambda c: c["n"],
    "er": lambda c: c["n"],
    "hypercube": lambda c: 2 ** min(max(c["d"], 0), 21),
    "barbell": lambda c: 2 * c["k"],
    "planted_cut": lambda c: 2 * c["n"],
    "caterpillar": lambda c: max(c["blobs"], 0) * max(c["blob_size"], 0),
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
            if k in params:
                raise GraphError(f"generator parameter '{k}' is given twice")
            try:
                params[k] = float(v) if ("." in v or "e" in v.lower()) else int(v)
            except ValueError:
                raise GraphError(f"parameter '{item}' is not a number") from None
    return name, params


def _count(params: dict, key: str) -> int:
    """A generator count as an int; a fractional value is a GraphError."""
    v = params[key]
    if isinstance(v, float) and not v.is_integer():
        raise GraphError(f"parameter '{key}' must be a whole number, got {v}")
    return int(v)


def generate(spec, seed=0, **params) -> Graph:
    """Build a named test graph deterministically from (spec, seed).

    `spec` is either a 'name:k=v,...' string or a generator name with params
    passed as keywords. A parameter the generator does not take, or one it
    needs and was not given, is a GraphError.
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
    params = {**_DEFAULTS.get(name, {}), **params}
    for key in _GENERATORS[name]:
        if key not in params:
            raise GraphError(f"generator '{name}' needs parameter '{key}'")
    c = {key: _count(params, key) for key in _GENERATORS[name] if key != "p"}
    if _VERTEX_COUNTS[name](c) > MAX_VERTICES:
        raise GraphError(
            f"generator '{name}' would build more than {MAX_VERTICES} vertices"
        )
    if name == "clique":
        return gen_clique(c["n"])
    if name == "cycle":
        return gen_cycle(c["n"])
    if name == "path":
        return gen_path(c["n"])
    if name == "star":
        return gen_star(c["n"])
    if name == "hypercube":
        return gen_hypercube(c["d"])
    if name == "er":
        return gen_er(c["n"], float(params["p"]), seed)
    if name == "barbell":
        return gen_barbell(c["k"], c["bridges"])
    if name == "planted_cut":
        return gen_planted_cut(c["n"], float(params["p"]), c["cross"], seed)
    return gen_caterpillar(c["blobs"], c["blob_size"])


# ---------------------------------------------------------------------------
# edge-list text format
# ---------------------------------------------------------------------------


# Whitespace and line-break code points, read off str.isspace and
# str.splitlines, so that the array parse cuts text where str.split and
# str.splitlines do. The last entry, False, stands for every code point
# above U+3000, the last whitespace character.
_SPACE = np.array([chr(c).isspace() for c in range(0x3002)])
_BREAK = np.array([len(f"a{chr(c)}b".splitlines()) == 2 for c in range(0x3002)])
# The ASCII digits and C's six spaces: text of these alone np.fromstring
# reads as str.split and int() read it, save for the two cases that
# `_id_rows` tests.
_PLAIN = np.zeros(len(_SPACE), dtype=bool)
_PLAIN[list(map(ord, "0123456789 \t\n\v\f\r"))] = True
_INT64_MAX = np.iinfo(np.int64).max
# A comment runs from '#' to the end of its line.
_COMMENT = re.compile("#[^%s]*" % re.escape("".join(map(chr, np.flatnonzero(_BREAK)))))


def _id_rows(text: str) -> Optional[np.ndarray]:
    """The words of comment-free text as a (k, 2) int64 array, or None
    unless every line holds none or two words and each word is an int,
    as int() reads it, that fits int64.

    The words are counted over the text's bytes when it is ASCII, and
    over its UTF-32 code points otherwise. Text of ASCII digits and C
    spaces only is read by one np.fromstring call. Its result stands
    unless it holds fewer or more ids than the text has words
    (whitespace-only text reads as [0]) or holds INT64_MAX, which is also
    what an overflowing id reads as; then, as for any other text,
    `_int_words` reads the words with int().
    """
    if text.isascii():
        at = np.frombuffer(text.encode("ascii"), np.uint8)
    else:
        try:
            codes = np.frombuffer(text.encode("utf-32-le"), np.uint32)
        except UnicodeEncodeError:  # a lone surrogate
            return None
        at = np.minimum(codes, len(_SPACE) - 1)
    space = np.take(_SPACE, at)
    first = ~space  # the first character of each word
    first[1:] &= space[:-1]
    starts = np.flatnonzero(first)
    # the words of each line: those that start between two line breaks
    ends = np.searchsorted(starts, np.flatnonzero(np.take(_BREAK, at)))
    words = np.diff(ends, prepend=0, append=len(starts))
    if ((words != 0) & (words != 2)).any():
        return None
    if np.take(_PLAIN, at).all():
        ids = np.fromstring(text, np.int64, sep=" ")
        if len(ids) == len(starts) and not (ids == _INT64_MAX).any():
            return ids.reshape(-1, 2)
    ids = _int_words(text)
    return None if ids is None else ids.reshape(-1, 2)


def _int_words(text: str) -> Optional[np.ndarray]:
    """The words of text read by int() into an int64 array, or None if a
    word is no int or does not fit int64."""
    tokens = text.split()
    try:
        return np.fromiter(map(int, tokens), np.int64, len(tokens))
    except (ValueError, OverflowError):
        return None


def parse_edge_list(text: str) -> Graph:
    """Parse the 'u v' per line edge-list format; '#' starts a comment.

    A leading "# <n> vertices" line, as `save_edge_list` writes it, sets
    the vertex count, so an isolated top vertex survives; otherwise n is
    the largest id + 1. Well-formed text is read in one array pass and
    checked by `_arcs`, the array check `Graph` makes, whose sorted arcs
    then build the graph. Otherwise `_parse_lines` reads it again line by
    line and names the first faulty line: a self-loop, a duplicate edge
    or an id at or past the header's n is rejected with its line number.
    """
    header = re.match(r"#[ \t]*(\d+) vertices\b", text)
    n = int(header.group(1)) if header else None
    pairs = _id_rows(_COMMENT.sub("", text))
    if pairs is not None:
        size = int(pairs.max(initial=-1)) + 1 if n is None else n
        arcs = _arcs(pairs, size) if size <= MAX_VERTICES else None
        if arcs is not None:
            return Graph._from_arcs(size, arcs)
    return _parse_lines(text, n)


def _parse_lines(text: str, n: Optional[int]) -> Graph:
    """`parse_edge_list` one line at a time: raises for the first faulty
    line, and past every line for a vertex count above the limit."""
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
        if n is not None and max(u, v) >= n:
            raise GraphError(
                f"line {lineno}: vertex id {max(u, v)} is not below"
                f" the header's {n} vertices"
            )
        k = edge_key(u, v)
        if k in seen:
            raise GraphError(
                f"line {lineno}: duplicate of edge {k} first seen on line {seen[k]}"
            )
        seen[k] = lineno
        edges.append(k)
        max_v = max(max_v, u, v)
    if n is None:
        n = max_v + 1 if edges else 0
    return Graph(n, edges)


def _read_utf8(path) -> str:
    """The text of the file at path; bytes that are not UTF-8 are a
    GraphError that names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise GraphError(
                f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
            ) from None


def load_edge_list(path) -> Graph:
    return parse_edge_list(_read_utf8(path))


# Edges formatted per write by `save_edge_list`.
_WRITE_CHUNK = 1 << 16


def save_edge_list(g: Graph, path) -> None:
    """Write g as a "# <n> vertices, <m> edges" header and one "u v" line
    per edge, in sorted order: one %-format per `_WRITE_CHUNK` edges, fed
    the shared ids of `_id_objects` rather than a new int per endpoint."""
    ids, pairs = _id_objects(g.n), g._edge_array()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {g.n} vertices, {g.m} edges\n")
        for start in range(0, len(pairs), _WRITE_CHUNK):
            ends = ids[pairs[start:start + _WRITE_CHUNK]].ravel().tolist()
            fh.write("%d %d\n" * (len(ends) // 2) % tuple(ends))
