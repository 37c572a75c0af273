"""Truncated lazy walks, sweep cuts, and the sampled local-cut search.

The search runs over scale levels b. At each level it samples sources by
degree, pushes truncated lazy walks forward step by step, and sweeps every
live distribution against a geometric ladder of volume targets. The first
prefix whose conductance certifies at or below 12 * phi wins; ordering is
(b, t, sample index, ladder index), so a seed always finds the same cut.
Every search is priced in a Transcript of simulated rounds.

Cost controls, all output-neutral:
  - If half of the spectral gap already exceeds 12 * phi (plus margin), the
    discrete Cheeger bound rules out every qualifying cut, so the search
    reports failure without walking.
  - A source whose distribution reaches a numeric fixed point can never
    produce a new sweep outcome and is retired.
  - A source whose walk at level b never lost mass to truncation behaves
    identically at every later level (smaller eps keeps strictly more), so
    a truncation-free failure is cached and skipped at b+1, b+2, ...
Candidate prefixes are screened with floats and certified with exact
rationals before anything is returned. A search builds its walk operator
once, through `lazy_walk_operator`, and every level walks with it; it
builds its ladder of volume targets once too, and every sweep reads it.
A sweep is array work: it reads the graph's own CSR arrays, every prefix
boundary comes from it in one pass, each prefix finds its first ladder
index with one search of its volume in the ladder, and only the screened
ladder prefixes reach the exact test, in ladder order, so the winner is
the one the sequential scan would pick. A sweep's cost follows its
distribution's support, not the ladder's length.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from .graphcore import (
    Cut,
    Graph,
    GraphError,
    _require_vertices,
    conductance,
    induced_subgraph,
    lambda2_normalized,
    lazy_walk_operator,
    ln_me4,
    log2m,
)
from . import runtime as rt

Distribution = Dict[int, float]

SOURCE_CAP = 512
SAMPLING_C = 4
CONVERGENCE_TOL = 1e-15
FLOAT_SLACK = 1e-9
SCREEN_MARGIN = 1e-6


@dataclass(frozen=True)
class WalkParams:
    """Scale-level walk parameters, recomputed exactly from (phi, m, b)."""

    phi: float
    m: int
    b: int
    t0: int
    eps: float
    k_b: int


def make_walk_params(phi: float, m: int, b: int) -> WalkParams:
    if not 0 < phi <= 1 / 12:
        raise GraphError("phi must lie in (0, 1/12]")
    if m < 1 or b < 1:
        raise GraphError("need m >= 1 and b >= 1")
    log_term = ln_me4(m)
    t0 = math.ceil(49.0 * log_term / (phi * phi))
    eps = phi / (56.0 * log_term * t0 * (2.0 ** b))
    k_b = math.ceil(SAMPLING_C * log2m(m) * (2 * m) / (2.0 ** b))
    return WalkParams(phi=phi, m=m, b=b, t0=t0, eps=eps, k_b=k_b)


# ---------------------------------------------------------------------------
# sweep cuts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPrefix:
    order: Tuple[int, ...]
    j: int
    x: int
    vol: int
    boundary_size: int
    phi: Fraction

    def side(self) -> List[int]:
        return list(self.order[: self.j])


def _ladder_limit(phi: float, total_vol: int) -> int:
    top = (5.0 / 6.0) * total_vol
    if top <= 1.0:
        return 0
    return math.ceil(math.log(top) / math.log(1.0 + phi))


def _ladder(phi: float, total_vol: int) -> np.ndarray:
    """The volume targets (1 + phi)^x for x = 0.._ladder_limit, in order.

    They depend on (phi, total_vol) alone, so a search builds them once.
    """
    return (1.0 + phi) ** np.arange(_ladder_limit(phi, total_vol) + 1)


def _ladder_prefixes(
    vols: np.ndarray, j_max: int, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The prefix lengths j a ladder sweep tries, with each one's ladder index x.

    Target x reaches prefix j when vols[j - 1] <= targets[x], so first[j - 1]
    is j's first index. Target x picks the largest prefix it reaches, capped
    at j_max, so j is picked iff first[j - 1] is on the ladder and, for
    j < j_max, prefix j + 1 needs a later index. These are the (j, x) pairs,
    in ladder order, that a scan over every target picks.
    """
    first = np.searchsorted(targets, vols[:j_max], side="left")
    tried = first < len(targets)
    tried[:-1] &= first[:-1] < first[1:]
    js = np.flatnonzero(tried) + 1
    return js, first[tried]


def _sweep_order(p_vec: np.ndarray, deg: np.ndarray) -> np.ndarray:
    support = np.flatnonzero(p_vec > 0.0)
    rho = p_vec[support] / deg[support].clip(min=1)
    return support[np.lexsort((support, -rho))]


def _boundary_profile(g: Graph, order: np.ndarray) -> np.ndarray:
    """boundary[j - 1] = edges leaving the first j vertices of the order.

    Reads g's CSR arrays. An edge lies inside prefix j exactly when both
    endpoints rank below j, so counting each inside edge at its later
    endpoint's rank gives boundary(j) = vol(j) - 2 * inside(j).
    """
    k = len(order)
    rank = np.full(g.n, k, dtype=np.int64)
    rank[order] = np.arange(k)
    starts = g.indptr[order]
    degs = g.indptr[order + 1] - starts
    total = int(degs.sum())
    # positions of every neighbour of order[0], order[1], ... in g.indices
    offsets = np.repeat(starts - np.cumsum(degs) + degs, degs) + np.arange(total)
    own = np.repeat(np.arange(k), degs)
    later = own[rank[g.indices[offsets]] < own]
    inside = np.cumsum(np.bincount(later, minlength=k))
    return np.cumsum(degs) - 2 * inside


def _sweep_vec(
    g: Graph,
    p_vec: np.ndarray,
    deg: np.ndarray,
    phi: float,
    total_vol: int,
    max_vol: float,
    targets: np.ndarray,
) -> Optional[Tuple[np.ndarray, int, int, int, int, Fraction]]:
    """Ladder sweep over one distribution.

    targets is `_ladder(phi, total_vol)`, built once per search. Returns
    (order, j, x, vol, boundary, exact phi) for the first prefix certified
    at or below 12 * phi by exact arithmetic, else None. Each prefix length
    j is tried once, at the first ladder index x reaching it
    (`_ladder_prefixes`); a float screen picks the candidates and exact
    rationals decide them in ladder order. The cost follows the
    distribution's support, not the ladder's length.
    """
    order = _sweep_order(p_vec, deg)
    if len(order) == 0:
        return None
    vols = np.cumsum(deg[order])
    j_max = int(np.searchsorted(vols, max_vol, side="right"))
    if j_max == 0:
        return None
    js, xs = _ladder_prefixes(vols, j_max, targets)
    vol_j = vols[js - 1]
    small = np.minimum(vol_j, total_vol - vol_j)
    bnd = _boundary_profile(g, order[:j_max])[js - 1]
    screened = np.flatnonzero((small > 0) & (bnd <= (12.0 * phi + FLOAT_SLACK) * small))
    phi_cap = Fraction(12) * Fraction(phi)
    for c in screened:
        phi_exact = Fraction(int(bnd[c]), int(small[c]))
        if phi_exact <= phi_cap:
            return order, int(js[c]), int(xs[c]), int(vol_j[c]), int(bnd[c]), phi_exact
    return None


def sweep_cut(
    g: Graph, p: Distribution, phi: float, max_vol: Optional[float] = None
) -> Optional[SweepPrefix]:
    """Scan ladder volumes over the sorted distribution; certify the winner.

    Vertices are ordered by decreasing mass-to-degree ratio with ties going
    to smaller ids. For each volume target (1 + phi)^x the largest fitting
    prefix is tested; the first with conductance at most 12 * phi wins.
    phi must lie in (0, 1/12], as for the search.
    """
    if not 0 < phi <= 1 / 12:
        raise GraphError("phi must lie in (0, 1/12]")
    if not p:
        raise GraphError("sweep needs a nonempty distribution")
    total_vol = 2 * g.m
    if max_vol is None:
        max_vol = (5.0 / 6.0) * total_vol
    vs = list(p)
    _require_vertices(g, vs)
    p_vec = np.zeros(g.n)
    p_vec[vs] = list(p.values())
    deg = np.array(g.deg, dtype=np.int64)
    hit = _sweep_vec(g, p_vec, deg, phi, total_vol, max_vol, _ladder(phi, total_vol))
    if hit is None:
        return None
    order, j, x, vol_j, bnd, phi_exact = hit
    check = conductance(g, {int(v) for v in order[:j]})
    assert check.phi == phi_exact and check.boundary_size == bnd
    return SweepPrefix(
        order=tuple(int(v) for v in order),
        j=j,
        x=x,
        vol=vol_j,
        boundary_size=bnd,
        phi=phi_exact,
    )


# ---------------------------------------------------------------------------
# degree-proportional sampling
# ---------------------------------------------------------------------------


def sample_by_degree(g: Graph, count: int, seed="0") -> List[int]:
    """Draw count vertices of a component graph with replacement, each by its degree."""
    if not g.m:
        raise GraphError("component has no volume to sample from")
    # The "exact" tag names the fixed-count draw; it seeds every walk.
    rng = random.Random(f"{seed}:sample:exact:{count}")
    return rng.choices(range(g.n), weights=g.deg, k=count)


# ---------------------------------------------------------------------------
# the full search
# ---------------------------------------------------------------------------


@dataclass
class NibbleResult:
    """One search's outcome: "cut" with its certificate, or "failed"."""

    status: str
    cut: Optional[Cut]
    certificate: Optional[Dict[str, object]]
    transcript: rt.Transcript

    @property
    def found(self) -> bool:
        return self.status == "cut"


def _run_walk_level(
    sub: Graph,
    t_mat: sparse.csr_matrix,
    sources: List[int],
    params: WalkParams,
    weights: Optional[List[int]] = None,
    sweep_cb=None,
):
    """Advance all source walks at one level until a win or retirement.

    t_mat is `lazy_walk_operator(sub)`, built once per search. Sources
    must be distinct; weights carry sampling multiplicities for the
    congestion count (duplicate walks are identical, so they are advanced
    once and weighted). Returns (winner, trunc_free, max_cong, steps_run);
    winner is (t, column index, sweep hit) or None.
    sweep_cb(t, i, column) is asked for live columns in order; its first
    non-None return wins.
    """
    n = sub.n
    k = len(sources)
    deg = np.array(sub.deg, dtype=np.int64)
    thresh = 2.0 * params.eps * deg
    w = np.ones(k) if weights is None else np.array(weights, dtype=float)

    p = np.zeros((n, k))
    for i, s in enumerate(sources):
        if 1.0 >= thresh[s]:
            p[s, i] = 1.0
    active = p.sum(axis=0) > 0.0
    trunc_free = active.copy()  # a start truncated away already lost mass
    max_cong = int(((p > 0.0) @ w).max()) if k else 0
    steps = 0

    for t in range(1, params.t0 + 1):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        prev = p[:, idx]
        stepped = t_mat @ prev
        dropped = (stepped > 0.0) & (stepped < thresh[:, None])
        if dropped.any():
            trunc_free[idx[dropped.any(axis=0)]] = False
            stepped = np.where(dropped, 0.0, stepped)
        p[:, idx] = stepped
        steps = t
        max_cong = max(max_cong, int(((p > 0.0) @ w).max()))

        if sweep_cb is not None:
            for col, i in enumerate(idx):
                hit = sweep_cb(t, int(i), stepped[:, col])
                if hit is not None:
                    return (t, int(i), hit), trunc_free, max_cong, steps

        same_support = ~((stepped > 0.0) ^ (prev > 0.0)).any(axis=0)
        tiny_move = np.abs(stepped - prev).max(axis=0) <= CONVERGENCE_TOL
        dead = stepped.sum(axis=0) <= 0.0
        retire = (same_support & tiny_move) | dead
        if retire.any():
            active[idx[retire]] = False
    return None, trunc_free, max_cong, steps


def _announce_rounds(depth: int, support: int, j: int, rng: random.Random) -> int:
    """Rounds to publish the winning prefix threshold across the component.

    Randomized rank search over the distinct ratio values: each probe is a
    broadcast down and a count up the tree, then one final broadcast.
    """
    per_probe = 2 * max(depth, 1)
    lo, hi = 1, max(support, 1)
    rounds = 0
    while lo < hi:
        pivot = rng.randint(lo, hi)
        rounds += per_probe
        if pivot >= j:
            hi = pivot
        else:
            lo = pivot + 1
    return rounds + max(depth, 1)


def distributed_nibble(
    g: Graph,
    component: Sequence[int],
    phi: float,
    seed=0,
) -> NibbleResult:
    """Search one component for a cut with conductance at most 12 * phi.

    Returns status "cut" with a certified Cut (vertex ids of g, conductance
    measured inside the component), or "failed" when the spectral screen
    rules every cut out or every level is exhausted. Each level samples at
    most SOURCE_CAP sources. The search runs on g itself when the component
    is all of it, and on an induced copy otherwise; one BFS build over that
    graph prices the sampling tree and refuses members that do not induce a
    connected graph with a CongestError, naming vertices by g's ids. The
    result's Transcript prices the run: sampling and the winner
    announcement cost tree traversals, and each walk step costs the
    measured maximum number of walks crowding one vertex.
    """
    if not 0 < phi <= 1 / 12:
        raise GraphError("phi must lie in (0, 1/12]")
    sub, old_ids = induced_subgraph(g, component)
    m = sub.m
    transcript = rt.Transcript(seed=seed)

    def finish(status: str, cut=None, cert=None) -> NibbleResult:
        return NibbleResult(status, cut, cert, transcript)

    if m == 0:
        return finish("failed")

    try:
        lam2 = lambda2_normalized(sub)
    except Exception:
        # The screen only ever skips work; a solver failure must not abort
        # the search itself.
        lam2 = 0.0
    if lam2 / 2.0 > 12.0 * phi + SCREEN_MARGIN:
        # Cheeger: every cut in this component has conductance >= lam2 / 2
        transcript.charge("nibble:screen", 0)
        return finish("failed")

    _, rounds = rt.bfs_build(sub, old_ids)
    depth = rounds - 1
    transcript.charge("nibble:sample", rounds)

    b_top = math.ceil(log2m(m)) if m >= 2 else 0
    total_vol = 2 * m
    max_vol = (5.0 / 6.0) * total_vol
    deg = np.array(sub.deg, dtype=np.int64)
    targets = _ladder(phi, total_vol)
    t_mat = lazy_walk_operator(sub)
    failed_cache: set = set()

    for b in range(1, b_top + 1):
        params = make_walk_params(phi, m, b)
        k_b = min(params.k_b, SOURCE_CAP)
        sampled = sample_by_degree(sub, k_b, seed=f"{seed}:{b}")
        transcript.charge("nibble:sample", depth + math.ceil(log2m(m)))

        # each distinct source once, in first-drawn order, weighted by its draws
        drawn = Counter(s for s in sampled if s not in failed_cache)
        if not drawn:
            continue
        fresh, weights = list(drawn), list(drawn.values())

        def on_sweep(t, i, col):
            return _sweep_vec(sub, col, deg, phi, total_vol, max_vol, targets)

        winner, trunc_free, max_cong, steps = _run_walk_level(
            sub, t_mat, fresh, params, weights, sweep_cb=on_sweep
        )
        transcript.charge("nibble:walk", max_cong * steps)

        if winner is not None:
            t, i, (order, j, x, vol_j, bnd, phi_exact) = winner
            side = sorted(int(old_ids[v]) for v in order[:j])
            cut = Cut(
                side=frozenset(side),
                boundary_size=bnd,
                vol_side=vol_j,
                vol_complement=total_vol - vol_j,
                phi=phi_exact,
            )
            assert cut.phi <= Fraction(12) * Fraction(phi)
            rng = random.Random(f"{seed}:announce:{b}")
            transcript.charge(
                "nibble:announce", _announce_rounds(depth, len(order), j, rng)
            )
            cert = {
                "b": b,
                "t": t,
                "x": x,
                "source": int(old_ids[fresh[i]]),
                "phi_target": phi,
                "phi_achieved": str(phi_exact),
            }
            return finish("cut", cut, cert)

        for i, s in enumerate(fresh):
            if trunc_free[i]:
                failed_cache.add(s)

    return finish("failed")
