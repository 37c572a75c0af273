"""Truncated lazy walks, sweep cuts, and the sampled local-cut search.

The search runs over scale levels b. At each level it samples sources by
degree, pushes truncated lazy walks forward step by step, and sweeps every
live distribution against a geometric ladder of volume targets. The first
prefix whose conductance certifies at or below 12 * phi wins; ordering is
(b, t, sample index, ladder index), so the sequential and the simulated
form agree exactly: they share this code path and differ only in round
accounting.

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
rationals before anything is returned.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .graphcore import (
    Cut,
    Graph,
    GraphError,
    conductance,
    connected_components,
    induced_subgraph,
    lambda2_normalized,
    lazy_walk_operator,
    ln_me4,
    log2m,
)
from . import runtime as rt

Distribution = Dict[int, float]

SOURCE_CAP_DEFAULT = 512
SAMPLING_C_DEFAULT = 4
CONVERGENCE_TOL = 1e-15
FLOAT_SLACK = 1e-9
SCREEN_MARGIN = 1e-6


@dataclass(frozen=True)
class WalkParams:
    """Scale-level walk parameters, recomputed exactly from (phi, m, b)."""

    phi: float
    m: int
    b: int
    c: int
    t0: int
    eps: float
    gamma: float
    k_b: int


def make_walk_params(phi: float, m: int, b: int, c: int = SAMPLING_C_DEFAULT) -> WalkParams:
    if not 0 < phi <= 1 / 12:
        raise GraphError("phi must lie in (0, 1/12]")
    if m < 1 or b < 1:
        raise GraphError("need m >= 1 and b >= 1")
    log_term = ln_me4(m)
    t0 = math.ceil(49.0 * log_term / (phi * phi))
    eps = phi / (56.0 * log_term * t0 * (2.0 ** b))
    gamma = 5.0 * phi / (392.0 * log_term)
    k_b = math.ceil(c * log2m(m) * (2 * m) / (2.0 ** b))
    return WalkParams(phi=phi, m=m, b=b, c=c, t0=t0, eps=eps, gamma=gamma, k_b=k_b)


# ---------------------------------------------------------------------------
# scalar walk operations
# ---------------------------------------------------------------------------


def lazy_step(g: Graph, p: Distribution) -> Distribution:
    """One application of the lazy walk: half stays, half splits to neighbors."""
    out: Distribution = {}
    for x, mass in p.items():
        out[x] = out.get(x, 0.0) + mass / 2.0
        d = g.deg[x]
        if d:
            share = mass / (2.0 * d)
            for y in g.adj[x]:
                out[y] = out.get(y, 0.0) + share
    return {x: v for x, v in out.items() if v > 0.0}


def truncate(g: Graph, p: Distribution, eps: float) -> Distribution:
    """Drop every entry below twice eps times the vertex degree."""
    if eps < 0:
        raise GraphError("eps must be nonnegative")
    return {x: v for x, v in p.items() if v >= 2.0 * eps * g.deg[x]}


def truncated_walk(g: Graph, v: int, params: WalkParams) -> List[Distribution]:
    """Distributions t = 0..t0 of the truncated walk started at v."""
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range")
    first: Distribution = {}
    if 1.0 >= 2.0 * params.eps * g.deg[v]:
        first = {v: 1.0}
    seq = [first]
    cur = first
    for _ in range(params.t0):
        cur = truncate(g, lazy_step(g, cur), params.eps)
        seq.append(cur)
    return seq


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


def _sweep_order(p_vec: np.ndarray, deg: np.ndarray) -> np.ndarray:
    support = np.flatnonzero(p_vec > 0.0)
    rho = p_vec[support] / deg[support].clip(min=1)
    return support[np.lexsort((support, -rho))]


def _boundary_profile(g: Graph, order: np.ndarray) -> np.ndarray:
    """boundary[j] = edges leaving the first j vertices of the order."""
    k = len(order)
    rank = {int(v): i for i, v in enumerate(order)}
    diff = np.zeros(k + 2, dtype=np.int64)
    for v in order:
        rv = rank[int(v)]
        for u in g.adj[int(v)]:
            ru = rank.get(u)
            if ru is None:
                diff[rv + 1] += 1
            elif ru > rv:
                diff[rv + 1] += 1
                diff[ru + 1] -= 1
    return np.cumsum(diff)[1 : k + 1]


def _sweep_vec(
    g: Graph,
    p_vec: np.ndarray,
    deg: np.ndarray,
    phi: float,
    total_vol: int,
    max_vol: float,
) -> Optional[Tuple[np.ndarray, int, int, int, int, Fraction]]:
    """Ladder sweep over one distribution.

    Returns (order, j, x, vol, boundary, exact phi) for the first prefix
    certified at or below 12 * phi by exact arithmetic, else None.
    """
    order = _sweep_order(p_vec, deg)
    if len(order) == 0:
        return None
    vols = np.cumsum(deg[order])
    j_max = int(np.searchsorted(vols, max_vol, side="right"))
    if j_max == 0:
        return None
    bounds = _boundary_profile(g, order)
    x_top = _ladder_limit(phi, total_vol)
    targets = (1.0 + phi) ** np.arange(x_top + 1)
    js = np.minimum(np.searchsorted(vols, targets, side="right"), j_max)
    screen = 12.0 * phi + FLOAT_SLACK
    phi_cap = Fraction(12) * Fraction(phi)
    tried = set()
    for x, j in enumerate(js):
        j = int(j)
        if j == 0 or j in tried:
            continue
        tried.add(j)
        vol_j = int(vols[j - 1])
        small = min(vol_j, total_vol - vol_j)
        if small <= 0:
            continue
        bnd = int(bounds[j - 1])
        if bnd <= screen * small and Fraction(bnd, small) <= phi_cap:
            return order, j, x, vol_j, bnd, Fraction(bnd, small)
    return None


def sweep_cut(
    g: Graph, p: Distribution, phi: float, max_vol: Optional[float] = None
) -> Optional[SweepPrefix]:
    """Scan ladder volumes over the sorted distribution; certify the winner.

    Vertices are ordered by decreasing mass-to-degree ratio with ties going
    to smaller ids. For each volume target (1 + phi)^x the largest fitting
    prefix is tested; the first with conductance at most 12 * phi wins.
    """
    if not p:
        raise GraphError("sweep needs a nonempty distribution")
    total_vol = 2 * g.m
    if max_vol is None:
        max_vol = (5.0 / 6.0) * total_vol
    p_vec = np.zeros(g.n)
    for v, mass in p.items():
        if not 0 <= v < g.n:
            raise GraphError(f"distribution vertex {v} out of range")
        p_vec[v] = mass
    deg = np.array(g.deg, dtype=np.int64)
    hit = _sweep_vec(g, p_vec, deg, phi, total_vol, max_vol)
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


def sample_by_degree(
    g: Graph,
    component: Sequence[int],
    count_or_rate: int,
    seed="0",
    mode: str = "exact",
) -> List[int]:
    """Sample component vertices by degree: exact count or expected count."""
    members = sorted(set(component))
    degs = [g.deg[v] for v in members]
    total = sum(degs)
    if total == 0:
        raise GraphError("component has no volume to sample from")
    rng = random.Random(f"{seed}:sample:{mode}:{count_or_rate}")
    if mode == "exact":
        return rng.choices(members, weights=degs, k=count_or_rate)
    if mode == "expected":
        out = []
        for v, d in zip(members, degs):
            prob = min(1.0, count_or_rate * d / total)
            if rng.random() < prob:
                out.append(v)
        return out
    raise GraphError(f"unknown sampling mode {mode!r}")


# ---------------------------------------------------------------------------
# the full search
# ---------------------------------------------------------------------------


@dataclass
class NibbleResult:
    status: str  # "cut", "failed", or "budget"
    cut: Optional[Cut]
    certificate: Optional[Dict[str, object]]
    transcript: Optional[rt.Transcript]

    @property
    def found(self) -> bool:
        return self.status == "cut"


def _run_walk_level(
    sub: Graph,
    sources: List[int],
    params: WalkParams,
    weights: Optional[List[int]] = None,
    sweep_cb=None,
    step_limit: Optional[int] = None,
):
    """Advance all source walks at one level until win, retirement, or limit.

    Sources must be distinct; weights carry sampling multiplicities for the
    congestion count (duplicate walks are identical, so they are advanced
    once and weighted). Returns (winner, trunc_free, max_cong, steps_run,
    hit_limit); winner is (t, column index, sweep hit) or None.
    sweep_cb(t, i, column) is asked for live columns in order; its first
    non-None return wins.
    """
    n = sub.n
    k = len(sources)
    deg = np.array(sub.deg, dtype=np.int64)
    thresh = 2.0 * params.eps * deg
    t_mat = lazy_walk_operator(sub)
    w = np.ones(k) if weights is None else np.array(weights, dtype=float)

    p = np.zeros((n, k))
    for i, s in enumerate(sources):
        if 1.0 >= thresh[s]:
            p[s, i] = 1.0
    active = p.sum(axis=0) > 0.0
    trunc_free = np.ones(k, dtype=bool)
    max_cong = int(((p > 0.0) @ w).max()) if k else 0
    steps = 0

    for t in range(1, params.t0 + 1):
        if not active.any():
            break
        if step_limit is not None and steps >= step_limit:
            return None, trunc_free, max_cong, steps, True
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
                    return (t, int(i), hit), trunc_free, max_cong, steps, False

        same_support = ~((stepped > 0.0) ^ (prev > 0.0)).any(axis=0)
        tiny_move = np.abs(stepped - prev).max(axis=0) <= CONVERGENCE_TOL
        dead = stepped.sum(axis=0) <= 0.0
        retire = (same_support & tiny_move) | dead
        if retire.any():
            active[idx[retire]] = False
    return None, trunc_free, max_cong, steps, False


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


def congestion_profile(
    g: Graph,
    component: Sequence[int],
    params: WalkParams,
    sources: Sequence[int],
) -> int:
    """Max number of sampled walks simultaneously alive at one vertex."""
    members = sorted(set(component))
    sub, old_ids = induced_subgraph(g, members)
    pos = {v: i for i, v in enumerate(old_ids)}
    distinct: Dict[int, int] = {}
    weights: List[int] = []
    for s in sources:
        key = pos[s]
        if key in distinct:
            weights[distinct[key]] += 1
        else:
            distinct[key] = len(weights)
            weights.append(1)
    _, _, max_cong, _, _ = _run_walk_level(sub, list(distinct), params, weights)
    return max_cong


def distributed_nibble(
    g: Graph,
    component: Sequence[int],
    phi: float,
    seed=0,
    budget: Optional[int] = None,
    c: int = SAMPLING_C_DEFAULT,
    source_cap: int = SOURCE_CAP_DEFAULT,
    simulate: bool = False,
) -> NibbleResult:
    """Search one component for a cut with conductance at most 12 * phi.

    Returns status "cut" with a certified Cut (vertex ids of g, conductance
    measured inside the component), "failed" when every level is exhausted,
    or "budget" when the optional work budget (counted in walk steps) runs
    out first. With simulate=True the result carries a Transcript pricing
    the run: sampling and the winner announcement cost tree traversals, and
    each walk step costs the measured maximum number of walks crowding one
    vertex.
    """
    if not 0 < phi <= 1 / 12:
        raise GraphError("phi must lie in (0, 1/12]")
    members = sorted(set(component))
    sub, old_ids = induced_subgraph(g, members)
    m = sub.m
    transcript = rt.Transcript(seed=seed if isinstance(seed, int) else 0) if simulate else None

    def finish(status: str, cut=None, cert=None) -> NibbleResult:
        if transcript is not None:
            transcript.rounds = sum(transcript.phases.values())
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
        if simulate:
            transcript.phases["nibble:screen"] = 0
        return finish("failed")

    depth = 0
    if simulate:
        charged = 0
        for comp in connected_components(sub):
            tree, rounds = rt.bfs_build(sub, comp, comp[0])
            depth = max(depth, tree.depth)
            charged += rounds
        transcript.phases["nibble:sample"] = charged

    b_top = math.ceil(log2m(m)) if m >= 2 else 0
    total_vol = 2 * m
    max_vol = (5.0 / 6.0) * total_vol
    deg = np.array(sub.deg, dtype=np.int64)
    steps_used = 0
    failed_cache: set = set()

    for b in range(1, b_top + 1):
        params = make_walk_params(phi, m, b, c)
        k_b = min(params.k_b, source_cap)
        sampled = sample_by_degree(sub, range(sub.n), k_b, seed=f"{seed}:{b}")
        if simulate:
            transcript.phases["nibble:sample"] += depth + math.ceil(log2m(m))

        seen: Dict[int, int] = {}
        fresh: List[int] = []
        weights: List[int] = []
        for s in sampled:
            if s in failed_cache:
                continue
            if s in seen:
                weights[seen[s]] += 1
            else:
                seen[s] = len(fresh)
                fresh.append(s)
                weights.append(1)
        if not fresh:
            continue

        def on_sweep(t, i, col):
            return _sweep_vec(sub, col, deg, phi, total_vol, max_vol)

        limit = None if budget is None else max(budget - steps_used, 0)
        winner, trunc_free, max_cong, steps, hit_limit = _run_walk_level(
            sub, fresh, params, weights, sweep_cb=on_sweep, step_limit=limit
        )
        steps_used += steps
        if simulate:
            transcript.phases["nibble:walk"] = (
                transcript.phases.get("nibble:walk", 0) + max_cong * steps
            )

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
            if simulate:
                rng = random.Random(f"{seed}:announce:{b}")
                transcript.phases["nibble:announce"] = _announce_rounds(
                    depth, len(order), j, rng
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

        if hit_limit:
            return finish("budget")
        for i, s in enumerate(fresh):
            if trunc_free[i]:
                failed_cache.add(s)

    return finish("failed")
