"""Engine semantics: rounds, bandwidth, halting, BFS waves, pipelining."""

import random

import numpy as np
import pytest

from congestlab import graphcore as gc
from congestlab import runtime as rt
from conftest import oracle_adj
import engine


class Flood(engine.VertexProgram):
    """Token spreads from vertex 0; forward once, skip known holders."""

    def init(self, ctx):
        ctx.state = {"token": ctx.v == 0}
        if ctx.v == 0:
            for u in ctx.neighbors:
                ctx.send(u, "tok")
            ctx.halt()

    def on_round(self, ctx, inbox):
        ctx.state["token"] = True
        senders = {m.src for m in inbox}
        for u in ctx.neighbors:
            if u not in senders:
                ctx.send(u, "tok")
        ctx.halt()


class DoubleSend(engine.VertexProgram):
    def init(self, ctx):
        if ctx.v == 0:
            ctx.send(ctx.neighbors[0], "a", 1)
            ctx.send(ctx.neighbors[0], "b", 2)
        ctx.halt()

    def on_round(self, ctx, inbox):
        pass


class Mute(engine.VertexProgram):
    """Nobody ever sends or halts except vertex 0."""

    def init(self, ctx):
        if ctx.v == 0:
            ctx.halt()

    def on_round(self, ctx, inbox):
        pass


def test_flood_path_rounds():
    g = gc.gen_path(5)
    states, tr = engine.run(g, Flood(), seed=1)
    assert all(states[v]["token"] for v in range(5))
    assert tr.rounds == 4


def test_flood_clique_rounds():
    g = gc.gen_clique(4)
    states, tr = engine.run(g, Flood(), seed=1)
    assert all(states[v]["token"] for v in range(4))
    assert tr.rounds == 1


def test_flood_hypercube_rounds():
    g = gc.gen_hypercube(4)
    states, tr = engine.run(g, Flood(), seed=1)
    assert all(states[v]["token"] for v in range(16))
    assert tr.rounds == 4


def test_bandwidth_violation():
    g = gc.gen_path(2)
    with pytest.raises(engine.BandwidthError) as err:
        engine.run(g, DoubleSend(), seed=0)
    assert err.value.edge == (0, 1)


def test_stall_detection():
    g = gc.gen_path(3)
    with pytest.raises(engine.StallError):
        engine.run(g, Mute(), seed=0)


def test_round_cap_flagged():
    class PingPong(engine.VertexProgram):
        def init(self, ctx):
            if ctx.v == 0:
                ctx.send(1, "ping")

        def on_round(self, ctx, inbox):
            other = 1 - ctx.v
            ctx.send(other, "ping")

    g = gc.gen_path(2)
    _, tr = engine.run(g, PingPong(), seed=0, round_cap=7)
    assert tr.cap_exhausted
    assert tr.rounds == 7


def test_send_to_non_neighbor_rejected():
    class Bad(engine.VertexProgram):
        def init(self, ctx):
            if ctx.v == 0:
                ctx.send(2, "x")
            ctx.halt()

        def on_round(self, ctx, inbox):
            pass

    g = gc.gen_path(3)
    with pytest.raises(rt.CongestError):
        engine.run(g, Bad(), seed=0)


def test_payload_word_limit():
    class Wide(engine.VertexProgram):
        def init(self, ctx):
            if ctx.v == 0:
                ctx.send(1, "x", 1, 2, 3, 4, 5)
            ctx.halt()

        def on_round(self, ctx, inbox):
            pass

    g = gc.gen_path(2)
    with pytest.raises(rt.CongestError):
        engine.run(g, Wide(), seed=0)
    # exactly four words is fine
    class Four(engine.VertexProgram):
        def init(self, ctx):
            if ctx.v == 0:
                ctx.send(1, "x", 1, 2, 3, 4)
            ctx.halt()

        def on_round(self, ctx, inbox):
            pass

    engine.run(gc.gen_path(2), Four(), seed=0)


def test_send_after_halt_rejected():
    class Zombie(engine.VertexProgram):
        def init(self, ctx):
            if ctx.v == 0:
                ctx.halt()
                ctx.send(1, "x")
            else:
                ctx.halt()

        def on_round(self, ctx, inbox):
            pass

    g = gc.gen_path(2)
    with pytest.raises(rt.CongestError):
        engine.run(g, Zombie(), seed=0)


def test_determinism_across_runs():
    g = gc.gen_er(30, 0.2, seed=4)

    class Gossip(engine.VertexProgram):
        def init(self, ctx):
            ctx.state = ctx.rng.randrange(1000)
            for u in ctx.neighbors:
                ctx.send(u, "v", ctx.state)
            if ctx.deg == 0:
                ctx.halt()

        def on_round(self, ctx, inbox):
            ctx.state += sum(m.payload[0] for m in inbox)
            ctx.halt()

    a = engine.run(g, Gossip(), seed=11)
    b = engine.run(g, Gossip(), seed=11)
    assert a[0] == b[0]
    assert a[1].as_json() == b[1].as_json()
    c = engine.run(g, Gossip(), seed=12)
    assert a[0] != c[0]


def test_transcript_json_shape():
    g = gc.gen_clique(4)
    _, tr = engine.run(g, Flood(), seed=3, phase="spread")
    blob = tr.as_json()
    assert set(blob) == {
        "rounds",
        "message_count",
        "channel_load",
        "phases",
        "seed",
        "cap_exhausted",
    }
    assert blob["phases"] == {"spread": 1}
    assert blob["channel_load"] <= 1
    assert blob["seed"] == 3


def test_transcript_charge_accumulates_into_its_phase():
    tr = rt.Transcript()
    tr.charge("a", 2)
    tr.charge("b", 0)
    tr.charge("a", 3)
    assert tr.phases == {"a": 5, "b": 0}
    assert tr.rounds == 5


def test_transcript_flag_is_not_rounds():
    tr = rt.Transcript()
    tr.flag("unit", 1.0)
    assert tr.phases == {}
    tr.flag("knob", 0.05)
    tr.charge("a", 4)
    assert tr.phases == {"flag:knob_millis": 50, "a": 4}
    assert tr.rounds == 4


def test_transcript_rounds_is_read_only():
    tr = rt.Transcript()
    with pytest.raises(AttributeError):
        tr.rounds = 3


def test_transcript_records_string_seed_as_zero():
    assert rt.Transcript(seed="7:L0").seed == 0
    assert rt.Transcript(seed=7).seed == 7


def test_run_transcript_rounds_are_its_phase():
    g = gc.gen_path(5)
    _, tr = engine.run(g, Flood(), phase="spread")
    assert tr.phases == {"spread": tr.rounds}
    assert tr.rounds == 4


# ---------------------------------------------------------------------------
# BFS waves
# ---------------------------------------------------------------------------


def bfs_invariants(g, levels, root, members):
    """Levels of a wave over the members: 0 at the root, -1 off the members,
    every other member one level past some member neighbour, and no member
    edge spanning more than one level."""
    adj = oracle_adj(g.n, g.edges())
    members = set(members)
    assert levels[root] == 0
    for v in range(g.n):
        if v not in members:
            assert levels[v] == -1
            continue
        near = [levels[u] for u in adj[v] if u in members]
        assert all(abs(levels[v] - d) <= 1 for d in near)
        assert v == root or levels[v] - 1 in near


def build_on_members(g, members):
    """`rt.bfs_build` over the members' induced graph, its levels mapped
    back to g's ids (-1 off the members); the wave starts at the smallest
    member, vertex 0 of the monotone relabeling."""
    sub, ids = gc.induced_subgraph(g, members)
    sub_levels, charged = rt.bfs_build(sub)
    levels = np.full(g.n, -1, dtype=np.int64)
    levels[ids] = sub_levels
    return levels, charged


def test_bfs_path_endpoint():
    g = gc.gen_path(5)
    levels, charged = rt.bfs_build(g)
    assert charged == 5
    bfs_invariants(g, levels, 0, range(5))


def test_bfs_clique():
    g = gc.gen_clique(4)
    levels = gc.bfs_levels(g, 2)
    assert levels.max() + 1 == 2
    bfs_invariants(g, levels, 2, range(4))


def test_bfs_hypercube():
    g = gc.gen_hypercube(3)
    for root in range(8):
        levels = gc.bfs_levels(g, root)
        assert levels.max() + 1 == 4
        bfs_invariants(g, levels, root, range(8))


def test_bfs_levels_match_oracle():
    g = gc.gen_er(60, 0.08, seed=2)
    comp = max(gc.connected_components(g), key=len)
    root = comp[0]
    levels, _ = build_on_members(g, comp)
    oracle = gc.bfs_levels(g, root)
    for v in comp:
        assert levels[v] == oracle[v]
    bfs_invariants(g, levels, root, comp)


def test_bfs_unreachable_member_is_not_connected():
    g = gc.Graph(5, [(0, 1), (1, 2), (3, 4)])
    with pytest.raises(rt.CongestError, match="not connected"):
        rt.bfs_build(g)
    # a member reachable only through a non-member is not reached either
    with pytest.raises(rt.CongestError, match="not connected"):
        build_on_members(g, [0, 2])


def test_bfs_singleton_component():
    g = gc.Graph(3, [(1, 2)])
    levels, charged = build_on_members(g, [0])
    assert levels.tolist() == [0, -1, -1] and charged == 1


class BfsWave(engine.VertexProgram):
    """The BFS wave as a vertex program, the oracle for `rt.bfs_build`.

    The root floods its member neighbours in init. A member takes its level
    from the first round it hears the wave, relays to its other member
    neighbours and halts. Non-members halt at once and never relay.
    """

    def __init__(self, root, members):
        self.root = root
        self.members = members

    def init(self, ctx):
        if ctx.v not in self.members:
            ctx.halt()
            return
        ctx.state = {"level": None}
        if ctx.v == self.root:
            ctx.state["level"] = 0
            for u in ctx.neighbors:
                if u in self.members:
                    ctx.send(u, "wave", 0)
            ctx.halt()

    def on_round(self, ctx, inbox):
        senders = {m.src for m in inbox}
        level = min(m.payload[0] for m in inbox) + 1
        ctx.state["level"] = level
        for u in ctx.neighbors:
            if u in self.members and u not in senders:
                ctx.send(u, "wave", level)
        ctx.halt()


def replay_bfs(g, component, root):
    """Member levels and engine rounds of the BFS wave run through `engine.run`."""
    members = frozenset(component)
    states, tr = engine.run(g, BfsWave(root, members), seed=0, phase="bfs")
    return {v: states[v]["level"] for v in members}, tr.rounds


def _whole_component_cases():
    """(g, one whole component of g, a root in it), roots at either end."""
    cases = []
    for n in (1, 2, 5, 9):
        cases.append(pytest.param(gc.gen_path(n), range(n), n - 1, id=f"path{n}"))
    for n in (3, 8, 11):
        cases.append(pytest.param(gc.gen_cycle(n), range(n), n // 2, id=f"cycle{n}"))
    for n in (2, 7):
        cases.append(pytest.param(gc.gen_star(n), range(n), 0, id=f"star{n}"))
        cases.append(pytest.param(gc.gen_star(n), range(n), n - 1, id=f"star{n}-leaf"))
    for n in (2, 4, 9):
        cases.append(pytest.param(gc.gen_clique(n), range(n), n - 1, id=f"clique{n}"))
    for d in (1, 3, 5):
        cases.append(pytest.param(gc.gen_hypercube(d), range(2**d), 2**d - 1, id=f"cube{d}"))
    for spec, seed in (
        ("er:n=40,p=0.08", 1), ("er:n=60,p=0.05", 2), ("er:n=120,p=0.3", 4),
        ("barbell:k=12,bridges=2", 0), ("caterpillar:blobs=5,blob_size=8", 0),
    ):
        g = gc.generate(spec, seed=seed)
        comp = max(gc.connected_components(g), key=len)
        cases.append(pytest.param(g, comp, comp[len(comp) // 2], id=spec))
    cases.append(pytest.param(gc.Graph(3, [(1, 2)]), [0], 0, id="singleton"))
    return cases


def _bfs_oracle_cases():
    cases = _whole_component_cases()
    # members restricted to the path 0..5 of C8: the wave may not use 6, 7
    cases.append(pytest.param(gc.gen_cycle(8), range(6), 0, id="c8-path"))
    # the member set of the expander triad-path golden, inside all of g
    er64 = gc.generate("er:n=64,p=0.3", seed=3)
    cases.append(pytest.param(er64, range(48), 0, id="er64-48"))
    return cases


@pytest.mark.parametrize("g,component,root", _bfs_oracle_cases())
def test_bfs_build_matches_engine_replay(g, component, root):
    root = min(component)
    level, rounds = replay_bfs(g, component, root)
    levels, charged = build_on_members(g, component)
    assert {v: levels[v] for v in level} == level
    assert charged == rounds + 1 == max(level.values()) + 1
    bfs_invariants(g, levels, root, component)


@pytest.mark.parametrize("g,component,root", _whole_component_cases())
def test_bfs_levels_match_engine_replay_from_any_root(g, component, root):
    level, rounds = replay_bfs(g, component, root)
    levels = gc.bfs_levels(g, root)
    assert {v: levels[v] for v in level} == level
    assert levels.max() == rounds == max(level.values())
    bfs_invariants(g, levels, root, component)


def test_bfs_build_keeps_to_the_members():
    levels, charged = build_on_members(gc.gen_cycle(8), range(6))
    assert levels.tolist() == [0, 1, 2, 3, 4, 5, -1, -1]
    assert charged == 6


def test_bfs_build_unreachable_member_matches_engine_stall():
    # vertex 2 hangs off the non-member 1: the replay stalls, the closed
    # form refuses the component
    g = gc.Graph(5, [(0, 1), (1, 2), (3, 4)])
    with pytest.raises(engine.StallError):
        replay_bfs(g, [0, 2], 0)
    with pytest.raises(rt.CongestError, match="not connected"):
        build_on_members(g, [0, 2])


@pytest.mark.parametrize("member", [-1, 7])
def test_bfs_build_names_a_member_outside_the_graph(member):
    # the extraction that hands bfs_build its graph refuses the member first
    with pytest.raises(gc.GraphError, match=rf"vertex {member} is not in 0\.\.2"):
        build_on_members(gc.gen_path(3), [0, 1, 2, member])


def test_bfs_build_still_calls_an_in_range_gap_not_connected():
    g = gc.Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(rt.CongestError, match=r"root 0 does not reach \[2, 3\]"):
        rt.bfs_build(g)


# ---------------------------------------------------------------------------
# pipelined tree traffic
# ---------------------------------------------------------------------------


def _children(parent):
    """Each tree vertex's children, ascending, from a parent map."""
    out = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            out[p].append(v)
    return {v: sorted(kids) for v, kids in out.items()}


def schedule_convergecast(parent, level, root, k):
    """Explicit per-item schedule: one item per tree edge per round."""
    children = _children(parent)
    ready = {}  # (v, j) -> round by which v holds aggregate j of its subtree
    order = sorted(level, key=lambda v: -level[v])
    for v in order:
        last_send = {c: 0 for c in children[v]}
        for j in range(1, k + 1):
            arrivals = [0]
            for c in children[v]:
                send = max(ready[(c, j)] + 1, last_send[c] + 1)
                last_send[c] = send
                arrivals.append(send)
            ready[(v, j)] = max(arrivals)
    return ready[(root, k)] if k else 0


def schedule_broadcast(parent, level, root, k):
    children = _children(parent)
    have = {(root, j): j - 1 for j in range(1, k + 1)}
    worst = 0
    for v in sorted(level, key=lambda v: level[v]):
        for j in range(1, k + 1):
            for c in children[v]:
                have[(c, j)] = max(have[(v, j)] + 1, have.get((c, j - 1), 0) + 1)
                worst = max(worst, have[(c, j)])
    return worst if k else 0


def test_convergecast_examples():
    _, charged = rt.bfs_build(gc.gen_path(5))
    assert rt.pipelined_convergecast(charged - 1, 1) == 4
    assert rt.pipelined_convergecast(charged - 1, 3) == 6
    _, charged = rt.bfs_build(gc.gen_star(6))
    assert rt.pipelined_convergecast(charged - 1, 1) == 1


def test_broadcast_examples():
    _, charged = rt.bfs_build(gc.gen_path(5))
    assert rt.broadcast(charged - 1, 1) == 4
    _, charged = rt.bfs_build(gc.gen_clique(4))
    assert charged - 1 == 1
    assert rt.broadcast(charged - 1, 5) == 5


def test_pipeline_formula_matches_schedule():
    cases = [
        (gc.gen_path(7), 0, 1),
        (gc.gen_path(7), 0, 4),
        (gc.gen_path(7), 3, 2),
        (gc.gen_star(5), 0, 3),
        (gc.gen_hypercube(3), 0, 2),
        (gc.gen_er(25, 0.15, seed=8), None, 3),
    ]
    for g, root, k in cases:
        comp = max(gc.connected_components(g), key=len)
        r = comp[0] if root is None else root
        parent, level, depth = _oracle_bfs(g, comp, r)
        assert gc.bfs_levels(g, r).max() == depth
        if r == comp[0]:
            assert build_on_members(g, comp)[1] == depth + 1
        assert rt.pipelined_convergecast(depth, k) == schedule_convergecast(parent, level, r, k)
        assert rt.broadcast(depth, k) == schedule_broadcast(parent, level, r, k)


def test_pipeline_degenerate():
    _, charged = rt.bfs_build(gc.Graph(1, []))
    assert rt.pipelined_convergecast(charged - 1, 5) == 0
    assert rt.broadcast(charged - 1, 5) == 0
    _, charged = rt.bfs_build(gc.gen_path(3))
    assert rt.pipelined_convergecast(charged - 1, 0) == 0


def test_pipeline_rejects_negative_item_counts():
    with pytest.raises(rt.CongestError, match="nonnegative"):
        rt.pipelined_convergecast(3, -1)
    with pytest.raises(rt.CongestError, match="nonnegative"):
        rt.broadcast(3, -1)


# ---------------------------------------------------------------------------
# the array BFS against the loop BFS
# ---------------------------------------------------------------------------


def _oracle_bfs(g, component, root):
    """The loop BFS confined to the members: the frontier in ascending
    order, each row in order, a vertex taking the first member that
    reaches it as its parent. Returns (parent, level, depth), or the
    sorted members the wave misses."""
    adj = oracle_adj(g.n, g.edges())
    members = frozenset(component)
    parent = {root: None}
    level = {root: 0}
    frontier = [root]
    while frontier:
        reached = []
        for u in frontier:
            for v in adj[u]:
                if v in members and v not in parent:
                    parent[v] = u
                    level[v] = level[u] + 1
                    reached.append(v)
        frontier = sorted(reached)
    if len(parent) < len(members):
        return sorted(members - parent.keys())
    return parent, level, max(level.values())


def _ball(g, centre, radius):
    """Vertices within `radius` hops of centre: connected, rarely a whole component."""
    adj = oracle_adj(g.n, g.edges())
    ball, frontier = {centre}, [centre]
    for _ in range(radius):
        frontier = [u for v in frontier for u in adj[v] if u not in ball]
        ball.update(frontier)
    return ball


def test_bfs_build_matches_the_loop_oracle():
    rng = random.Random(11)
    seen = {"partial tree": 0, "not connected": 0}
    for k in range(40):
        g = gc.gen_er(rng.randint(10, 70), rng.uniform(0.03, 0.2), seed=k)
        for _ in range(6):
            members = _ball(g, rng.randrange(g.n), rng.randint(0, 4))
            # dropping members makes others reachable only through non-members
            members -= set(rng.sample(sorted(members), min(len(members) - 1, rng.randint(0, 2))))
            ids = sorted(members)
            want = _oracle_bfs(g, members, ids[0])
            try:
                levels, charged = build_on_members(g, members)
            except rt.CongestError as exc:
                # the wave names the first missed members in the induced graph's ids
                missed = [ids.index(v) for v in want[:8]]
                assert str(exc) == f"component is not connected: root 0 does not reach {missed}"
                seen["not connected"] += 1
                continue
            _, level, depth = want
            assert {v: levels[v] for v in members} == level
            assert (levels >= 0).sum() == len(members)
            assert charged == depth + 1
            comp = next(c for c in gc.connected_components(g) if ids[0] in c)
            seen["partial tree"] += len(members) < len(comp)
    assert min(seen.values()) > 10, seen
