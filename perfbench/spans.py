"""Layer spans for congestlab, recorded from outside the program.

`install` replaces every public function of each congestlab module, and
`Graph.__init__`, with a wrapper that records a span around the call. The
wrapper goes onto every binding of the function: the defining module's
globals, each `from .x import name` copy in the other congestlab modules,
and the package namespace. A call between modules therefore lands in the
callee's layer whichever name the caller used.

A span's self time is its duration minus the durations of the spans it
directly contains. Self times are summed per layer and per metric group, so
per instance the layer totals add up to the wall time of the outermost
call (`run_cli`); `Tracer.layer_total` gives that sum.

Counts are read at the call boundary, from arguments and return values.
The program itself is not modified, and `uninstall` puts every binding
back.
"""

import functools
import importlib
import inspect
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

LAYERS = ("graphcore", "runtime", "routing", "nibble", "decomposition", "triangle", "cli")

# Scalar helpers called once per edge or per vertex. A span on each would
# cost more than the work it measures, so their time counts to the caller.
UNWRAPPED = {
    "graphcore": {"edge_key", "log2m", "ln_me4", "as_vertex_set"},
    "routing": {"degree_class", "class_of_new_id"},
}

# Function -> metric stem. `<stem>_s` is the group's self time and
# `<stem>_calls` its call count. Helpers that only serve one measured
# function share its group, so the group holds the whole computation.
GROUPS = {
    ("graphcore", "load_edge_list"): "graphcore.load",
    ("graphcore", "parse_edge_list"): "graphcore.load",
    ("graphcore", "Graph.__init__"): "graphcore.graph_init",
    ("graphcore", "subgraph_from_edges"): "graphcore.subgraph",
    ("graphcore", "induced_subgraph"): "graphcore.subgraph",
    ("graphcore", "connected_components"): "graphcore.components",
    ("graphcore", "edge_components"): "graphcore.components",
    ("graphcore", "bfs_levels"): "graphcore.traversal",
    ("graphcore", "is_connected"): "graphcore.traversal",
    ("graphcore", "eccentricity"): "graphcore.traversal",
    ("graphcore", "lambda2_normalized"): "graphcore.lambda2",
    ("graphcore", "normalized_laplacian"): "graphcore.lambda2",
    ("graphcore", "mixing_time_exact"): "graphcore.mixing_exact",
    ("graphcore", "mixing_time_check"): "graphcore.mixing_exact",
    ("graphcore", "sparsest_cut_bruteforce"): "graphcore.sparsest_cut",
    ("graphcore", "verify_orientation"): "graphcore.orientation_check",
    ("routing", "mixing_estimate"): "routing.mixing_estimate",
    ("routing", "assign_degree_class_ids"): "routing.assign_ids",
    ("routing", "route"): "routing.route",
    ("decomposition", "decompose"): "decomposition.decompose",
    ("decomposition", "black_box_partition"): "decomposition.partition",
    ("decomposition", "verify_decomposition"): "decomposition.verify",
    ("decomposition", "low_degree_peel"): "decomposition.peel",
    ("decomposition", "high_diameter_cut"): "decomposition.diameter_cut",
    ("nibble", "distributed_nibble"): "nibble.search",
    ("runtime", "run"): "runtime.engine",
    ("runtime", "bfs_build"): "runtime.bfs_build",
    ("triangle", "case1_report_owner"): "triangle.case1_owner",
    ("triangle", "enumerate_expander"): "triangle.expander",
    ("triangle", "allocate_triads"): "triangle.triads",
}

# Groups that also report inclusive time as `<stem>_incl_s`: what pricing
# routing at τ_mix costs the host, children included.
INCLUSIVE = {"routing.mixing_estimate"}


class TraceError(RuntimeError):
    """The wrappers could not be placed on every binding."""


def _count_engine(counts, bound, result) -> None:
    _, transcript = result
    counts["runtime.engine_rounds"] += transcript.rounds
    counts["runtime.engine_messages"] += transcript.message_count


def _count_route(counts, bound, result) -> None:
    counts["routing.requests"] += len(bound.arguments["requests"])


def _count_nibble(counts, bound, result) -> None:
    counts["nibble.cuts_found"] += result.cut is not None
    t = result.transcript
    if t is not None:
        counts["nibble.screened"] += "nibble:screen" in t.phases
        counts["nibble.walk_rounds"] += t.phases.get("nibble:walk", 0)


def _count_decompose(counts, bound, result) -> None:
    d, _ = result
    counts["decomposition.clusters"] += len(d.clusters)
    counts["decomposition.removed_edges"] += len(d.er)
    counts["decomposition.sparse_edges"] += sum(len(p) for p in d.es.values())


# Count hooks run after the span closes: hook(counts, bound_arguments, result).
HOOKS = {
    ("runtime", "run"): _count_engine,
    ("routing", "route"): _count_route,
    ("nibble", "distributed_nibble"): _count_nibble,
    ("decomposition", "decompose"): _count_decompose,
}


class Tracer:
    """Span stack and accumulators for one traced stretch of calls."""

    def __init__(self) -> None:
        self._stack: List[float] = []
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.group_self: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        stack = self._stack
        layer_self = self.layer_self
        group_self = self.group_self
        counts = self.counts
        inclusive = self.inclusive
        group = GROUPS.get((layer, name))
        calls_key = f"{group}_calls" if group else None
        keep_inclusive = group in INCLUSIVE
        hook = HOOKS.get((layer, name))
        sig = inspect.signature(fn) if hook else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                own = dur - stack.pop()
                if stack:
                    stack[-1] += dur
                layer_self[layer] += own
                if group:
                    group_self[group] += own
                    counts[calls_key] += 1
                if keep_inclusive:
                    inclusive[group] += dur
            if hook is not None:
                hook(counts, sig.bind(*args, **kwargs), result)
            return result

        span.__wrapped_by_perfbench__ = True
        return span

    def layer_total(self) -> float:
        return sum(self.layer_self.values())

    def snapshot(self) -> Dict[str, float]:
        """All accumulators as one flat name -> value map."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self.get(layer, 0.0)
        for group in set(GROUPS.values()):
            out[f"{group}_s"] = self.group_self.get(group, 0.0)
            out[f"{group}_calls"] = self.counts.get(f"{group}_calls", 0)
        for group in INCLUSIVE:
            out[f"{group}_incl_s"] = self.inclusive.get(group, 0.0)
        for key, value in self.counts.items():
            out.setdefault(key, value)
        return out


def _modules() -> List[types.ModuleType]:
    pkg = importlib.import_module("congestlab")
    return [pkg] + [importlib.import_module(f"congestlab.{layer}") for layer in LAYERS]


def _targets(tracer: Tracer) -> Dict[int, Tuple[Callable, Callable]]:
    """id(original) -> (original, wrapper) for every function to trace."""
    targets: Dict[int, Tuple[Callable, Callable]] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"congestlab.{layer}")
        skip = UNWRAPPED.get(layer, set())
        for name, obj in vars(mod).items():
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
                and name not in skip
            ):
                if getattr(obj, "__wrapped_by_perfbench__", False):
                    raise TraceError(f"{mod.__name__}.{name} is already traced")
                targets[id(obj)] = (obj, tracer.wrap(layer, name, obj))
    return targets


def _unwrapped_bindings(targets) -> List[str]:
    """Module-level places that still hold an original traced function."""
    missed = []
    for mod in _modules():
        for name, obj in vars(mod).items():
            values = [obj]
            if isinstance(obj, dict):
                values = list(obj.values())
            elif isinstance(obj, (list, tuple)):
                values = list(obj)
            for value in values:
                entry = targets.get(id(value))
                if entry is not None and entry[0] is value:
                    missed.append(f"{mod.__name__}.{name}")
    return missed


class Installation:
    """Wrappers placed by `install`; `uninstall` restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._restore: List[Tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()


def install() -> Installation:
    """Place span wrappers on every binding; raise TraceError if one is missed."""
    inst = Installation(Tracer())
    targets = _targets(inst.tracer)
    for mod in _modules():
        for name, obj in list(vars(mod).items()):
            entry = targets.get(id(obj))
            if entry is not None and entry[0] is obj:
                inst._restore.append((mod, name, obj))
                setattr(mod, name, entry[1])
    graph_cls = importlib.import_module("congestlab.graphcore").Graph
    init = graph_cls.__init__
    if getattr(init, "__wrapped_by_perfbench__", False):
        inst.uninstall()
        raise TraceError("Graph.__init__ is already traced")
    inst._restore.append((graph_cls, "__init__", init))
    graph_cls.__init__ = inst.tracer.wrap("graphcore", "Graph.__init__", init)
    missed = _unwrapped_bindings(targets)
    if missed:
        inst.uninstall()
        raise TraceError("unwrapped bindings: " + ", ".join(sorted(missed)))
    return inst
