#!/usr/bin/env python3
"""Closed-loop benchmark of the congestlab CLI: host cost and simulated cost.

One client in one process runs one CLI instance at a time through
`congestlab.cli.run_cli`, one seed per call, never with `--seeds` (that
forks a worker pool). Set-up generates every instance's graph from
(spec, seed), writes it as an edge list and makes one small warm-up call;
the timed passes then hand the CLI only `--graph FILE --seed s`.

    python3 perfbench/run.py --workload tri-sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

With `--trace 0` the last stdout line carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run (see perfbench/README.md).
Host CPU times are measured with the speed probe of probe.py and reported
at its fixed reference speed.
The last line is always one JSON object with the keys correct, attempted,
failed and metrics. Exit code 2, with no result line, means the program
sources are missing.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

DELTA = "0.5"
MIN_PASSES = 2
SETUP_SAMPLES = 5
# One BLAS thread keeps all work on the main thread, whose CPU clock and
# speed the probe reads, and leaves no pool threads spinning between calls.
BLAS_THREADS = 1
ACCOUNTING_TOLERANCE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # CLI --mode
    specs: Tuple[str, ...]  # generator specs; each gets `copies` instances
    copies: int
    warmup: str  # small spec for the set-up call that loads lazy code


# Why each workload exists is documented in perfbench/README.md.
WORKLOADS = {
    "tri-sparse": Workload(
        "tri-sparse", "count", ("er:n=500,p=0.05",), 4, "er:n=60,p=0.1"
    ),
    "tri-clustered": Workload(
        "tri-clustered",
        "triangles",
        (
            "planted_cut:n=300,p=0.2,cross=4",
            "caterpillar:blobs=8,blob_size=60",
            "barbell:k=100,bridges=1",
        ),
        1,
        "planted_cut:n=30,p=0.3,cross=2",
    ),
    "decomp-dense": Workload(
        "decomp-dense", "decompose", ("er:n=1600,p=0.1",), 1, "er:n=120,p=0.2"
    ),
}

END_TO_END = (
    ("pass_ref_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_rounds", "rounds"),
    ("ok_ratio", "ratio"),
)

PER_LAYER = (
    ("graphcore.self_s", "s"),
    ("graphcore.load_s", "s"),
    ("graphcore.graph_init_s", "s"),
    ("graphcore.graph_init_calls", "count"),
    ("graphcore.subgraph_s", "s"),
    ("graphcore.subgraph_calls", "count"),
    ("graphcore.components_s", "s"),
    ("graphcore.traversal_s", "s"),
    ("graphcore.lambda2_s", "s"),
    ("graphcore.lambda2_calls", "count"),
    ("graphcore.mixing_exact_s", "s"),
    ("graphcore.mixing_exact_calls", "count"),
    ("graphcore.sparsest_cut_s", "s"),
    ("graphcore.orientation_check_s", "s"),
    ("runtime.self_s", "s"),
    ("runtime.engine_calls", "count"),
    ("runtime.engine_rounds", "rounds"),
    ("runtime.engine_messages", "messages"),
    ("runtime.bfs_build_calls", "count"),
    ("routing.self_s", "s"),
    ("routing.route_calls", "count"),
    ("routing.requests", "count"),
    ("routing.mixing_estimate_s", "s"),
    ("routing.mixing_estimate_incl_s", "s"),
    ("routing.assign_ids_s", "s"),
    ("nibble.self_s", "s"),
    ("nibble.search_calls", "count"),
    ("nibble.cuts_found", "count"),
    ("nibble.cut_ratio", "ratio"),
    ("nibble.screened", "count"),
    ("nibble.walk_rounds", "rounds"),
    ("decomposition.self_s", "s"),
    ("decomposition.decompose_calls", "count"),
    ("decomposition.partition_s", "s"),
    ("decomposition.partition_calls", "count"),
    ("decomposition.verify_s", "s"),
    ("decomposition.verify_calls", "count"),
    ("decomposition.peel_s", "s"),
    ("decomposition.diameter_cut_s", "s"),
    ("decomposition.clusters", "count"),
    ("decomposition.removed_edges", "count"),
    ("decomposition.sparse_edges", "count"),
    ("triangle.self_s", "s"),
    ("triangle.case1_owner_s", "s"),
    ("triangle.case1_owner_calls", "count"),
    ("triangle.expander_s", "s"),
    ("triangle.expander_calls", "count"),
    ("triangle.triads_calls", "count"),
    ("cli.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("cli.sim_messages", "messages"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.accounting_error", "ratio"),
)


@dataclass(frozen=True)
class Instance:
    index: int
    spec: str
    seed: int
    graph: str  # edge-list file the CLI and the oracle read
    out: str  # report file the CLI writes


@dataclass
class Call:
    index: int
    wall: float
    cpu: float  # main-thread CPU time, probes excluded
    ref: Optional[float] = None  # CPU time at the reference speed (untraced calls)
    sha: Optional[str] = None
    size: int = 0
    error: Optional[str] = None
    accounting_error: float = 0.0


@dataclass
class Pass:
    traced: bool
    calls: List[Call]
    layers: Dict[str, float]

    @property
    def seconds(self) -> float:
        return sum(c.wall for c in self.calls)


def pass_ref_s(passes: List[Pass]) -> float:
    """Sum over instances of the median reference-speed CPU time of its calls."""
    per_instance: Dict[int, List[float]] = {}
    for p in passes:
        for c in p.calls:
            if c.ref is not None:
                per_instance.setdefault(c.index, []).append(c.ref)
    return sum(statistics.median(v) for v in per_instance.values())


def best_pass_cpu_s(passes: List[Pass]) -> float:
    """Sum over instances of the least raw CPU time of each instance's calls."""
    best: Dict[int, float] = {}
    for p in passes:
        for c in p.calls:
            best[c.index] = min(c.cpu, best.get(c.index, c.cpu))
    return sum(best.values())


# ---------------------------------------------------------------------------
# environment


def pin_blas_threads() -> None:
    """Fix the BLAS/OpenMP pools; effective only before numpy loads."""
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "congestlab", "cli.py"))


def import_program() -> None:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401  (loaded lazily by the λ2 solver)
    import congestlab.cli  # noqa: F401


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# set-up


def instance_seed(workload: Workload, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload.name}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2 ** 31)


def plan(workload: Workload, seed: int, workdir: str) -> List[Instance]:
    specs = [spec for spec in workload.specs for _ in range(workload.copies)]
    return [
        Instance(
            index=i,
            spec=spec,
            seed=instance_seed(workload, seed, i),
            graph=os.path.join(workdir, f"g{i}.txt"),
            out=os.path.join(workdir, f"r{i}.json"),
        )
        for i, spec in enumerate(specs)
    ]


def cli_args(workload: Workload, inst: Instance) -> List[str]:
    return [
        "--mode", workload.mode,
        "--graph", inst.graph,
        "--seed", str(inst.seed),
        "--delta", DELTA,
        "--out", inst.out,
    ]


def setup(workload: Workload, instances: List[Instance], workdir: str) -> None:
    """Generate and write every input, then make one small warm-up call."""
    from congestlab import cli
    from congestlab.graphcore import generate, save_edge_list

    os.makedirs(workdir, exist_ok=True)
    for inst in instances:
        save_edge_list(generate(inst.spec, seed=inst.seed), inst.graph)
    warm = Instance(-1, workload.warmup, 1, os.path.join(workdir, "warm.txt"),
                    os.path.join(workdir, "warm.json"))
    save_edge_list(generate(warm.spec, seed=warm.seed), warm.graph)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        rc = cli.run_cli(cli_args(workload, warm))
    if rc != 0:
        raise RuntimeError(f"warm-up call exited with {rc}")


def setup_samples(workload: Workload, seed: int, count: int) -> List[dict]:
    """Time `count` set-ups, each in a fresh interpreter that does nothing else.

    Each sample is the child's own measurement, from before its imports to
    the end of the warm-up call: {"cpu": s, "ref": s}.
    """
    samples = []
    for k in range(count):
        workdir = os.path.join(WORK, f"setup-{os.getpid()}-{k}")
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", workdir,
               "--workload", workload.name, "--seed", str(seed)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# timed passes


def _sha256(path: str) -> Tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
            size += len(block)
    return h.hexdigest(), size


def _one_pass(workload: Workload, instances: List[Instance], tracer) -> Pass:
    """One call per instance; untraced calls are timed with the speed probe."""
    from congestlab import cli
    from probe import SpeedProbe

    probe = None if tracer else SpeedProbe()

    before = tracer.snapshot() if tracer else {}
    calls = []
    with open(os.devnull, "w") as sink:
        for inst in instances:
            argv = cli_args(workload, inst)
            layer_before = tracer.layer_total() if tracer else 0.0
            error = None
            rc = None
            # Each CLI invocation normally gets a fresh process; start every
            # call without the previous call's garbage.
            gc.collect()
            if probe:
                probe.start()
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    rc = cli.run_cli(argv)
            except Exception:  # an instance failure is counted, not fatal
                error = traceback.format_exc()
            wall = time.perf_counter() - t0
            if probe:
                cpu, ref, _ = probe.stop()
                call = Call(inst.index, wall, cpu, ref, error=error)
            else:
                call = Call(inst.index, wall, time.thread_time() - c0, error=error)
            if error is None and rc == 0:
                call.sha, call.size = _sha256(inst.out)
            elif error is None:
                call.error = f"exit code {rc}"
            if tracer:
                spent = tracer.layer_total() - layer_before
                call.accounting_error = abs(wall - spent) / wall
            calls.append(call)
    layers = {}
    if tracer:
        after = tracer.snapshot()
        layers = {k: v - before.get(k, 0) for k, v in after.items()}
    return Pass(tracer is not None, calls, layers)


def measure(workload: Workload, instances: List[Instance], seconds: float,
            trace: bool) -> List[Pass]:
    """Repeat passes for `seconds` (at least MIN_PASSES of them).

    With trace, the first pass runs untraced, for the overhead ratio, and
    every later pass runs with spans installed.
    """
    import spans

    passes: List[Pass] = []
    inst = None
    longest = 0.0
    start = time.perf_counter()
    try:
        while True:
            tracer = None
            if trace and passes:
                if inst is None:
                    inst = spans.install()
                tracer = inst.tracer
            t0 = time.perf_counter()
            passes.append(_one_pass(workload, instances, tracer))
            now = time.perf_counter()
            longest = max(longest, now - t0)
            if len(passes) >= MIN_PASSES and now - start + longest > seconds:
                break
    finally:
        if inst is not None:
            inst.uninstall()
    return passes


# ---------------------------------------------------------------------------
# checks


def oracle_error(mode: str, graph_path: str, doc: dict) -> Optional[str]:
    """Compare one report with the sequential oracle on the same edge list."""
    from congestlab.decomposition import decomposition_from_json, verify_decomposition
    from congestlab.graphcore import load_edge_list
    from congestlab.triangle import brute_force_triangles

    g = load_edge_list(graph_path)
    run = doc["runs"][0]
    if not run.get("ok"):
        return "report says ok=false"
    if mode == "count":
        want = brute_force_triangles(g).count
        if run["count"] != want:
            return f"count {run['count']} differs from brute force {want}"
    elif mode == "triangles":
        listed = [tuple(t) for t in run["triangles"]]
        if len(set(listed)) != len(listed):
            return "a triangle is listed more than once"
        if set(listed) != brute_force_triangles(g).triangles:
            return "listed triangles differ from brute force"
        if run["count"] != len(listed) or sum(run["attribution"].values()) != len(listed):
            return "attribution does not cover each triangle exactly once"
    elif mode == "decompose":
        d = decomposition_from_json(run["decomposition"])
        rep = verify_decomposition(g, float(DELTA), d)
        if not rep.ok:
            return "verify_decomposition: " + "; ".join(rep.failures)
        if 6 * len(d.er) > g.m:
            return f"{len(d.er)} removed edges exceed m/6 with m={g.m}"
    return None


def check(workload: Workload, instances: List[Instance], passes: List[Pass]
          ) -> Tuple[Dict[int, str], Dict[str, int]]:
    """Failure reason per failed instance, and the simulated totals of a pass.

    Every instance runs once per pass with the same seed, so its reports
    must be byte-identical across passes; the last report on disk is then
    checked against the oracle. A determinism or oracle failure fails every
    call of that instance.
    """
    failures: Dict[int, str] = {}
    totals = {"sim_rounds": 0, "sim_messages": 0}
    for inst in instances:
        calls = [c for p in passes for c in p.calls if c.index == inst.index]
        bad = [c for c in calls if c.error]
        if bad:
            failures[inst.index] = bad[0].error.strip().splitlines()[-1]
            continue
        if len({c.sha for c in calls}) != 1:
            failures[inst.index] = "report bytes differ between runs of one seed"
            continue
        try:
            with open(inst.out, encoding="utf-8") as fh:
                doc = json.load(fh)
            reason = oracle_error(workload.mode, inst.graph, doc)
        except Exception:  # a crashing oracle is a failed check
            reason = traceback.format_exc().strip().splitlines()[-1]
        if reason:
            failures[inst.index] = reason
            continue
        transcript = doc["runs"][0]["transcript"]
        totals["sim_rounds"] += transcript["rounds"]
        totals["sim_messages"] += transcript["message_count"]
    return failures, totals


def count_failed(passes: List[Pass], failures: Dict[int, str]) -> Tuple[int, int]:
    calls = [c for p in passes for c in p.calls]
    return len(calls), sum(1 for c in calls if c.error or c.index in failures)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes, setup_s, peak_rss_mb, totals, attempted, failed) -> dict:
    return {
        "pass_ref_s": pass_ref_s(passes),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "sim_rounds": totals["sim_rounds"],
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(passes: List[Pass], totals: Dict[str, int]) -> dict:
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    values = {
        name: statistics.median_low(p.layers.get(name, 0) for p in traced)
        for name, _ in PER_LAYER
    }
    searches = values["nibble.search_calls"]
    values["nibble.cut_ratio"] = values["nibble.cuts_found"] / searches if searches else 0.0
    values["cli.report_bytes"] = statistics.median(
        sum(c.size for c in p.calls) for p in traced
    )
    values["cli.sim_messages"] = totals["sim_messages"]
    values["trace.overhead_ratio"] = best_pass_cpu_s(traced) / best_pass_cpu_s(plain)
    values["trace.accounting_error"] = max(c.accounting_error for p in traced for c in p.calls)
    return values


def result_line(correct: bool, attempted: int, failed: int, values: dict, units) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 workdir: str, setups: Optional[List[dict]] = None
                 ) -> Tuple[dict, dict]:
    """Set up, measure, check; returns (result line, detail record).

    `setups` are the set-up samples timed in fresh interpreters (see
    setup_samples); setup_s is the median of their reference-speed times.
    """
    instances = plan(workload, seed, workdir)
    setup(workload, instances, workdir)
    passes = measure(workload, instances, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures, totals = check(workload, instances, passes)
    attempted, failed = count_failed(passes, failures)
    correct = failed == 0
    if trace:
        values = per_layer(passes, totals)
        if values["trace.accounting_error"] > ACCOUNTING_TOLERANCE:
            correct = False
            print(f"layer self times miss an instance's wall time by "
                  f"{values['trace.accounting_error']:.1%}", file=sys.stderr)
        line = result_line(correct, attempted, failed, values, PER_LAYER)
    else:
        setup_s = statistics.median(s["ref"] for s in setups)
        values = end_to_end(passes, setup_s, peak_rss_mb, totals, attempted, failed)
        line = result_line(correct, attempted, failed, values, END_TO_END)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "setups": setups,
        "instances": [
            {"index": i.index, "spec": i.spec, "seed": i.seed} for i in instances
        ],
        "passes": [
            {"traced": p.traced, "seconds": p.seconds,
             "calls": [{"index": c.index, "wall": c.wall, "cpu": c.cpu, "ref": c.ref,
                        "sha256": c.sha}
                       for c in p.calls]}
            for p in passes
        ],
        "failures": {str(k): v for k, v in failures.items()},
        "result": line,
    }
    return line, detail


# ---------------------------------------------------------------------------
# command line


def _print_metrics(prefix: str, line: dict) -> None:
    for name, m in line["metrics"].items():
        print(f"{prefix}{name} = {m['value']} {m['unit']}")


def _run_all(args) -> int:
    """Run each workload in its own process and print one table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        line = json.loads(lines[-1])
        _print_metrics(f"{name}: ", line)
        merged["correct"] = merged["correct"] and line["correct"]
        merged["attempted"] += line["attempted"]
        merged["failed"] += line["failed"]
        for metric, m in line["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not program_present():
        print(f"error: congestlab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    pin_blas_threads()
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        from probe import SpeedProbe

        probe = SpeedProbe()
        probe.start()
        import_program()
        setup(workload, plan(workload, args.seed, args.setup_only), args.setup_only)
        cpu, ref, _ = probe.stop()
        print(json.dumps({"cpu": cpu, "ref": ref}))
        return 0
    import_program()

    workdir = os.path.join(WORK, f"{workload.name}-{args.seed}-{os.getpid()}")
    setups = None
    if not args.trace:
        setups = setup_samples(workload, args.seed, SETUP_SAMPLES)
    try:
        line, detail = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), workdir, setups
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(WORK, exist_ok=True)
    record = os.path.join(
        WORK, f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=2, sort_keys=True)
    for index, reason in sorted(detail["failures"].items()):
        print(f"failed instance {index}: {reason}", file=sys.stderr)
    print("environment " + json.dumps(detail["environment"], sort_keys=True))
    _print_metrics("", line)
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
