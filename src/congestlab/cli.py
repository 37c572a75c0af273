"""Command-line front end: one experiment per invocation, JSON reports.

Every run is seeded explicitly; a report embeds the config that produced
it, so replaying {config, seed} reproduces the results bit-for-bit. Exit
codes: 0 success, 2 verification failure, 1 usage or input error.
"""

import argparse
import csv
import json
import math
import os
import sys
from concurrent import futures
from itertools import chain
from typing import Callable, Dict, List, Optional

import numpy as np

from .decomposition import (
    _report_field,
    decompose,
    decomposition_from_json,
    verify_decomposition,
)
from .graphcore import (
    GraphError,
    _read_utf8,
    _spectral_memo,
    connected_components,
    generate,
    load_edge_list,
)
from .nibble import distributed_nibble
from .triangle import (
    edge_concentration_probe,
    enumerate_general,
    enumerate_subgraphs,
)

SCHEMA = "congestlab-report/1"
MODES = (
    "decompose",
    "nibble",
    "triangles",
    "count",
    "detect",
    "subgraphs",
    "verify",
    "probe",
)
# The options a report echoes as its config, so that a rerun reproduces it.
CONFIG_KEYS = (
    "mode", "graph", "gen", "seed", "seeds", "delta", "phi", "kappa",
    "round_cap", "mode_args", "case1_threshold_scale",
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; usage errors must exit 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="congestlab", description=__doc__.splitlines()[0])
    p.add_argument("--mode", required=True, choices=MODES)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--graph", help="edge-list file, 'u v' per line")
    src.add_argument("--gen", help="generator spec, e.g. er:n=512,p=0.25")
    p.add_argument("--seed", type=int, help="base seed (mandatory except for verify)")
    p.add_argument("--seeds", type=int, default=1, help="batch size, seeds seed..seed+N-1")
    p.add_argument("--delta", type=float, default=0.5, help="decomposition exponent")
    p.add_argument("--phi", type=float, help="nibble conductance target")
    p.add_argument("--kappa", type=int, help="routing bandwidth override")
    p.add_argument("--round-cap", type=int, help="fail the run if rounds exceed this")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--csv", help="write one flattened CSV row per run here")
    p.add_argument(
        "--mode-args",
        help="mode-specific argument: verify=report path, subgraphs=s=4, probe=q=8,trials=100",
    )
    p.add_argument(
        "--case1-threshold-scale",
        type=float,
        default=1.0,
        help="test-only decomposition knob, recorded in the report",
    )
    return p


# The --mode-args keys of each mode that reads key=value pairs; verify
# reads a report path, and every other mode takes no --mode-args.
MODE_ARG_KEYS = {"subgraphs": ("s",), "probe": ("q", "trials")}
# The modes that read each mode-specific option, and the option's default;
# every other mode refuses the option at any other value.
_NOT_VERIFY = tuple(m for m in MODES if m != "verify")
MODE_OPTIONS = {
    "phi": (("nibble",), None),
    "kappa": (("triangles", "count", "detect", "subgraphs"), None),
    "case1_threshold_scale": (("decompose",), 1.0),
    "delta": (("decompose", "triangles", "count", "detect"), 0.5),
    "round_cap": (tuple(m for m in _NOT_VERIFY if m != "probe"), None),
    # verify reads the graph and its seeds from the report
    "seeds": (_NOT_VERIFY, 1),
    "graph": (_NOT_VERIFY, None),
    "gen": (_NOT_VERIFY, None),
}


def _parse_kv(text: str, mode: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise GraphError(f"expected key=value, got '{part}'")
        k, v = (x.strip() for x in part.split("=", 1))
        if k not in MODE_ARG_KEYS[mode]:
            raise GraphError(f"{mode} takes no --mode-args key '{k}'")
        if k in out:
            raise GraphError(f"--mode-args key '{k}' is given twice")
        out[k] = v
    return out


def _config_from_args(args) -> dict:
    cfg = {k: getattr(args, k) for k in CONFIG_KEYS}
    mode = args.mode
    if args.seeds < 1:
        raise GraphError("--seeds must be at least 1")
    # routing.route refuses the same kappa, but only when a run routes.
    if args.kappa is not None and args.kappa < 1:
        raise GraphError("kappa must be at least 1")
    if args.round_cap is not None and args.round_cap < 0:
        raise GraphError("--round-cap must be nonnegative")
    if mode != "verify":
        if args.seed is None:
            raise GraphError("--seed is mandatory (no wall-clock seeding)")
        if not args.graph and not args.gen:
            raise GraphError("one of --graph or --gen is required")
    if mode == "nibble" and args.phi is None:
        raise GraphError("--phi is required for nibble")
    for key, (modes, default) in MODE_OPTIONS.items():
        if mode not in modes and getattr(args, key) != default:
            raise GraphError(f"{mode} takes no --{key.replace('_', '-')}")
    if args.mode_args is not None and mode not in MODE_ARG_KEYS and mode != "verify":
        raise GraphError(f"{mode} takes no --mode-args")
    if mode == "subgraphs":
        if not args.mode_args:
            raise GraphError("subgraphs needs --mode-args s=SIZE")
        kv = _parse_kv(args.mode_args, mode) if "=" in args.mode_args else {"s": args.mode_args}
        try:
            cfg["subgraph_size"] = int(kv["s"])
        except (KeyError, ValueError):
            raise GraphError("subgraphs needs --mode-args s=SIZE")
    if mode == "probe":
        if not args.mode_args:
            raise GraphError("probe needs --mode-args q=Q[,trials=T]")
        kv = _parse_kv(args.mode_args, mode)
        try:
            cfg["probe_q"] = int(kv["q"])
            cfg["probe_trials"] = int(kv.get("trials", "20"))
        except (KeyError, ValueError):
            raise GraphError("probe needs --mode-args q=Q[,trials=T]")
    if mode == "verify" and not args.mode_args:
        raise GraphError("verify needs --mode-args REPORT.json")
    return cfg


def _build_graph(cfg: dict, seed):
    if cfg.get("graph"):
        return load_edge_list(cfg["graph"])
    return generate(cfg["gen"], seed=seed)


def _apply_round_cap(cfg: dict, run: dict) -> dict:
    cap = cfg.get("round_cap")
    if cap is not None and "transcript" in run:
        if run["transcript"]["rounds"] > cap:
            run["ok"] = False
            run["round_cap_exceeded"] = True
    return run


def _run_decompose(cfg: dict, seed: int) -> dict:
    g = _build_graph(cfg, seed)
    d, t = decompose(
        g, cfg["delta"], seed=seed, threshold_scale=cfg["case1_threshold_scale"]
    )
    rep = verify_decomposition(g, cfg["delta"], d)
    return {
        "seed": seed,
        "n": g.n,
        "m": g.m,
        "clusters": len(d.clusters),
        "er_edges": len(d.er),
        "er_within_sixth": rep.checks["removed-fraction"],
        # E_m and E_r stay arrays, for `_write_json`'s per-id tables
        "decomposition": d._layout(np.asarray),
        "verify": {
            "ok": rep.ok,
            "checks": rep.checks,
            "failures": rep.failures,
            "flags": rep.flags,
        },
        "transcript": t.as_json(),
        "ok": rep.ok,
    }


def _run_nibble(cfg: dict, seed: int) -> dict:
    g = _build_graph(cfg, seed)
    comp = max(connected_components(g), key=len, default=[])
    res = distributed_nibble(g, comp, cfg["phi"], seed=seed)
    run = {
        "seed": seed,
        "n": g.n,
        "m": g.m,
        "component_size": len(comp),
        "status": res.status,
        "ok": True,
    }
    if res.cut is not None:
        run["cut"] = res.cut.as_json()
        run["certificate"] = res.certificate
    run["transcript"] = res.transcript.as_json()
    return run


def _run_triangles(cfg: dict, seed: int) -> dict:
    g = _build_graph(cfg, seed)
    res, t = enumerate_general(g, cfg["delta"], seed=seed, kappa=cfg["kappa"])
    run = {
        "seed": seed,
        "n": g.n,
        "m": g.m,
        "count": res.count,
        "detected": res.count > 0,
        "transcript": t.as_json(),
        "ok": True,
    }
    if cfg["mode"] == "triangles":
        run["triangles"] = res.rows()
        run["attribution"] = {str(v): c for v, c in res.reporter_counts().items()}
    return run


def _run_subgraphs(cfg: dict, seed: int) -> dict:
    g = _build_graph(cfg, seed)
    res, t = enumerate_subgraphs(g, cfg["subgraph_size"], seed=seed, kappa=cfg["kappa"])
    return {
        "seed": seed,
        "n": g.n,
        "m": g.m,
        "size": cfg["subgraph_size"],
        "count": res.count,
        "occurrences": [list(o) for o in sorted(res.occurrences)],
        "transcript": t.as_json(),
        "ok": True,
    }


def _run_probe(cfg: dict, seed: int) -> dict:
    g = _build_graph(cfg, seed)
    pr = edge_concentration_probe(
        g, cfg["probe_q"], seed=seed, trials=cfg["probe_trials"]
    )
    ok_trials = sum(1 for x in pr.per_trial if x <= pr.bound)
    return {
        "seed": seed,
        "n": g.n,
        "m": g.m,
        "q": cfg["probe_q"],
        "trials": len(pr.per_trial),
        "per_trial": pr.per_trial,
        "max_pair_edges": pr.max_pair_edges,
        "bound": pr.bound,
        "degree_ok": pr.degree_ok,
        "ok_trials": ok_trials,
        "ok": True,
    }


def _run_verify(cfg: dict, seed) -> dict:
    doc = _report_field(json.loads(_read_utf8(cfg["mode_args"])), dict, "file")
    inner = _report_field(doc["config"], dict, "config")
    delta = inner["delta"]
    if type(delta) not in (int, float) or not 0 < delta < 1:
        raise GraphError(f"report config delta {delta!r} does not lie in (0, 1)")
    runs = _report_field(doc["runs"], list, "runs")
    if not runs:
        raise GraphError("report has no runs to verify")
    results = []
    all_ok = True
    for run in runs:
        run = _report_field(run, dict, "run")
        if "decomposition" not in run:
            raise GraphError("report has no decomposition to verify")
        if type(run["seed"]) is not int:
            raise GraphError(f"report run seed {run['seed']!r} is not an integer")
        g = _build_graph(inner, run["seed"])
        d = decomposition_from_json(run["decomposition"])
        rep = verify_decomposition(g, delta, d)
        # The decomposition's own delta and threshold must be the config's.
        rep.checks["config-delta"] = d.delta == delta and math.isclose(
            d.threshold, g.n ** delta
        )
        if not rep.checks["config-delta"]:
            rep.failures.append(
                f"config-delta: report delta {d.delta!r} and threshold"
                f" {d.threshold!r} differ from config delta {delta!r} and"
                f" n^delta = {g.n ** delta!r}"
            )
        ok = rep.ok and rep.checks["config-delta"]
        all_ok = all_ok and ok
        results.append(
            {
                "seed": run["seed"],
                "ok": ok,
                "checks": rep.checks,
                "failures": rep.failures,
                "flags": rep.flags,
            }
        )
    return {"seed": seed, "report": cfg["mode_args"], "results": results, "ok": all_ok}


_RUNNERS = {
    "decompose": _run_decompose,
    "nibble": _run_nibble,
    "triangles": _run_triangles,
    "count": _run_triangles,
    "detect": _run_triangles,
    "subgraphs": _run_subgraphs,
    "probe": _run_probe,
    "verify": _run_verify,
}


def _execute(cfg: dict, seed) -> dict:
    """One run of one seed. Within it, λ2 and the exact mixing time are
    solved once per graph content (`graphcore._spectral_memo`): the nibble
    screen, `decompose`'s verify and `_run_decompose`'s second verify
    share the value of byte-equal CSR arrays. The verifier still rebuilds
    every cluster from the report's rows, so a cluster that differs is
    solved anew. Nothing is kept from one run to the next."""
    with _spectral_memo():
        return _apply_round_cap(cfg, _RUNNERS[cfg["mode"]](cfg, seed))


def _worker_cap(jobs: int) -> int:
    """Worker processes for `jobs` seeds: at most one per CPU, and fewer
    when CONGEST_LAB_THREADS asks for fewer."""
    cpus = os.cpu_count() or 1
    env = os.environ.get("CONGEST_LAB_THREADS")
    try:
        cap = int(env) if env else cpus
    except ValueError:
        raise GraphError(f"CONGEST_LAB_THREADS={env!r} is not an integer") from None
    return max(1, min(jobs, cap, cpus))


def _run_all(cfg: dict) -> List[dict]:
    base = cfg["seed"] if cfg["seed"] is not None else 0
    seeds = [base + i for i in range(cfg["seeds"])]
    if len(seeds) == 1:
        return [_execute(cfg, seeds[0])]
    workers = _worker_cap(len(seeds))
    if workers <= 1:
        return [_execute(cfg, s) for s in seeds]
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_execute, [cfg] * len(seeds), seeds))


def _summary(cfg: dict, runs: List[dict]) -> str:
    mode = cfg["mode"]
    first = runs[0]
    ok = all(r["ok"] for r in runs)
    if mode in ("triangles", "count"):
        line = f"triangles={first['count']}"
    elif mode == "detect":
        line = f"detected={str(first['detected']).lower()}"
    elif mode == "subgraphs":
        line = f"subgraphs={first['count']}"
    elif mode == "decompose":
        line = (
            f"clusters={first['clusters']} er_edges={first['er_edges']}"
            f" verified={str(ok).lower()}"
        )
    elif mode == "nibble":
        if "cut" in first:
            num, den = first["cut"]["phi"]
            line = f"cut_size={len(first['cut']['side'])} phi={num / den:.6g}"
        else:
            line = f"cut=none status={first['status']}"
    elif mode == "probe":
        line = (
            f"max_pair={first['max_pair_edges']} bound={first['bound']:.6g}"
            f" ok_trials={first['ok_trials']}/{first['trials']}"
        )
    else:
        line = f"verified={str(ok).lower()}"
    if len(runs) > 1:
        line += f" seeds={len(runs)}"
    return line


_CSV_COLUMNS = {
    "decompose": ("seed", "n", "m", "clusters", "er_edges", "rounds", "ok"),
    "nibble": ("seed", "n", "m", "status", "cut_size", "phi", "rounds"),
    "triangles": ("seed", "n", "m", "count", "rounds", "messages"),
    "count": ("seed", "n", "m", "count", "rounds", "messages"),
    "detect": ("seed", "n", "m", "detected", "rounds", "messages"),
    "subgraphs": ("seed", "n", "m", "size", "count", "rounds"),
    "probe": ("seed", "n", "m", "q", "trials", "max_pair_edges", "bound", "ok_trials"),
    "verify": ("seed", "ok"),
}


def _csv_row(mode: str, run: dict) -> dict:
    t = run.get("transcript", {})
    extra = {
        "rounds": t.get("rounds", ""),
        "messages": t.get("message_count", ""),
        "cut_size": len(run["cut"]["side"]) if "cut" in run else "",
        "phi": (
            run["cut"]["phi"][0] / run["cut"]["phi"][1] if "cut" in run else ""
        ),
    }
    row = {}
    for col in _CSV_COLUMNS[mode]:
        row[col] = extra[col] if col in extra else run.get(col, "")
    return row


# Scalars and non-str keys are encoded by the stdlib; ensure_ascii and
# allow_nan keep their json.dumps defaults.
_SCALAR = json.JSONEncoder(sort_keys=True)
# Items or rows of a fast-path list or array formatted per write call.
_CHUNK = 4096


def _json_key(key) -> str:
    """A dict key as json writes it: True is 'true', 1.5 is '1.5'."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _SCALAR.encode(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


def _int_formatter(items, depth: int) -> Optional[Callable[[int], str]]:
    """A chunk formatter when items, a nonempty list, holds only exact ints
    or only flat rows of exact ints of one length, or is a nonempty 2-D
    integer array; rows open at `depth`.

    fmt(i) is the text of items i to i + _CHUNK, joined by the separator
    between items. Bools are not exact ints, so they never take this
    path. List items are formatted with one % each; array rows come from
    per-id text tables (`_array_formatter`).
    """
    if isinstance(items, np.ndarray):
        return _array_formatter(items, depth)
    sep = ",\n" + "  " * depth
    kinds = set(map(type, items))
    if kinds == {int}:
        return lambda i: sep.join(map("%d".__mod__, items[i : i + _CHUNK]))
    if not kinds <= {list, tuple}:
        return None
    widths = set(map(len, items))
    if len(widths) != 1 or 0 in widths:
        return None
    if set(map(type, chain.from_iterable(items))) != {int}:
        return None
    row = _row_format(widths.pop(), depth)
    return lambda i: sep.join(map(row.__mod__, map(tuple, items[i : i + _CHUNK])))


def _array_formatter(arr: np.ndarray, depth: int) -> Callable[[int], str]:
    """fmt(i) for a nonempty 2-D int array whose rows open at `depth`.

    Each distinct value becomes text once, in a table with one column per
    array column: column 0 holds, per id, the previous row's close, the
    separator, this row's open bracket and the id; every other column
    holds the comma and the id. The text of rows i to i + _CHUNK is one
    gather from the table, each column from its own column, and one join,
    with the first row's lead (it has no previous row) cut off and the
    last row's close added.

    An id's slot is its offset from the minimum when the values span
    fewer slots than the array has values, and its rank among the
    distinct values otherwise, so the table never outgrows the array.
    """
    indent = "  " * depth
    inner = "\n" + indent + "  "
    tail = "\n" + indent + "]"
    lead = tail + ",\n" + indent
    low = arr.min()
    lo, hi = int(low), int(arr.max())
    if hi - lo < arr.size:
        ids = range(lo, hi + 1)
        # Offsets lie in [0, hi - lo]: int64 arithmetic, which wraps
        # modulo 2**64 like the cast from uint64, gives them exactly.
        base = low.astype(np.int64)

        def slots(i: int) -> np.ndarray:
            return arr[i : i + _CHUNK].astype(np.int64, copy=False) - base

    else:
        distinct, inverse = np.unique(arr, return_inverse=True)
        ids, inverse = distinct.tolist(), inverse.reshape(arr.shape)

        def slots(i: int) -> np.ndarray:
            return inverse[i : i + _CHUNK]

    texts = list(map(str, ids))
    table = np.empty((len(texts), arr.shape[1]), dtype=object)
    table[:, 0] = np.array([lead + "[" + inner + t for t in texts], dtype=object)
    table[:, 1:] = np.array(["," + inner + t for t in texts], dtype=object)[:, None]
    columns = np.arange(arr.shape[1])

    def fmt(i: int) -> str:
        parts = table[slots(i), columns].ravel().tolist()
        parts[0] = parts[0][len(lead) :]
        parts.append(tail)
        return "".join(parts)

    return fmt


def _row_format(width: int, depth: int) -> str:
    """The %-format of one int row of `width` items that opens at `depth`."""
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(["%d"] * width) + "\n" + "  " * depth + "]"


def _write_json(obj, fh, depth: int = 0) -> None:
    """Write obj to fh exactly as json.dumps(obj, indent=2, sort_keys=True),
    with a numpy array written as its tolist().

    The text goes out piece by piece, never as one string: an int list, a
    list of int rows (E_s parts, occurrences) or a 2-D int array
    (triangles, E_m and E_r rows) is formatted _CHUNK items or rows per
    write. Any other array, such as rows of Python ints past int64, goes
    through tolist().
    """
    if isinstance(obj, np.ndarray) and not (
        obj.ndim == 2 and obj.dtype.kind in "iu" and obj.size
    ):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            fh.write("{}")
            return
        inner = "\n" + "  " * (depth + 1)
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            fh.write(sep + _SCALAR.encode(_json_key(key)) + ": ")
            _write_json(value, fh, depth + 1)
            sep = "," + inner
        fh.write("\n" + "  " * depth + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            fh.write("[]")
            return
        inner = "\n" + "  " * (depth + 1)
        sep = "," + inner
        fh.write("[" + inner)
        fmt = _int_formatter(obj, depth + 1)
        if fmt is not None:
            for i in range(0, len(obj), _CHUNK):
                if i:
                    fh.write(sep)
                fh.write(fmt(i))
        else:
            for i, item in enumerate(obj):
                if i:
                    fh.write(sep)
                _write_json(item, fh, depth + 1)
        fh.write("\n" + "  " * depth + "]")
    else:
        fh.write(_SCALAR.encode(obj))


def run_cli(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        runs = _run_all(cfg)
        report = {
            "schema": SCHEMA,
            "config": {k: cfg[k] for k in CONFIG_KEYS},
            "runs": runs,
            "summary": _summary(cfg, runs),
        }
        if args.out:
            # Byte for byte what json.dump(report, indent=2, sort_keys=True)
            # writes, but one write per chunk of int items or rows: int lists
            # and lists of int rows (E_s parts, occurrences) by one % per
            # item or row, triangle, E_m and E_r arrays by gathering and
            # joining each id's text, made once per array. The stdlib's
            # indenting encoder is pure Python.
            with open(args.out, "w", encoding="utf-8") as fh:
                _write_json(report, fh)
                fh.write("\n")
        if args.csv:
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=_CSV_COLUMNS[cfg["mode"]])
                writer.writeheader()
                for run in runs:
                    writer.writerow(_csv_row(cfg["mode"], run))
    except (GraphError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report["summary"])
    return 0 if all(r["ok"] for r in runs) else 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
