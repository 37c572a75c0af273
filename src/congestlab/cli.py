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
from typing import Dict, List, Optional

from .decomposition import (
    _report_field,
    decompose,
    decomposition_from_json,
    verify_decomposition,
)
from .graphcore import GraphError, connected_components, generate, load_edge_list
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


def _parse_kv(text: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise GraphError(f"expected key=value, got '{part}'")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _config_from_args(args) -> dict:
    cfg = {k: getattr(args, k) for k in CONFIG_KEYS}
    mode = args.mode
    if args.seeds < 1:
        raise GraphError("--seeds must be at least 1")
    if mode != "verify":
        if args.seed is None:
            raise GraphError("--seed is mandatory (no wall-clock seeding)")
        if not args.graph and not args.gen:
            raise GraphError("one of --graph or --gen is required")
    if mode == "nibble" and args.phi is None:
        raise GraphError("--phi is required for nibble")
    if mode == "subgraphs":
        if not args.mode_args:
            raise GraphError("subgraphs needs --mode-args s=SIZE")
        kv = _parse_kv(args.mode_args) if "=" in args.mode_args else {"s": args.mode_args}
        try:
            cfg["subgraph_size"] = int(kv["s"])
        except (KeyError, ValueError):
            raise GraphError("subgraphs needs --mode-args s=SIZE")
    if mode == "probe":
        if not args.mode_args:
            raise GraphError("probe needs --mode-args q=Q[,trials=T]")
        kv = _parse_kv(args.mode_args)
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
        "decomposition": d.as_json(),
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
    comp = max(connected_components(g), key=len)
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
        doc = res.as_json()
        run["triangles"] = doc["triangles"]
        run["attribution"] = doc["attribution"]
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
    with open(cfg["mode_args"], "r", encoding="utf-8") as fh:
        doc = _report_field(json.load(fh), dict, "file")
    inner = _report_field(doc["config"], dict, "config")
    delta = inner["delta"]
    if type(delta) not in (int, float) or not 0 < delta < 1:
        raise GraphError(f"report config delta {delta!r} does not lie in (0, 1)")
    results = []
    all_ok = True
    for run in _report_field(doc["runs"], list, "runs"):
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
    return _apply_round_cap(cfg, _RUNNERS[cfg["mode"]](cfg, seed))


def _worker_cap(jobs: int) -> int:
    env = os.environ.get("CONGEST_LAB_THREADS")
    try:
        cap = int(env) if env else (os.cpu_count() or 1)
    except ValueError:
        raise GraphError(f"CONGEST_LAB_THREADS={env!r} is not an integer") from None
    return max(1, min(jobs, cap))


def _run_all(cfg: dict) -> List[dict]:
    base = cfg["seed"] if cfg["seed"] is not None else 0
    seeds = [base + i for i in range(cfg["seeds"])]
    if cfg["mode"] == "verify" or len(seeds) == 1:
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


def run_cli(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        runs = _run_all(cfg)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = {
        "schema": SCHEMA,
        "config": {k: cfg[k] for k in CONFIG_KEYS},
        "runs": runs,
        "summary": _summary(cfg, runs),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_CSV_COLUMNS[cfg["mode"]])
            writer.writeheader()
            for run in runs:
                writer.writerow(_csv_row(cfg["mode"], run))
    print(report["summary"])
    return 0 if all(r["ok"] for r in runs) else 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
