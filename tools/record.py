"""Speed records of beliefpool, written as BENCH_*.json files.

    PYTHONPATH=src python tools/record.py layers --out BENCH_layers.json
    PYTHONPATH=src python tools/record.py layers --selftest

The script times the beliefpool that PYTHONPATH names, so one copy of it
records any checkout: point PYTHONPATH at another tree's src/ to record
that tree. Each mode is a subcommand.

layers times, in this process and on fixed seeds, the layers that a
`query` or `aggregate` command is made of:

- load_m120, load_m30: one load_networks call on the files of three
  agents that share one random structure, at m=120 and at m=30, as
  query-mix's linop and logop requests load them;
- save_consensus: one save of the query-route consensus of the m=30
  agents, network_to_dict plus json_text, without the write;
- linop_query: one linop_query on the m=120 agents, with fixed weights,
  a one-variable event and three evidence variables;
- axioms_suite: one run_axioms_suite at AXIOMS_TRIALS trials, as a
  `check --suite axioms` request runs it, on seeds 0, 1, 2, ... in turn
  (the warm-up run takes seed 0).

Each layer runs REPEATS times after one untimed warm-up run; the
record keeps the best and the median time in seconds. The agent files
come from this script's own numpy draws, never from the package, so
every checkout is timed on the same bytes. The record names its host
(python, numpy, orjson, nproc) and the git rev of the timed checkout,
with "dirty" set when that tree has uncommitted changes.

--selftest runs every layer at tiny sizes (the axioms suite at one
trial), checks the record's schema,
prints "ok" and writes nothing unless --out is given.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SCHEMA = "beliefpool-layers/2"
REPEATS = 25
AXIOMS_TRIALS = 20  # the check command's default
LOW, HIGH = 0.05, 0.95
# (m, edge probability) of the two agent groups, as in query-mix.
SIZES = {"m120": (120, 0.02), "m30": (30, 0.05)}
TINY = {"m120": (8, 0.3), "m30": (6, 0.4)}
LAYERS = ("load_m120", "load_m30", "save_consensus", "linop_query", "axioms_suite")
HOST_FIELDS = ("python", "numpy", "orjson", "nproc", "machine")


def _row_key(r: int, k: int) -> str:
    """Character i of a row key is bit i of the row index."""
    return "".join("1" if r >> i & 1 else "0" for i in range(k))


def agent_files(rng: np.random.Generator, m: int, edge_prob: float, folder: Path) -> list[str]:
    """Three agents on one random DAG over m variables, each with CPT rows
    drawn from [LOW, HIGH], written as network files; their paths."""
    perm = rng.permutation(m)
    parents: list[list[int]] = [[] for _ in range(m)]
    for i in range(m):
        for j in range(i):
            if len(parents[perm[i]]) < 3 and rng.random() < edge_prob:
                parents[perm[i]].append(int(perm[j]))
    labels = [f"x{i}" for i in range(m)]
    paths = []
    for agent in range(3):
        cpts = {
            labels[v]: {
                "parents": [labels[p] for p in ps],
                "rows": {
                    _row_key(r, len(ps)): float(x)
                    for r, x in enumerate(rng.uniform(LOW, HIGH, 1 << len(ps)))
                },
            }
            for v, ps in enumerate(parents)
        }
        data = {
            "kind": "bayes",
            "variables": labels,
            "edges": [[labels[p], labels[v]] for v, ps in enumerate(parents) for p in ps],
            "cpts": cpts,
        }
        path = folder / f"{m}-{agent}.json"
        path.write_text(json.dumps(data, indent=2) + "\n")
        paths.append(str(path))
    return paths


def timed(run, repeats: int) -> dict:
    """Best and median seconds of repeats calls of run, after one more."""
    run()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return {"best_s": min(times), "median_s": statistics.median(times)}


def checkout_rev(package_dir: Path) -> dict:
    """The git rev of the checkout that holds package_dir, and whether
    its tree has uncommitted changes; None for each outside git."""
    def git(*args):
        try:
            done = subprocess.run(
                ["git", "-C", str(package_dir), *args],
                capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"rev": rev, "dirty": None if rev is None or status is None else bool(status)}


def layers_record(repeats: int, sizes: dict, trials: int) -> dict:
    """The layers mode's record: host, checkout and per-layer times, the
    axioms suite's at the given trials."""
    import beliefpool
    import orjson
    from beliefpool.axioms import run_axioms_suite
    from beliefpool.consensus import linop_query, logop_consensus_bn
    from beliefpool.model_io import json_text, load_networks, network_to_dict

    rng = np.random.default_rng(20261020)
    with tempfile.TemporaryDirectory() as folder:
        files = {
            name: agent_files(rng, m, edge_prob, Path(folder))
            for name, (m, edge_prob) in sizes.items()
        }
        agents = load_networks(files["m120"])
        m = agents[0].m
        picked = [int(v) for v in rng.choice(m, 4, replace=False)]
        event = {picked[0]: True}
        evidence = {v: bool(rng.integers(0, 2)) for v in picked[1:]}
        weights = [0.2, 0.3, 0.5]
        consensus = logop_consensus_bn(load_networks(files["m30"])).bn
        seeds = itertools.count()
        layers = {
            "load_m120": timed(lambda: load_networks(files["m120"]), repeats),
            "load_m30": timed(lambda: load_networks(files["m30"]), repeats),
            "save_consensus": timed(
                lambda: json_text(network_to_dict(consensus)), repeats
            ),
            "linop_query": timed(
                lambda: linop_query(agents, event, evidence, weights), repeats
            ),
            "axioms_suite": timed(lambda: run_axioms_suite(next(seeds), trials), repeats),
        }
    host = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "orjson": orjson.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
    return {
        "schema": SCHEMA,
        "host": host,
        "checkout": checkout_rev(Path(beliefpool.__file__).resolve().parent),
        "repeats": repeats,
        "sizes": {name: {"m": m, "edge_prob": p} for name, (m, p) in sizes.items()},
        "axioms_trials": trials,
        "layers": layers,
    }


def schema_errors(record: dict) -> list[str]:
    """Every way record departs from the layers schema; [] when none."""
    errors = []
    if record.get("schema") != SCHEMA:
        errors.append(f"schema is {record.get('schema')!r}, not {SCHEMA!r}")
    host = record.get("host", {})
    errors += [f"host lacks {key}" for key in HOST_FIELDS if key not in host]
    checkout = record.get("checkout", {})
    errors += [f"checkout lacks {key}" for key in ("rev", "dirty") if key not in checkout]
    for key in ("repeats", "axioms_trials"):
        if not isinstance(record.get(key), int) or record[key] < 1:
            errors.append(f"{key} must be a positive integer")
    layers = record.get("layers", {})
    if tuple(layers) != LAYERS:
        errors.append(f"layers are {list(layers)}, not {list(LAYERS)}")
    for name, times in layers.items():
        best, median = times.get("best_s"), times.get("median_s")
        if not all(isinstance(t, float) and t > 0.0 for t in (best, median)) or best > median:
            errors.append(f"{name}: need 0 < best_s <= median_s, got {times}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    layers = modes.add_parser("layers", help="time the load, save, query and axioms layers")
    layers.add_argument("--out", type=Path, help="the BENCH_*.json file to write")
    layers.add_argument("--selftest", action="store_true", help="tiny sizes; check the schema")
    args = parser.parse_args(argv)
    if args.selftest:
        record = layers_record(2, TINY, 1)
    elif args.out is None:
        parser.error("layers needs --out, or --selftest")
    else:
        record = layers_record(REPEATS, SIZES, AXIOMS_TRIALS)
    errors = schema_errors(record)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    if args.selftest:
        print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
