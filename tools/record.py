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
  (the warm-up run takes seed 0);
- structure_shared_m1000: one consensus_bn_structure call on three
  agents of one sparse random DAG over 1,000 variables (each variable
  with at most 2 parents, each earlier variable of a random order a
  parent with probability 0.002). Beside its times the layer records
  its work: the fill edges that min-fill adds to the union of the
  moralized agent structures, the variables of the largest family (a
  node and its parents) and the CPT rows, sum 2**|parents|;
- fill_query_unshared_m28, fill_factor_unshared_m28: one
  logop_consensus_bn call on the files of three agents over 28
  variables, each on its own random structure (at most 2 parents, edge
  probability 0.15), on the query route and on the factor route
  (dense_oracle=True). Their work: the consensus CPT rows, the agent
  queries the build issued (none on the factor route) and the
  variables of the largest family.

Each layer runs REPEATS times after one untimed warm-up run, and before
each timed run a fixed calibration task: bench/run.py's Clock._task,
restated here so that the script imports neither bench nor the
package for it. The record keeps the best and the median time in
seconds and the median calibration time, calibration_s; a time divided
by its layer's calibration_s is in host-independent units, so two
records taken on a shared host compare by those ratios. The agent files
come from this script's own numpy draws, never from the package, so
every checkout is timed on the same bytes. The record names its host
(python, numpy, orjson, nproc) and the git rev of the timed checkout,
with "dirty" set when that tree has uncommitted changes.

--selftest runs every layer at tiny sizes (the axioms suite at one
trial), checks the record's schema and that a second run of the same
tree records the same work, prints "ok" and writes nothing unless
--out is given.

Schema beliefpool-layers/4 adds calibration_s to every layer and the
two fill layers. A beliefpool-layers/3 record holds the other six
layers with the same names, times and work, and a /2 record the first
five, so their raw times compare with a /4 record's directly.
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

SCHEMA = "beliefpool-layers/4"
REPEATS = 25
AXIOMS_TRIALS = 20  # the check command's default
LOW, HIGH = 0.05, 0.95
# (m, edge probability) of the two agent groups, as in query-mix, of
# the structure layer's DAG, whose variables have at most
# STRUCTURE_PARENTS parents, and of the fill layers' unshared agents, at
# most UNSHARED_PARENTS parents each; each of the last two has its own
# seed, which keeps the other draws as they were.
SIZES = {
    "m120": (120, 0.02), "m30": (30, 0.05), "structure": (1000, 0.002), "unshared": (28, 0.15),
}
TINY = {"m120": (8, 0.3), "m30": (6, 0.4), "structure": (40, 0.06), "unshared": (8, 0.15)}
STRUCTURE_PARENTS = 2
STRUCTURE_SEED = 20261022
UNSHARED_PARENTS = 2
UNSHARED_SEED = 20261023
LAYERS = (
    "load_m120", "load_m30", "save_consensus", "linop_query", "axioms_suite",
    "structure_shared_m1000", "fill_query_unshared_m28", "fill_factor_unshared_m28",
)
FILL_WORK = ("cpt_rows", "agent_queries", "max_family")
WORK = {
    "structure_shared_m1000": ("fill_edges", "max_family", "cpt_rows"),
    "fill_query_unshared_m28": FILL_WORK,
    "fill_factor_unshared_m28": FILL_WORK,
}
HOST_FIELDS = ("python", "numpy", "orjson", "nproc", "machine")


def _row_key(r: int, k: int) -> str:
    """Character i of a row key is bit i of the row index."""
    return "".join("1" if r >> i & 1 else "0" for i in range(k))


def random_parents(
    rng: np.random.Generator, m: int, edge_prob: float, max_parents: int
) -> list[list[int]]:
    """Each variable's parents in a random DAG over m variables: along a
    random order, each earlier variable is a parent with probability
    edge_prob, until the variable has max_parents."""
    perm = rng.permutation(m)
    parents: list[list[int]] = [[] for _ in range(m)]
    for i in range(m):
        for j in range(i):
            if len(parents[perm[i]]) < max_parents and rng.random() < edge_prob:
                parents[perm[i]].append(int(perm[j]))
    return parents


def agent_files(
    rng: np.random.Generator, m: int, edge_prob: float, folder: Path, name: str,
    max_parents: int = 3, shared: bool = True,
) -> list[str]:
    """Three agents over m variables, each with CPT rows drawn from [LOW,
    HIGH], on one random DAG (shared) or each on its own, drawn just
    before its rows, written as network files name-0.json ...; their paths."""
    parents = random_parents(rng, m, edge_prob, max_parents)
    labels = [f"x{i}" for i in range(m)]
    paths = []
    for agent in range(3):
        if agent and not shared:
            parents = random_parents(rng, m, edge_prob, max_parents)
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
        path = folder / f"{name}-{agent}.json"
        path.write_text(json.dumps(data, indent=2) + "\n")
        paths.append(str(path))
    return paths


def calibration_task():
    """bench/run.py's Clock._task, restated: a function that runs a fixed
    mix of pure-Python graph work (min-fill elimination of a random graph
    over 40 vertices) and small numpy products, independent of beliefpool."""
    rng = np.random.default_rng(12345)
    edges = [tuple(map(int, rng.choice(40, 2, replace=False))) for _ in range(70)]
    tables = rng.random((8, 2, 2, 2))

    def task() -> None:
        adj = {v: set() for v in range(40)}
        for u, w in edges:
            adj[u].add(w)
            adj[w].add(u)
        while adj:  # min-fill elimination
            v = min(adj, key=lambda u: sum(
                b not in adj[a] for a, b in itertools.combinations(sorted(adj[u]), 2)
            ))
            for a, b in itertools.combinations(adj[v], 2):
                adj[a].add(b)
                adj[b].add(a)
            for a in adj.pop(v):
                adj[a].discard(v)
        for _ in range(40):
            t = tables[0]
            for k in range(1, 8):
                t = np.einsum("abc,bcd->acd", t, tables[k])

    return task


def seconds(run) -> float:
    """The seconds one call of run takes."""
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def timed(run, repeats: int) -> dict:
    """Best and median seconds of repeats calls of run, after one more,
    and the median seconds of the calibration task run before each."""
    calibrate = calibration_task()
    run()
    calibrations, times = [], []
    for _ in range(repeats):
        calibrations.append(seconds(calibrate))
        times.append(seconds(run))
    return {
        "best_s": min(times),
        "median_s": statistics.median(times),
        "calibration_s": statistics.median(calibrations),
    }


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


def structure_work(dags: list, structure) -> dict:
    """The structure layer's work: the fill edges of structure over the
    union of the moralized dags, the variables of its largest family and
    its CPT rows."""
    from beliefpool.networks import mn_union, moralize

    moral = mn_union([moralize(dag) for dag in dags]).edges
    return {
        "fill_edges": len(structure.skeleton() - moral),
        "max_family": 1 + max(map(len, structure.parents)),
        "cpt_rows": sum(1 << len(ps) for ps in structure.parents),
    }


def fill_work(consensus) -> dict:
    """A fill layer's work: the consensus CPT rows, the agent queries of
    its build and the variables of its largest family."""
    parents = consensus.bn.dag().parents
    return {
        "cpt_rows": sum(1 << len(ps) for ps in parents),
        "agent_queries": consensus.agent_queries,
        "max_family": 1 + max(map(len, parents)),
    }


def layers_record(repeats: int, sizes: dict, trials: int) -> dict:
    """The layers mode's record: host, checkout and per-layer times, the
    axioms suite's at the given trials, and the work of the structure
    and fill layers."""
    import beliefpool
    import orjson
    from beliefpool import Dag
    from beliefpool.axioms import run_axioms_suite
    from beliefpool.consensus import consensus_bn_structure, linop_query, logop_consensus_bn
    from beliefpool.model_io import json_text, load_networks, network_to_dict

    m, edge_prob = sizes["structure"]
    parents = random_parents(
        np.random.default_rng(STRUCTURE_SEED), m, edge_prob, STRUCTURE_PARENTS
    )
    dags = [Dag(m, tuple(map(tuple, parents))) for _ in range(3)]
    rng = np.random.default_rng(20261020)
    with tempfile.TemporaryDirectory() as folder:
        files = {
            name: agent_files(rng, *sizes[name], Path(folder), name) for name in ("m120", "m30")
        }
        unshared = load_networks(agent_files(
            np.random.default_rng(UNSHARED_SEED), *sizes["unshared"], Path(folder),
            "unshared", UNSHARED_PARENTS, shared=False,
        ))
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
            "structure_shared_m1000": timed(lambda: consensus_bn_structure(dags), repeats),
            "fill_query_unshared_m28": timed(lambda: logop_consensus_bn(unshared), repeats),
            "fill_factor_unshared_m28": timed(
                lambda: logop_consensus_bn(unshared, dense_oracle=True), repeats
            ),
        }
    structure, _ = consensus_bn_structure(dags)
    layers["structure_shared_m1000"]["work"] = structure_work(dags, structure)
    for name, dense_oracle in (("fill_query", False), ("fill_factor", True)):
        consensus = logop_consensus_bn(unshared, dense_oracle=dense_oracle)
        layers[f"{name}_unshared_m28"]["work"] = fill_work(consensus)
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
        calibration = times.get("calibration_s")
        if not (isinstance(calibration, float) and calibration > 0.0):
            errors.append(f"{name}: need calibration_s > 0, got {calibration!r}")
        work = times.get("work", {})
        if tuple(work) != WORK.get(name, ()):
            errors.append(f"{name}: work is {list(work)}, not {list(WORK.get(name, ()))}")
        elif not all(isinstance(n, int) and n >= 0 for n in work.values()):
            errors.append(f"{name}: work counts must be nonnegative integers, got {work}")
    return errors


def work_differences(first: dict, second: dict) -> list[str]:
    """Each layer whose work differs between two records; [] when none."""
    return [
        f"{name}: work {first['layers'][name].get('work')} then "
        f"{second['layers'][name].get('work')}"
        for name in WORK
        if first["layers"][name].get("work") != second["layers"][name].get("work")
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    layers = modes.add_parser(
        "layers", help="time the load, save, query, axioms, structure and fill layers"
    )
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
    if args.selftest and not errors:
        errors = work_differences(record, layers_record(1, TINY, 1))
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
