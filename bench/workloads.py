"""The four workloads: seeded request plans and answer checks.

A request is one `beliefpool` command line plus a check of its answer.
Each request owns its agent files: the package caches per-network
factors by value, so reusing a file within a run would hit a cache
that separate CLI invocations never see.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
from inputs import Net

N_AGENTS = 3
LOGOP_TOL = 1e-9  # the package's own consensus tolerance
PRINT_TOL = 5e-7 + 1e-12  # answers print with six decimals
RATIO_PAIRS = 16


@dataclass
class Request:
    op: str
    argv: list[str]
    # (exit code, stdout) -> None when the answer is right, else why not.
    check: Callable[[int, str], str | None]
    out: Path | None = None
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # plan(rng, n, folder, small) writes the inputs of n requests; small
    # shrinks every size for the warm-up.
    plan: Callable[[np.random.Generator, int, Path, bool], list[Request]]
    # Planned requests per second of run time. A run issues
    # round(rate * seconds) requests, so both sides of a comparison see
    # exactly the same inputs. The rates make the timed work 55-70% of the
    # run length in reference seconds, so that a host at half the
    # reference speed still runs every planned request inside the run's
    # cap, and a 20 s run of any workload ends within about 35 s there.
    rate: float


def stratified(rng: np.random.Generator, n: int, lo: int, hi: int) -> np.ndarray:
    """n integers over [lo, hi], one uniform draw per equal-width stratum,
    so every run covers the range evenly and medians stay put."""
    u = (np.arange(n) + rng.random(n)) / n
    return lo + np.floor(u * (hi - lo + 1)).astype(int)


def _write_group(nets: list[Net], folder: Path, stem: str) -> list[str]:
    paths = []
    for k, net in enumerate(nets):
        path = folder / f"{stem}-a{k}.json"
        inputs.write_net(net, path)
        paths.append(str(path))
    return paths


def _weights_arg(w: np.ndarray) -> list[str]:
    return ["--weights", ",".join(repr(float(x)) for x in w)]


def _info(nets: list[Net]) -> dict:
    return {
        "m": nets[0].m,
        "agent_max_family": max(n.max_family for n in nets),
        "agent_cpt_rows": sum(n.cpt_rows for n in nets),
    }


def _consensus_check(
    nets: list[Net], w: np.ndarray, out: Path, seed: int, info: dict
) -> Callable[[int, str], str | None]:
    w = w / w.sum()

    def check(code: int, _stdout: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        consensus = inputs.read_net(out, nets[0].labels)
        info["consensus_max_family"] = consensus.max_family
        info["consensus_cpt_rows"] = consensus.cpt_rows
        rng = np.random.default_rng(seed)
        err = inputs.logop_log_ratio_error(consensus, nets, w, rng, RATIO_PAIRS)
        if not err <= LOGOP_TOL:
            return f"log-ratio error {err:.3e}"
        if consensus.m <= 16:
            err = inputs.logop_dense_error(consensus, nets, w)
            if not err <= LOGOP_TOL:
                return f"dense state error {err:.3e}"
        return None

    return check


def _aggregate(
    rng: np.random.Generator, nets: list[Net], folder: Path, stem: str,
    dense: bool,
) -> Request:
    w = inputs.random_weights(rng, len(nets))
    out = folder / f"{stem}-out.json"
    argv = [
        "aggregate", *_write_group(nets, folder, stem), "--pool", "logop",
        *_weights_arg(w), "--out", str(out),
    ] + (["--dense-oracle"] if dense else [])
    info = _info(nets)
    check = _consensus_check(nets, w, out, int(rng.integers(2**32)), info)
    op = "aggregate_dense" if dense else "aggregate"
    return Request(op, argv, check, out, info)


def plan_shared_aggregate(rng, n, folder, small=False):
    requests = []
    for i, m in enumerate(stratified(rng, n, *((6, 8) if small else (20, 40)))):
        nets = inputs.shared_group(rng, int(m), N_AGENTS, 0.05)
        requests.append(_aggregate(rng, nets, folder, f"r{i}", dense=False))
    return requests


def plan_unshared_aggregate(rng, n, folder, small=False):
    requests = []
    sizes = (6, 8) if small else (12, 15)
    for i, m in enumerate(stratified(rng, (n + 1) // 2, *sizes)):
        nets = inputs.unshared_group(rng, int(m), N_AGENTS, 0.15)
        for dense in (False, True):
            stem = f"r{i}{'d' if dense else 'q'}"
            requests.append(_aggregate(rng, nets, folder, stem, dense))
    return requests[:n]


def _literals(labels, assignment: dict[int, bool]) -> str:
    return ",".join(f"{labels[v]}={int(x)}" for v, x in assignment.items())


def _random_event(rng: np.random.Generator, m: int) -> tuple[dict, dict]:
    n_event = int(rng.integers(1, 3))
    n_given = int(rng.integers(0, 4))
    picked = rng.choice(m, n_event + n_given, replace=False)
    values = rng.random(len(picked)) < 0.5
    pairs = [(int(v), bool(x)) for v, x in zip(picked, values)]
    return dict(pairs[:n_event]), dict(pairs[n_event:])


def _value_check(reference: Callable[[], float]) -> Callable[[int, str], str | None]:
    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        got, expected = float(stdout.strip()), reference()
        if not abs(got - expected) <= PRINT_TOL:
            return f"printed {got}, expected {expected:.9f}"
        return None

    return check


QUERY_KINDS = ("linop", "manifest", "linop", "logop")  # one cycle of the mix


def plan_query_mix(rng, n, folder, small=False):
    requests = []
    kinds = [QUERY_KINDS[i % len(QUERY_KINDS)] for i in range(n)]
    logop_m = iter(stratified(rng, kinds.count("logop"), *((6, 8) if small else (30, 40))))
    for i, kind in enumerate(kinds):
        stem = f"r{i}"
        if kind == "logop":
            nets = inputs.shared_group(rng, int(next(logop_m)), N_AGENTS, 0.05)
        else:
            nets = inputs.shared_group(rng, 8 if small else 120, N_AGENTS, 0.02)
        paths = _write_group(nets, folder, stem)
        event, given = _random_event(rng, nets[0].m)
        w = inputs.random_weights(rng, N_AGENTS)
        weighted = bool(rng.random() < 0.5)
        if kind == "manifest":
            manifest = folder / f"{stem}-manifest.json"
            manifest.write_text(json.dumps({
                "kind": "linop-manifest",
                "inputs": [Path(p).name for p in paths],
                "weights": [float(x) for x in w],
            }))
            paths, weighted = [str(manifest)], False
        elif not weighted:
            w = np.ones(N_AGENTS)
        w = w / w.sum()
        pool = "logop" if kind == "logop" else "linop"
        reference = inputs.logop_reference if pool == "logop" else inputs.linop_reference
        labels = nets[0].labels
        argv = ["query", *paths, "--pool", pool, "--event", _literals(labels, event)]
        if given:
            argv += ["--given", _literals(labels, given)]
        if weighted:
            argv += _weights_arg(w)
        check = _value_check(functools.partial(reference, nets, w, event, given))
        requests.append(Request(f"query_{pool}", argv, check, None, _info(nets)))
    return requests


def _suite_check(suite: str) -> Callable[[int, str], str | None]:
    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        lines = stdout.splitlines()
        if suite == "examples":
            # A header line per example, then report lines and "  ok".
            status = [s.strip() for s in lines if s.strip() in ("ok", "MISMATCH")]
            examples = sum(not s.startswith(" ") for s in lines)
            ok = examples > 0 and status == ["ok"] * examples
        else:
            ok = bool(lines) and all(s.endswith(" ok") for s in lines)
        return None if ok else "a suite line is not ok"

    return check


# Six axioms, three oracle, one examples: the median falls inside the
# axioms cluster and the tail inside the oracle one, not between them.
CHECK_KINDS = ("axioms", "oracle", "axioms") * 3 + ("examples",)


def plan_check_suites(rng, n, _folder, small=False):
    requests = []
    for i in range(n):
        suite = CHECK_KINDS[i % len(CHECK_KINDS)]
        argv = ["check", "--suite", suite]
        if suite != "examples":
            argv += ["--seed", str(int(rng.integers(2**31)))]
            argv += ["--trials", "3"] if small else []
        requests.append(Request(f"check_{suite}", argv, _suite_check(suite)))
    return requests


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "shared-aggregate",
            "aggregate logop on 3 agents sharing a sparse structure, m 20-40: "
            "many small VE queries, cost set by per-query min-fill",
            plan_shared_aggregate, rate=4.0,
        ),
        Workload(
            "unshared-aggregate",
            "aggregate logop on 3 unrelated structures, m 12-15, query route "
            "and --dense-oracle: wide families, triangulation, dense 2^m pooling",
            plan_unshared_aggregate, rate=6.4,
        ),
        Workload(
            "query-mix",
            "query linop at m=120 (files or manifest) and query logop at "
            "m 30-40: the read path, VE plus JSON load, or a full consensus",
            plan_query_mix, rate=4.5,
        ),
        Workload(
            "check-suites",
            "check axioms, oracle and examples over drawn seeds: pools and "
            "consensus on tiny tables where Python overhead dominates",
            plan_check_suites, rate=5.0,
        ),
    )
}
