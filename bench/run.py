"""Benchmark of the beliefpool CLI, driven in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client calls `beliefpool.cli.main(argv)` in a closed loop: each
request starts after the previous one ends. Interpreter start-up is left
out on purpose (a subprocess costs more than most requests' work). Every
answer is checked against bench/inputs.py's reference arithmetic after
its timer stops. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it is a
report with the host, the inputs and per-operation latencies.

Every time is scaled by a calibration task timed just before and just
after it (see Clock). --trace 0 prints the end-to-end metrics. --trace 1
follows each plain execution with one where every layer is wrapped
(bench/tracing.py) and prints the per-layer metrics of the traced
executions plus the tracing overhead. See bench/GUIDE.md.
"""
from __future__ import annotations

import os

# Fixed before numpy loads: the package's arrays are small, and one BLAS
# thread keeps timings free of thread start-up and contention.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import importlib
import io
import itertools
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS, Request

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# The planned requests take well under `seconds` of reference time (see
# Workload.rate). A run stops issuing requests RUN_CAP * seconds after its
# first one, which keeps a very slow commit or host inside the time limit;
# the report then flags the run as truncated.
RUN_CAP = 3.0
# A typical duration of Clock._task on the 2-vCPU host the workloads were
# sized on (Python 3.11, numpy 2.4). A reported time is measured *
# CALIBRATION_REF_S / (the calibrations taken around it).
CALIBRATION_REF_S = 0.0025
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
}


def import_cli():
    """The checkout's own beliefpool.cli, never an installed copy, imported
    afresh: modules an earlier call loaded are dropped first."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "beliefpool" or n.startswith("beliefpool.")]:
        del sys.modules[name]
    cli = importlib.import_module("beliefpool.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"beliefpool loaded from {cli.__file__}, not {SRC}")
    return cli


def reset_caches() -> None:
    """Drop every memo the package keeps, as a fresh process would."""
    for name, module in list(sys.modules.items()):
        if name == "beliefpool" or name.startswith("beliefpool."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Clock:
    """Host speed, sampled by a fixed calibration task before every
    execution, so times can be stated in reference seconds.

    The host is shared: over minutes its speed drifts by half or more,
    and every time measured in a run moves with it. The calibration
    mixes pure-Python graph work and small numpy products, as the
    package does, and does not depend on the package, so a change to
    the package moves the scaled times and a change of host speed
    cancels out of them.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._edges = [tuple(map(int, rng.choice(40, 2, replace=False))) for _ in range(70)]
        self._tables = rng.random((8, 2, 2, 2))
        self.samples: list[float] = []

    def _task(self) -> None:
        adj = {v: set() for v in range(40)}
        for u, w in self._edges:
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
            t = self._tables[0]
            for k in range(1, 8):
                t = np.einsum("abc,bcd->acd", t, self._tables[k])

    def calibrate(self) -> float:
        """Time the task once; returns and records its seconds."""
        start = time.perf_counter()
        self._task()
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def scale(self) -> float:
        """Reference seconds per measured second over the whole run."""
        return CALIBRATION_REF_S / statistics.median(self.samples)


def execute(cli, request: Request, clock: Clock) -> tuple[int, str, float, float]:
    """Run one request; returns (exit code, stdout, seconds, reference
    seconds), the latter scaled by the geometric mean of calibrations
    taken just before and just after it."""
    before = clock.calibrate()
    reset_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(request.argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed request, not a crash
            code = -1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    calibration = math.sqrt(before * clock.calibrate())
    return code, out.getvalue(), elapsed, elapsed * CALIBRATION_REF_S / calibration


def answer(request: Request, code: int, stdout: str) -> tuple:
    written = request.out.read_bytes() if request.out and request.out.exists() else b""
    return code, stdout, written


# One `beliefpool` command in a fresh interpreter: argv[1] is src/,
# argv[2] the command's arguments as JSON.
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from beliefpool import cli
sys.exit(cli.main(json.loads(sys.argv[2])))
"""
CHILD_TIMEOUT_S = 60


def peak_rss_mb(requests: list[Request]) -> tuple[float, dict[int, str]]:
    """Peak resident size of one `beliefpool` process, as a user running
    the command sees it, and the failures of the requests it ran.

    The largest request (by m) of each operation runs once more after
    the timed loop, untimed, each in a fresh interpreter, and is checked
    again. The figure includes the interpreter, numpy and the package,
    but not the benchmark's inputs and bookkeeping, which this process
    holds.
    """
    largest: dict[str, Request] = {}
    for request in requests:
        best = largest.get(request.op)
        if best is None or request.info.get("m", 0) > best.info.get("m", 0):
            largest[request.op] = request
    failures = {}
    for request in largest.values():
        argv = [sys.executable, "-c", CHILD, str(SRC), json.dumps(request.argv)]
        try:
            child = subprocess.run(
                argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
            problem = request.check(child.returncode, child.stdout)
        except Exception as err:  # a hung or unreadable child is a failure
            problem = f"in a fresh process: {err!r}"
        if problem:
            failures[id(request)] = f"{describe(request)}: {problem}"
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, failures


def describe(request: Request) -> str:
    return " ".join(Path(a).name if os.sep in a else a for a in request.argv)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond
    its nearest rank (50 when n is too small for any)."""
    return max(
        (p for p in range(50, 100) if n - math.ceil(p / 100 * n) >= 10),
        default=50,
    )


def warm_up(cli, folder: Path, clock: Clock) -> None:
    """One tiny request of every operation, so first-call costs fall in
    set-up rather than in the first timed request."""
    rng = np.random.default_rng(0)
    requests = []
    for name in WORKLOADS:
        sub = folder / f"warm-{name}"
        sub.mkdir()
        requests += WORKLOADS[name].plan(rng, 2, sub, small=True)
    for request in requests:  # answers are checked in the timed loop only
        execute(cli, request, clock)


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def host_record(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "git_rev": git_rev(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def input_record(requests: list[Request]) -> dict:
    record: dict = {}
    for op in sorted({r.op for r in requests}):
        infos = [r.info for r in requests if r.op == op]
        entry = {"count": len(infos)}
        for key in ("m", "agent_max_family", "agent_cpt_rows",
                    "consensus_max_family", "consensus_cpt_rows"):
            values = [i[key] for i in infos if key in i]
            if values:
                entry[key] = [min(values), max(values)]
        record[op] = entry
    return record


def run(workload: str, seed: int, seconds: int, trace: bool, tamper=None) -> dict:
    """One benchmark run. tamper(request, stdout) may corrupt an answer
    after the request ends and before it is checked, and returns the
    stdout to check (bench/selftest.py uses it)."""
    spec = WORKLOADS[workload]
    # A traced run executes each request twice, so it issues half as many.
    n = max(2, round(spec.rate * seconds / (2 if trace else 1)))
    base = ROOT / ".bench_run" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    clock = Clock()

    def set_up(folder: Path) -> tuple:
        """Import the package, generate and write every input under folder,
        warm up. Returns (cli, requests, seconds taken)."""
        start = time.perf_counter()
        cli = import_cli()
        folder.mkdir(parents=True)
        rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
        requests = spec.plan(rng, n, folder)
        requests = [requests[i] for i in rng.permutation(len(requests))]
        warm_up(cli, folder, clock)
        return cli, requests, time.perf_counter() - start

    try:
        return measure(clock, spec, set_up, base, seconds, trace, tamper)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when another run uses it
            base.parent.rmdir()


def measure(clock, spec, set_up, base, seconds, trace, tamper) -> dict:
    """One execution per request, in a closed loop. A traced run follows
    each plain execution at once with a traced one of the same request.

    The timed requests use the first set-up's files. An untraced run sets
    up SETUP_REPEATS - 1 more times, spread evenly through the loop (their
    files are deleted at once). setup_s is their median scaled by the
    run's median calibration: set-up is mostly imports, numpy, JSON
    encoding and file writes, whose speed does not follow the calibration
    taken next to it, so the run-wide scale is the steadier one.
    """
    cli, requests, first = set_up(base / "setup0")
    setups = [first]
    repeats = 0 if trace else SETUP_REPEATS - 1
    repeat_at = {round(k * len(requests) / (repeats + 1)) for k in range(1, repeats + 1)}

    def set_up_again() -> None:
        nonlocal cli
        folder = base / f"setup{len(setups)}"
        cli, _, taken = set_up(folder)
        setups.append(taken)
        shutil.rmtree(folder)

    tracer = tracing.Tracer() if trace else None
    latencies: dict[str, list[float]] = {}
    failures: dict[int, str] = {}  # id(request) -> why its answer is wrong
    plain = traced = timed = 0.0
    start = time.perf_counter()
    attempted = 0
    for i, request in enumerate(requests):
        if time.perf_counter() > start + RUN_CAP * seconds:
            break
        if i in repeat_at:
            set_up_again()
        attempted += 1
        code, stdout, raw_s, ref_s = execute(cli, request, clock)
        timed += raw_s
        latencies.setdefault(request.op, []).append(ref_s)
        problem = None
        if tracer is not None:
            first = answer(request, code, stdout)
            tracer.install()
            try:
                code, stdout, _, traced_s = execute(cli, request, clock)
            finally:
                tracer.restore()
            if request.out is not None and request.out.exists():
                tracer.add_written(request.out.stat().st_size)
            plain, traced = plain + ref_s, traced + traced_s
            if answer(request, code, stdout) != first:
                problem = "the traced answer differs from the plain one"
        if tamper is not None:
            stdout = tamper(request, stdout)
        try:
            problem = problem or request.check(code, stdout)
        except Exception as err:  # an unreadable answer is a wrong one
            problem = f"unreadable answer: {err!r}"
        if problem:
            failures[id(request)] = f"{describe(request)}: {problem}"

    wall = time.perf_counter() - start
    truncated = attempted < len(requests)
    while len(setups) < 1 + repeats:
        set_up_again()
    if truncated:
        print(f"warning: stopped after {attempted} of {len(requests)} planned "
              f"requests at {wall:.1f} s; the run measured a prefix", file=sys.stderr)
    every = [x for values in latencies.values() for x in values]
    tail_pct = tail_percentile(len(every))
    if tracer is not None:
        metrics = tracer.metrics(attempted, traced / plain - 1.0)
        units = tracing.metric_units()
        for key, unit in units.items():
            if unit in ("s", "us"):
                metrics[key] *= clock.scale()
    else:
        rss_mb, child_failures = peak_rss_mb(requests[:attempted])
        failures = {**child_failures, **failures}
        metrics = {
            "setup_s": statistics.median(setups) * clock.scale(),
            "peak_rss_mb": rss_mb,
            "latency_p50_s": statistics.median(every),
            "latency_tail_s": percentile(every, tail_pct),
        }
        units = END_TO_END_UNITS
    report = {
        "workload": spec.name,
        "tail_pct": tail_pct,
        "error_rate": len(failures) / max(attempted, 1),
        "failures": list(failures.values())[:5],
        "planned": len(requests),
        "truncated": truncated,
        "loop_wall_s": wall,
        "timed_s": timed,
        "time_scale": clock.scale(),
        "per_op": {
            op: {
                "n": len(values),
                "p50_s": statistics.median(values),
                f"p{tail_pct}_s": percentile(values, tail_pct),
            }
            for op, values in sorted(latencies.items())
        },
        "setup_raw_s": setups,
        "inputs": input_record(requests[:attempted]),
    }
    return {
        "report": report,
        "result": {
            "correct": not failures and attempted > 0,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as err:
        print(f"error: cannot load the package under src/: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"host": host_record(args), **outcome["report"]}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
