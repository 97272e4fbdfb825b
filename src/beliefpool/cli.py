"""Command line interface.

Subcommands: aggregate (pool agent network files into a consensus
artifact), query (consensus probability of an event, optionally
conditioned), and check (built-in verification suites; every randomized
row runs exactly --trials cases, at most MAX_TRIALS). The argument
parser is built once, at import, and every main call reuses it;
aggregate and query declare the options they share (the inputs,
--pool, --weights and --dense-oracle) once, in a parent parser.

Exit codes: 0 success, 1 unexpected check outcome, 2 parse, usage or
weight error (a negative --seed, --trials below 1 or above MAX_TRIALS
= 10,000, checked before the first draw, either flag given to
the examples suite, --dense-oracle given with --pool linop, a file that
is not UTF-8, holds an integer too large for a float or nests too
deeply, and an --out path that cannot be written), 3 variable mismatch
across inputs, 4 degenerate CPT or zero-mass pool in consensus building,
5 zero-probability evidence, 6 a logop consensus whose CPT rows (times
the pooled agents on the query route) or a query whose elimination
bucket (times the agents that share it) passes 2^24, named at the first
such family or bucket, where min-fill stops.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from .axioms import run_axioms_suite, run_examples_suite, run_oracle_suite
from .consensus import linop_query, logop_consensus_bn, logop_query
from .errors import (
    CapacityExceeded,
    DegenerateCpt,
    DegenerateProduct,
    InvalidWeight,
    MalformedInstance,
    MismatchedVariables,
    ModelFormatError,
    WeightCountMismatch,
    ZeroEvidence,
)
from .model_io import (
    LinopManifest,
    align_variables,
    json_text,
    load_model_file,
    load_networks,
    manifest_to_dict,
    network_to_dict,
    save_manifest,
    save_network,
)
from .networks import BayesNet
from .pools import POOL_NAMES, normalize_weights

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_PARSE = 2
EXIT_MISMATCH = 3
EXIT_DEGENERATE = 4
EXIT_ZERO_EVIDENCE = 5
EXIT_CAPACITY = 6

# The most cases a check row may run. On a 2-core host (Python 3.11, numpy 2.4),
# the axioms suite at 10,000 trials took 13.8-14.4 s with a 39 MB peak (38 MB at
# 1,000); the oracle suite 10.0 s.
MAX_TRIALS = 10_000


class _UsageError(Exception):
    """Bad literals, weights, or input kinds; maps to exit code 2."""


def _parse_weights(text: str | None) -> tuple[float, ...] | None:
    if text is None:
        return None
    # float() also reads "1_0" as 10 and non-ASCII digits such as "\u0661".
    if "_" in text or not text.isascii():
        raise _UsageError(
            f"bad weight list {text!r}: weights are ASCII numbers without '_'"
        )
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as err:
        raise _UsageError(f"bad weight list {text!r}: {err}") from err


def _parse_literals(text: str, labels: Sequence[str]) -> dict[int, bool]:
    index = {label: i for i, label in enumerate(labels)}
    out: dict[int, bool] = {}
    if not text:
        return out
    for item in text.split(","):
        label, sep, value = item.partition("=")
        if not sep or value not in ("0", "1"):
            raise _UsageError(
                f"bad literal {item!r}; expected LABEL=0 or LABEL=1"
            )
        if label not in index:
            raise _UsageError(f"unknown variable {label!r}")
        if index[label] in out:
            raise _UsageError(f"variable {label!r} assigned twice")
        out[index[label]] = value == "1"
    return out


def _load_bayes_inputs(paths: Sequence[str]) -> list[BayesNet]:
    return align_variables(load_networks(paths))


def cmd_aggregate(args: argparse.Namespace) -> int:
    weights = _parse_weights(args.weights)
    models = _load_bayes_inputs(args.inputs)
    if args.pool == "linop":
        normalized = normalize_weights(weights, len(models))
        # query resolves a manifest's relative inputs against its folder,
        # which is unknown for stdout: there every input goes absolute.
        inputs = [p if os.path.isabs(p) else os.path.abspath(p) for p in args.inputs]
        if args.out is not None:
            folder = os.path.dirname(os.path.abspath(args.out))
            inputs = [
                p if os.path.isabs(p) else os.path.relpath(p, folder)
                for p in args.inputs
            ]
        manifest = LinopManifest(tuple(inputs), tuple(normalized))
        if args.out is None:
            sys.stdout.write(json_text(manifest_to_dict(manifest)))
        else:
            save_manifest(manifest, args.out)
        return EXIT_OK
    consensus = logop_consensus_bn(
        models, weights, dense_oracle=args.dense_oracle
    )
    labels = consensus.bn.labels
    provenance = {
        "pool": "logop",
        "weights": normalize_weights(weights, len(models)).tolist(),
        "inputs": list(args.inputs),
        "elimination_order": [labels[v] for v in consensus.elimination_order],
        "agent_queries": consensus.agent_queries,
    }
    if args.out is None:
        sys.stdout.write(json_text(network_to_dict(consensus.bn, provenance)))
    else:
        save_network(consensus.bn, args.out, provenance)
    return EXIT_OK


def _resolve_query_inputs(
    args: argparse.Namespace,
) -> tuple[list[BayesNet], tuple[float, ...] | None]:
    weights = _parse_weights(args.weights)
    if len(args.inputs) == 1:
        model = load_model_file(args.inputs[0])
        if isinstance(model, LinopManifest):
            if args.pool != "linop":
                raise _UsageError(
                    "a linop manifest can only be queried with --pool linop"
                )
            base = Path(args.inputs[0]).parent
            paths = [str(base / p) for p in model.inputs]
            if weights is None:
                weights = model.weights
            return _load_bayes_inputs(paths), weights
        return align_variables([model]), weights
    return _load_bayes_inputs(args.inputs), weights


def cmd_query(args: argparse.Namespace) -> int:
    models, weights = _resolve_query_inputs(args)
    labels = models[0].labels
    event = _parse_literals(args.event, labels)
    evidence = _parse_literals(args.given, labels)
    if not event:
        raise _UsageError("--event must assign at least one variable")
    # Literals the evidence fixes leave the query, which still checks the
    # weights and the evidence; a contradicted one makes the answer 0.
    contradicted = any(evidence.get(v, x) != x for v, x in event.items())
    event = {v: x for v, x in event.items() if v not in evidence}
    if args.pool == "linop":
        value = linop_query(models, event, evidence, weights)
    else:
        value = logop_query(
            models, event, evidence, weights, dense_oracle=args.dense_oracle
        )
    print(f"{0.0 if contradicted else value:.6f}")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    # The suites check seed >= 0 and trials >= 1 before any draw.
    if args.trials is not None and args.trials > MAX_TRIALS:
        raise _UsageError(f"--trials must be at most {MAX_TRIALS}, got {args.trials}")
    # Without --seed the randomized suites use seed 0; without --trials,
    # each runs its own default count.
    seed = 0 if args.seed is None else args.seed
    trials = {} if args.trials is None else {"trials": args.trials}
    if args.suite == "examples":
        for flag, value in (("--seed", args.seed), ("--trials", args.trials)):
            if value is not None:
                raise _UsageError(
                    f"{flag} does not apply to --suite examples, "
                    f"which runs fixed examples"
                )
        lines, ok = run_examples_suite()
    elif args.suite == "axioms":
        lines, ok = run_axioms_suite(seed, **trials)
    else:
        lines, ok = run_oracle_suite(seed, **trials)
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_UNEXPECTED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefpool",
        description=(
            "Pool multiple agents' probabilistic network files into "
            "consensus artifacts and query them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "inputs", nargs="+", metavar="NETWORK",
        help="agent network files; query also takes one linop manifest",
    )
    shared.add_argument(
        "--pool", choices=POOL_NAMES, required=True,
        help="arithmetic (linop) or geometric (logop) pooling",
    )
    shared.add_argument(
        "--weights",
        help="comma-separated agent weights (default: a manifest's, else equal)",
    )
    shared.add_argument(
        "--dense-oracle", action="store_true",
        help="logop only: fill CPTs from the agents' weighted CPT product",
    )

    agg = sub.add_parser(
        "aggregate", parents=[shared],
        help="pool agent networks into a consensus artifact",
    )
    agg.add_argument("--out", help="output file (default: print to stdout)")
    agg.set_defaults(func=cmd_aggregate)

    qry = sub.add_parser(
        "query", parents=[shared], help="consensus probability of an event"
    )
    qry.add_argument(
        "--event", required=True,
        help="comma-separated literals, e.g. A1=1,A2=0",
    )
    qry.add_argument(
        "--given", default="", help="evidence literals, same syntax"
    )
    qry.set_defaults(func=cmd_query)

    chk = sub.add_parser("check", help="run a built-in verification suite")
    chk.add_argument(
        "--suite", choices=("examples", "axioms", "oracle"), required=True
    )
    chk.add_argument(
        "--seed", type=int, default=None,
        help="seed of a randomized suite (default 0; not for examples)",
    )
    chk.add_argument(
        "--trials", type=int, default=None,
        help="instances per randomized check (suite-specific default)",
    )
    chk.set_defaults(func=cmd_check)
    return parser


# Built once and shared by every main() call in the process: parse_args
# returns a new namespace each time and leaves the parser unchanged.
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if getattr(args, "dense_oracle", False) and args.pool == "linop":
            raise _UsageError("--dense-oracle applies to --pool logop only")
        return args.func(args)
    except (_UsageError, ModelFormatError, MalformedInstance, WeightCountMismatch,
            InvalidWeight) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except MismatchedVariables as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MISMATCH
    except DegenerateCpt as err:
        # Name the agent by its input file, as format errors name a file;
        # the hint, not the library's remedy, says what to do.
        where = (
            "" if err.position is None
            else f"{args.inputs[err.position]}: agent {err.position}, "
        )
        print(
            f"error: {where}{err.fault}\nhint: --dense-oracle fills the consensus "
            f"CPTs from the agents' weighted CPT product instead",
            file=sys.stderr,
        )
        return EXIT_DEGENERATE
    except DegenerateProduct as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ZeroEvidence as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ZERO_EVIDENCE
    except CapacityExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
