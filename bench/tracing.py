"""Per-layer timing by wrapping the package's public functions.

Each traced function is replaced by a wrapper at every place its name
is bound: modules import each other by name (`consensus.triangulate`,
`cli.load_network`, ...), so rebinding only the defining module would
miss most calls. A wrapper records calls, inclusive time (busy) and
time not covered by traced callees (self), plus a few counts read off
the arguments and results at the layer boundary.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from typing import Callable

# module -> functions traced in it; a name the package no longer has is
# reported as zero.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "inference": ("query_conditional", "query_event_marginal"),
    "networks": (
        "moralize", "mn_union", "triangulate", "direct_by_order", "bn_to_joint",
    ),
    "consensus": (
        "logop_consensus_bn", "consensus_bn_structure", "single_event_logop",
        "remove_child_conditioning", "linop_query",
    ),
    "pools": ("logop", "linop", "normalize_weights"),
    "joint": ("marginal", "conditional_probability"),
    "model_io": (
        "load_network", "load_model_file", "align_variables", "network_to_dict",
    ),
    "axioms": (
        "run_axioms_suite", "run_oracle_suite", "run_examples_suite",
        "check_property",
    ),
    "sampling": ("random_bn",),
}

# Counts derived at the boundaries, with their units.
DERIVED = {
    "networks.fill_edges": "count",
    "networks.max_family": "count",
    "networks.cpt_rows": "count",
    "networks.bn_to_joint.bytes": "bytes",
    "pools.logop.bytes": "bytes",
    "pools.linop.bytes": "bytes",
    "consensus.agent_queries": "count",
    "consensus.queries_per_row": "ratio",
    "consensus.cpt_fill_s": "s",
    "inference.us_per_call": "us",
    "model_io.bytes_read": "bytes",
    "model_io.bytes_written": "bytes",
    "trace.requests": "count",
    "trace.overhead": "ratio",
    "trace.query_gap": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {}
    for module, names in LAYERS.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.busy_s"] = "s"
            units[f"{module}.{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


def _family_counts(parents) -> tuple[int, int]:
    return (
        1 + max((len(ps) for ps in parents), default=0),
        sum(1 << len(ps) for ps in parents),
    )


class Tracer:
    """Wraps the package's functions in place; restore() undoes it."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, float] = {k: 0 for k in DERIVED}
        self._stack: list[float] = []  # child time of each open span
        self._query_rows = 0  # agents x consensus CPT rows, query route
        self._bound: list[tuple[object, str, Callable]] = []
        importlib.import_module("beliefpool.cli")  # imports every layer
        self._modules = [
            module for name, module in sys.modules.items()
            if name == "beliefpool" or name.startswith("beliefpool.")
        ]
        self._wrappers: dict[int, Callable] = {}  # id(original) -> wrapper
        for module_name, names in LAYERS.items():
            module = sys.modules[f"beliefpool.{module_name}"]
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    self._wrappers[id(fn)] = self._wrap(f"{module_name}.{name}", fn)

    def install(self) -> None:
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._bound.append((module, attr, value))
                    setattr(module, attr, wrapper)
        self._check_bindings()

    def restore(self) -> None:
        for module, attr, value in reversed(self._bound):
            setattr(module, attr, value)
        self._bound.clear()

    def _check_bindings(self) -> None:
        """Fail when a traced function is still reachable unwrapped from
        a module global or a module-level container."""
        for module in self._modules:
            for attr, value in vars(module).items():
                held = (
                    value.values() if isinstance(value, dict)
                    else value if isinstance(value, (tuple, list))
                    else (value,)
                )
                for item in held:
                    if id(item) in self._wrappers:
                        raise RuntimeError(
                            f"{module.__name__}.{attr} still holds an "
                            f"untraced {getattr(item, '__name__', item)}"
                        )

    def _wrap(self, key: str, fn: Callable) -> Callable:
        self.calls[key] = 0
        self.busy[key] = 0.0
        self.self_time[key] = 0.0
        observe = getattr(self, "_on_" + key.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                self.calls[key] += 1
                self.busy[key] += elapsed
                self.self_time[key] += elapsed - children
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return wrapper

    # Boundary observers: (result, *args, **kwargs) of the traced call.

    def _on_networks_triangulate(self, result, mn, *_, **__) -> None:
        self.counts["networks.fill_edges"] += len(result[0].edges) - len(mn.edges)

    def _on_networks_direct_by_order(self, dag, *_, **__) -> None:
        family, rows = _family_counts(dag.parents)
        self.counts["networks.max_family"] = max(
            self.counts["networks.max_family"], family
        )
        self.counts["networks.cpt_rows"] += rows

    def _on_networks_bn_to_joint(self, table, *_, **__) -> None:
        self.counts["networks.bn_to_joint.bytes"] += table.probs.nbytes

    def _on_pools_logop(self, pooled, tables, *_, **__) -> None:
        self.counts["pools.logop.bytes"] += (len(tables) + 1) * pooled.probs.nbytes

    def _on_pools_linop(self, pooled, tables, *_, **__) -> None:
        self.counts["pools.linop.bytes"] += (len(tables) + 1) * pooled.probs.nbytes

    def _on_consensus_logop_consensus_bn(self, result, bns, *_, **kwargs) -> None:
        self.counts["consensus.agent_queries"] += result.agent_queries
        if not kwargs.get("dense_oracle", False):
            self._query_rows += len(bns) * _family_counts(
                [c.parents for c in result.bn.cpts]
            )[1]

    def _on_model_io_load_network(self, _result, path, *_, **__) -> None:
        self.counts["model_io.bytes_read"] += os.path.getsize(path)

    _on_model_io_load_model_file = _on_model_io_load_network

    def add_written(self, n_bytes: int) -> None:
        self.counts["model_io.bytes_written"] += n_bytes

    def metrics(self, requests: int, overhead: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for module, names in LAYERS.items():
            for name in names:
                key = f"{module}.{name}"
                out[f"{key}.calls"] = self.calls.get(key, 0)
                out[f"{key}.busy_s"] = self.busy.get(key, 0.0)
                out[f"{key}.self_s"] = self.self_time.get(key, 0.0)
        counts = dict(self.counts)
        counts["consensus.queries_per_row"] = (
            counts["consensus.agent_queries"] / self._query_rows
            if self._query_rows else 0.0
        )
        counts["consensus.cpt_fill_s"] = (
            out["consensus.logop_consensus_bn.busy_s"]
            - out["consensus.consensus_bn_structure.busy_s"]
        )
        ve_calls = (
            out["inference.query_conditional.calls"]
            + out["inference.query_event_marginal.calls"]
        )
        counts["inference.us_per_call"] = (
            1e6 * (
                out["inference.query_conditional.busy_s"]
                + out["inference.query_event_marginal.busy_s"]
            ) / ve_calls
            if ve_calls else 0.0
        )
        counts["trace.requests"] = requests
        counts["trace.overhead"] = overhead
        counts["trace.query_gap"] = (
            counts["consensus.agent_queries"]
            - out["inference.query_conditional.calls"]
        )
        out.update(counts)
        return out
