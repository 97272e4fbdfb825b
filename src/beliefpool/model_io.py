"""JSON files for networks and pooling manifests.

A network file is UTF-8 JSON holding "kind" (always "bayes"), an
ordered "variables" label list, "edges" as parent-child label pairs, and
a "cpts" map. CPT rows are keyed by parent outcome strings: with
parents listed as (p_0, ..., p_{k-1}), a key has exactly k characters,
each "0" or "1", character i is "1" exactly when p_i is true, and a
parentless node uses the single key "". Each row value is a number in
[0, 1]. Probabilities round-trip bit-exactly since values are written
with Python's shortest-repr float serialization.

Saved text is exactly json.dumps(data) plus a newline (json_text).
orjson only parses (_load_file).

Loading and saving both work from a row-key table: for one parent
count, every valid key. The files of one command load in one
load_networks call (cli._load_bayes_inputs), so each table is built once
per parent count and command; any other load, and each network_to_dict
call, builds its own. A load reads each CPT's rows in row order through
the table's getter, which must find every valid key, so a CPT of 2^k
rows has exactly the valid keys; network_to_dict writes each CPT's rows
in the table's sorted key order. So no key is parsed, formatted or
sorted per row. Both work on the network's row array
(networks.BayesNet._rows): a load reads every CPT's rows, in owner
order, into one list that becomes that array, and a save writes each
CPT's rows from it, so neither builds a Cpt object.

Every network file takes one path (_network). First the structure
(_structure): within one load_networks call, a file whose "variables",
"edges" and per-CPT "parents" equal the file before it as JSON values
takes that file's check and shares its labels, parent tuples and Dag,
and with the Dag the offsets of each CPT's rows in the row array;
equality is proof enough, since each of those fields of a checked file
is a string or a list of strings, and only an equal string compares
equal to a string. Any other file takes the full structural check. The
check holds the fields as parsed, not copies: nothing outside the call
holds the dicts it parsed. Then the rows: every file's go through the
same row reader and key check, and the same value check (one check of
the types, then one vectorized check of the range over the whole
list), so a file raises the message and loads the network that it
would alone.

Every file's text is parsed once by orjson, and the model is built from
its value (_load_file). A file that orjson refuses, or whose value fails
to build, is parsed again by json.loads and built from that value: the
stdlib path, which gives each failing file its error and message. So a
file loads the model, or raises the error, that json.loads alone gives,
except that a field the loader ignores, such as "provenance", may nest
deeper than json.loads reaches: orjson has no depth limit.

Loading raises ModelFormatError, naming the file, for anything
malformed, including text that is not UTF-8, integers too large for a
float, nesting too deep for json.loads in a field the loader reads, and
any kind but "bayes" or "linop-manifest"; a path that is not a str or an
os.PathLike is a MalformedInstance, as it is for saving. Loading is
where a file's model is validated: it makes every check the network
constructors would, through the same functions (networks._check_labels
for the labels, _check_parents for a faulty entry's parents, which then
names the node by its label), then builds the network without checking
again. Each check runs over the whole file at once: the types of the
entries and of their parent and row fields as one set of types, the
parents resolved in one pass, acyclicity over the parent lists by Dag's
own check, networks._acyclic, the edges against the parent lists, each
CPT's keys against the table's, and every row value at once (all
floats, then between 0 and 1 and no NaN, on the row array that the
network keeps). Only when one of them fails does
_check_cpts walk the entries one CPT at a time, in variable order and
each one's rows in file order, to raise the message of the first fault;
it builds nothing. A walk that finds no fault leaves rows that are
numbers but not all floats, such as 0 and 1, which load as floats.

A manifest file ("kind": "linop-manifest") names input network files
plus weights instead of storing a pooled model, because an arithmetic
pool of networks generally has no compact network form.
"""
from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import orjson

from .errors import BeliefPoolError, MalformedInstance, MismatchedVariables, ModelFormatError
from .joint import _check_kind, _check_reals, _check_sequence, _trusted
from .networks import (
    BayesNet, Dag, _acyclic, _check_labels, _check_parents, _from_rows, parse_probability,
)

MANIFEST_KIND = "linop-manifest"


def _nonempty_paths(inputs: Sequence) -> bool:
    """Whether inputs holds at least one path and each is a nonempty str."""
    return bool(inputs) and all(isinstance(p, str) and p for p in inputs)


@dataclass(frozen=True)
class LinopManifest:
    """Pointer to input networks pooled arithmetically with weights.

    inputs is a nonempty sequence of nonempty path strings and weights
    None or numbers that pass joint._check_reals, kept as a tuple of
    strings and a tuple of Python floats; MalformedInstance otherwise, so
    every manifest saves a file that manifest_from_dict reads back."""

    inputs: tuple[str, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        _check_sequence(self.inputs, "inputs")
        if isinstance(self.inputs, str) or not _nonempty_paths(self.inputs):
            raise MalformedInstance("'inputs' must be a nonempty list of paths")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.weights is not None:
            weights = _check_reals(self.weights, MalformedInstance, "'weights'")
            object.__setattr__(self, "weights", tuple(weights.tolist()))


def _require_labels(model: BayesNet, task: str) -> tuple[str, ...]:
    _check_kind(model, BayesNet)
    if model.labels is None:
        raise ModelFormatError(f"{task} requires variable labels")
    return model.labels


def _row_keys(n_parents: int) -> dict[str, None]:
    """Every valid row key for n_parents parents, in row order: character
    i of a key is bit i of its row index."""
    keys = [""]
    for _ in range(n_parents):
        # One more character at the end is the next bit of the row index.
        keys = [key + "0" for key in keys] + [key + "1" for key in keys]
    return dict.fromkeys(keys)


def network_to_dict(model: BayesNet, provenance: dict | None = None) -> dict:
    """JSON-ready representation of a network. A provenance is None or a
    dict (MalformedInstance otherwise), kept as given: json_text raises
    MalformedInstance for one that json cannot encode."""
    labels = _require_labels(model, "serializing a network")
    if provenance is not None:
        _check_kind(provenance, dict)
    parents, offsets = model._dag.parents, model._dag._offsets
    edges = sorted((labels[p], labels[v]) for v, ps in enumerate(parents) for p in ps)
    values = model._rows.tolist()
    tables: dict[int, list[tuple[str, int]]] = {}
    cpts = {}
    for v, ps in enumerate(parents):
        k = len(ps)
        table = tables.get(k) or tables.setdefault(
            k, sorted((key, r) for r, key in enumerate(_row_keys(k)))
        )
        start = offsets[v]
        cpts[labels[v]] = {
            "parents": [labels[p] for p in ps],
            "rows": {key: values[start + r] for key, r in table},
        }
    data = {
        "kind": "bayes",
        "variables": list(labels),
        "edges": [list(e) for e in edges],
        "cpts": cpts,
    }
    if provenance is not None:
        data["provenance"] = provenance
    return data


def _all_instances(items: list, cls: type) -> bool:
    """Whether every item is a cls, checked once per distinct type."""
    return all(issubclass(t, cls) for t in set(map(type, items)))


def _parse_edges(edges, index: dict[str, int]) -> set[tuple[int, int]]:
    if not isinstance(edges, list):
        raise ModelFormatError("'edges' must be a list of label pairs")
    if _all_instances(edges, list) and set(map(len, edges)) <= {2}:
        try:
            return {(index[p], index[c]) for p, c in edges}
        except (KeyError, TypeError):
            pass
    # Some edge is at fault: the first one names it.
    for e in edges:
        if not isinstance(e, list) or len(e) != 2 or not all(isinstance(x, str) for x in e):
            raise ModelFormatError(f"edge {e!r} is not a pair of labels")
        for x in e:
            if x not in index:
                raise ModelFormatError(f"edge references unknown variable {x!r}")


def _read_parents(entries: list, index: dict[str, int]) -> list[tuple[int, ...]] | None:
    """Each entry's parent indices, or None when some entry is not an
    object or its parents are not a list of known labels."""
    if not _all_instances(entries, dict):
        return None
    parent_lists = [entry.get("parents") for entry in entries]
    if not _all_instances(parent_lists, list):
        return None
    try:
        return [tuple(map(index.__getitem__, ps)) for ps in parent_lists]
    except (KeyError, TypeError):
        return None


def _read_rows(
    entries: list, parents: list[tuple[int, ...]], tables: dict[int, Callable]
) -> list | None:
    """Every entry's row values as one list, the entries in order and
    each one's rows in row order, or None when some entry's rows are not
    an object of 2^k rows keyed by exactly the valid keys. The entries
    are objects; the values are not checked here. tables maps a parent
    count to the getter of its rows in row order."""
    row_maps = [entry.get("rows") for entry in entries]
    if not _all_instances(row_maps, dict):
        return None
    values: list = []
    try:
        for ps, row_map in zip(parents, row_maps):
            k = len(ps)
            # 2^k keys of which the getter finds every valid one are
            # exactly the valid keys. A getter is built only for a row
            # count that fits: a short file can list too many parents
            # for 2^k keys to fit in memory.
            if len(row_map) != 1 << k:
                return None
            get = tables.get(k) or tables.setdefault(k, operator.itemgetter(*_row_keys(k)))
            if k:
                values += get(row_map)
            else:
                values.append(get(row_map))  # one key: the getter gives no tuple
    except KeyError:
        return None
    return values


def _probability_rows(values: list) -> np.ndarray | None:
    """values as a new float64 array when every one is a float in [0, 1],
    else None: one check of the types, then one of the range, which also
    fails on a NaN, since numpy's min and max propagate it."""
    if set(map(type, values)) != {float}:
        return None
    rows = np.fromiter(values, np.float64, len(values))
    return rows if 0.0 <= rows.min() and rows.max() <= 1.0 else None


def _check_cpts(labels: tuple[str, ...], entries: list, index: dict[str, int]) -> None:
    """Raise the ModelFormatError of the first fault in a CPT entry,
    walking the entries in owner order and each one's rows in file
    order; return when no entry has a fault. It builds nothing."""
    tables: dict[int, dict[str, None]] = {}
    for owner, (label, entry) in enumerate(zip(labels, entries)):
        if not isinstance(entry, dict):
            raise ModelFormatError(f"cpt for {label!r} must be an object")
        parents_raw = entry.get("parents")
        if not isinstance(parents_raw, list) or not all(
            isinstance(p, str) for p in parents_raw
        ):
            raise ModelFormatError(f"cpt for {label!r} needs a parent label list")
        for p in parents_raw:
            if p not in index:
                raise ModelFormatError(
                    f"cpt for {label!r} references unknown parent {p!r}"
                )
        k = len(parents_raw)
        rows_raw = entry.get("rows")
        if not isinstance(rows_raw, dict) or len(rows_raw) != 1 << k:
            raise ModelFormatError(
                f"cpt for {label!r} needs exactly {1 << k} rows"
            )
        table = tables.get(k) or tables.setdefault(k, _row_keys(k))
        # Dict keys are distinct, so 2^k valid keys name every row once.
        for key, value in rows_raw.items():
            # The table holds exactly the valid keys; int(key, 2) alone
            # would take signs, spaces, "_" and any digit.
            if key not in table:
                if not isinstance(key, str):
                    raise ModelFormatError(f"row key {key!r} must be a string")
                raise ModelFormatError(
                    f"row key {key!r} is not a {k}-character outcome string"
                )
            parse_probability(value)
        _check_parents(owner, tuple(map(index.__getitem__, parents_raw)), labels=labels)


def _structure(previous: tuple | None, variables, edges, cpts_data) -> tuple[tuple, list]:
    """A network's structural check and its CPT entries in variable
    order. The check is ("variables", "edges", the per-CPT "parents" as
    written, labels, label index, parent tuples, Dag): previous, the
    check of the file before, when those three fields equal its own as
    JSON values, else the full check. Those fields of a checked file are
    strings and lists of strings, and only an equal string compares equal
    to a string, so equality is proof enough.

    On a structural fault, _check_cpts names the first faulty entry, its
    rows included, before a cycle and before edges that disagree."""
    if previous is not None and variables == previous[0] and edges == previous[1]:
        index = previous[4]
        if isinstance(cpts_data, dict) and cpts_data.keys() == index.keys():
            entries = list(map(cpts_data.__getitem__, previous[3]))
            if _all_instances(entries, dict) and [e.get("parents") for e in entries] == previous[2]:
                return previous, entries

    if not isinstance(variables, list) or not variables:
        raise ModelFormatError("'variables' must be a nonempty list of labels")
    labels = _check_labels(len(variables), variables)
    index = {label: i for i, label in enumerate(labels)}
    declared = _parse_edges(edges, index)
    if not isinstance(cpts_data, dict):
        raise ModelFormatError("'cpts' must map each variable to its table")
    if cpts_data.keys() != index.keys():
        raise ModelFormatError("'cpts' must have exactly one entry per variable")
    entries = list(map(cpts_data.__getitem__, labels))
    parents = _read_parents(entries, index)
    if parents is None:
        _check_cpts(labels, entries, index)  # raises: some entry is at fault
    derived = {(p, c) for c, ps in enumerate(parents) for p in ps}
    acyclic = _acyclic(parents)
    if not (
        len(derived) == sum(map(len, parents))  # no repeated parent
        and acyclic  # no self parent either
        and declared == derived
    ):
        _check_cpts(labels, entries, index)
        if not acyclic:
            raise ModelFormatError("parent structure contains a directed cycle")
        raise ModelFormatError("'edges' disagree with the parent lists in 'cpts'")
    dag = _trusted(Dag, m=len(labels), parents=tuple(parents))
    return (variables, edges, [e["parents"] for e in entries], labels, index, parents, dag), entries


def _network(data, tables: dict[int, Callable], previous: tuple | None) -> tuple[BayesNet, tuple]:
    """The network in a parsed file and its structural check (_structure,
    given previous). tables maps a parent count to the getter of its rows
    in row order (_read_rows). When the row read or the value check
    fails, _check_cpts names the first faulty entry."""
    if not isinstance(data, dict):
        raise ModelFormatError("top level must be a JSON object")
    kind = data.get("kind")
    if kind != "bayes":
        raise ModelFormatError(f"'kind' must be 'bayes', got {kind!r}")
    check, entries = _structure(
        previous, data.get("variables"), data.get("edges"), data.get("cpts")
    )
    labels, index, parents, dag = check[3:]
    values = _read_rows(entries, parents, tables)
    rows = None if values is None else _probability_rows(values)
    if rows is None:
        # _check_cpts raises for any faulty entry. With none, each row is
        # a number in [0, 1] and some are not floats, such as 0 or 1.
        _check_cpts(labels, entries, index)
        rows = np.array(list(map(float, values)), dtype=np.float64)
    # Every Cpt, Dag and BayesNet check has passed: one CPT per variable
    # in owner order, known distinct labels, known parents that are
    # distinct and not the owner, 2^k floats in [0, 1], no cycle.
    return _from_rows(dag, rows, labels), check


def network_from_dict(data) -> BayesNet:
    """Reconstruct a Bayesian network from its JSON representation.

    Raises ModelFormatError for any malformed input: a kind other than
    "bayes", a field check, a repeated or self parent with _check_parents'
    messages (the node by label), a cycle, or edges that disagree with the
    parent lists.
    """
    return _network(data, {}, None)[0]


def manifest_to_dict(manifest: LinopManifest) -> dict:
    _check_kind(manifest, LinopManifest)
    data: dict = {"kind": MANIFEST_KIND, "inputs": list(manifest.inputs)}
    if manifest.weights is not None:
        data["weights"] = list(manifest.weights)
    return data


def manifest_from_dict(data) -> LinopManifest:
    if not isinstance(data, dict) or data.get("kind") != MANIFEST_KIND:
        raise ModelFormatError(f"manifest must have kind {MANIFEST_KIND!r}")
    inputs = data.get("inputs")
    if not isinstance(inputs, list) or not _nonempty_paths(inputs):
        raise ModelFormatError("'inputs' must be a nonempty list of paths")
    weights = data.get("weights")
    if weights is not None:
        weights = _check_reals(weights, ModelFormatError, "'weights'")
    return LinopManifest(tuple(inputs), weights)


def _check_path(path) -> None:
    """MalformedInstance, naming the type, unless path is a str or an
    os.PathLike: the one path check of the loads and the saves."""
    if not isinstance(path, (str, os.PathLike)):
        raise MalformedInstance(f"path must be a str or an os.PathLike, got {type(path).__name__}")


def _load_file(path: str | Path, build, *args):
    """build(data, *args) for the JSON value data in the file at path (a
    str or an os.PathLike, _check_path); a ModelFormatError that build
    raises gets the prefix "<path>: ".

    orjson parses the text first. When it refuses the text, or build
    raises a BeliefPoolError or a RecursionError on its value, json.loads
    parses the text again and build runs on that value: the stdlib path,
    which gives every failing file its error and message. orjson has no
    depth limit and reads an integer of 2^64 or more as a float, so only
    a value that builds is taken from it."""
    _check_path(path)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ModelFormatError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ModelFormatError(f"{path} is not UTF-8 text: {err}") from err
    try:
        return build(orjson.loads(text), *args)
    except (orjson.JSONDecodeError, BeliefPoolError, RecursionError):
        pass
    try:
        data = json.loads(text)
    except ValueError as err:  # bad JSON, or an integer past the digit limit
        raise ModelFormatError(f"{path} is not valid JSON: {err}") from err
    except RecursionError:
        raise ModelFormatError(f"{path} nests too deeply to parse") from None
    try:
        return build(data, *args)
    except ModelFormatError as err:
        raise ModelFormatError(f"{path}: {err}") from err


def load_network(path: str | Path) -> BayesNet:
    """The network in a file."""
    return load_networks([path])[0]


def load_networks(paths: Sequence[str | Path]) -> list[BayesNet]:
    """The networks in the files of one command, in order: paths is a
    sequence of paths (_check_path). The files share the row-key tables and
    a repeated structure's check (_structure); an error names its file."""
    _check_sequence(paths, "paths")
    tables: dict[int, Callable] = {}
    check = None
    networks = []
    for path in paths:
        network, check = _load_file(path, _network, tables, check)
        networks.append(network)
    return networks


def _model(data) -> BayesNet | LinopManifest:
    if isinstance(data, dict) and data.get("kind") == MANIFEST_KIND:
        return manifest_from_dict(data)
    return network_from_dict(data)


def load_model_file(path: str | Path) -> BayesNet | LinopManifest:
    """Load a network or manifest, dispatching on the file's kind."""
    return _load_file(path, _model)


def json_text(data: dict) -> str:
    """json.dumps(data) + "\\n", the saved text of network_to_dict or
    manifest_to_dict output. data is a dict with string keys, and json
    must encode it: anything else (a type json does not know, a circular
    reference, deep nesting) is a MalformedInstance."""
    _check_kind(data, dict)
    if not _all_instances(list(data), str):
        raise MalformedInstance("json_text needs a dict with string keys")
    try:
        return json.dumps(data) + "\n"
    except (TypeError, ValueError, RecursionError) as err:
        raise MalformedInstance(f"document is not JSON-encodable: {err}") from None


def _dump(data: dict, path: str | Path) -> None:
    _check_path(path)
    text = json_text(data)
    try:
        Path(path).write_text(text)
    except OSError as err:
        raise ModelFormatError(f"cannot write {path}: {err}") from err


def save_network(
    model: BayesNet, path: str | Path, provenance: dict | None = None
) -> None:
    _dump(network_to_dict(model, provenance), path)


def save_manifest(manifest: LinopManifest, path: str | Path) -> None:
    _dump(manifest_to_dict(manifest), path)


def align_variables(models: Sequence[BayesNet]) -> list[BayesNet]:
    """Reindex all models to the first model's variable order.

    Models must be a sequence (joint._check_sequence), carry labels and
    agree on the label set; structures and CPT rows are preserved under
    the renaming. Models already in that order come back as they are.
    """
    _check_sequence(models, "models")
    if not models:
        raise MalformedInstance("need at least one model")
    reference = _require_labels(models[0], "aligning networks")
    aligned: list[BayesNet] = []
    target = {label: i for i, label in enumerate(reference)}
    for model in models:
        labels = _require_labels(model, "aligning networks")
        if set(labels) != set(reference):
            raise MismatchedVariables(
                f"variable sets differ: {sorted(labels)} vs {sorted(reference)}"
            )
        if labels == reference:
            aligned.append(model)
            continue
        # perm[i] is the new index of variable i, and inverse[j] the old
        # index of variable j. Renaming a valid network's variables keeps
        # it valid; each CPT keeps its rows and its parent order, so the
        # rows are gathered in their new owner order.
        perm = [target[label] for label in labels]
        inverse = sorted(range(len(perm)), key=perm.__getitem__)
        parents, offsets = model._dag.parents, model._dag._offsets
        dag = _trusted(
            Dag, m=model.m, parents=tuple(tuple(perm[p] for p in parents[i]) for i in inverse)
        )
        gather = [r for i in inverse for r in range(offsets[i], offsets[i + 1])]
        aligned.append(_from_rows(dag, model._rows[gather], reference))
    return aligned
