"""JSON files for networks and pooling manifests.

A network file is UTF-8 JSON holding "kind" (always "bayes"), an
ordered "variables" label list, "edges" as parent-child label pairs, and
a "cpts" map. CPT rows are keyed by parent outcome strings: with
parents listed as (p_0, ..., p_{k-1}), a key has exactly k characters,
each "0" or "1", character i is "1" exactly when p_i is true, and a
parentless node uses the single key "". Each row value is a number in
[0, 1]. Probabilities round-trip bit-exactly since values are written
with Python's shortest-repr float serialization.

Saved text is exactly json.dumps(data, indent=2) plus a newline. json_text
has orjson write it when orjson's compact text equals json's own, and
json.dumps, field by field and about three times slower, otherwise: the
two lay out indented text by the same rule.

Loading and saving both work from a row-key table: for one parent
count, every valid key. The files of one command load in one
load_networks call (cli._load_bayes_inputs), so each table is built once
per parent count and command; any other load, and each network_to_dict
call, builds its own. A load compares each CPT's key set with the
table's and reads the rows in row order through it, and network_to_dict
writes each CPT's rows in the table's sorted key order, so no key is
parsed, formatted or sorted per row.

Every network file takes one path (_network). First the structure
(_structure): within one load_networks call, a file whose "variables",
"edges" and per-CPT "parents" equal the file before it as JSON values
takes that file's check and shares its labels, parent tuples and Dag;
equality is proof enough, since each of those fields of a checked file
is a string or a list of strings, and only an equal string compares
equal to a string. Any other file takes the full structural check. The
check holds the fields as parsed, not copies: nothing outside the call
holds the dicts it parsed. Then the rows: every file's go through the
same row reader, key-set check and value check, so a file raises the
message and loads the network that it would alone.

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
CPT's key set against the table's, and every row value in one pass (all
floats, between 0 and 1, no NaN). Only when one of them fails does
_check_cpts walk the entries one CPT at a time, in variable order and
each one's rows in file order, to raise the message of the first fault;
it builds nothing. A walk that finds no fault leaves rows that are
numbers but not all floats, such as 0 and 1, which load as floats.

A manifest file ("kind": "linop-manifest") names input network files
plus weights instead of storing a pooled model, because an arithmetic
pool of networks generally has no compact network form.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import orjson

from .errors import BeliefPoolError, MalformedInstance, MismatchedVariables, ModelFormatError
from .joint import _check_kind, _check_sequence, _trusted
from .networks import (
    BayesNet, Cpt, Dag, _acyclic, _check_labels, _check_parents, parse_probability,
)

MANIFEST_KIND = "linop-manifest"


def _nonempty_paths(inputs: Sequence) -> bool:
    """Whether inputs holds at least one path and each is a nonempty str."""
    return bool(inputs) and all(isinstance(p, str) and p for p in inputs)


def _manifest_weights(weights, error: type) -> tuple[float, ...]:
    """A manifest's weights as floats: error unless each is an int or a
    float, not a bool, that fits a float."""
    if not all(isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights):
        raise error("'weights' must be a list of numbers")
    try:
        return tuple(map(float, weights))
    except OverflowError as err:
        raise error("'weights' holds an integer too large for a float") from err


@dataclass(frozen=True)
class LinopManifest:
    """Pointer to input networks pooled arithmetically with weights.

    inputs is a nonempty sequence of nonempty path strings and weights
    None or a sequence of numbers (_manifest_weights), kept as a tuple
    of strings and a tuple of Python floats; MalformedInstance
    otherwise, so every manifest saves a file that manifest_from_dict
    reads back."""

    inputs: tuple[str, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        _check_sequence(self.inputs, "inputs")
        if isinstance(self.inputs, str) or not _nonempty_paths(self.inputs):
            raise MalformedInstance("'inputs' must be a nonempty list of paths")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.weights is not None:
            _check_sequence(self.weights, "weights")
            weights = _manifest_weights(self.weights, MalformedInstance)
            object.__setattr__(self, "weights", weights)


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
    edges = sorted(
        (labels[p], labels[c.owner]) for c in model.cpts for p in c.parents
    )
    tables: dict[int, list[tuple[str, int]]] = {}
    cpts = {}
    for cpt in model.cpts:
        k = len(cpt.parents)
        table = tables.get(k) or tables.setdefault(
            k, sorted((key, r) for r, key in enumerate(_row_keys(k)))
        )
        rows = cpt.rows
        cpts[labels[cpt.owner]] = {
            "parents": [labels[p] for p in cpt.parents],
            "rows": {key: rows[r] for key, r in table},
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
    entries: list, parents: list[tuple[int, ...]], tables: dict[int, tuple]
) -> list[tuple] | None:
    """Each entry's row values in row order, or None when its rows are
    not an object of 2^k rows keyed by exactly the valid keys. The
    entries are objects; the values are not checked here."""
    row_maps = [entry.get("rows") for entry in entries]
    if not _all_instances(row_maps, dict):
        return None
    rows = []
    for ps, row_map in zip(parents, row_maps):
        k = len(ps)
        if k not in tables:
            # A table is built only for a row count that fits it: a short
            # file can list too many parents for 2^k keys to fit in memory.
            if len(row_map) != 1 << k:
                return None
            keys = _row_keys(k)
            tables[k] = keys.keys(), operator.itemgetter(*keys)
        keys, get = tables[k]
        if row_map.keys() != keys:
            return None
        rows.append(get(row_map) if k else (row_map[""],))  # one key: no tuple
    return rows


def _floats_in_range(rows: list[tuple]) -> bool:
    """Whether every row value is a float in [0, 1], in one pass."""
    values = list(itertools.chain.from_iterable(rows))
    return (
        set(map(type, values)) == {float}
        and 0.0 <= min(values)
        and max(values) <= 1.0
        and not math.isnan(sum(values))  # min and max can step over a NaN
    )


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


def _network(data, tables: dict[int, tuple], previous: tuple | None) -> tuple[BayesNet, tuple]:
    """The network in a parsed file and its structural check (_structure,
    given previous). tables maps a parent count to its valid row keys and a
    getter of the rows in row order. When the row read or the value check
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
    rows = _read_rows(entries, parents, tables)
    if rows is None or not _floats_in_range(rows):
        # _check_cpts raises for any faulty entry. With none, each row is
        # a number in [0, 1] and some are not floats, such as 0 or 1.
        _check_cpts(labels, entries, index)
        rows = [tuple(map(float, r)) for r in rows]
    # Every Cpt, Dag and BayesNet check has passed: one CPT per variable
    # in owner order, known distinct labels, known parents that are
    # distinct and not the owner, 2^k Python floats in [0, 1], no cycle.
    cpts = tuple(
        _trusted(Cpt, owner=owner, parents=ps, rows=r)
        for owner, (ps, r) in enumerate(zip(parents, rows))
    )
    return _trusted(BayesNet, cpts=cpts, labels=labels, _dag=dag), check


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
        if not isinstance(weights, list):
            raise ModelFormatError("'weights' must be a list of numbers")
        weights = _manifest_weights(weights, ModelFormatError)
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
    tables: dict[int, tuple] = {}
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


def _dumps(value, what: str) -> str:
    """json.dumps(value, indent=2); MalformedInstance, naming what, when
    json cannot encode value (a type it does not know, a circular
    reference, nesting too deep)."""
    try:
        return json.dumps(value, indent=2)
    except (TypeError, ValueError, RecursionError) as err:
        raise MalformedInstance(f"{what} is not JSON-encodable: {err}") from None


# json.dumps(value) without the spaces after separators, by json's C
# encoder where the interpreter has it.
_compact = json.JSONEncoder(separators=(",", ":")).encode


def json_text(data: dict) -> str:
    """Exactly json.dumps(data, indent=2) + "\\n", the saved text of
    network_to_dict or manifest_to_dict output.

    data is a dict with string keys (MalformedInstance otherwise). When
    orjson's compact text of data equals json's byte for byte, orjson
    writes the indented text: both lay out indent=2 text by the same
    rule. Otherwise, for a value that either cannot encode or that they
    write differently (a float below 1e-4 or from 1e16 up, NaN, an
    infinity, a non-ASCII character or DEL, an integer from 2^64 up, a
    numpy scalar), each field goes through json.dumps re-indented, and a
    value json cannot encode is a MalformedInstance naming its field.
    """
    _check_kind(data, dict)
    if not _all_instances(list(data), str):
        raise MalformedInstance("json_text needs a dict with string keys")
    try:
        # orjson.JSONEncodeError is a TypeError.
        same = orjson.dumps(data) == _compact(data).encode()
    except (TypeError, ValueError, RecursionError):
        same = False
    if same:
        return orjson.dumps(data, option=orjson.OPT_INDENT_2).decode() + "\n"
    # json.dumps escapes every string with this one.
    string = json.encoder.encode_basestring_ascii
    fields = ",\n  ".join(
        f"{string(key)}: " + _dumps(value, f"field {key!r}").replace("\n", "\n  ")
        for key, value in data.items()
    )
    return "{\n  " + fields + "\n}\n"


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
        perm = {i: target[label] for i, label in enumerate(labels)}
        # Renaming a valid network's variables keeps it valid; the CPTs
        # are taken in their new owner order.
        cpts = tuple(
            _trusted(
                Cpt,
                owner=perm[c.owner],
                parents=tuple(perm[p] for p in c.parents),
                rows=c.rows,
            )
            for c in sorted(model.cpts, key=lambda c: perm[c.owner])
        )
        dag = _trusted(Dag, m=model.m, parents=tuple(c.parents for c in cpts))
        aligned.append(_trusted(BayesNet, cpts=cpts, labels=reference, _dag=dag))
    return aligned
