"""JSON files for networks and pooling manifests.

A network file is UTF-8 JSON holding "kind" (always "bayes"), an
ordered "variables" label list, "edges" as parent-child label pairs, and
a "cpts" map. CPT rows are keyed by parent outcome strings: with
parents listed as (p_0, ..., p_{k-1}), a key has exactly k characters,
each "0" or "1", character i is "1" exactly when p_i is true, and a
parentless node uses the single key "". Each row value is a number in
[0, 1]. Probabilities round-trip bit-exactly since values are written
with Python's shortest-repr float serialization.

Saved text is exactly json.dumps(data, indent=2) plus a newline, written
by json_text without the pure-Python encoder an indent otherwise forces.

Loading and saving both work from a row-key table: for one parent
count, every valid key. The loads of one command share one _Loader
(cli._load_bayes_inputs makes it and passes it to load_network, one
call per file), so each table is built once per parent count and
command; any other load, and each network_to_dict call, builds its own.
The loader compares each CPT's key set with the table's and reads the
rows in row order through it, and network_to_dict writes each CPT's
rows in the table's sorted key order, so no key is parsed, formatted or
sorted per row.

Every network file takes one path. First the structure: the _Loader
keeps the last structure it checked in full, its "variables", "edges"
and per-CPT "parents" as written with the labels, label index, parent
tuples and Dag they checked to. A file whose three fields equal those
as JSON values takes that check and shares those labels, parent tuples
and Dag; equality is proof enough, since each of those fields of a
checked file is a string or a list of strings, and only an equal string
compares equal to a string. Any other file takes the full structural
check, which the loader then remembers. Then the rows: every file's go
through the same row reader, key-set check and value check, so a file
raises the message and loads the network that it would alone.

Loading raises ModelFormatError, naming the file, for anything
malformed, including text that is not UTF-8, integers too large for a
float, nesting too deep for the JSON parser, and any kind but "bayes"
or "linop-manifest"; a path that is not a str or an os.PathLike is a
MalformedInstance, as it is for saving. The loader is where a file's
model is validated: it makes every check the network constructors
would, through the same functions (networks._check_labels for the
labels, _check_parents for a faulty entry's parents, which then names
the node by its label), then builds the network without checking again.
Each check runs over the whole file at once: the types of the entries
and of their parent and row fields as one set of types, the parents
resolved in one pass, acyclicity over the parent lists by Dag's own
check, networks._acyclic, the edges against the parent lists, each
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

from .errors import MalformedInstance, MismatchedVariables, ModelFormatError
from .joint import _check_kind, _check_sequence, _trusted
from .networks import (
    BayesNet, Cpt, Dag, _acyclic, _check_labels, _check_parents, parse_probability,
)

MANIFEST_KIND = "linop-manifest"


@dataclass(frozen=True)
class LinopManifest:
    """Pointer to input networks pooled arithmetically with weights."""

    inputs: tuple[str, ...]
    weights: tuple[float, ...] | None = None


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
    """JSON-ready representation of a network."""
    labels = _require_labels(model, "serializing a network")
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


class _Loader:
    """What the loads of one command share: the row-key tables, each
    built once per parent count, and the last structure that passed the
    full check (_structure). cli._load_bayes_inputs makes one per command
    and hands it to every load_network call; a load given none makes its
    own."""

    __slots__ = ("tables", "memo")

    def __init__(self) -> None:
        # Per parent count: the valid keys and a getter of the rows in row order.
        self.tables: dict[int, tuple] = {}
        # The last checked file's "variables", "edges" and per-CPT
        # "parents" as it wrote them, then the labels, label index, parent
        # tuples and Dag they checked to.
        self.memo: tuple | None = None


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


def _structure(loader: _Loader, variables, edges, cpts_data) -> tuple:
    """(labels, label index, parents, Dag, entries) of a network after
    every structural check: the loader's remembered one when "variables",
    "edges" and each entry's "parents" equal the remembered ones as JSON
    values, else the full check, which the loader then remembers. Those
    fields of a checked file are strings and lists of strings, and only an
    equal string compares equal to a string, so equality is proof enough.

    On a structural fault, _check_cpts names the first faulty entry, its
    rows included, before a cycle and before edges that disagree."""
    memo = loader.memo
    if memo is not None and variables == memo[0] and edges == memo[1]:
        labels, index, parents, dag = memo[3:]
        if isinstance(cpts_data, dict) and cpts_data.keys() == index.keys():
            entries = list(map(cpts_data.__getitem__, labels))
            if _all_instances(entries, dict) and [e.get("parents") for e in entries] == memo[2]:
                return labels, index, parents, dag, entries

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
    # Copies, so that a caller who changes a loaded dict in place does not
    # change what the loader remembers.
    raw = list(variables), list(map(list, edges)), [list(e["parents"]) for e in entries]
    loader.memo = *raw, labels, index, parents, dag
    return labels, index, parents, dag, entries


def network_from_dict(data, loader: _Loader | None = None) -> BayesNet:
    """Reconstruct a Bayesian network from its JSON representation.

    Raises ModelFormatError for any malformed input: a kind other than
    "bayes", a field check, a repeated or self parent with _check_parents'
    messages (the node by label), a cycle, or edges that disagree with the
    parent lists. The structure comes from _structure, which reuses the
    loader's check of an equal structure; every file's rows then take the
    same read and value check, and when either fails, _check_cpts names
    the first faulty entry.
    """
    if loader is None:
        loader = _Loader()
    if not isinstance(data, dict):
        raise ModelFormatError("top level must be a JSON object")
    kind = data.get("kind")
    if kind != "bayes":
        raise ModelFormatError(f"'kind' must be 'bayes', got {kind!r}")
    labels, index, parents, dag, entries = _structure(
        loader, data.get("variables"), data.get("edges"), data.get("cpts")
    )
    rows = _read_rows(entries, parents, loader.tables)
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
    return _trusted(BayesNet, cpts=cpts, labels=labels, _dag=dag)


def manifest_to_dict(manifest: LinopManifest) -> dict:
    data: dict = {"kind": MANIFEST_KIND, "inputs": list(manifest.inputs)}
    if manifest.weights is not None:
        data["weights"] = list(manifest.weights)
    return data


def manifest_from_dict(data) -> LinopManifest:
    if not isinstance(data, dict) or data.get("kind") != MANIFEST_KIND:
        raise ModelFormatError(f"manifest must have kind {MANIFEST_KIND!r}")
    inputs = data.get("inputs")
    if (
        not isinstance(inputs, list)
        or not inputs
        or not all(isinstance(p, str) and p for p in inputs)
    ):
        raise ModelFormatError("'inputs' must be a nonempty list of paths")
    weights = data.get("weights")
    if weights is not None:
        if not isinstance(weights, list) or not all(
            isinstance(w, (int, float)) and not isinstance(w, bool)
            for w in weights
        ):
            raise ModelFormatError("'weights' must be a list of numbers")
        try:
            weights = tuple(float(w) for w in weights)
        except OverflowError as err:
            raise ModelFormatError(
                "'weights' holds an integer too large for a float"
            ) from err
    return LinopManifest(tuple(inputs), weights)


def _check_path(path) -> None:
    """MalformedInstance, naming the type, unless path is a str or an
    os.PathLike: the one path check of the loads and the saves."""
    if not isinstance(path, (str, os.PathLike)):
        raise MalformedInstance(f"path must be a str or an os.PathLike, got {type(path).__name__}")


def _load_json(path: str | Path):
    _check_path(path)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ModelFormatError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ModelFormatError(f"{path} is not UTF-8 text: {err}") from err
    try:
        return json.loads(text)
    except ValueError as err:  # bad JSON, or an integer past the digit limit
        raise ModelFormatError(f"{path} is not valid JSON: {err}") from err
    except RecursionError:
        raise ModelFormatError(f"{path} nests too deeply to parse") from None


def load_network(path: str | Path, loader: _Loader | None = None) -> BayesNet:
    """The network in a file. Loads that pass one loader share its
    row-key tables and its last checked structure (network_from_dict)."""
    data = _load_json(path)
    try:
        return network_from_dict(data, loader)
    except ModelFormatError as err:
        raise ModelFormatError(f"{path}: {err}") from err


def load_model_file(path: str | Path) -> BayesNet | LinopManifest:
    """Load a network or manifest, dispatching on the file's kind."""
    data = _load_json(path)
    try:
        if isinstance(data, dict) and data.get("kind") == MANIFEST_KIND:
            return manifest_from_dict(data)
        return network_from_dict(data)
    except ModelFormatError as err:
        raise ModelFormatError(f"{path}: {err}") from err


# json.dumps escapes every string with this one (the C version where the
# interpreter has it) and writes each finite float as float.__repr__.
_string = json.encoder.encode_basestring_ascii


def _container(brackets: str, items: list[str], depth: int) -> str:
    """json.dumps(..., indent=2) layout of a list or object at the given
    depth whose items are already encoded."""
    if not items:
        return brackets
    pad = "\n" + "  " * depth
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _labels_text(labels: list[str], depth: int) -> str:
    return _container("[]", list(map(_string, labels)), depth)


def _edges_text(edges: list[list[str]], depth: int) -> str:
    close = "\n" + "  " * (depth + 1)
    inner = close + "  "
    sep = "," + inner
    return _container("[]", [
        f"[{inner}{sep.join(map(_string, edge))}{close}]" for edge in edges
    ], depth)


_row = "{}: {}".format


def _cpts_text(cpts: dict, depth: int) -> str:
    # Each entry is an object at depth + 1 holding a parent list and a
    # row object at depth + 2, whose items sit at depth + 3.
    close = "\n" + "  " * (depth + 1)
    field = close + "  "
    inner = field + "  "
    sep = "," + inner
    entries = []
    for label, cpt in cpts.items():
        parents, rows = cpt["parents"], cpt["rows"]
        parents_text = (
            f"[{inner}{sep.join(map(_string, parents))}{field}]" if parents
            else "[]"
        )
        rows_text = sep.join(
            map(_row, map(_string, rows), map(float.__repr__, rows.values()))
        )
        entries.append(
            f'{_string(label)}: {{{field}"parents": {parents_text},'
            f'{field}"rows": {{{inner}{rows_text}{field}}}{close}}}'
        )
    return _container("{}", entries, depth)


# The network schema's bulky fields, written without the pure-Python
# encoder that an indent forces json.dumps to use.
_FIELD_TEXT = {
    "variables": _labels_text,
    "edges": _edges_text,
    "cpts": _cpts_text,
}


def json_text(data: dict) -> str:
    """The saved text of network_to_dict or manifest_to_dict output:
    exactly json.dumps(data, indent=2) + "\\n".

    Labels, edges, parent lists and CPT rows are formatted here (labels
    are strings, as network_to_dict requires); every other field goes
    through json.dumps re-indented.
    """
    fields = []
    for key, value in data.items():
        field_text = _FIELD_TEXT.get(key)
        text = (
            field_text(value, 1) if field_text is not None
            else json.dumps(value, indent=2).replace("\n", "\n  ")
        )
        fields.append(f"{_string(key)}: {text}")
    return _container("{}", fields, 0) + "\n"


def _dump(data: dict, path: str | Path) -> None:
    _check_path(path)
    Path(path).write_text(json_text(data))


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
