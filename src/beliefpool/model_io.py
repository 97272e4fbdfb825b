"""JSON files for networks and pooling manifests.

A network file is UTF-8 JSON holding "kind" ("bayes" or "markov"), an
ordered "variables" label list, "edges" as label pairs, and for bayes
kind a "cpts" map. CPT rows are keyed by parent outcome strings: with
parents listed as (p_0, ..., p_{k-1}), a key has exactly k characters,
each "0" or "1", character i is "1" exactly when p_i is true, and a
parentless node uses the single key "". Each row value is a number in
[0, 1]. Probabilities round-trip bit-exactly since values are written
with Python's shortest-repr float serialization.

Saved text is exactly json.dumps(data, indent=2) plus a newline, written
by json_text without the pure-Python encoder an indent otherwise forces.

Loading checks a file in one pass per CPT and raises ModelFormatError
for anything malformed, including text that is not UTF-8, integers too
large for a float, and nesting too deep for the JSON parser.

A manifest file ("kind": "linop-manifest") names input network files
plus weights instead of storing a pooled model, because an arithmetic
pool of networks generally has no compact network form.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import MalformedInstance, MismatchedVariables, ModelFormatError
from .networks import BayesNet, Cpt, MarkovNet

NETWORK_KINDS = ("bayes", "markov")
MANIFEST_KIND = "linop-manifest"


@dataclass(frozen=True)
class LinopManifest:
    """Pointer to input networks pooled arithmetically with weights."""

    inputs: tuple[str, ...]
    weights: tuple[float, ...] | None = None


def _require_labels(model: BayesNet | MarkovNet) -> tuple[str, ...]:
    if model.labels is None:
        raise ModelFormatError("serializing a network requires variable labels")
    if not all(isinstance(label, str) for label in model.labels):
        raise ModelFormatError("variable labels must be strings")
    return model.labels


def _row_keys(n_parents: int) -> list[str]:
    """Key of every row index in order: character i is bit i of the index."""
    if not n_parents:
        return [""]
    spec = f"0{n_parents}b"
    return [format(r, spec)[::-1] for r in range(1 << n_parents)]


def network_to_dict(
    model: BayesNet | MarkovNet, provenance: dict | None = None
) -> dict:
    """JSON-ready representation of a network."""
    labels = _require_labels(model)
    if isinstance(model, BayesNet):
        edges = sorted(
            (labels[p], labels[c.owner]) for c in model.cpts for p in c.parents
        )
        cpts = {}
        for cpt in model.cpts:
            rows = sorted(zip(_row_keys(len(cpt.parents)), cpt.rows))
            cpts[labels[cpt.owner]] = {
                "parents": [labels[p] for p in cpt.parents],
                "rows": dict(rows),
            }
        data = {
            "kind": "bayes",
            "variables": list(labels),
            "edges": [list(e) for e in edges],
            "cpts": cpts,
        }
    else:
        edges = sorted(
            tuple(sorted((labels[u], labels[v]))) for u, v in model.edges
        )
        data = {
            "kind": "markov",
            "variables": list(labels),
            "edges": [list(e) for e in edges],
        }
    if provenance is not None:
        data["provenance"] = provenance
    return data


def _parse_variables(data: dict) -> tuple[str, ...]:
    variables = data.get("variables")
    if (
        not isinstance(variables, list)
        or not variables
        or not all(isinstance(v, str) and v for v in variables)
    ):
        raise ModelFormatError(
            "'variables' must be a nonempty list of nonempty strings"
        )
    if len(set(variables)) != len(variables):
        raise ModelFormatError("variable labels must be distinct")
    return tuple(variables)


def _parse_edges(
    data: dict, index: dict[str, int]
) -> list[tuple[int, int]]:
    edges = data.get("edges")
    if not isinstance(edges, list):
        raise ModelFormatError("'edges' must be a list of label pairs")
    parsed = []
    for e in edges:
        if not isinstance(e, list) or len(e) != 2:
            raise ModelFormatError(f"edge {e!r} is not a pair of labels")
        try:
            parsed.append((index[e[0]], index[e[1]]))
        except (KeyError, TypeError):
            if not all(isinstance(x, str) for x in e):
                raise ModelFormatError(
                    f"edge {e!r} is not a pair of labels"
                ) from None
            unknown = next(x for x in e if x not in index)
            raise ModelFormatError(
                f"edge references unknown variable {unknown!r}"
            ) from None
    return parsed


def _parse_probability(value) -> float:
    """A row value that is not already a float in [0, 1], or the error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"probability {value!r} is not a number")
    try:
        value = float(value)
    except OverflowError as err:
        raise ModelFormatError(
            "probability is an integer too large for a float"
        ) from err
    if not 0.0 <= value <= 1.0:
        raise ModelFormatError(f"probability {value} outside [0, 1]")
    return value


def _parent_error(
    label: str, parents_raw: list, index: dict[str, int]
) -> ModelFormatError:
    """Why a parent list failed to resolve: a non-label or an unknown one."""
    if not all(isinstance(p, str) for p in parents_raw):
        return ModelFormatError(f"cpt for {label!r} needs a parent label list")
    unknown = next(p for p in parents_raw if p not in index)
    return ModelFormatError(
        f"cpt for {label!r} references unknown parent {unknown!r}"
    )


def network_from_dict(data) -> BayesNet | MarkovNet:
    """Reconstruct a network from its JSON representation.

    Raises ModelFormatError for any malformed input: the checks here, or
    the network constructors' own (a cycle, a self-loop, a repeated or
    self parent), which raise it themselves.
    """
    if not isinstance(data, dict):
        raise ModelFormatError("top level must be a JSON object")
    kind = data.get("kind")
    if kind not in NETWORK_KINDS:
        raise ModelFormatError(
            f"'kind' must be one of {NETWORK_KINDS}, got {kind!r}"
        )
    labels = _parse_variables(data)
    index = {label: i for i, label in enumerate(labels)}
    edges = _parse_edges(data, index)

    if kind == "markov":
        if "cpts" in data:
            raise ModelFormatError("markov networks do not carry 'cpts'")
        return MarkovNet(len(labels), frozenset(edges), labels)

    cpts_data = data.get("cpts")
    if not isinstance(cpts_data, dict):
        raise ModelFormatError("'cpts' must map each variable to its table")
    if set(cpts_data) != set(labels):
        raise ModelFormatError(
            "'cpts' must have exactly one entry per variable"
        )
    cpts = []
    for label in labels:
        entry = cpts_data[label]
        if not isinstance(entry, dict):
            raise ModelFormatError(f"cpt for {label!r} must be an object")
        parents_raw = entry.get("parents")
        if not isinstance(parents_raw, list):
            raise ModelFormatError(f"cpt for {label!r} needs a parent label list")
        try:
            parents = tuple([index[p] for p in parents_raw])
        except (KeyError, TypeError):
            raise _parent_error(label, parents_raw, index) from None
        rows_raw = entry.get("rows")
        k = len(parents)
        if not isinstance(rows_raw, dict) or len(rows_raw) != (1 << k):
            raise ModelFormatError(
                f"cpt for {label!r} needs exactly {1 << k} rows"
            )
        rows = [0.0] * (1 << k)
        # Dict keys are distinct and a valid key names exactly one row, so
        # with 2^k keys every row is set once and no key can repeat a row.
        for key, value in rows_raw.items():
            # strip leaves nothing only when every character is "0" or "1";
            # int(key, 2) alone would take signs, spaces, "_" and any digit.
            if not (isinstance(key, str) and len(key) == k
                    and not key.strip("01")):
                if not isinstance(key, str):
                    raise ModelFormatError(f"row key {key!r} must be a string")
                raise ModelFormatError(
                    f"row key {key!r} is not a {k}-character outcome string"
                )
            if type(value) is not float or not 0.0 <= value <= 1.0:
                value = _parse_probability(value)
            rows[int(key[::-1], 2) if k else 0] = value
        cpts.append(Cpt(index[label], parents, tuple(rows)))

    bn = BayesNet(tuple(cpts), labels)
    declared = {(p, c) for p, c in edges}
    derived = {(p, c.owner) for c in bn.cpts for p in c.parents}
    if declared != derived:
        raise ModelFormatError(
            "'edges' disagree with the parent lists in 'cpts'"
        )
    return bn


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


def _load_json(path: str | Path):
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


def load_network(path: str | Path) -> BayesNet | MarkovNet:
    return network_from_dict(_load_json(path))


def load_model_file(
    path: str | Path,
) -> BayesNet | MarkovNet | LinopManifest:
    """Load a network or manifest, dispatching on the file's kind."""
    data = _load_json(path)
    if isinstance(data, dict) and data.get("kind") == MANIFEST_KIND:
        return manifest_from_dict(data)
    return network_from_dict(data)


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
    Path(path).write_text(json_text(data))


def save_network(
    model: BayesNet | MarkovNet,
    path: str | Path,
    provenance: dict | None = None,
) -> None:
    _dump(network_to_dict(model, provenance), path)


def save_manifest(manifest: LinopManifest, path: str | Path) -> None:
    _dump(manifest_to_dict(manifest), path)


def align_variables(
    models: Sequence[BayesNet | MarkovNet],
) -> list[BayesNet | MarkovNet]:
    """Reindex all models to the first model's variable order.

    Models must carry labels and agree on the label set; structures and
    CPT rows are preserved under the renaming. Models already in that
    order come back as they are.
    """
    if not models:
        raise MalformedInstance("need at least one model")
    reference = _require_labels(models[0])
    aligned: list[BayesNet | MarkovNet] = []
    target = {label: i for i, label in enumerate(reference)}
    for model in models:
        labels = _require_labels(model)
        if set(labels) != set(reference):
            raise MismatchedVariables(
                f"variable sets differ: {sorted(labels)} vs {sorted(reference)}"
            )
        if labels == reference:
            aligned.append(model)
            continue
        perm = {i: target[label] for i, label in enumerate(labels)}
        if isinstance(model, BayesNet):
            cpts = tuple(
                Cpt(
                    perm[c.owner],
                    tuple(perm[p] for p in c.parents),
                    c.rows,
                )
                for c in model.cpts
            )
            aligned.append(BayesNet(cpts, reference))
        else:
            edges = frozenset((perm[u], perm[v]) for u, v in model.edges)
            aligned.append(MarkovNet(model.m, edges, reference))
    return aligned
