"""JSON round trips, format validation, and label-based alignment."""

import dataclasses
import datetime
import enum
import itertools
import json
import re
import tempfile
import uuid
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefpool import (
    BayesNet,
    Cpt,
    MalformedInstance,
    MarkovNet,
    MismatchedVariables,
    ModelFormatError,
    bn_to_joint,
    marginal,
)
from beliefpool import cli, model_io
from beliefpool.model_io import (
    LinopManifest,
    align_variables,
    json_text,
    load_model_file,
    load_network,
    load_networks,
    manifest_from_dict,
    manifest_to_dict,
    network_from_dict,
    network_to_dict,
    save_manifest,
    save_network,
)
from beliefpool.sampling import random_bn

CHAIN = BayesNet(
    (Cpt(0, (), (0.2,)), Cpt(1, (0,), (0.6, 0.4))), labels=("A1", "A2")
)


def valid_bayes_dict():
    return network_to_dict(CHAIN)


def reference_text(model, provenance=None):
    """The saved text of a network, built key by key from the row bit
    encoding, independently of model_io."""
    labels = model.labels

    def row_key(r, k):
        return "".join("1" if (r >> i) & 1 else "0" for i in range(k))

    edges = sorted(
        (labels[p], labels[c.owner]) for c in model.cpts for p in c.parents
    )
    cpts = {
        labels[c.owner]: {
            "parents": [labels[p] for p in c.parents],
            "rows": dict(sorted(
                (row_key(r, len(c.parents)), c.rows[r])
                for r in range(len(c.rows))
            )),
        }
        for c in model.cpts
    }
    data = {
        "kind": "bayes",
        "variables": list(labels),
        "edges": [list(e) for e in edges],
        "cpts": cpts,
    }
    if provenance is not None:
        data["provenance"] = provenance
    return json.dumps(data, indent=2) + "\n"


# Rows at the edges of [0, 1] and of the float range, all bit-exact in JSON.
EDGE_ROWS = (0.0, 1.0, 1e-300, 5e-324, 0.3, 1.0 - 1e-16)


labels_text = st.text(min_size=1, max_size=4)


@st.composite
def labelled_bns(draw, rows=EDGE_ROWS, labels=labels_text):
    m = draw(st.integers(min_value=1, max_value=8))
    labels = draw(st.lists(labels, min_size=m, max_size=m, unique=True))
    order = draw(st.permutations(range(m)))
    cpts = []
    for pos, v in enumerate(order):
        parents = draw(st.lists(st.sampled_from(order[:pos]), max_size=6,
                                unique=True)) if pos else []
        cpt_rows = draw(st.lists(st.sampled_from(rows), min_size=1 << len(parents),
                                 max_size=1 << len(parents)))
        cpts.append(Cpt(v, tuple(parents), tuple(cpt_rows)))
    return BayesNet(tuple(cpts), tuple(labels))


# File paths as a user may pass them: quotes, backslashes, non-ASCII.
paths = st.one_of(
    st.just('agents/"q"\\é✓.json'), st.text(min_size=1, max_size=8)
)


@st.composite
def cli_provenance(draw, labels):
    """A provenance block shaped as CLI aggregate writes it."""
    n = draw(st.integers(min_value=1, max_value=4))
    return {
        "pool": "logop",
        "weights": draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)),
        "inputs": draw(st.lists(paths, min_size=n, max_size=n)),
        "elimination_order": draw(st.permutations(labels)),
        "agent_queries": draw(st.integers(min_value=0, max_value=10**9)),
    }


class TestNetworkRoundTrip:
    def test_bayes_dict_round_trip(self):
        got = network_from_dict(valid_bayes_dict())
        assert got == CHAIN

    def test_file_round_trip_is_bit_exact(self, tmp_path):
        # Awkward floats survive because floats serialize shortest-repr.
        rows = (0.1 + 0.2, 1.0 / 3.0, 0.7e-3, 1.0 - 1e-16)
        net = BayesNet(
            (Cpt(0, (), (0.123456789012345,)), Cpt(1, (), (0.5,)), Cpt(2, (0, 1), rows)),
            labels=("A1", "A2", "A3"),
        )
        path = tmp_path / "net.json"
        save_network(net, path)
        got = load_network(path)
        assert got.cpts == net.cpts
        assert got.labels == net.labels

    def test_row_keys_follow_parent_positions(self):
        net = BayesNet(
            (
                Cpt(0, (2, 1), (0.1, 0.2, 0.3, 0.4)),
                Cpt(1, (), (0.5,)),
                Cpt(2, (), (0.5,)),
            ),
            labels=("A1", "A2", "A3"),
        )
        rows = network_to_dict(net)["cpts"]["A1"]["rows"]
        # Character i of a key is the outcome of the i-th listed parent,
        # here (A3, A2); key "10" means A3 true, A2 false.
        assert network_to_dict(net)["cpts"]["A1"]["parents"] == ["A3", "A2"]
        assert rows == {"00": 0.1, "10": 0.2, "01": 0.3, "11": 0.4}

    def test_parentless_row_key_is_empty_string(self):
        rows = valid_bayes_dict()["cpts"]["A1"]["rows"]
        assert rows == {"": 0.2}

    def test_edges_are_sorted_label_pairs(self):
        assert valid_bayes_dict()["edges"] == [["A1", "A2"]]

    def test_provenance_carried(self):
        data = network_to_dict(CHAIN, provenance={"pool": "logop"})
        assert data["provenance"] == {"pool": "logop"}

    @given(bn=labelled_bns(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_saved_text_matches_reference(self, bn, data):
        provenance = data.draw(st.none() | cli_provenance(bn.labels))
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "net.json"
            save_network(bn, path, provenance)
            assert path.read_text() == reference_text(bn, provenance)
            got = load_network(path)
        assert got == bn
        assert all(
            a.rows[r].hex() == b.rows[r].hex()
            for a, b in zip(got.cpts, bn.cpts) for r in range(len(a.rows))
        )

    @given(
        inputs=st.lists(paths, min_size=1, max_size=4),
        weights=st.none() | st.lists(st.floats(0.0, 1e3), max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_saved_manifest_text_matches_reference(self, inputs, weights):
        data = {"kind": "linop-manifest", "inputs": inputs}
        if weights is not None:
            data["weights"] = weights
        manifest = LinopManifest(
            tuple(inputs), None if weights is None else tuple(weights)
        )
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "pool.json"
            save_manifest(manifest, path)
            assert path.read_text() == json.dumps(data, indent=2) + "\n"

    def test_wide_cpt_round_trip(self, tmp_path):
        # A 10-parent CPT (1,024 rows), parents listed out of index order
        # and row keys in shuffled order, loads bit for bit and saves as
        # json.dumps(indent=2) writes it, keys sorted.
        rng = np.random.default_rng(10)
        labels = tuple(f"v{i}" for i in range(11))
        parents = tuple(int(p) for p in rng.permutation(10))
        rows = rng.uniform(0.0, 1.0, 1 << 10).tolist()
        rows[:4] = [0.0, 1.0, 0.1 + 0.2, 5e-324]
        keys = [
            "".join("1" if r >> i & 1 else "0" for i in range(10))
            for r in range(1 << 10)
        ]
        order = rng.permutation(1 << 10).tolist()
        data = {
            "kind": "bayes",
            "variables": list(labels),
            "edges": sorted([labels[p], "v10"] for p in parents),
            "cpts": {
                **{label: {"parents": [], "rows": {"": 0.5}} for label in labels[:10]},
                "v10": {
                    "parents": [labels[p] for p in parents],
                    "rows": {keys[r]: rows[r] for r in order},
                },
            },
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        bn = load_network(path)
        assert bn.cpts[10].parents == parents
        assert [p.hex() for p in bn.cpts[10].rows] == [p.hex() for p in rows]
        save_network(bn, path)
        saved = network_to_dict(bn)
        assert list(saved["cpts"]["v10"]["rows"]) == sorted(keys)
        assert path.read_text() == json.dumps(saved, indent=2) + "\n"
        assert path.read_text() == reference_text(bn)
        assert load_network(path) == bn

        # A bad key among 1,024 keeps the loader's messages.
        for bad, message in [
            ("0" * 9, "row key '000000000' is not a 10-character outcome string"),
            ("0" * 11, "row key '00000000000' is not a 10-character outcome string"),
            ("01_0000000", "row key '01_0000000' is not a 10-character outcome string"),
            (7, "row key 7 must be a string"),
        ]:
            mutated = json.loads(json.dumps(data))
            table = mutated["cpts"]["v10"]["rows"]
            del table[keys[order[-1]]]
            table[bad] = 0.5
            with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
                network_from_dict(mutated)

    def test_non_string_labels_are_not_saved(self, tmp_path):
        # The loader rejects such labels, and so does the constructor, so
        # a network holding them is never built and never written.
        path = tmp_path / "net.json"
        with pytest.raises(ModelFormatError, match="^variable labels must be nonempty strings$"):
            save_network(BayesNet(CHAIN.cpts, labels=(1, 2.5)), path)
        assert not path.exists()

    def test_serializing_needs_labels(self):
        with pytest.raises(ValueError):
            network_to_dict(BayesNet(CHAIN.cpts))

    def test_markov_structure_has_no_file_form(self, tmp_path):
        # Only a BayesNet has a file kind; a MarkovNet gets the kind
        # check's typed error, not an AttributeError.
        net = MarkovNet(2, frozenset({(0, 1)}))
        path = tmp_path / "net.json"
        for write in (
            lambda: network_to_dict(net),
            lambda: save_network(net, path),
            lambda: align_variables([CHAIN, net]),
            lambda: align_variables([net]),
        ):
            with pytest.raises(MalformedInstance, match="^expected a BayesNet, got MarkovNet$"):
                write()
        assert not path.exists()


# Any JSON value, small enough to draw fast.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def json_positions(node, path=()):
    """The path of every value inside a JSON document, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield from json_positions(child, path + (key,))


@st.composite
def mutated_network_dicts(draw):
    """A valid bayes dict, maybe rewired, then with up to three values
    replaced, deleted or renamed.

    Rewiring gives one variable new parent labels (any, itself and
    repeats included) with a full row set and matching edges, so the
    constructors see cycles, self parents and duplicate parents that
    the field checks pass."""
    data = network_to_dict(draw(labelled_bns()))
    data = json.loads(json.dumps(data))  # a deep copy the draws may change
    labels = tuple(data["variables"])
    label = st.sampled_from(labels)
    if draw(st.booleans()):
        parents = draw(st.lists(label, max_size=3))
        rows = dict.fromkeys(map("".join, itertools.product("01", repeat=len(parents))), 0.5)
        data["cpts"][draw(label)] = {"parents": parents, "rows": rows}
        data["edges"] = [[p, c] for c, cpt in data["cpts"].items() for p in cpt["parents"]]
    values = st.one_of(json_values, label, st.lists(label, max_size=3))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        path = draw(st.sampled_from(list(json_positions(data))[1:]))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(("replace", "delete", "rename")))
        if action == "replace":
            parent[key] = draw(values)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.one_of(label, st.text(max_size=3)))] = parent.pop(key)
    return data


@st.composite
def manifest_dicts(draw):
    inputs = draw(st.lists(paths, min_size=1, max_size=3))
    data = {"kind": "linop-manifest", "inputs": inputs}
    if draw(st.booleans()):
        data["weights"] = draw(st.lists(st.floats(0.0, 1.0), min_size=len(inputs),
                                        max_size=len(inputs)))
    return data


# One mutation of a valid dict each: drop a key or an item, retype a
# value, replace a string (a label, an input path, the kind), rename a key
# (a row key, a CPT's label), replace a number (a row value, a weight), or
# nest a value one level down.
MUTATIONS = ("drop", "retype", "string", "key", "number", "nest")
RETYPED = (None, True, 0, 1.5, "x", [], {})
NUMBERS = (-0.5, 1.5, 2**70, 10**400, float("nan"), float("inf"), -0.0, 5e-324)


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _fits(mutation, data, path):
    """Whether mutation has a place to apply at path."""
    if mutation == "string":
        return isinstance(_at(data, path), str)
    if mutation == "number":
        return type(_at(data, path)) in (int, float)
    if mutation == "key":
        return isinstance(_at(data, path[:-1]), dict)
    return True


@st.composite
def once_mutated_pairs(draw, originals):
    """A valid dict drawn from originals and a copy of it with exactly
    one mutation applied, or none when the drawn mutation has no place to
    apply."""
    original = draw(originals)
    data = json.loads(json.dumps(original))  # a deep copy the draw may change
    strings = list(data.get("variables", [])) + ["", "zz", "0", "01", "2"]
    mutation = draw(st.sampled_from(MUTATIONS))
    spots = [p for p in list(json_positions(data))[1:] if _fits(mutation, data, p)]
    if not spots:
        return original, data
    path = draw(st.sampled_from(spots))
    parent, key = _at(data, path[:-1]), path[-1]
    if mutation == "drop":
        del parent[key]
    elif mutation == "retype":
        parent[key] = draw(st.sampled_from(RETYPED))
    elif mutation == "string":
        parent[key] = draw(st.sampled_from(strings))
    elif mutation == "key":
        parent[draw(st.sampled_from(strings))] = parent.pop(key)
    elif mutation == "number":
        parent[key] = draw(st.sampled_from(NUMBERS))
    else:
        parent[key] = draw(st.sampled_from(([parent[key]], {"v": parent[key]})))
    return original, data


def once_mutated_dicts():
    """A valid bayes or manifest dict with exactly one mutation applied,
    or none when the drawn mutation has no place to apply."""
    originals = st.one_of(labelled_bns().map(network_to_dict), manifest_dicts())
    return once_mutated_pairs(originals).map(lambda pair: pair[1])


class TestFormatValidation:
    @given(data=mutated_network_dicts())
    @settings(max_examples=400, deadline=None)
    def test_mutated_dicts_raise_only_model_format_error(self, data):
        # The loader has no catch-all: every constructor error on a
        # malformed dict must already be a ModelFormatError.
        try:
            model = network_from_dict(data)
        except ModelFormatError:
            return
        assert isinstance(model, BayesNet)

    @given(data=once_mutated_dicts())
    @settings(max_examples=150, deadline=None)
    def test_one_mutation_gives_a_model_or_a_model_format_error(self, data):
        # Both parsers see every dict, so a mutated kind reaches the other.
        for parse, kind in ((network_from_dict, BayesNet), (manifest_from_dict, LinopManifest)):
            try:
                model = parse(data)
            except ModelFormatError:
                continue
            assert isinstance(model, kind)

    @given(pair=once_mutated_pairs(labelled_bns().map(network_to_dict)))
    @settings(max_examples=150, deadline=None)
    def test_one_mutation_loads_alike_after_its_original(self, pair):
        # After the unmutated dict, as in one load_networks call, the
        # mutated dict loads the network, or raises the message, that it
        # does alone.
        original, data = pair
        _, check = model_io._network(original, {}, None)
        outcomes = []
        for previous in (check, None):
            try:
                outcomes.append(model_io._network(data, {}, previous)[0])
            except ModelFormatError as err:
                outcomes.append(str(err))
        assert outcomes[0] == outcomes[1]

    def test_unknown_kind(self):
        with pytest.raises(ModelFormatError):
            network_from_dict({"kind": "factor-graph", "variables": ["A"]})

    def test_duplicate_variables(self):
        data = valid_bayes_dict()
        data["variables"] = ["A1", "A1"]
        with pytest.raises(ModelFormatError):
            network_from_dict(data)

    def test_edge_with_unknown_label(self):
        data = valid_bayes_dict()
        data["edges"] = [["A1", "A9"]]
        with pytest.raises(ModelFormatError):
            network_from_dict(data)

    def test_missing_cpt(self):
        data = valid_bayes_dict()
        del data["cpts"]["A2"]
        with pytest.raises(ModelFormatError):
            network_from_dict(data)

    def test_wrong_row_count(self):
        data = valid_bayes_dict()
        data["cpts"]["A2"]["rows"] = {"0": 0.6}
        with pytest.raises(ModelFormatError):
            network_from_dict(data)

    def test_bad_row_key(self):
        data = valid_bayes_dict()
        data["cpts"]["A2"]["rows"] = {"0": 0.6, "2": 0.4}
        with pytest.raises(ModelFormatError):
            network_from_dict(data)

    def test_probability_out_of_range(self):
        data = valid_bayes_dict()
        data["cpts"]["A1"]["rows"] = {"": 1.5}
        with pytest.raises(ModelFormatError):
            network_from_dict(data)

    @pytest.mark.parametrize(
        "key", ["2", " 1", "+1", "1_0", "\u0661", "\uff10", "1", "011", ""]
    )
    def test_row_key_grammar(self, key):
        # Only "0"/"1" strings of the parent count name a row: int(key, 2)
        # would also take a sign, a space, "_" or another script's digit.
        # The other three keys are valid, so the error is key's.
        cpts = (Cpt(0, (), (0.2,)), Cpt(1, (), (0.5,)), Cpt(2, (0, 1), (0.1,) * 4))
        net = BayesNet(cpts, labels=("A1", "A2", "A3"))
        data = network_to_dict(net)
        data["cpts"]["A3"]["rows"] = {"00": 0.1, "10": 0.2, "01": 0.3, key: 0.4}
        message = f"row key {key!r} is not a 2-character outcome string"
        with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
            network_from_dict(data)

    def test_non_string_row_key(self):
        data = valid_bayes_dict()
        data["cpts"]["A2"]["rows"] = {"0": 0.6, 1: 0.4}
        with pytest.raises(ModelFormatError, match="must be a string"):
            network_from_dict(data)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["cpts"]["A2"].update(parents=["A9"]),
             "cpt for 'A2' references unknown parent 'A9'"),
            (lambda d: d["cpts"]["A2"].update(parents=["A9", 3]),
             "cpt for 'A2' needs a parent label list"),
            (lambda d: d["cpts"]["A2"].update(parents=[["A1"]]),
             "cpt for 'A2' needs a parent label list"),
            (lambda d: d["cpts"]["A2"].update(parents="A1"),
             "cpt for 'A2' needs a parent label list"),
            (lambda d: d["cpts"]["A2"].update(
                parents=["A1", "A1"], rows=dict.fromkeys(["00", "01", "10", "11"], 0.5)
            ),
             "duplicate parents for node 'A2'"),
            (lambda d: d["cpts"]["A2"].update(parents=["A2"]),
             "node 'A2' cannot be its own parent"),
            (lambda d: d.update(edges=[["A1", 3]]),
             "edge ['A1', 3] is not a pair of labels"),
            (lambda d: d.update(edges=[[["A1"], "A9"]]),
             "edge [['A1'], 'A9'] is not a pair of labels"),
            (lambda d: d.update(edges=[["A1", "A9"]]),
             "edge references unknown variable 'A9'"),
            (lambda d: d.update(edges=[["A1", "A2", "A1"]]),
             "is not a pair of labels"),
            (lambda d: d["cpts"]["A1"].update(parents=["A2"], rows={"0": 0.5, "1": 0.5})
             or d["edges"].append(["A2", "A1"]),
             "parent structure contains a directed cycle"),
        ],
    )
    def test_label_errors_name_the_fault(self, mutate, message):
        data = valid_bayes_dict()
        mutate(data)
        with pytest.raises(ModelFormatError) as exc:
            network_from_dict(data)
        assert message in str(exc.value)

    @pytest.mark.parametrize("text", ["true", "NaN", "Infinity", "-Infinity",
                                      "-0.5", "\"0.5\"", "null"])
    def test_non_probability_rows_in_files(self, tmp_path, text):
        path = tmp_path / "net.json"
        good = json.dumps(valid_bayes_dict())
        path.write_text(good.replace('{"": 0.2}', '{"": %s}' % text))
        with pytest.raises(
            ModelFormatError, match=f"^{re.escape(str(path))}: probability"
        ):
            load_network(path)

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_huge_integer_row(self, tmp_path, digits):
        # 400 digits overflow a float; 5000 pass the int parser's digit limit.
        path = tmp_path / "net.json"
        good = json.dumps(valid_bayes_dict())
        path.write_text(good.replace('{"": 0.2}', '{"": 1%s}' % ("0" * digits)))
        with pytest.raises(ModelFormatError):
            load_network(path)

    def test_integer_rows_load_as_floats(self, tmp_path):
        data = valid_bayes_dict()
        data["cpts"]["A2"]["rows"] = {"0": 0, "1": 1}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data))
        net = load_network(path)
        rows = net.cpts[1].rows
        assert rows == (0.0, 1.0)
        assert all(type(r) is float for r in rows)
        again = tmp_path / "again.json"
        save_network(net, again)
        saved = json.loads(again.read_text())["cpts"]["A2"]["rows"]
        assert saved == {"0": 0.0, "1": 1.0}
        assert all(type(r) is float for r in saved.values())
        assert load_network(again).cpts == net.cpts

    def test_boolean_probability_rejected(self):
        data = valid_bayes_dict()
        data["cpts"]["A1"]["rows"] = {"": True}
        with pytest.raises(ModelFormatError):
            network_from_dict(data)

    @pytest.mark.parametrize("load", [load_network, load_model_file])
    def test_markov_file_rejected_naming_path_and_kind(self, tmp_path, load):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"kind": "markov", "variables": ["A1", "A2"], "edges": [["A1", "A2"]]}
        ))
        with pytest.raises(ModelFormatError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: 'kind' must be 'bayes', got 'markov'"

    @pytest.mark.parametrize("load", [load_network, load_model_file])
    def test_format_errors_name_the_file(self, tmp_path, load):
        data = valid_bayes_dict()
        data["cpts"]["A2"]["rows"] = {"0": 0.6}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ModelFormatError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: cpt for 'A2' needs exactly 2 rows"

    def test_manifest_errors_name_the_file(self, tmp_path):
        path = tmp_path / "pool.json"
        path.write_text(json.dumps({"kind": "linop-manifest", "inputs": []}))
        with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: "):
            load_model_file(path)

    def test_edges_must_match_cpt_parents(self):
        data = valid_bayes_dict()
        data["edges"] = []
        with pytest.raises(ModelFormatError):
            network_from_dict(data)

    def test_cyclic_cpts_rejected(self):
        data = {
            "kind": "bayes",
            "variables": ["A", "B"],
            "edges": [["A", "B"], ["B", "A"]],
            "cpts": {
                "A": {"parents": ["B"], "rows": {"0": 0.5, "1": 0.5}},
                "B": {"parents": ["A"], "rows": {"0": 0.5, "1": 0.5}},
            },
        }
        with pytest.raises(ModelFormatError):
            network_from_dict(data)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ModelFormatError):
            load_network(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_network(path)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        text = json.dumps(valid_bayes_dict(), ensure_ascii=False)
        path.write_bytes(text.replace("A1", "\u00e9").encode("latin-1"))
        with pytest.raises(ModelFormatError, match="UTF-8"):
            load_model_file(path)

    def test_utf8_labels_load(self, tmp_path):
        path = tmp_path / "utf8.json"
        text = json.dumps(valid_bayes_dict(), ensure_ascii=False)
        path.write_bytes(text.replace("A1", "\u00e9").encode("utf-8"))
        assert load_network(path).labels == ("\u00e9", "A2")

    def test_deep_nesting(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ModelFormatError, match="nests too deeply"):
            load_model_file(path)


VEE = BayesNet(
    (Cpt(0, (), (0.2,)), Cpt(1, (), (0.7,)), Cpt(2, (0, 1), (0.1, 0.6, 0.4, 0.9))),
    labels=("A1", "A2", "A3"),
)


def _set_rows(label, rows):
    return lambda d: d["cpts"][label].update(rows=rows)


def _set_row(label, key, value):
    return lambda d: d["cpts"][label]["rows"].update({key: value})


def _rewire(label, parents):
    """Give label new parents, a full row set, and matching edges."""
    def mutate(d):
        keys = map("".join, itertools.product("01", repeat=len(parents)))
        d["cpts"][label] = {"parents": parents, "rows": dict.fromkeys(keys, 0.5)}
        d["edges"] = [[p, c] for c, cpt in d["cpts"].items() for p in cpt["parents"]]
    return mutate


def _both(first, second):
    return lambda d: (first(d), second(d))


# Each malformed file and the exact message the loader raises for it. The
# loader checks the whole file at once, so the rows where two faults meet
# pin which one is named: the first CPT in variable order, and within a
# CPT, the first row in file order.
MALFORMED = {
    "bad-row-key": (_set_rows("A3", {"00": 0.1, "10": 0.2, "01": 0.3, "12": 0.4}),
                    "row key '12' is not a 2-character outcome string"),
    "missing-row-key": (_set_rows("A3", {"00": 0.1, "10": 0.2, "01": 0.3}),
                        "cpt for 'A3' needs exactly 4 rows"),
    "extra-row-key": (_set_row("A1", "0", 0.5), "cpt for 'A1' needs exactly 1 rows"),
    "non-string-row-key": (_set_rows("A3", {"00": 0.1, "10": 0.2, "01": 0.3, 3: 0.4}),
                           "row key 3 must be a string"),
    "nan-row": (_set_row("A3", "01", float("nan")), "probability nan outside [0, 1]"),
    "inf-row": (_set_row("A3", "01", float("inf")), "probability inf outside [0, 1]"),
    "minus-inf-row": (_set_row("A2", "", float("-inf")), "probability -inf outside [0, 1]"),
    "negative-row": (_set_row("A2", "", -0.5), "probability -0.5 outside [0, 1]"),
    "bool-row": (_set_row("A3", "11", True), "probability True is not a number"),
    "string-row": (_set_row("A3", "11", "0.5"), "probability '0.5' is not a number"),
    "null-row": (_set_row("A1", "", None), "probability None is not a number"),
    "int-row-out-of-range": (_set_row("A1", "", 2), "probability 2.0 outside [0, 1]"),
    "huge-int-row": (_set_row("A1", "", 10**400), "probability is too large for a float"),
    "duplicate-parent": (_rewire("A3", ["A1", "A1"]), "duplicate parents for node 'A3'"),
    "self-parent": (_rewire("A3", ["A3"]), "node 'A3' cannot be its own parent"),
    "unknown-parent": (lambda d: d["cpts"]["A3"].update(parents=["A1", "A9"]),
                       "cpt for 'A3' references unknown parent 'A9'"),
    "non-string-parent": (lambda d: d["cpts"]["A3"].update(parents=["A1", 2]),
                          "cpt for 'A3' needs a parent label list"),
    # Forty copies of one known parent and one row: the row count is
    # checked before a table of 2^40 keys could be built.
    "many-repeated-parents": (
        lambda d: d["cpts"]["A3"].update(parents=["A1"] * 40, rows={"": 0.5}),
        "cpt for 'A3' needs exactly 1099511627776 rows",
    ),
    "cycle": (_rewire("A1", ["A3"]), "parent structure contains a directed cycle"),
    "mismatched-edges": (lambda d: d["edges"].pop(), "'edges' disagree with the parent lists in 'cpts'"),
    "non-object-entry": (lambda d: d["cpts"].update(A2=[0.7]), "cpt for 'A2' must be an object"),
    # Two faults: the earlier CPT, then the earlier row in file order.
    "value-before-key": (_both(_set_row("A2", "", 1.5), _set_row("A3", "2", 0.5)),
                         "probability 1.5 outside [0, 1]"),
    "key-before-value": (_both(_set_row("A2", "0", 0.5), _set_row("A3", "11", 1.5)),
                         "cpt for 'A2' needs exactly 1 rows"),
    "first-row-in-file-order": (_set_rows("A3", {"11": "x", "00": True, "10": 0.2, "01": 0.3}),
                                "probability 'x' is not a number"),
    "value-before-own-duplicate": (_both(_rewire("A3", ["A2", "A2"]), _set_row("A3", "10", -1.0)),
                                   "probability -1.0 outside [0, 1]"),
    "duplicate-before-later-value": (_both(_rewire("A2", ["A1", "A1"]), _set_row("A3", "10", -1.0)),
                                     "duplicate parents for node 'A2'"),
    "self-parent-before-later-value": (_both(_rewire("A2", ["A2"]), _set_row("A3", "10", -1.0)),
                                       "node 'A2' cannot be its own parent"),
    "value-before-cycle": (_both(_rewire("A1", ["A3"]), _set_row("A3", "10", -1.0)),
                           "probability -1.0 outside [0, 1]"),
    "int-rows-then-cycle": (_both(_rewire("A1", ["A3"]), _set_row("A2", "", 1)),
                            "parent structure contains a directed cycle"),
    "cycle-before-edges": (_both(_rewire("A1", ["A3"]), lambda d: d["edges"].pop()),
                           "parent structure contains a directed cycle"),
    # A NaN between in-range values, which min and max alone step over.
    "nan-among-rows": (_set_rows("A3", {"00": 0.5, "10": float("nan"), "01": 0.3, "11": 0.4}),
                       "probability nan outside [0, 1]"),
}


class TestMalformedCatalogue:
    @pytest.fixture(autouse=True)
    def small_row_keys(self, monkeypatch):
        # No file here needs a key table past VEE's two parents; a larger
        # one fails the test before it is built.
        row_keys = model_io._row_keys

        def small_row_keys(k):
            assert k <= 2, f"a key table for {k} parents"
            return row_keys(k)

        monkeypatch.setattr(model_io, "_row_keys", small_row_keys)

    @pytest.mark.parametrize("mutate, message", MALFORMED.values(), ids=MALFORMED)
    def test_message(self, mutate, message):
        data = network_to_dict(VEE)
        mutate(data)
        with pytest.raises(ModelFormatError) as exc:
            network_from_dict(data)
        assert str(exc.value) == message

    @pytest.mark.parametrize("mutate, message", MALFORMED.values(), ids=MALFORMED)
    def test_message_after_a_file_of_the_same_structure(self, mutate, message, tmp_path):
        # After VEE, which every entry starts from, the fault is named as
        # it is alone.
        data = network_to_dict(VEE)
        mutate(data)
        _, check = model_io._network(network_to_dict(VEE), {}, None)
        with pytest.raises(ModelFormatError) as exc:
            model_io._network(data, {}, check)
        assert str(exc.value) == message
        # Through one group load, the message names the second file.
        # (A file cannot hold every entry as written: JSON keys are strings.)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_network(VEE, first)
        second.write_text(json.dumps(data))
        with pytest.raises(ModelFormatError) as alone:
            load_network(second)
        with pytest.raises(ModelFormatError) as grouped:
            load_networks([str(first), str(second)])
        assert str(grouped.value) == str(alone.value)
        assert str(grouped.value).startswith(f"{second}: ")


def structure(path):
    """A saved network's structural fields as its file writes them."""
    data = json.loads(Path(path).read_text())
    parents = [cpt["parents"] for cpt in data["cpts"].values()]
    return data["variables"], data["edges"], parents


@st.composite
def network_groups(draw):
    """One to four labelled networks: the first a new draw, each other
    one a new draw, the first one's structure with new rows, or the
    first one with its variables listed in another order."""
    first = draw(labelled_bns())
    group = [first]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(("new", "same", "permuted")))
        if kind == "new":
            group.append(draw(labelled_bns()))
        elif kind == "same":
            cpts = tuple(
                Cpt(c.owner, c.parents, tuple(draw(st.lists(
                    st.sampled_from(EDGE_ROWS), min_size=len(c.rows), max_size=len(c.rows)
                ))))
                for c in first.cpts
            )
            group.append(BayesNet(cpts, first.labels))
        else:
            order = draw(st.permutations(range(first.m)))
            new = {old: i for i, old in enumerate(order)}
            cpts = tuple(
                Cpt(new[c.owner], tuple(new[p] for p in c.parents), c.rows)
                for c in first.cpts
            )
            group.append(BayesNet(cpts, tuple(first.labels[v] for v in order)))
    return group


class TestGroupLoader:
    """The files of one command load in one load_networks call, which
    checks a structure that repeats the file before it only once."""

    @given(group=network_groups())
    @settings(max_examples=150, deadline=None)
    def test_group_loads_equal_one_file_loads(self, group):
        with tempfile.TemporaryDirectory() as folder:
            paths = [str(Path(folder) / f"a{i}.json") for i in range(len(group))]
            for net, path in zip(group, paths):
                save_network(net, path)
            shared = load_networks(paths)
            alone = [load_network(path) for path in paths]
            structures = list(map(structure, paths))
            command = cli._load_bayes_inputs(paths) if len(
                {frozenset(net.labels) for net in group}
            ) == 1 else None
        for got, want, net in zip(shared, alone, group):
            assert got == want == net
            assert got.dag() == want.dag()
            assert all(type(r) is float for c in got.cpts for r in c.rows)
        # A file shares the Dag of the file before it exactly when it
        # repeats that file's structure.
        for i in range(1, len(group)):
            same = structures[i] == structures[i - 1]
            assert (shared[i].dag() is shared[i - 1].dag()) == same
        if command is not None:
            assert command == align_variables(alone)

    def test_reordered_edges_and_integer_rows_load_as_alone(self, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_network(VEE, first)
        for mutate in (
            lambda d: d["edges"].reverse(),
            lambda d: d["cpts"]["A3"].update(rows={"00": 0, "10": 1, "01": 0, "11": 1}),
        ):
            data = network_to_dict(VEE)
            mutate(data)
            second.write_text(json.dumps(data))
            got = load_networks([first, second])[1]
            assert got == load_network(second)
            assert all(type(r) is float for c in got.cpts for r in c.rows)


def load_outcome(load, *args):
    """What a load gives: each model's labels, structure and rows as float
    bits (a manifest's inputs and weight bits), or any error's type and
    message."""
    try:
        result = load(*args)
    except Exception as err:  # an untyped error must show up too
        return type(err), str(err)
    models = result if isinstance(result, list) else [result]
    return [
        (
            model.labels,
            model.dag(),
            [(c.owner, c.parents, [r.hex() for r in c.rows]) for c in model.cpts],
        )
        if isinstance(model, BayesNet)
        else (model.inputs, model.weights and [w.hex() for w in model.weights])
        for model in models
    ]


def _refuse(text):
    raise orjson.JSONDecodeError("refused", text, 0)


def stdlib_outcome(load, *args):
    """load_outcome with orjson refusing every text: the stdlib path
    alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orjson, "loads", _refuse)
        return load_outcome(load, *args)


def assert_parsers_agree(folder, text):
    """A file holding text loads alike with orjson and on the stdlib path,
    alone, as a model file, and after a valid network in one group."""
    path, valid = Path(folder) / "net.json", Path(folder) / "valid.json"
    path.write_text(text, encoding="utf-8")
    save_network(CHAIN, valid)
    for load, args in (
        (load_network, (path,)),
        (load_model_file, (path,)),
        (load_networks, ([valid, path],)),
    ):
        assert load_outcome(load, *args) == stdlib_outcome(load, *args)


# Tokens where orjson and json.loads differ, or that break the JSON around them.
TOKENS = (
    "NaN", "-Infinity", "1e400", "9" * 400, "9" * 5000, str(2**64), str(-(2**63) - 1),
    '"\\ud800"', "\ufeff", "[", "]", "{", "}", ",", ":", '"', "\\", "-0", "1.5e-400",
)


@st.composite
def mutated_texts(draw):
    """A saved network's or manifest's text with one to three spans
    replaced by a token or a short text."""
    data = draw(st.one_of(labelled_bns().map(network_to_dict), manifest_dicts()))
    text = json.dumps(data, indent=draw(st.sampled_from((None, 2))))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        start = draw(st.integers(min_value=0, max_value=len(text)))
        end = draw(st.integers(min_value=start, max_value=min(len(text), start + 8)))
        token = draw(st.sampled_from(TOKENS) | st.text(max_size=3))
        text = text[:start] + token + text[end:]
    return text


def with_row(value_text):
    """CHAIN's saved text with the row of A1 written as value_text."""
    return json.dumps(valid_bayes_dict()).replace('{"": 0.2}', '{"": ' + value_text + "}")


def nested(depth):
    return "[" * depth + "]" * depth


class TestParsers:
    """orjson parses a file first; a file that it refuses, or whose value
    does not build, takes the stdlib path. Either way a file loads the
    model, or raises the error and message, that the stdlib path alone
    gives."""

    @given(value=json_values | st.sampled_from((2**64, -(2**64), 10**400, float("nan"))))
    @settings(max_examples=100, deadline=None)
    def test_json_values_load_alike(self, value):
        with tempfile.TemporaryDirectory() as folder:
            assert_parsers_agree(folder, json.dumps(value))

    @given(data=mutated_network_dicts() | once_mutated_dicts())
    @settings(max_examples=200, deadline=None)
    def test_mutated_dicts_load_alike(self, data):
        with tempfile.TemporaryDirectory() as folder:
            assert_parsers_agree(folder, json.dumps(data))

    @given(text=mutated_texts())
    @settings(max_examples=300, deadline=None)
    def test_mutated_texts_load_alike(self, text):
        with tempfile.TemporaryDirectory() as folder:
            assert_parsers_agree(folder, text)

    @pytest.mark.parametrize("text", [
        with_row("NaN"),
        with_row("9" * 400),
        with_row("9" * 5000),
        with_row(str(2**64)),
        with_row(nested(1200)),
        json.dumps(valid_bayes_dict()).replace('"A1"', '"\\ud800"'),
        "\ufeff" + json.dumps(valid_bayes_dict()),
        json.dumps(valid_bayes_dict()).replace('{"": 0.2}', '{"": 0.7, "": 0.2}'),
        json.dumps(valid_bayes_dict()).replace('"bayes"', nested(1200)),
        json.dumps(valid_bayes_dict()).replace('[["A1", "A2"]]', "[" + nested(1200) + "]"),
        '{"kind": "linop-manifest", "inputs": ["a.json"], "weights": [%d]}' % 2**64,
        '{"kind": "linop-manifest", "inputs": ["a.json"], "weights": [1%s]}' % ("0" * 400),
        "[" * 100_000,
    ], ids=[
        "nan-row", "400-digit-row", "5000-digit-row", "2**64-row", "deep-row",
        "lone-surrogate-label", "bom", "duplicate-row-keys", "deep-kind", "deep-edge",
        "2**64-weight", "400-digit-weight", "unterminated",
    ])
    def test_fixed_cases_load_alike(self, tmp_path, text):
        assert_parsers_agree(tmp_path, text)

    def test_duplicate_keys_keep_the_last(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(valid_bayes_dict()).replace('{"": 0.2}', '{"": 0.7, "": 0.2}'))
        assert load_network(path) == CHAIN

    def test_deep_ignored_field_loads(self, tmp_path):
        # orjson has no depth limit: a field the loader ignores may nest
        # deeper than json.loads reaches, and the file still loads.
        path = tmp_path / "net.json"
        text = json.dumps(valid_bayes_dict())
        path.write_text(text[:-1] + ', "provenance": ' + nested(5000) + "}")
        assert load_network(path) == CHAIN
        assert load_model_file(path) == CHAIN
        assert stdlib_outcome(load_network, path) == (
            ModelFormatError, f"{path} nests too deeply to parse"
        )
        manifest = tmp_path / "pool.json"
        manifest.write_text(
            '{"kind": "linop-manifest", "inputs": ["net.json"], "extra": %s}' % nested(5000)
        )
        assert load_model_file(manifest) == LinopManifest(("net.json",))

# Values at and near network_to_dict's layout of "variables", "edges" and
# "cpts": strings, lists of strings, lists of lists, CPT-like objects.
short_text = st.text(max_size=2)
cpt_entries = st.fixed_dictionaries({
    "parents": st.lists(short_text, max_size=2) | json_values,
    "rows": st.dictionaries(short_text, st.floats() | st.integers() | json_values, max_size=3),
})
layout_values = st.one_of(
    json_values,
    st.text(),
    st.lists(short_text, max_size=3),
    st.lists(st.lists(short_text, max_size=3) | json_values, max_size=3),
    st.dictionaries(short_text, cpt_entries | json_values, max_size=3),
)
field_names = st.sampled_from(("kind", "variables", "edges", "cpts", "provenance")) | short_text


class TestJsonText:
    @given(data=st.dictionaries(field_names, layout_values, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, data):
        assert json_text(data) == json.dumps(data, indent=2) + "\n"

    @given(pair=once_mutated_pairs(labelled_bns().map(network_to_dict)))
    @settings(max_examples=100, deadline=None)
    def test_mutated_networks_match_json_dumps(self, pair):
        for data in pair:
            assert json_text(data) == json.dumps(data, indent=2) + "\n"

    @pytest.mark.parametrize("data", [
        {"variables": 5},
        {"variables": "A1"},
        {"cpts": [1]},
        {"edges": [[1, 2]]},
        {"edges": [[]]},
        {"cpts": {"A": {"rows": {"": 0.5}, "parents": []}}},
        {"cpts": {"A": {"parents": [], "rows": {}}}},
        {"cpts": {"A": {"parents": [], "rows": {"": float("nan")}}}},
        {"cpts": {"A": {"parents": [], "rows": {"": np.float64(0.5)}}}},
        {"cpts": {"A": {"parents": [], "rows": {"": 1}}}},
        {"cpts": {"A": {"parents": [1], "rows": {"": 0.5}}}},
    ])
    def test_other_layouts_match_json_dumps(self, data):
        assert json_text(data) == json.dumps(data, indent=2) + "\n"

    @pytest.mark.parametrize("data", [
        {"variables": [b"A"]},
        {"edges": [["A", {1.5}]]},
        {"cpts": {"A": {"parents": [], "rows": {"": {1.5}}}}},
        {"cpts": {"A": {"parents": [], "rows": {("a",): 0.5}}}},
    ])
    def test_unencodable_values_raise(self, data):
        with pytest.raises(MalformedInstance, match="is not JSON-encodable"):
            json_text(data)

    def test_network_fields_are_formatted_without_json_dumps(self, monkeypatch):
        dumped = []
        dumps = model_io._dumps
        monkeypatch.setattr(
            model_io, "_dumps",
            lambda value, what, *rest: dumped.append(what) or dumps(value, what, *rest),
        )
        data = network_to_dict(VEE)
        assert json_text(data) == json.dumps(data, indent=2) + "\n"
        assert dumped == []


class Color(enum.Enum):
    RED = "red"


class Size(enum.IntEnum):
    SMALL = 1


class Label(str):
    pass


class Count(int):
    pass


@dataclasses.dataclass
class Point:
    x: int


# Values that orjson and json encode differently, or that one of them
# refuses: each sends json_text down the stdlib path.
ENCODER_SPLITS = {
    "enum": Color.RED,
    "int-enum": Size.SMALL,
    "uuid": uuid.UUID(int=7),
    "dataclass": Point(1),
    "datetime": datetime.datetime(2020, 1, 2, 3, 4, 5),
    "numpy-float-in-list": [np.float64(0.5)],
    "numpy-float-row": {"A": {"parents": [], "rows": {"": np.float64(0.5)}}},
    "str-subclass": Label("A"),
    "int-subclass": Count(3),
    "del": "\x7f",
    "lone-surrogate": "\ud800",
    "two-to-the-64": 2**64,
    "nested-int-key": {"x": {1: 2}},
    "small-float": 5e-5,
    "large-float": 1e16,
    "nan": float("nan"),
}

# Leaves json may encode as orjson does, differently, or not at all.
odd_leaves = st.one_of(
    json_values,
    st.sampled_from([
        5e-324, 1e-5, 9.99e-5, 1e-4, 1e16, 1e300, float("inf"), -float("inf"),
        2**63, 2**64, 10**30, "é", "\x7f", "\x1f", "\ud800",
        Color.RED, Size.SMALL, uuid.UUID(int=1), Point(2), np.float64(0.25),
        Label("b"), Count(4), [], {}, [[]], {"a": {}},
    ]),
    st.dictionaries(st.integers(), st.integers(), min_size=1, max_size=2),
)
odd_values = st.recursive(
    odd_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def dumps_outcome(data):
    """json.dumps(data, indent=2) + "\\n", or MalformedInstance when json
    cannot encode data."""
    try:
        return json.dumps(data, indent=2) + "\n"
    except (TypeError, ValueError, RecursionError):
        return MalformedInstance


def json_text_outcome(data):
    """json_text(data), or MalformedInstance when it raises one."""
    try:
        return json_text(data)
    except MalformedInstance:
        return MalformedInstance


class TestEncoderSplits:
    """json_text against json.dumps where orjson and json part ways."""

    @pytest.mark.parametrize("value", ENCODER_SPLITS.values(), ids=ENCODER_SPLITS)
    def test_fixed_case(self, value):
        data = {"kind": "bayes", "cpts": value}
        assert json_text_outcome(data) == dumps_outcome(data)

    @given(data=st.dictionaries(st.text(max_size=3), odd_values, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps_or_raises_where_it_does(self, data):
        assert json_text_outcome(data) == dumps_outcome(data)

    @given(bn=labelled_bns(
        rows=(5e-324, 1e-300, 5e-5, 1e-4, 0.5, 1.0 - 1e-16),
        labels=st.text("aé✓\x7f", min_size=1, max_size=3),
    ))
    @settings(max_examples=60, deadline=None)
    def test_save_load_save_round_trip(self, bn):
        with tempfile.TemporaryDirectory() as folder:
            first, second = Path(folder, "first.json"), Path(folder, "second.json")
            save_network(bn, first)
            save_network(load_network(first), second)
            assert second.read_text() == first.read_text() == reference_text(bn)

    @pytest.mark.parametrize("where", ["directory", "missing folder"])
    @pytest.mark.parametrize("save", ["network", "manifest"])
    def test_unwritable_path(self, tmp_path, where, save):
        path = tmp_path if where == "directory" else tmp_path / "missing" / "a.json"
        with pytest.raises(ModelFormatError, match=f"^cannot write {re.escape(str(path))}: "):
            if save == "network":
                save_network(CHAIN, path)
            else:
                save_manifest(LinopManifest(("a.json",)), path)

    def test_manifest_keeps_python_floats(self):
        weights = LinopManifest(("a.json",), tuple(np.array([0.25, 0.75]))).weights
        assert weights == (0.25, 0.75)
        assert {type(w) for w in weights} == {float}


class TestManifest:
    def test_round_trip(self):
        manifest = LinopManifest(("a.json", "b.json"), (0.25, 0.75))
        assert manifest_from_dict(manifest_to_dict(manifest)) == manifest

    def test_weights_optional(self):
        manifest = LinopManifest(("a.json",))
        data = manifest_to_dict(manifest)
        assert "weights" not in data
        assert manifest_from_dict(data) == manifest

    def test_file_dispatch(self, tmp_path):
        net_path = tmp_path / "net.json"
        save_network(CHAIN, net_path)
        manifest_path = tmp_path / "pool.json"
        save_manifest(LinopManifest((str(net_path),), (1.0,)), manifest_path)
        assert isinstance(load_model_file(net_path), BayesNet)
        assert isinstance(load_model_file(manifest_path), LinopManifest)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ModelFormatError):
            manifest_from_dict({"kind": "linop-manifest", "inputs": []})

    def test_overflowing_integer_weight_rejected(self):
        with pytest.raises(ModelFormatError, match="weights"):
            manifest_from_dict(
                {"kind": "linop-manifest", "inputs": ["a"], "weights": [10**400]}
            )

    def test_fields_are_kept_as_tuples(self, tmp_path):
        manifest = LinopManifest(["a.json", "b.json"], [2, 0.5])
        assert manifest == LinopManifest(("a.json", "b.json"), (2, 0.5))
        save_manifest(manifest, tmp_path / "pool.json")
        assert load_model_file(tmp_path / "pool.json") == manifest

    def test_bad_weights_rejected(self):
        with pytest.raises(ModelFormatError):
            manifest_from_dict(
                {"kind": "linop-manifest", "inputs": ["a"], "weights": ["x"]}
            )

    @pytest.mark.parametrize(
        "weights", [b"\x01\x03", bytearray(b"\x01\x03"), "13", (True, 2.0)], ids=repr
    )
    def test_bytes_and_bools_are_not_weights(self, weights):
        # Bytes are a sequence of ints, but not of weights, as a str is not.
        with pytest.raises(MalformedInstance, match="^'weights' must be a sequence of numbers$"):
            LinopManifest(("a.json", "b.json"), weights)

    @pytest.mark.parametrize(
        "weights",
        [(np.int64(1), 3), (Fraction(1, 4), Decimal("0.75")), np.array([1, 3], dtype=np.uint8)],
        ids=["int64", "fraction-decimal", "uint8-array"],
    )
    def test_any_real_number_is_a_weight(self, weights, tmp_path):
        manifest = LinopManifest(("a.json", "b.json"), weights)
        assert manifest.weights == tuple(map(float, weights))
        assert {type(w) for w in manifest.weights} == {float}
        save_manifest(manifest, tmp_path / "pool.json")
        assert load_model_file(tmp_path / "pool.json") == manifest


class TestAlignVariables:
    def test_permuted_network_realigned(self):
        # The same beliefs with the variable order flipped in the file.
        flipped = BayesNet(
            (Cpt(0, (1,), (0.6, 0.4)), Cpt(1, (), (0.2,))), labels=("A2", "A1")
        )
        aligned = align_variables([CHAIN, flipped])[1]
        assert aligned.labels == ("A1", "A2")
        np.testing.assert_allclose(
            bn_to_joint(aligned).probs, bn_to_joint(CHAIN).probs, atol=1e-15
        )

    def test_aligned_models_returned_unchanged(self):
        same = BayesNet(
            (Cpt(0, (), (0.7,)), Cpt(1, (0,), (0.1, 0.9))), labels=("A1", "A2")
        )
        aligned = align_variables([CHAIN, same])
        assert all(a is b for a, b in zip(aligned, [CHAIN, same]))

    def test_label_sets_must_match(self):
        other = BayesNet(
            (Cpt(0, (), (0.5,)), Cpt(1, (), (0.5,))), labels=("A1", "B9")
        )
        with pytest.raises(MismatchedVariables):
            align_variables([CHAIN, other])

    def test_labels_required(self):
        with pytest.raises(ValueError):
            align_variables([BayesNet(CHAIN.cpts)])

    def test_marginals_preserved_by_label(self):
        rng = np.random.default_rng(6)
        labels = ("P", "Q", "R", "S")
        net = random_bn(rng, 4, max_parents=2)
        net = BayesNet(net.cpts, labels=labels)
        order = (2, 0, 3, 1)
        permuted_labels = tuple(labels[i] for i in order)
        inverse = {old: new for new, old in enumerate(order)}
        permuted = BayesNet(
            tuple(
                Cpt(inverse[c.owner], tuple(inverse[p] for p in c.parents), c.rows)
                for c in net.cpts
            ),
            labels=permuted_labels,
        )
        aligned = align_variables([net, permuted])[1]
        assert aligned == net
