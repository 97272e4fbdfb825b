"""JSON round trips, format validation, and label-based alignment."""

import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefpool import (
    BayesNet,
    Cpt,
    MarkovNet,
    MismatchedVariables,
    ModelFormatError,
    bn_to_joint,
    marginal,
)
from beliefpool.model_io import (
    LinopManifest,
    align_variables,
    load_model_file,
    load_network,
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

    if isinstance(model, MarkovNet):
        edges = sorted(tuple(sorted((labels[u], labels[v]))) for u, v in model.edges)
        data = {
            "kind": "markov",
            "variables": list(labels),
            "edges": [list(e) for e in edges],
        }
    else:
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
def labelled_bns(draw):
    m = draw(st.integers(min_value=1, max_value=8))
    labels = draw(st.lists(labels_text, min_size=m, max_size=m, unique=True))
    order = draw(st.permutations(range(m)))
    cpts = []
    for pos, v in enumerate(order):
        parents = draw(st.lists(st.sampled_from(order[:pos]), max_size=6,
                                unique=True)) if pos else []
        rows = draw(st.lists(st.sampled_from(EDGE_ROWS), min_size=1 << len(parents),
                             max_size=1 << len(parents)))
        cpts.append(Cpt(v, tuple(parents), tuple(rows)))
    return BayesNet(tuple(cpts), tuple(labels))


# File paths as a user may pass them: quotes, backslashes, non-ASCII.
paths = st.one_of(
    st.just('agents/"q"\\é✓.json'), st.text(min_size=1, max_size=8)
)


@st.composite
def labelled_mns(draw):
    m = draw(st.integers(min_value=1, max_value=8))
    labels = draw(st.lists(labels_text, min_size=m, max_size=m, unique=True))
    pairs = list(itertools.combinations(range(m), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    return MarkovNet(m, frozenset(edges), tuple(labels))


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

    def test_markov_dict_round_trip(self):
        net = MarkovNet(3, frozenset({(0, 1), (1, 2)}), labels=("X", "Y", "Z"))
        assert network_from_dict(network_to_dict(net)) == net

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

    @given(net=labelled_mns())
    @settings(max_examples=50, deadline=None)
    def test_saved_markov_text_matches_reference(self, net):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "net.json"
            save_network(net, path)
            assert path.read_text() == reference_text(net)
            assert load_network(path) == net

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

    def test_non_string_labels_are_not_saved(self, tmp_path):
        # The loader rejects such labels, so a file holding them is never
        # written.
        net = BayesNet(CHAIN.cpts, labels=(1, 2.5))
        path = tmp_path / "net.json"
        with pytest.raises(ValueError, match="strings"):
            save_network(net, path)
        assert not path.exists()

    def test_serializing_needs_labels(self):
        with pytest.raises(ValueError):
            network_to_dict(BayesNet(CHAIN.cpts))


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
    """A valid bayes or markov dict, maybe rewired, then with up to three
    values replaced, deleted or renamed.

    Rewiring gives one variable new parent labels (any, itself and
    repeats included) with a full row set and matching edges, or adds
    one markov edge, so the constructors see cycles, self-loops and
    duplicate parents that the field checks pass."""
    data = network_to_dict(draw(st.one_of(labelled_bns(), labelled_mns())))
    data = json.loads(json.dumps(data))  # a deep copy the draws may change
    labels = tuple(data["variables"])
    label = st.sampled_from(labels)
    if draw(st.booleans()):
        if data["kind"] == "markov":
            data["edges"].append(draw(st.lists(label, min_size=2, max_size=2)))
        else:
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
        assert isinstance(model, (BayesNet, MarkovNet))

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
        data = valid_bayes_dict()
        data["cpts"]["A2"]["rows"] = {"00": 0.6, key: 0.4}
        with pytest.raises(ModelFormatError, match="outcome string"):
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
             "duplicate parent indices"),
            (lambda d: d["cpts"]["A2"].update(parents=["A2"]),
             "node cannot be its own parent"),
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
            (lambda d: d.update(kind="markov", edges=[["A2", "A2"]]) or d.pop("cpts"),
             "self-loop on node 1"),
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
        with pytest.raises(ModelFormatError, match="^probability"):
            load_network(path)

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_huge_integer_row(self, tmp_path, digits):
        # 400 digits overflow a float; 5000 pass the int parser's digit limit.
        path = tmp_path / "net.json"
        good = json.dumps(valid_bayes_dict())
        path.write_text(good.replace('{"": 0.2}', '{"": 1%s}' % ("0" * digits)))
        with pytest.raises(ModelFormatError):
            load_network(path)

    def test_boolean_probability_rejected(self):
        data = valid_bayes_dict()
        data["cpts"]["A1"]["rows"] = {"": True}
        with pytest.raises(ModelFormatError):
            network_from_dict(data)

    def test_markov_must_not_carry_cpts(self):
        with pytest.raises(ModelFormatError):
            network_from_dict(
                {"kind": "markov", "variables": ["A"], "edges": [], "cpts": {}}
            )

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

    def test_bad_weights_rejected(self):
        with pytest.raises(ModelFormatError):
            manifest_from_dict(
                {"kind": "linop-manifest", "inputs": ["a"], "weights": ["x"]}
            )


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
        markov = MarkovNet(2, frozenset({(0, 1)}), labels=("A1", "A2"))
        aligned = align_variables([CHAIN, same, markov])
        assert all(a is b for a, b in zip(aligned, [CHAIN, same, markov]))

    def test_markov_edges_renamed(self):
        net = MarkovNet(2, frozenset({(0, 1)}), labels=("A2", "A1"))
        aligned = align_variables(
            [MarkovNet(2, frozenset({(0, 1)}), labels=("A1", "A2")), net]
        )[1]
        assert aligned.labels == ("A1", "A2")
        assert aligned.edges == frozenset({(0, 1)})

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
