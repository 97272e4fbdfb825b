"""JSON round trips, format validation, and label-based alignment."""

import json

import numpy as np
import pytest

from beliefpool import (
    BayesNet,
    Cpt,
    LinopManifest,
    MarkovNet,
    MismatchedVariables,
    ModelFormatError,
    align_variables,
    bn_to_joint,
    load_model_file,
    load_network,
    marginal,
    network_from_dict,
    network_to_dict,
    save_manifest,
    save_network,
)
from beliefpool.model_io import manifest_from_dict, manifest_to_dict
from beliefpool.sampling import random_bn

CHAIN = BayesNet(
    (Cpt(0, (), (0.2,)), Cpt(1, (0,), (0.6, 0.4))), labels=("A1", "A2")
)


def valid_bayes_dict():
    return network_to_dict(CHAIN)


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

    def test_serializing_needs_labels(self):
        with pytest.raises(ValueError):
            network_to_dict(BayesNet(CHAIN.cpts))


class TestFormatValidation:
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
