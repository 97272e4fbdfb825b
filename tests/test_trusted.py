"""Trusted construction gives what the public constructors give.

The loader, the structure transforms, the consensus builders, the
dense kernels and the samplers build their models without re-running
the constructors' checks (joint._trusted and joint._trusted_table). Each test here runs
such a call twice: once as the package runs it, and once with the
trusted path swapped for the public constructors, which check and
convert every field. The two results must agree field for field, the
type of every value included (a numpy scalar where the constructor
stores a Python float is a failure, though == would pass), and on the
bytes of the saved text.
"""

import contextlib
import dataclasses
import json
import struct
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefpool import (
    BayesNet,
    JointTable,
    bn_to_joint,
    family_pooled_joint,
    linop,
    logop,
    logop_consensus_bn,
)
from beliefpool import (
    axioms, consensus, inference, joint, model_io, networks, pools, sampling,
)
from beliefpool.joint import condition
from beliefpool.model_io import align_variables, json_text, network_from_dict, network_to_dict
from beliefpool.networks import direct_by_order, mn_union, moralize, triangulate
from beliefpool.sampling import (
    random_block_product_table,
    random_bn,
    random_conditional_table,
    random_dag,
    random_joint,
    random_product_table,
    random_vstructure_pair,
    random_weights,
)

from test_model_io import labelled_bns


def public_construction(cls, **fields):
    """What cls's public constructor builds from the same field values."""
    return cls(**{f.name: fields[f.name] for f in dataclasses.fields(cls) if f.init})


@contextlib.contextmanager
def public_constructors():
    """Every trusted construction in the package runs the public
    constructor instead, with all its checks and conversions."""
    with contextlib.ExitStack() as stack:
        for module in (
            model_io, consensus, inference, networks, pools, joint, axioms, sampling
        ):
            if hasattr(module, "_trusted"):
                stack.enter_context(
                    mock.patch.object(module, "_trusted", public_construction)
                )
            if hasattr(module, "_trusted_table"):
                stack.enter_context(
                    mock.patch.object(module, "_trusted_table", JointTable)
                )
        yield


def snapshot(value):
    """value as nested tuples that record every type and every float's
    bits, through dataclass fields (BayesNet's Dag included) and arrays."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (f.name, snapshot(getattr(value, f.name))) for f in dataclasses.fields(value)
        )
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.flags.writeable, value.tobytes())
    if isinstance(value, tuple):
        return ("tuple",) + tuple(map(snapshot, value))
    if isinstance(value, frozenset):
        return ("frozenset",) + tuple(sorted(map(snapshot, value)))
    if isinstance(value, float):
        return (type(value).__name__, struct.pack("<d", value))
    return (type(value).__name__, value)


def both_routes(build):
    """build() as the package runs it, and with public constructors."""
    trusted = build()
    with public_constructors():
        public = build()
    return trusted, public


def assert_same_network(trusted, public, provenance=None):
    assert snapshot(trusted) == snapshot(public)
    assert trusted == public and hash(trusted) == hash(public)
    assert trusted.dag() == public.dag()
    if trusted.labels is not None:
        assert json_text(network_to_dict(trusted, provenance)) == json_text(
            network_to_dict(public, provenance)
        )


@given(bn=labelled_bns(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_loaded_and_aligned_networks(bn, data):
    text = json.dumps(network_to_dict(bn))
    trusted, public = both_routes(lambda: network_from_dict(json.loads(text)))
    assert_same_network(trusted, public)
    assert trusted == bn
    relabeled = BayesNet(bn.cpts, tuple(data.draw(st.permutations(bn.labels))))
    if relabeled.labels != bn.labels:
        trusted, public = both_routes(lambda: align_variables([bn, relabeled])[1])
        assert_same_network(trusted, public)


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 7),
    n_agents=st.integers(1, 3),
    dense_oracle=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_consensus_networks(seed, m, n_agents, dense_oracle):
    rng = np.random.default_rng(seed)
    labels = tuple(f"x{i}" for i in range(m))
    agents = [
        BayesNet(random_bn(rng, m, max_parents=2).cpts, labels)
        for _ in range(n_agents)
    ]
    weights = random_weights(rng, n_agents)
    trusted, public = both_routes(
        lambda: logop_consensus_bn(agents, weights, dense_oracle=dense_oracle)
    )
    assert snapshot(trusted) == snapshot(public)
    assert trusted == public
    provenance = {"elimination_order": [labels[v] for v in trusted.elimination_order]}
    assert_same_network(trusted.bn, public.bn, provenance)


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 9),
    n_agents=st.integers(1, 3),
    labelled=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_structure_transforms(seed, m, n_agents, labelled):
    rng = np.random.default_rng(seed)
    labels = tuple(f"x{i}" for i in range(m)) if labelled else None
    agents = [
        BayesNet(random_bn(rng, m, edge_prob=0.4, max_parents=3).cpts, labels)
        for _ in range(n_agents)
    ]

    def build():
        morals = tuple(moralize(bn) for bn in agents) + (moralize(agents[0].dag()),)
        union = mn_union(morals[:n_agents])
        chordal, order = triangulate(union)
        return morals, union, chordal, order, direct_by_order(chordal, order)

    trusted, public = both_routes(build)
    assert snapshot(trusted) == snapshot(public)
    assert trusted == public


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_dense_kernel_tables(seed, m):
    rng = np.random.default_rng(seed)
    tables = [random_joint(rng, m) for _ in range(3)]
    weights = random_weights(rng, 3)
    bn = random_bn(rng, m, max_parents=2)
    ordering = tuple(int(v) for v in rng.permutation(m))
    for build in (
        lambda: bn_to_joint(bn),
        lambda: linop(tables, weights),
        lambda: logop(tables, weights),
        lambda: condition(tables[0], {0: bool(seed & 1)}),
        lambda: family_pooled_joint("linop", tables, ordering, weights),
        lambda: family_pooled_joint("logop", tables, ordering, weights),
    ):
        trusted, public = both_routes(build)
        assert snapshot(trusted) == snapshot(public)


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 6),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_sampled_models(seed, m, data):
    """Each sampler's model equals, bit for bit, what the constructors
    build from the same draws."""
    perm = data.draw(st.permutations(range(m)))
    cut = data.draw(st.integers(0, m - 1))
    dag = random_dag(np.random.default_rng(seed), m, edge_prob=0.5)
    samplers = (
        lambda rng: random_joint(rng, m),
        lambda rng: random_product_table(rng, m),
        lambda rng: random_block_product_table(rng, m, perm[:cut]),
        lambda rng: random_conditional_table(
            rng, m, perm[0], perm[1 : cut + 1], perm[cut + 1 :]
        ),
        lambda rng: random_dag(rng, m, edge_prob=0.5, max_parents=cut),
        lambda rng: random_bn(rng, m, edge_prob=0.4, max_parents=2),
        lambda rng: random_bn(rng, m, dag=dag),
        random_vstructure_pair,
    )
    for sample in samplers:
        trusted, public = both_routes(lambda: sample(np.random.default_rng(seed)))
        assert snapshot(trusted) == snapshot(public)
