"""A network's CPT rows live in one read-only float64 array.

Every producer (the loader, align_variables, random_bn and both consensus
routes) writes that array and no Cpt object; bn.cpts is built on its
first read. Each network so built must be the one the public
constructor builds from its CPTs, in every way a caller can see, and
the commands that load agents must build no Cpt at all.
"""

import contextlib
import copy
import io
import json
import pickle
import struct
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefpool import BayesNet, Cpt, cli, logop_consensus_bn
from beliefpool import axioms, consensus, inference, joint, model_io, networks, pools, sampling
from beliefpool.consensus import linop_query
from beliefpool.model_io import (
    align_variables,
    json_text,
    load_networks,
    network_from_dict,
    network_to_dict,
    save_network,
)
from beliefpool.sampling import random_bn, random_dag, random_weights

from test_model_io import EDGE_ROWS, labelled_bns


@contextlib.contextmanager
def counted_cpts():
    """A list that collects every Cpt the package builds while the block
    runs, through the public constructor or the trusted path."""
    built = []
    post_init = Cpt.__post_init__

    def counted_trusted(cls, **fields):
        obj = joint._trusted(cls, **fields)  # joint's own, never patched
        if cls is Cpt:
            built.append(obj)
        return obj

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    with contextlib.ExitStack() as stack:
        for module in (model_io, consensus, inference, networks, pools, axioms, sampling):
            if hasattr(module, "_trusted"):
                stack.enter_context(mock.patch.object(module, "_trusted", counted_trusted))
        stack.enter_context(mock.patch.object(Cpt, "__post_init__", counted_post_init))
        yield built


def test_counter_sees_both_routes():
    with counted_cpts() as built:
        Cpt(0, (), (0.5,))
        random_bn(np.random.default_rng(0), 3).cpts
    assert len(built) == 4


def shared_agent_files(folder, m, n=3, seed=0):
    """n labelled agents on one random DAG over m variables, saved."""
    rng = np.random.default_rng(seed)
    dag = random_dag(rng, m, edge_prob=0.02)
    labels = tuple(f"x{i}" for i in range(m))
    paths = []
    for k in range(n):
        path = Path(folder) / f"agent{k}.json"
        save_network(BayesNet(random_bn(rng, m, dag=dag).cpts, labels), path)
        paths.append(str(path))
    return paths


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class TestNoCptIsBuilt:
    def test_load_and_linop_query(self, tmp_path):
        paths = shared_agent_files(tmp_path, 120)
        with counted_cpts() as built:
            agents = load_networks(paths)
            p = linop_query(agents, {5: True}, {7: False, 90: True}, [0.2, 0.3, 0.5])
        assert built == []
        assert 0.0 < p < 1.0
        assert all(type(vars(bn)["cpts"]) is not tuple for bn in agents)

    @pytest.mark.parametrize("pool", ["linop", "logop"])
    def test_cli_query(self, tmp_path, pool):
        paths = shared_agent_files(tmp_path, 120 if pool == "linop" else 30)
        argv = ["query", *paths, "--pool", pool, "--event", "x3=1", "--given", "x8=0,x20=1"]
        with counted_cpts() as built:
            code, out = quiet_main(argv)
        assert code == cli.EXIT_OK and float(out) > 0.0
        assert built == []

    @pytest.mark.parametrize("dense_oracle", [False, True])
    def test_cli_aggregate(self, tmp_path, dense_oracle):
        paths = shared_agent_files(tmp_path, 30)
        out = tmp_path / "consensus.json"
        argv = ["aggregate", *paths, "--pool", "logop", "--out", str(out)]
        if dense_oracle:
            argv.append("--dense-oracle")
        loaded = []

        def load(paths):
            loaded.extend(load_networks(paths))
            return loaded

        with counted_cpts() as built, mock.patch.object(cli, "load_networks", load):
            code, _ = quiet_main(argv)
        assert code == cli.EXIT_OK and out.exists()
        assert len(loaded) == 3 and built == []


def test_first_reads_of_cpts_in_threads_agree():
    """Threads that read an unbuilt network's cpts at once each get the
    constructor's CPTs; the last read's tuple stays."""
    bn = random_bn(np.random.default_rng(3), 1000, max_parents=3)
    expected = BayesNet(random_bn(np.random.default_rng(3), 1000, max_parents=3).cpts).cpts
    results, errors = [], []
    start = threading.Barrier(6)

    def read():
        start.wait()
        try:
            results.append(bn.cpts)
        except Exception as err:  # a shared single-use iterator fails here
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(results) == 6
    assert all(cpts == expected for cpts in results) and bn.cpts in results


def bits(values):
    """Each value's type and IEEE bits: -0.0 differs from 0.0 here."""
    return [(type(x), struct.pack("<d", x)) for x in values]


def assert_constructor_equal(bn):
    """bn is what BayesNet builds from bn.cpts and bn.labels: ==, hash,
    repr, the saved text, the CPTs' rows as Python floats by their bits,
    and the read-only row array."""
    text = json_text(network_to_dict(bn)) if bn.labels is not None else None
    rows = bn._rows.tobytes()
    copies = copy.deepcopy(bn), pickle.loads(pickle.dumps(bn))  # cpts maybe unbuilt
    public = BayesNet(bn.cpts, bn.labels)
    for copied in copies:
        assert copied == bn and copied._rows.tobytes() == rows
    assert bn == public and hash(bn) == hash(public) and repr(bn) == repr(public)
    assert bn.cpts == public.cpts and bn.dag() == public.dag()
    assert bits(r for c in bn.cpts for r in c.rows) == bits(
        r for c in public.cpts for r in c.rows
    )
    assert rows == public._rows.tobytes() and bn._rows.dtype == np.float64
    assert bn.strictly_positive == public.strictly_positive
    assert bn.blanket_layout == public.blanket_layout
    if text is not None:
        assert text == json_text(network_to_dict(public))
    for net in (bn, public):
        assert not net._rows.flags.writeable
        with pytest.raises(ValueError):
            net._rows[:1] = 0.5


SIGNED_ROWS = EDGE_ROWS + (-0.0,)


def with_int_rows(data, flags):
    """The network dict with each row of 0.0 or 1.0 written as the int 0
    or 1 where the next flag says so."""
    flags = iter(flags)
    for entry in data["cpts"].values():
        for key, value in entry["rows"].items():
            if value in (0.0, 1.0) and str(value) != "-0.0" and next(flags, False):
                entry["rows"][key] = int(value)
    return data


class TestContract:
    @given(bn=labelled_bns(rows=SIGNED_ROWS), flags=st.lists(st.booleans()), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_loaded_and_aligned(self, bn, flags, data):
        text = json.dumps(with_int_rows(network_to_dict(bn), flags))
        loaded = network_from_dict(json.loads(text))
        assert_constructor_equal(loaded)
        assert loaded == bn
        with tempfile.TemporaryDirectory() as folder:
            paths = [str(Path(folder) / f"{k}.json") for k in range(2)]
            for path in paths:
                Path(path).write_text(text)
            group = load_networks(paths)
        for net in group:
            assert_constructor_equal(net)
            assert net == bn
        labels = data.draw(st.permutations(bn.labels))
        relabeled = network_from_dict(json.loads(json_text(network_to_dict(
            BayesNet(bn.cpts, tuple(labels))
        ))))
        aligned = align_variables([bn, relabeled])[1]
        assert_constructor_equal(aligned)
        assert aligned.labels == bn.labels

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 9))
    @settings(max_examples=60, deadline=None)
    def test_random_bn(self, seed, m):
        assert_constructor_equal(random_bn(np.random.default_rng(seed), m, max_parents=3))

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 7),
        n_agents=st.integers(2, 3),
        dense_oracle=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_consensus(self, seed, m, n_agents, dense_oracle):
        rng = np.random.default_rng(seed)
        labels = tuple(f"x{i}" for i in range(m))
        agents = [
            BayesNet(random_bn(rng, m, max_parents=2).cpts, labels) for _ in range(n_agents)
        ]
        built = logop_consensus_bn(agents, random_weights(rng, n_agents), dense_oracle=dense_oracle)
        assert_constructor_equal(built.bn)
