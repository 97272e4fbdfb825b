"""Command line behavior: artifact round trips, query formatting, exit
codes, and the built-in check suites."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from beliefpool import cli, model_io
from beliefpool import (
    BayesNet,
    Cpt,
    bn_to_joint,
    linop,
    logop,
)
from beliefpool.model_io import network_from_dict, save_network
from beliefpool.cli import (
    EXIT_CAPACITY,
    EXIT_DEGENERATE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_ZERO_EVIDENCE,
    main,
)
from beliefpool.sampling import random_bn

from samplers import grid_bn, wide_agents

AGENT_A = BayesNet(
    (Cpt(0, (), (0.5,)), Cpt(1, (), (0.5,))), labels=("A1", "A2")
)
AGENT_B = BayesNet(
    (Cpt(0, (), (0.8,)), Cpt(1, (), (0.6,))), labels=("A1", "A2")
)
CHAIN_A = BayesNet(
    (Cpt(0, (), (0.2,)), Cpt(1, (0,), (0.6, 0.4))), labels=("A1", "A2")
)
CHAIN_B = BayesNet(
    (Cpt(0, (), (0.8,)), Cpt(1, (0,), (0.3, 0.8))), labels=("A1", "A2")
)


@pytest.fixture
def agent_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_network(AGENT_A, a)
    save_network(AGENT_B, b)
    return str(a), str(b)


@pytest.fixture
def chain_files(tmp_path):
    a = tmp_path / "chain_a.json"
    b = tmp_path / "chain_b.json"
    save_network(CHAIN_A, a)
    save_network(CHAIN_B, b)
    return str(a), str(b)


def markov_file(folder):
    """A structure-only network file of kind "markov", which no loader reads."""
    path = folder / "mn.json"
    path.write_text(json.dumps(
        {"kind": "markov", "variables": ["A1", "A2"], "edges": [["A1", "A2"]]}
    ))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAggregate:
    def test_linop_manifest_to_stdout(self, capsys, agent_files):
        code, out, _ = run(capsys, "aggregate", *agent_files, "--pool", "linop")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["kind"] == "linop-manifest"
        assert data["inputs"] == list(agent_files)
        np.testing.assert_allclose(data["weights"], [0.5, 0.5])

    def test_linop_weights_normalized(self, capsys, agent_files):
        code, out, _ = run(
            capsys, "aggregate", *agent_files, "--pool", "linop",
            "--weights", "1,3",
        )
        assert code == EXIT_OK
        np.testing.assert_allclose(json.loads(out)["weights"], [0.25, 0.75])

    def test_overflowing_weights_normalized(self, capsys, agent_files):
        code, out, _ = run(
            capsys, "aggregate", *agent_files, "--pool", "linop",
            "--weights", "1e308,1e308",
        )
        assert code == EXIT_OK
        assert json.loads(out)["weights"] == [0.5, 0.5]

    def test_logop_consensus_file(self, capsys, chain_files, tmp_path):
        out_path = tmp_path / "consensus.json"
        code, out, _ = run(
            capsys, "aggregate", *chain_files, "--pool", "logop",
            "--out", str(out_path),
        )
        assert code == EXIT_OK
        assert out == ""
        data = json.loads(out_path.read_text())
        assert data["kind"] == "bayes"
        assert data["provenance"]["pool"] == "logop"
        assert data["provenance"]["agent_queries"] == 6
        assert data["provenance"]["elimination_order"] == ["A1", "A2"]
        consensus = network_from_dict(data)
        dense = logop([bn_to_joint(CHAIN_A), bn_to_joint(CHAIN_B)])
        np.testing.assert_allclose(
            bn_to_joint(consensus).probs, dense.probs, atol=1e-12
        )

    @pytest.mark.parametrize("argv", [
        ["--pool", "logop"],
        ["--pool", "logop", "--weights", "1,3", "--dense-oracle"],
        ["--pool", "linop", "--weights", "2,1"],
    ])
    def test_printed_text_equals_saved_file(self, capsys, tmp_path, argv):
        # Input paths with a quote, a backslash and non-ASCII characters
        # land in the provenance or manifest.
        folder = tmp_path / 'agents "q" \\ é✓'
        folder.mkdir()
        paths = [str(folder / "chain_a.json"), str(folder / "chain_b.json")]
        save_network(CHAIN_A, paths[0])
        save_network(CHAIN_B, paths[1])
        out_path = tmp_path / "consensus.json"
        code, printed, _ = run(capsys, "aggregate", *paths, *argv)
        assert code == EXIT_OK
        assert run(capsys, "aggregate", *paths, *argv, "--out", str(out_path)) == (
            EXIT_OK, "", ""
        )
        assert printed.encode() == out_path.read_bytes()
        data = json.loads(printed)
        assert printed == json.dumps(data) + "\n"
        assert data.get("inputs", data.get("provenance", {}).get("inputs")) == paths

    @pytest.mark.parametrize("where", ["missing folder", "directory"])
    def test_unwritable_out_path(self, capsys, tmp_path, chain_files, where):
        out = tmp_path / "missing" / "c.json" if where == "missing folder" else tmp_path
        code, printed, err = run(
            capsys, "aggregate", *chain_files, "--pool", "logop", "--out", str(out)
        )
        assert code == EXIT_PARSE
        assert printed == ""
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err

    def test_unwritable_manifest_out_path(self, capsys, tmp_path, chain_files):
        out = tmp_path / "missing" / "m.json"
        code, printed, err = run(
            capsys, "aggregate", *chain_files, "--pool", "linop", "--out", str(out)
        )
        assert (code, printed) == (EXIT_PARSE, "")
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err

    def test_markov_input_rejected(self, capsys, tmp_path, chain_files):
        path = markov_file(tmp_path)
        code, printed, err = run(
            capsys, "aggregate", chain_files[0], str(path), "--pool", "logop"
        )
        assert code == EXIT_PARSE
        assert printed == ""
        assert err == f"error: {path}: 'kind' must be 'bayes', got 'markov'\n"

    def test_bad_cpt_error_names_its_file(self, capsys, tmp_path, chain_files):
        data = json.loads(Path(chain_files[1]).read_text())
        data["cpts"]["A2"]["rows"] = {"0": 0.5}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, printed, err = run(
            capsys, "aggregate", chain_files[0], str(bad), "--pool", "logop"
        )
        assert code == EXIT_PARSE
        assert printed == ""
        assert err == f"error: {bad}: cpt for 'A2' needs exactly 2 rows\n"

    def test_mismatched_variables(self, capsys, tmp_path, agent_files):
        other = tmp_path / "other.json"
        save_network(
            BayesNet((Cpt(0, (), (0.5,)),), labels=("B1",)), other
        )
        code, _, err = run(
            capsys, "aggregate", agent_files[0], str(other), "--pool", "logop"
        )
        assert code == EXIT_MISMATCH
        assert "error" in err

    def test_degenerate_cpt_hints_dense_oracle(self, capsys, tmp_path, chain_files):
        certain = tmp_path / "certain.json"
        certain_bn = BayesNet(
            (Cpt(0, (), (0.2,)), Cpt(1, (0,), (0.6, 1.0))),
            labels=("A1", "A2"),
        )
        save_network(certain_bn, certain)
        code, _, err = run(
            capsys, "aggregate", str(certain), chain_files[1], "--pool", "logop"
        )
        assert code == EXIT_DEGENERATE
        assert "--dense-oracle" in err

        code, out, _ = run(
            capsys, "aggregate", str(certain), chain_files[1], "--pool", "logop",
            "--dense-oracle",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["provenance"]["agent_queries"] == 0
        dense = logop([bn_to_joint(certain_bn), bn_to_joint(CHAIN_B)])
        np.testing.assert_allclose(
            bn_to_joint(network_from_dict(data)).probs, dense.probs, atol=1e-9
        )

    def test_zero_evidence_context_hints_dense_oracle(self, capsys, tmp_path):
        # A strictly positive hub with 2 children nearly never true and 21
        # nearly always true: the evidence of both contexts of the hub's
        # consensus row underflows to zero mass.
        labels = ("hub",) + tuple(f"c{v}" for v in range(1, 24))
        star = BayesNet(
            (Cpt(0, (), (0.5,)),)
            + tuple(Cpt(v, (0,), (1e-300, 1e-300)) for v in (1, 2))
            + tuple(Cpt(v, (0,), (1 - 1.1e-16,) * 2) for v in range(3, 24)),
            labels=labels,
        )
        path = tmp_path / "star.json"
        save_network(star, path)
        code, _, err = run(capsys, "aggregate", str(path), "--pool", "logop")
        assert code == EXIT_DEGENERATE
        assert "zero mass" in err
        assert "--dense-oracle" in err
        # The variable and its parent row go by label, in literal syntax.
        assert err.startswith("error: variable hub, parent row c23=0: ")
        assert "node 0" not in err
        assert "dense_oracle=True" not in err
        code, _, _ = run(
            capsys, "aggregate", str(path), "--pool", "logop", "--dense-oracle"
        )
        assert code == EXIT_OK

    def test_zero_row_names_agent_by_input_position(
        self, capsys, tmp_path, chain_files
    ):
        certain = tmp_path / "certain.json"
        save_network(
            BayesNet((Cpt(0, (), (0.2,)), Cpt(1, (0,), (0.6, 1.0))), labels=("A1", "A2")),
            certain,
        )
        inputs = (chain_files[0], str(certain), chain_files[1])
        code, out, err = run(
            capsys, "aggregate", *inputs, "--pool", "logop", "--weights", "0,1,1"
        )
        assert (code, out) == (EXIT_DEGENERATE, "")
        # The error line names the input file, as format errors do; the
        # remedy is the hint's flag, never the library's keyword.
        assert err.splitlines() == [
            f"error: {certain}: agent 1, variable A2, parent row A1=1: the row "
            "is 1.0, but the query route needs every CPT row of a pooled agent "
            "strictly inside (0, 1)",
            "hint: --dense-oracle fills the consensus CPTs from the agents' "
            "weighted CPT product instead",
        ]
        # At weight 0 the same agent is not pooled, so nothing is rejected.
        code, _, _ = run(
            capsys, "aggregate", *inputs, "--pool", "logop", "--weights", "1,0,1"
        )
        assert code == EXIT_OK

    def test_all_zero_pool_exit_code(self, capsys, tmp_path):
        paths = []
        for name, p in (("sure", 1.0), ("never", 0.0)):
            path = tmp_path / f"{name}.json"
            save_network(
                BayesNet((Cpt(0, (), (p,)), Cpt(1, (), (0.5,))), labels=("A1", "A2")),
                path,
            )
            paths.append(str(path))
        code, _, err = run(
            capsys, "aggregate", *paths, "--pool", "logop", "--dense-oracle"
        )
        assert code == EXIT_DEGENERATE
        assert "error" in err
        assert "--dense-oracle" not in err

    def test_dense_oracle_above_dense_capacity(self, capsys, tmp_path):
        rng = np.random.default_rng(40)
        labels = tuple(f"v{i}" for i in range(40))
        paths = []
        for i in range(3):
            agent = random_bn(rng, 40, edge_prob=0.05, max_parents=2)
            path = tmp_path / f"agent{i}.json"
            save_network(BayesNet(agent.cpts, labels=labels), path)
            paths.append(str(path))
        code, out, _ = run(
            capsys, "aggregate", *paths, "--pool", "logop", "--dense-oracle"
        )
        assert code == EXIT_OK
        assert network_from_dict(json.loads(out)).m == 40

    def test_label_order_differences_are_aligned(self, capsys, tmp_path):
        flipped = BayesNet(
            (Cpt(0, (1,), (0.6, 0.4)), Cpt(1, (), (0.2,))), labels=("A2", "A1")
        )
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_network(CHAIN_A, a)
        save_network(flipped, b)
        code, out, _ = run(capsys, "aggregate", str(a), str(b), "--pool", "logop")
        assert code == EXIT_OK
        consensus = network_from_dict(json.loads(out))
        np.testing.assert_allclose(
            bn_to_joint(consensus).probs, bn_to_joint(CHAIN_A).probs, atol=1e-12
        )


class TestCapacity:
    def test_wide_consensus_exits_6(self, capsys, tmp_path):
        paths = []
        for k, agent in enumerate(wide_agents(tuple(f"x{i}" for i in range(64)))):
            paths.append(str(tmp_path / f"wide{k}.json"))
            save_network(agent, paths[-1])
        for flags, families, size, last in (
            ((), 30, "3 agents x 6571984 CPT rows = 19715952 rows", "x39 with 22"),
            (("--dense-oracle",), 31, "73680848 CPT rows", "x59 with 26"),
        ):
            for command in (["aggregate"], ["query", "--event", "x0=1"]):
                code, out, err = run(
                    capsys, command[0], *paths, "--pool", "logop", *command[1:], *flags
                )
                assert (code, out) == (EXIT_CAPACITY, "")
                assert err == (
                    f"error: the consensus is over the capacity of 2^24 rows: its "
                    f"first {families} of 64 families need {size}; the last is "
                    f"variable {last} parents\n"
                )

    def test_wide_query_exits_6_naming_the_bucket_by_label(self, capsys, tmp_path):
        # The far corner of a 26 x 26 grid: the planner stops at the first
        # bucket over 2^24 entries, the 500th of 675.
        labels = tuple(f"cell{i}" for i in range(26 * 26))
        path = str(tmp_path / "grid.json")
        save_network(BayesNet(grid_bn(26).cpts, labels), path)
        code, out, err = run(capsys, "query", path, "--pool", "linop", "--event", "cell675=1")
        assert (code, out) == (EXIT_CAPACITY, "")
        assert err == (
            "error: the query's elimination is over the capacity of 2^24 entries at "
            "bucket 500 of 675: variable cell165's bucket needs 25 variables, 2^25 entries\n"
        )


class TestPoolOfOne:
    """A query whose pool holds one agent of positive weight is answered
    by that agent under either pool, so a saved consensus queries back."""

    LABELS = ("rain", "traffic", "late")
    A = BayesNet(
        (Cpt(0, (), (0.5,)), Cpt(1, (0,), (0.3, 0.8)), Cpt(2, (1,), (0.1, 0.6))), LABELS
    )
    # Traffic never comes without rain, so the pool puts zero mass there.
    B = BayesNet(
        (Cpt(0, (), (0.7,)), Cpt(1, (0,), (0.0, 0.9)), Cpt(2, (1,), (0.2, 0.5))), LABELS
    )

    def test_oracle_consensus_queries_back_under_both_pools(self, capsys, tmp_path):
        paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        save_network(self.A, paths[0])
        save_network(self.B, paths[1])
        consensus = str(tmp_path / "c.json")
        code, _, _ = run(
            capsys, "aggregate", *paths, "--pool", "logop", "--dense-oracle",
            "--out", consensus,
        )
        assert code == EXIT_OK
        # The consensus holds a row of 1.0, which the query route would
        # reject were it to build a consensus of the consensus.
        cpts = model_io.load_network(consensus).cpts
        assert any(r == 1.0 for cpt in cpts for r in cpt.rows)
        lines = set()
        for flags in (("--pool", "linop"), ("--pool", "logop"),
                      ("--pool", "logop", "--dense-oracle")):
            code, out, err = run(
                capsys, "query", consensus, *flags, "--event", "late=1",
                "--given", "rain=0",
            )
            assert (code, err) == (EXIT_OK, "")
            lines.add(out)
        assert lines == {"0.142857\n"}

    def test_zero_weight_agents_leave_a_pool_of_one(self, capsys, tmp_path):
        paths = [str(tmp_path / "b.json"), str(tmp_path / "a.json")]
        save_network(self.B, paths[0])
        save_network(self.A, paths[1])
        outs = []
        for pool in ("linop", "logop"):
            code, out, _ = run(
                capsys, "query", *paths, "--pool", pool, "--weights", "1,0",
                "--event", "traffic=1", "--given", "late=1",
            )
            assert code == EXIT_OK
            outs.append(out)
        assert outs[0] == outs[1]


class TestQuery:
    def test_linop_single_event(self, capsys, agent_files):
        code, out, _ = run(
            capsys, "query", *agent_files, "--pool", "linop", "--event", "A1=1"
        )
        assert code == EXIT_OK
        assert out.strip() == "0.650000"

    def test_linop_joint_event(self, capsys, agent_files):
        code, out, _ = run(
            capsys, "query", *agent_files, "--pool", "linop",
            "--event", "A1=1,A2=1",
        )
        assert code == EXIT_OK
        assert out.strip() == "0.365000"

    def test_linop_conditional(self, capsys, agent_files):
        code, out, _ = run(
            capsys, "query", *agent_files, "--pool", "linop",
            "--event", "A1=1", "--given", "A2=1",
        )
        assert code == EXIT_OK
        assert out.strip() == f"{0.365 / 0.55:.6f}"

    def test_logop_event(self, capsys, chain_files):
        code, out, _ = run(
            capsys, "query", *chain_files, "--pool", "logop", "--event", "A1=1"
        )
        assert code == EXIT_OK
        assert out.strip() == "0.488926"

    def test_zero_weight_agent_drops_out(self, capsys, tmp_path):
        # Only the zero-weight agent z has a CPT row of 1.0.
        paths = []
        for name, rows in (("a", (0.3, 0.4)), ("z", (0.2, 1.0))):
            path = tmp_path / f"{name}.json"
            save_network(
                BayesNet(
                    (Cpt(0, (), (0.5,)), Cpt(1, (0,), rows)),
                    labels=("rain", "traffic"),
                ),
                path,
            )
            paths.append(str(path))
        code, _, _ = run(
            capsys, "aggregate", *paths, "--pool", "logop", "--weights", "1,0"
        )
        assert code == EXIT_OK
        code, out, _ = run(
            capsys, "query", *paths, "--pool", "logop", "--weights", "1,0",
            "--event", "traffic=1",
        )
        assert code == EXIT_OK
        assert out.strip() == "0.350000"

    def test_contradictory_event_prints_zero(self, capsys, agent_files):
        code, out, _ = run(
            capsys, "query", *agent_files, "--pool", "linop",
            "--event", "A1=1", "--given", "A1=0",
        )
        assert code == EXIT_OK
        assert out.strip() == "0.000000"

    def test_event_implied_by_evidence(self, capsys, agent_files):
        code, out, _ = run(
            capsys, "query", *agent_files, "--pool", "linop",
            "--event", "A1=1", "--given", "A1=1,A2=0",
        )
        assert code == EXIT_OK
        assert out.strip() == "1.000000"

    @pytest.fixture
    def impossible_files(self, tmp_path):
        # Both agents give A1 probability zero. The logop query route
        # rejects that row (exit 4), so the logop tests use --dense-oracle.
        paths = []
        for i, p in enumerate((0.3, 0.7)):
            path = tmp_path / f"impossible_{i}.json"
            save_network(
                BayesNet(
                    (Cpt(0, (), (0.0,)), Cpt(1, (), (p,))), labels=("A1", "A2")
                ),
                path,
            )
            paths.append(str(path))
        return paths

    @pytest.mark.parametrize("pool", ["linop", "logop"])
    @pytest.mark.parametrize("event", ["A1=1", "A1=0"])
    def test_overlapping_event_checks_weight_count(
        self, capsys, agent_files, pool, event
    ):
        code, out, err = run(
            capsys, "query", *agent_files, "--pool", pool,
            "--weights", "1,2,3", "--event", event, "--given", "A1=1",
        )
        assert code == EXIT_PARSE
        assert out == ""
        assert "weight" in err

    @pytest.mark.parametrize("pool", ["linop", "logop"])
    @pytest.mark.parametrize("event", ["A1=1", "A1=0", "A2=1"])
    def test_overlapping_event_checks_zero_evidence(
        self, capsys, impossible_files, pool, event
    ):
        oracle = ["--dense-oracle"] if pool == "logop" else []
        code, out, _ = run(
            capsys, "query", *impossible_files, "--pool", pool,
            *oracle, "--event", event, "--given", "A1=1",
        )
        assert code == EXIT_ZERO_EVIDENCE
        assert out == ""

    @pytest.mark.parametrize("pool", ["linop", "logop"])
    def test_overlapping_event_answers(self, capsys, chain_files, pool):
        for event, want in (("A1=1", "1.000000"), ("A1=0", "0.000000"),
                            ("A1=1,A2=0", "0.000000")):
            code, out, _ = run(
                capsys, "query", *chain_files, "--pool", pool,
                "--event", event, "--given", "A1=1,A2=1",
            )
            assert (code, out.strip()) == (EXIT_OK, want)

    def test_unknown_variable(self, capsys, agent_files):
        code, _, err = run(
            capsys, "query", *agent_files, "--pool", "linop", "--event", "A9=1"
        )
        assert code == EXIT_PARSE
        assert "A9" in err

    def test_empty_event(self, capsys, agent_files):
        code, out, err = run(
            capsys, "query", *agent_files, "--pool", "linop", "--event", ""
        )
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("error: --event")

    def test_bad_literal_syntax(self, capsys, agent_files):
        code, _, err = run(
            capsys, "query", *agent_files, "--pool", "linop", "--event", "A1=maybe"
        )
        assert code == EXIT_PARSE

    def test_duplicate_assignment(self, capsys, agent_files):
        code, _, _ = run(
            capsys, "query", *agent_files, "--pool", "linop",
            "--event", "A1=1,A1=1",
        )
        assert code == EXIT_PARSE

    def test_zero_evidence_exit_code(self, capsys, tmp_path):
        certain = tmp_path / "certain.json"
        save_network(
            BayesNet(
                (Cpt(0, (), (1.0,)), Cpt(1, (), (0.5,))), labels=("A1", "A2")
            ),
            certain,
        )
        code, _, err = run(
            capsys, "query", str(certain), "--pool", "linop",
            "--event", "A2=1", "--given", "A1=0",
        )
        assert code == EXIT_ZERO_EVIDENCE

    def test_manifest_round_trip(self, capsys, tmp_path, monkeypatch, agent_files):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(
            capsys, "aggregate", "a.json", "b.json", "--pool", "linop",
            "--weights", "1,1", "--out", "pool.json",
        )
        assert code == EXIT_OK
        # Manifest inputs resolve relative to the manifest's directory.
        monkeypatch.chdir(tmp_path.parent)
        code, out, _ = run(
            capsys, "query", str(tmp_path / "pool.json"), "--pool", "linop",
            "--event", "A1=1,A2=1",
        )
        assert code == EXIT_OK
        assert out.strip() == "0.365000"

    @pytest.mark.parametrize("out", ["sub/pool.json", "pool.json", "../pool.json"])
    def test_manifest_saved_elsewhere_queries_back(
        self, capsys, tmp_path, monkeypatch, agent_files, out
    ):
        # Relative inputs are written relative to the manifest's folder.
        work = tmp_path / "work"
        (work / "sub").mkdir(parents=True)
        monkeypatch.chdir(work)
        inputs = ["../a.json", "../b.json"]
        code, _, _ = run(
            capsys, "aggregate", *inputs, "--pool", "linop",
            "--weights", "2,1", "--out", out,
        )
        assert code == EXIT_OK
        query = ["--pool", "linop", "--event", "A1=1", "--given", "A2=1"]
        _, direct, _ = run(capsys, "query", *inputs, *query, "--weights", "2,1")
        code, answer, err = run(capsys, "query", out, *query)
        assert (code, err) == (EXIT_OK, "")
        assert answer == direct == "0.612500\n"

    def test_manifest_printed_to_stdout_queries_back(
        self, capsys, tmp_path, monkeypatch, agent_files
    ):
        # A manifest redirected from stdout into another folder lists
        # absolute inputs, so it resolves from there too.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        code, printed, _ = run(
            capsys, "aggregate", "a.json", "b.json", "--pool", "linop", "--weights", "2,1"
        )
        assert code == EXIT_OK
        inputs = json.loads(printed)["inputs"]
        assert inputs == [os.path.abspath("a.json"), os.path.abspath("b.json")]
        (tmp_path / "sub" / "r.json").write_text(printed)
        query = ["--pool", "linop", "--event", "A1=1", "--given", "A2=1"]
        _, direct, _ = run(capsys, "query", "a.json", "b.json", *query, "--weights", "2,1")
        code, answer, err = run(capsys, "query", "sub/r.json", *query)
        assert (code, err) == (EXIT_OK, "")
        assert answer == direct == "0.612500\n"

    def test_manifest_needs_linop(self, capsys, tmp_path, monkeypatch, agent_files):
        monkeypatch.chdir(tmp_path)
        run(capsys, "aggregate", "a.json", "b.json", "--pool", "linop",
            "--out", "pool.json")
        code, _, err = run(
            capsys, "query", "pool.json", "--pool", "logop", "--event", "A1=1"
        )
        assert code == EXIT_PARSE
        assert "linop" in err

    def test_cli_weights_override_manifest(self, capsys, tmp_path, monkeypatch, agent_files):
        monkeypatch.chdir(tmp_path)
        run(capsys, "aggregate", "a.json", "b.json", "--pool", "linop",
            "--weights", "1,0", "--out", "pool.json")
        code, out, _ = run(
            capsys, "query", "pool.json", "--pool", "linop",
            "--event", "A1=1", "--weights", "0,1",
        )
        assert code == EXIT_OK
        assert out.strip() == "0.800000"

    def test_logop_overflowing_weights(self, capsys, chain_files):
        code, out, _ = run(
            capsys, "query", *chain_files, "--pool", "logop",
            "--event", "A1=1", "--weights", "1e308,1e308",
        )
        assert code == EXIT_OK
        assert out.strip() == "0.488926"

    def test_single_network_read_once(self, capsys, monkeypatch, agent_files):
        reads = []
        load_file = model_io._load_file
        monkeypatch.setattr(
            model_io, "_load_file",
            lambda path, *build: reads.append(path) or load_file(path, *build),
        )
        code, out, _ = run(
            capsys, "query", agent_files[1], "--pool", "logop", "--event", "A1=1"
        )
        assert code == EXIT_OK
        assert out.strip() == "0.800000"
        assert reads == [agent_files[1]]

    @pytest.mark.parametrize("command", ["aggregate", "query", "manifest"])
    def test_each_agent_file_loads_once(
        self, capsys, tmp_path, monkeypatch, chain_files, command
    ):
        # The agent files load in one load_networks call, which reads each
        # file once, in order, though they share one structure.
        third = tmp_path / "chain_c.json"
        save_network(BayesNet(CHAIN_A.cpts[:1] + CHAIN_B.cpts[1:], CHAIN_A.labels), third)
        paths = [*chain_files, str(third)]
        groups, reads = [], []
        load_networks, load_file = model_io.load_networks, model_io._load_file
        monkeypatch.setattr(
            cli, "load_networks", lambda ps: groups.append(ps) or load_networks(ps)
        )
        monkeypatch.setattr(
            model_io, "_load_file",
            lambda path, *build: reads.append(path) or load_file(path, *build),
        )
        if command == "aggregate":
            argv = ["aggregate", *paths, "--pool", "logop"]
        elif command == "query":
            argv = ["query", *paths, "--pool", "linop", "--event", "A2=1"]
        else:
            manifest = tmp_path / "panel.json"
            manifest.write_text(json.dumps({"kind": "linop-manifest", "inputs": paths}))
            argv = ["query", str(manifest), "--pool", "linop", "--event", "A2=1"]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_OK, err
        assert groups == [paths]
        assert reads[-3:] == paths and len(reads) == 3 + (command == "manifest")

    def test_single_markov_file_rejected(self, capsys, tmp_path):
        path = markov_file(tmp_path)
        code, printed, err = run(
            capsys, "query", str(path), "--pool", "linop", "--event", "A1=1"
        )
        assert code == EXIT_PARSE
        assert printed == ""
        assert err == f"error: {path}: 'kind' must be 'bayes', got 'markov'\n"

    def test_saved_consensus_is_queryable(self, capsys, tmp_path, chain_files):
        out_path = tmp_path / "consensus.json"
        run(capsys, "aggregate", *chain_files, "--pool", "logop",
            "--out", str(out_path))
        code, out, _ = run(
            capsys, "query", str(out_path), "--pool", "logop",
            "--event", "A2=1", "--given", "A1=1",
        )
        assert code == EXIT_OK
        assert out.strip() == "0.620204"


class TestCheck:
    def test_examples_suite(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "examples")
        assert code == EXIT_OK
        for token in ("ex1-linop", "ex2-logop", "ex3-fa", "fig1d-logop"):
            assert token in out

    def test_axioms_suite(self, capsys):
        code, out, _ = run(
            capsys, "check", "--suite", "axioms", "--seed", "0", "--trials", "5"
        )
        assert code == EXIT_OK
        assert "property=unam pool=linop" in out
        assert "negative-control" in out

    def test_oracle_suite(self, capsys):
        code, out, _ = run(
            capsys, "check", "--suite", "oracle", "--trials", "5"
        )
        assert code == EXIT_OK
        assert "property=oracle-consensus pool=logop tol=1.0e-09 cases=5 passed=5 " in out

    @pytest.mark.parametrize(
        "flags", [("--seed", "-1"), ("--trials", "0"), ("--trials", "-2")]
    )
    def test_bad_seed_or_trials(self, capsys, flags):
        code, out, err = run(capsys, "check", "--suite", "axioms", *flags)
        assert code == EXIT_PARSE
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("suite", ["axioms", "oracle"])
    def test_trials_above_the_maximum_run_no_draw(self, capsys, monkeypatch, suite):
        def suite_not_run(seed, trials):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli, f"run_{suite}_suite", suite_not_run)
        for trials in (cli.MAX_TRIALS + 1, 99999999999999999999):
            code, out, err = run(capsys, "check", "--suite", suite, "--trials", str(trials))
            assert code == EXIT_PARSE
            assert err == f"error: --trials must be at most 10000, got {trials}\n"
            assert out == ""

    def test_trials_at_the_maximum_reach_the_suite(self, capsys, monkeypatch):
        # The suite is stubbed: the maximum itself runs for tens of seconds.
        calls = []
        monkeypatch.setattr(
            cli, "run_axioms_suite", lambda seed, trials: calls.append(trials) or ([], True)
        )
        code, _, _ = run(capsys, "check", "--suite", "axioms", "--trials", "10000")
        assert code == EXIT_OK
        assert calls == [cli.MAX_TRIALS]

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--seed", "3"), "--seed"),
            (("--seed", "0"), "--seed"),
            (("--trials", "5"), "--trials"),
            (("--seed", "3", "--trials", "5"), "--seed"),
        ],
    )
    def test_examples_suite_takes_no_seed_or_trials(self, capsys, flags, named):
        # The examples are fixed, so a seed or a trial count would be
        # silently ignored; even the default seed, given explicitly, is refused.
        code, out, err = run(capsys, "check", "--suite", "examples", *flags)
        assert code == EXIT_PARSE
        assert err.startswith("error:")
        assert named in err.splitlines()[0]
        assert out == ""


class TestParsing:
    @pytest.mark.parametrize("command", ["aggregate", "query", "query-manifest"])
    def test_dense_oracle_needs_logop(
        self, capsys, tmp_path, monkeypatch, agent_files, command
    ):
        # The linop pool builds no consensus network, so the flag would
        # otherwise be silently ignored.
        monkeypatch.chdir(tmp_path)
        inputs = ["a.json", "b.json"]
        if command == "query-manifest":
            run(capsys, "aggregate", *inputs, "--pool", "linop", "--out", "pool.json")
            inputs = ["pool.json"]
        extra = (
            ["--out", "out.json"] if command == "aggregate" else ["--event", "A1=1"]
        )
        code, out, err = run(
            capsys, command.split("-")[0], *inputs, "--pool", "linop",
            "--dense-oracle", *extra,
        )
        assert code == EXIT_PARSE
        assert err.startswith("error:")
        assert "--dense-oracle" in err.splitlines()[0]
        assert out == ""
        assert not (tmp_path / "out.json").exists()

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_PARSE

    def test_missing_pool_flag(self, capsys, agent_files):
        with pytest.raises(SystemExit) as exc:
            main(["aggregate", agent_files[0]])
        assert exc.value.code == EXIT_PARSE

    def test_bad_weights_string(self, capsys, agent_files):
        code, _, err = run(
            capsys, "aggregate", *agent_files, "--pool", "linop",
            "--weights", "a,b",
        )
        assert code == EXIT_PARSE

    # float() reads "1_0" as 10 and "\u0661" (Arabic-Indic one) as 1.
    @pytest.mark.parametrize(
        "weights", ["1_0,1", "1,0_5", "\u0661,1", "1,\uff12", "1,1\u00a0"]
    )
    def test_weights_are_ascii_without_underscores(self, capsys, agent_files, weights):
        for command in (
            ["aggregate", *agent_files, "--pool", "linop"],
            ["query", *agent_files, "--pool", "linop", "--event", "A2=1"],
        ):
            code, out, err = run(capsys, *command, "--weights", weights)
            assert code == EXIT_PARSE
            assert out == ""
            assert err.startswith(f"error: bad weight list {weights!r}")

    @pytest.mark.parametrize("weights", ["2,1", " 2, 1 ", "2.0,1e0", "+2,.5e1"])
    def test_ascii_weight_spellings(self, capsys, agent_files, weights):
        code, out, _ = run(
            capsys, "query", *agent_files, "--pool", "linop", "--event", "A2=1",
            "--weights", weights,
        )
        assert code == EXIT_OK
        reference = ",".join(str(float(w)) for w in weights.split(","))
        assert out == run(
            capsys, "query", *agent_files, "--pool", "linop", "--event", "A2=1",
            "--weights", reference,
        )[1]

    @pytest.mark.parametrize("weights", ["1,2,3", "0,0"])
    def test_rejected_weights(self, capsys, agent_files, weights):
        code, _, err = run(
            capsys, "aggregate", *agent_files, "--pool", "logop",
            "--weights", weights,
        )
        assert code == EXIT_PARSE
        assert "weights" in err

    def test_malformed_network_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\"kind\": \"bayes\"}")
        code, _, err = run(capsys, "aggregate", str(path), "--pool", "linop")
        assert code == EXIT_PARSE

    def test_non_utf8_file(self, capsys, tmp_path, agent_files):
        path = tmp_path / "latin1.json"
        text = json.dumps(model_io.network_to_dict(AGENT_A), ensure_ascii=False)
        path.write_bytes(text.replace("A1", "\u00e9").encode("latin-1"))
        code, out, err = run(
            capsys, "query", str(path), agent_files[1], "--pool", "linop",
            "--event", "A2=1",
        )
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error:") and "UTF-8" in err

    def test_deeply_nested_file(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run(
            capsys, "query", str(path), "--pool", "linop", "--event", "A1=1"
        )
        assert code == EXIT_PARSE
        assert err.startswith("error:") and "nests too deeply" in err

    @pytest.mark.parametrize("command", ["query", "aggregate"])
    def test_row_beyond_float_range(self, capsys, tmp_path, agent_files, command):
        path = tmp_path / "huge.json"
        text = json.dumps(model_io.network_to_dict(AGENT_A))
        path.write_text(text.replace('{"": 0.5}', '{"": 1%s}' % ("0" * 400), 1))
        argv = [command, str(path), agent_files[1], "--pool", "logop"]
        if command == "query":
            argv += ["--event", "A1=1"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error:") and "too large for a float" in err

    def test_manifest_weight_beyond_float_range(self, capsys, tmp_path, agent_files):
        manifest = tmp_path / "pool.json"
        manifest.write_text(
            '{"kind": "linop-manifest", "inputs": ["a.json", "b.json"], '
            '"weights": [1%s, 1]}' % ("0" * 400)
        )
        code, out, err = run(
            capsys, "query", str(manifest), "--pool", "linop", "--event", "A1=1"
        )
        assert code == EXIT_PARSE
        assert err.startswith("error:") and "weights" in err

    def test_repeated_main_calls_match_fresh_processes(self, capsys, agent_files):
        # main() reuses one parser; each call must print what a new process
        # running the same command prints, whatever ran before it.
        commands = [
            ["query", *agent_files, "--pool", "linop", "--event", "A1=1"],
            ["check", "--suite", "examples"],
            ["aggregate", *agent_files, "--pool", "logop", "--weights", "3,1"],
            ["query", *agent_files, "--event", "A1=1"],
            ["query", *agent_files, "--pool", "logop", "--event", "A2=0",
             "--given", "A1=1"],
        ]
        in_process = []
        for argv in commands:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        fresh = []
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "beliefpool.cli", *argv],
                capture_output=True, text=True,
                env={**os.environ,
                     "PYTHONPATH": str(Path(model_io.__file__).parents[1])},
            )
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert in_process == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 0, EXIT_PARSE, 0]


@pytest.mark.skipif(
    shutil.which("beliefpool") is None,
    reason="console script not on PATH",
)
def test_console_script_smoke(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_network(AGENT_A, a)
    save_network(AGENT_B, b)
    proc = subprocess.run(
        ["beliefpool", "query", str(a), str(b), "--pool", "linop",
         "--event", "A1=1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.650000"
