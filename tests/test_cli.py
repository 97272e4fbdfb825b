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

from beliefpool import model_io
from beliefpool import (
    BayesNet,
    Cpt,
    MarkovNet,
    bn_to_joint,
    linop,
    logop,
)
from beliefpool.model_io import network_from_dict, save_network
from beliefpool.cli import (
    EXIT_DEGENERATE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_ZERO_EVIDENCE,
    main,
)
from beliefpool.sampling import random_bn

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
        assert printed == json.dumps(data, indent=2) + "\n"
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

    def test_markov_input_rejected(self, capsys, tmp_path):
        path = tmp_path / "mn.json"
        save_network(MarkovNet(2, frozenset({(0, 1)}), labels=("A1", "A2")), path)
        code, _, err = run(capsys, "aggregate", str(path), "--pool", "logop")
        assert code == EXIT_PARSE
        assert "markov" in err

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
        # rejects that row (exit 4), so the tests use --dense-oracle.
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
        code, out, _ = run(
            capsys, "query", *impossible_files, "--pool", pool,
            "--dense-oracle", "--event", event, "--given", "A1=1",
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
        load_json = model_io._load_json
        monkeypatch.setattr(
            model_io, "_load_json", lambda path: reads.append(path) or load_json(path)
        )
        code, out, _ = run(
            capsys, "query", agent_files[1], "--pool", "logop", "--event", "A1=1"
        )
        assert code == EXIT_OK
        assert out.strip() == "0.800000"
        assert reads == [agent_files[1]]

    def test_single_markov_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "mn.json"
        save_network(MarkovNet(2, frozenset({(0, 1)}), labels=("A1", "A2")), path)
        code, _, err = run(
            capsys, "query", str(path), "--pool", "linop", "--event", "A1=1"
        )
        assert code == EXIT_PARSE
        assert "markov" in err

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
        assert "max_state_error" in out

    @pytest.mark.parametrize(
        "flags", [("--seed", "-1"), ("--trials", "0"), ("--trials", "-2")]
    )
    def test_bad_seed_or_trials(self, capsys, flags):
        code, out, err = run(capsys, "check", "--suite", "axioms", *flags)
        assert code == EXIT_PARSE
        assert err.startswith("error:")
        assert out == ""


class TestParsing:
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
