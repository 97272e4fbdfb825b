"""tools/record.py: the layers record runs at tiny sizes and keeps its
schema, every layer with its calibration time, and the schema check
rejects a malformed record."""

import importlib.util
import inspect
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "record.py"
spec = importlib.util.spec_from_file_location("record", TOOL)
record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record)


def test_selftest_writes_a_record_of_the_schema(tmp_path, capsys):
    out = tmp_path / "BENCH_layers.json"
    assert record.main(["layers", "--selftest", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "ok\n"
    data = json.loads(out.read_text())
    assert record.schema_errors(data) == []
    assert tuple(data["layers"]) == record.LAYERS
    assert data["schema"] == "beliefpool-layers/4"
    assert all(layer["calibration_s"] > 0.0 for layer in data["layers"].values())


def test_schema_errors_name_each_fault():
    data = record.layers_record(1, record.TINY, 1)
    assert record.schema_errors(data) == []
    data["layers"]["linop_query"] = {"best_s": 2.0, "median_s": 1.0, "calibration_s": 1.0}
    data["layers"]["load_m120"]["calibration_s"] = 0.0
    del data["layers"]["axioms_suite"]["calibration_s"]
    del data["host"]["numpy"]
    data["axioms_trials"] = 0
    data["layers"]["structure_shared_m1000"]["work"]["cpt_rows"] = -1
    data["layers"]["load_m30"]["work"] = {"cpt_rows": 1}
    assert record.schema_errors(data) == [
        "host lacks numpy",
        "axioms_trials must be a positive integer",
        "load_m120: need calibration_s > 0, got 0.0",
        "load_m30: work is ['cpt_rows'], not []",
        "linop_query: need 0 < best_s <= median_s, got "
        "{'best_s': 2.0, 'median_s': 1.0, 'calibration_s': 1.0}",
        "axioms_suite: need calibration_s > 0, got None",
        "structure_shared_m1000: work counts must be nonnegative integers, got "
        "{'fill_edges': 9, 'max_family': 5, 'cpt_rows': -1}",
    ]


def test_structure_work_is_the_same_on_a_second_run():
    first = record.layers_record(1, record.TINY, 1)
    second = record.layers_record(1, record.TINY, 1)
    assert record.work_differences(first, second) == []
    assert first["layers"]["structure_shared_m1000"]["work"] == {
        "fill_edges": 9, "max_family": 5, "cpt_rows": 168,
    }
    second["layers"]["structure_shared_m1000"]["work"]["fill_edges"] = 10
    assert record.work_differences(first, second) == [
        "structure_shared_m1000: work {'fill_edges': 9, 'max_family': 5, 'cpt_rows': 168} "
        "then {'fill_edges': 10, 'max_family': 5, 'cpt_rows': 168}"
    ]


def test_structure_work_counts_fill_edges_over_the_moral_union():
    from beliefpool import Dag, consensus_bn_structure

    # A 4-cycle of two agents' edges: the union is the cycle, which
    # min-fill closes with one chord; 0 and 2 meet in a family of 3.
    dags = [Dag(4, ((), (0,), (1,), ())), Dag(4, ((), (), (3,), (0,)))]
    structure, _ = consensus_bn_structure(dags)
    assert record.structure_work(dags, structure) == {
        "fill_edges": 1, "max_family": 3, "cpt_rows": 1 + 2 + 4 + 4,
    }


def test_fill_layers_time_both_routes_on_one_consensus_structure():
    # Three agents on independently drawn structures: both routes build
    # the same consensus structure, and only the query route asks the
    # agents, once per agent and consensus row.
    layers = record.layers_record(1, record.TINY, 1)["layers"]
    query = layers["fill_query_unshared_m28"]["work"]
    factor = layers["fill_factor_unshared_m28"]["work"]
    assert query["cpt_rows"] == factor["cpt_rows"] > 8
    assert query["max_family"] == factor["max_family"] >= 2
    assert factor["agent_queries"] == 0
    assert query["agent_queries"] == 3 * query["cpt_rows"]


def test_calibration_task_needs_no_beliefpool():
    # The calibration task restates bench/run.py's Clock._task and, past
    # its docstring, names neither bench nor the package, so a change to
    # beliefpool cannot move it.
    code = inspect.getsource(record.calibration_task).split('"""')[-1]
    assert "beliefpool" not in code and "bench" not in code
    assert record.seconds(record.calibration_task()) > 0.0
