"""tools/record.py: the layers record runs at tiny sizes and keeps its
schema, and the schema check rejects a malformed record."""

import importlib.util
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


def test_schema_errors_name_each_fault():
    data = record.layers_record(1, record.TINY, 1)
    assert record.schema_errors(data) == []
    data["layers"]["linop_query"] = {"best_s": 2.0, "median_s": 1.0}
    del data["host"]["numpy"]
    data["axioms_trials"] = 0
    data["layers"]["structure_shared_m1000"]["work"]["cpt_rows"] = -1
    data["layers"]["load_m30"]["work"] = {"cpt_rows": 1}
    assert record.schema_errors(data) == [
        "host lacks numpy",
        "axioms_trials must be a positive integer",
        "load_m30: work is ['cpt_rows'], not []",
        "linop_query: need 0 < best_s <= median_s, got {'best_s': 2.0, 'median_s': 1.0}",
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
