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
    assert record.schema_errors(data) == [
        "host lacks numpy",
        "axioms_trials must be a positive integer",
        "linop_query: need 0 < best_s <= median_s, got {'best_s': 2.0, 'median_s': 1.0}",
    ]
