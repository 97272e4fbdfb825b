"""The README's Python quick start runs and gives the values its
comments print, its axioms suite lines are printed verbatim, and README
names every top-level export and no private name."""

import re
import types
from pathlib import Path

import beliefpool
from beliefpool import BeliefPoolError, bn_to_joint, marginal
from beliefpool.axioms import run_axioms_suite

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_values():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    consensus = namespace["consensus"]
    assert consensus.bn.dag().parents == ((1,), ())
    assert consensus.agent_queries == 6
    assert round(marginal(bn_to_joint(consensus.bn), {1: True}), 6) == 0.591687


def test_every_export_is_documented():
    """The top level holds what README documents, the types those names
    take or return, and the error classes; nothing only tests use."""
    text = README.read_text()
    undocumented = [
        name
        for name, value in vars(beliefpool).items()
        if not name.startswith("_")
        and not isinstance(value, types.ModuleType)
        and not (isinstance(value, type) and issubclass(value, BeliefPoolError))
        and not re.search(rf"\b{name}\b", text)
    ]
    assert undocumented == []


def test_axioms_suite_lines():
    """Every property= and negative-control line of README's axioms
    session is a line that run_axioms_suite(7, 40) prints, verbatim."""
    session = re.search(
        r"^\$ beliefpool check --suite axioms --seed 7 --trials 40\n(.*?)^```",
        README.read_text(), re.S | re.M,
    )
    documented = [
        line for line in session.group(1).splitlines()
        if line.startswith(("property=", "negative-control"))
    ]
    assert len(documented) == 5
    lines, ok = run_axioms_suite(7, 40)
    assert ok
    assert [line for line in documented if line not in lines] == []


def test_no_private_name():
    """README documents the public surface: no backticked `name` or
    `module.name` whose last part starts with an underscore and a letter.
    The internals live in the module docstrings."""
    names = re.findall(r"`([A-Za-z0-9_.]+)`", README.read_text())
    assert [n for n in names if re.match(r"_[A-Za-z]", n.split(".")[-1])] == []
