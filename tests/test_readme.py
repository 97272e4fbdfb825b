"""The README's Python quick start runs and gives the values its
comments print."""

import re
from pathlib import Path

from beliefpool import bn_to_joint, marginal

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
