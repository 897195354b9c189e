"""README's library examples run as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_examples_run_in_order_and_print_finite_rates(capsys):
    # the second block goes on from the first one's cfg and ch
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, flags=re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # each printed line leads with a secrecy rate
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert math.isfinite(float(line.split()[0]))
