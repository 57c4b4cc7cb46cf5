"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    # later blocks use the names earlier ones define, so one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 3
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert namespace["report"].detected
    assert len(namespace["reports"]) == 8
