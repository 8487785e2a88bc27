"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    namespace = {}
    for block in blocks:
        # pad with newlines so that a traceback names the README's own line
        code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(code, str(README), "exec"), namespace)
