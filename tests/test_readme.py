"""The README's library example runs as written and prints the line its
comment shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    shown = re.search(r"print\(.*\)\s*# (.*)", block).group(1)
    assert out.getvalue() == shown + "\n"
