"""The README's "Python API" example runs and prints what it says it prints."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_block_prints_its_comments():
    text = README.read_text()
    section = text[text.index("## Python API"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    classical, quantum = out.getvalue().split()
    assert classical == "8.0"                        # exact enumeration
    assert float(quantum) == pytest.approx(16.0, rel=1e-12, abs=0)
