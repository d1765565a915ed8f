"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def first_python_block():
    text = README.read_text()
    match = re.search(r"```python\n(.*?)```", text, re.DOTALL)
    assert match, "README has no python block"
    return match.group(1)


def commented_outputs(code):
    """Expected output lines: a print's trailing comment, or a comment line after it."""
    expected = []
    for line in code.splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            expected.append(stripped[1:].strip())
        elif stripped.startswith("print(") and "#" in stripped:
            expected.append(stripped.split("#", 1)[1].strip())
    return expected


def test_quick_start_outputs():
    code = first_python_block()
    expected = commented_outputs(code)
    assert expected == ["regular", "1", "[(0,), (1,), (2,), (3,)]"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines()[: len(expected)] == expected
