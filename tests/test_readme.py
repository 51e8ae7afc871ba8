"""The README's library-usage example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    assert len(blocks) == 1, "expected one python block in README.md"
    return blocks[0]


def _expected_lines(block):
    """Each print's comment: inline after the call, or the comment line
    that follows it."""
    lines = block.splitlines()
    expected = []
    for k, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        inline = re.match(r"print\(.*\)\s+# (.*)$", line)
        if inline:
            expected.append(inline.group(1))
        else:
            following = lines[k + 1]
            assert following.startswith("# "), f"no output comment for {line!r}"
            expected.append(following[2:])
    return expected


def test_readme_example_prints_its_comments():
    block = _python_block()
    expected = _expected_lines(block)
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
