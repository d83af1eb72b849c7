"""The README's Python examples run, and print what their comments say.

Every ```python block of README.md runs in order, in one namespace, so a
later block may use a name an earlier one bound. Each line of the form
``print(expr)  # value`` must print ``value``.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
PRINTED = re.compile(r"^print\(.*\)\s+# (.*)$", re.MULTILINE)


def test_readme_python_blocks_print_their_comments():
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    assert blocks
    namespace: dict = {}
    expected, out = [], io.StringIO()
    for block in blocks:
        expected += [value.strip() for value in PRINTED.findall(block)]
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
    assert expected
    assert out.getvalue().splitlines() == expected
