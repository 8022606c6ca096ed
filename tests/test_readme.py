"""The README's library example runs, and prints what its comments say."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_gives_its_commented_values():
    scope: dict = {}
    checked = {}
    lines = _library_block().splitlines()
    for line in lines:
        code, _, comment = line.partition("  # ")
        if comment:
            # An expression line: its value is the literal in the comment.
            expected = ast.literal_eval(comment.strip())
            assert eval(code, scope) == expected, line
            checked[code.strip()] = expected
        elif line.strip():
            exec(line, scope)
    for value in ("HypersphericalSpecial", (28, 28), "f(4)", (True, 4)):
        assert value in checked.values()
    assert "pt = verifier.slice_point(r, 0)" in lines
    assert checked["verifier.stabilizer_dim(pt)"] == 0
