"""The README's examples run, and print what their comments say."""

import ast
import re
import shlex
from pathlib import Path

from slicescope.cli import main

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


# The one command-line example that reads a user's file, which the repo lacks.
USER_FILE_EXAMPLE = "scan --data my_f4.tsv --algebra F4"


def _command_line_examples() -> list[tuple[str, str | None]]:
    """Each slicescope command of the "Command line" section's sh blocks,
    with the output a "# -> " line under it gives, or None."""
    text = README.read_text()
    section = text[text.index("## Command line"):]
    section = section[:section.index("\n## ", 1)]
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.splitlines():
            if line.startswith("# -> ") and examples:
                examples[-1] = (examples[-1][0], line[len("# -> "):])
            elif m := re.match(r"(?:PYTHONPATH=\S+ python -m )?slicescope (.*)", line):
                examples.append((m.group(1), None))
    return examples


def test_readme_command_line_examples_exit_0_with_their_commented_output(capsys):
    examples = _command_line_examples()
    run = [(cmd, want) for cmd, want in examples if cmd != USER_FILE_EXAMPLE]
    assert len(run) == len(examples) - 1 == 10
    assert ("dual --family gl --partition 3,1,1", "gl(5|2) [proved]") in run
    for cmd, want in run:
        code = main(shlex.split(cmd))
        out = capsys.readouterr().out
        assert code == 0, cmd
        if want is not None:
            assert out == want + "\n", cmd
