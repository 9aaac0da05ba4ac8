"""Every example in README's "Command line" block prints what it shows.

Each ``$ ord ...`` line is run through ``cli.main`` in process, and its
stdout is compared with the lines below it, up to the next ``$`` line or
the end of the block.  A last expected line of ``...`` means the shown
lines are a prefix of the output.
"""

import shlex
from pathlib import Path

import pytest

from ordlib.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            argv = shlex.split(line[2:])
            assert argv[0] == "ord", line
            examples.append((argv[1:], []))
        else:
            examples[-1][1].append(line)
    return examples


EXAMPLES = _examples()


@pytest.mark.parametrize("argv,expected", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example(capsys, argv, expected):
    main(list(argv))
    out = capsys.readouterr().out.splitlines()
    if expected and expected[-1] == "...":
        shown = expected[:-1]
        assert out[:len(shown)] == shown
        assert len(out) > len(shown)
    else:
        assert out == expected
