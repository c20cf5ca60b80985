"""Every ``veronese ...`` line of the README's CLI block runs cleanly."""

import io
import re
import shlex
from pathlib import Path

import pytest

from veronese.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_examples():
    """(argv, stdin) per command of the ``sh`` block under ``## CLI``,
    with backslash continuations joined and ``echo ... |`` as stdin."""
    block = re.search(r"^## CLI$.*?```sh\n(.*?)```", README.read_text(),
                      re.S | re.M).group(1)
    examples = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if not words:
            continue
        stdin = ""
        if "|" in words:
            pipe = words.index("|")
            assert words[0] == "echo"
            stdin = " ".join(words[1:pipe]) + "\n"
            words = words[pipe + 1:]
        assert words[0] == "veronese"
        examples.append((words[1:], stdin))
    return examples


EXAMPLES = _cli_examples()


def test_every_command_has_an_example():
    assert {argv[0] for argv, _ in EXAMPLES} == {
        "facets", "decompose", "chart", "count", "classify", "vertices",
        "chart-order", "enumerate", "certify",
    }


@pytest.mark.parametrize("argv, stdin", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example_runs(capsys, monkeypatch, argv, stdin):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(argv) == 0
    assert capsys.readouterr().out.strip()
