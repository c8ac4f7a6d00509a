"""The README's command-line examples run as documented."""

import re
import shlex
from pathlib import Path

import pytest

from petersburg.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[tuple[str, int]]:
    """Each ``petersburg ...`` line of the Command line section's code block
    with the exit code its comment names (0 unless it says "exit code N")."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    commands, expected = [], 0
    for line in block.splitlines():
        if line.startswith("#"):
            code = re.search(r"exit code (\d)", line)
            expected = int(code.group(1)) if code else 0
        elif line.startswith("petersburg "):
            commands.append((line, expected))
    return commands


def test_readme_block_is_found():
    assert len(readme_commands()) >= 8


@pytest.mark.parametrize("line, expected", readme_commands(), ids=lambda v: str(v))
def test_readme_command(capsys, tmp_path, monkeypatch, line, expected):
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(line)[1:])
    err = capsys.readouterr().err
    assert code == expected, err
    if expected:
        assert err.startswith("error:")


def readme_python_blocks() -> list[str]:
    """The source of each ```python block of the README."""
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_are_found():
    assert len(readme_python_blocks()) >= 2


@pytest.mark.parametrize("source", [
    pytest.param(source, id=f"block{i}") for i, source in enumerate(readme_python_blocks(), 1)
])
def test_readme_python_block(capsys, source):
    """The block runs, and each ``print(...)  # value`` line prints its
    comment; a comment starting with "~" is the value rounded to the digits
    shown."""
    exec(compile(source, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.partition("#")[2].strip()
                for line in source.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments)
    for shown, comment in zip(printed, comments):
        if comment.startswith("~"):
            digits = len(comment.partition(".")[2])
            assert f"{float(shown):.{digits}f}" == comment[1:]
        else:
            assert shown == comment
