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
