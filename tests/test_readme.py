"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from footprint_lab import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(text: str, lang: str) -> list[str]:
    """The bodies of the fenced code blocks tagged lang, in order."""
    return [body for tag, body in re.findall(r"^```(\w*)\n(.*?)^```", text,
                                             re.MULTILINE | re.DOTALL) if tag == lang]


def test_readme_commands_exit_0():
    commands = [shlex.split(line.split("#")[0])[1:]
                for body in _blocks(README, "sh") for line in body.splitlines()
                if line.startswith("footprint-lab ")]
    assert commands
    assert [argv for argv in commands if cli.main(argv) != 0] == []


def test_quick_tour_prints_its_comments(capsys):
    code = _blocks(README[README.index("## Quick tour"):], "python")[0]
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert expected == ["5", "(5, 'proven')", "(6, 8, 9, 11, 12, 13)"]
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == expected
