"""The README's examples run: the library quick start prints what its comments
say, the command-line block runs, and every flag it names exists."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from regpart import cli

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


def section(title):
    """The README text from the `## title` heading up to the next `## ` heading."""
    text = README.read_text()
    start = text.index(f"## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end != -1 else len(text)]


FLAG = re.compile(r"(?<![\w-])--[a-z][a-z-]*")


def help_text(capsys, *argv):
    with pytest.raises(SystemExit):
        cli.main([*argv, "--help"])
    return capsys.readouterr().out


def test_named_flags_exist(capsys):
    # every --flag the README names outside Install belongs to some subcommand
    text = README.read_text().replace(section("Install"), "")
    named = set(FLAG.findall(text))
    assert "--max-classes" in named
    commands = re.search(r"\{([\w,]+)\}", help_text(capsys)).group(1).split(",")
    accepted = {flag for c in commands for flag in FLAG.findall(help_text(capsys, c))}
    assert named <= accepted, sorted(named - accepted)


def command_line_block():
    match = re.search(r"```\n(regpart .*?)```", section("Command line"), re.DOTALL)
    assert match, "README's Command line section has no regpart block"
    return match.group(1).replace("\\\n", " ")


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = command_line_block().splitlines()
    commands = [shlex.split(line) for line in lines if line.strip()]
    assert [argv[:2] for argv in commands] == [
        ["regpart", "gen"],
        ["regpart", "gen"],
        ["regpart", "regularize"],
        ["regpart", "check"],
    ]
    for argv in commands:
        code = cli.main(argv[1:])
        err = capsys.readouterr().err
        assert code != 1, (argv, err)
