"""The public examples keep running: every demo and every README command line."""

import io
import re
import runpy
import shlex
from pathlib import Path

import pytest

from frieze_lab.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_commands():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\s+```sh\n(.*?)```", text, re.S).group(1)
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [line for line in lines if line.startswith("frieze-lab")]


def run_cli(capsys, monkeypatch, command, stdin=None):
    argv = shlex.split(command)
    assert argv[0] == "frieze-lab"
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv[1:])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_lists_commands():
    assert len(readme_commands()) >= 10


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_runs(line, capsys, monkeypatch):
    out = None
    for command in line.split("|"):
        code, out = run_cli(capsys, monkeypatch, command, stdin=out)
        assert code == 0, (command, out)
        assert out.strip()
