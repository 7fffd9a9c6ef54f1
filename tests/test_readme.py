"""The README's quick starts run as written."""

import os
import shlex
from pathlib import Path

import pytest

from ridgeless.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch, tmp_path):
    for key in list(os.environ):
        if key.startswith("RIDGELESS_"):
            monkeypatch.delenv(key)
    monkeypatch.chdir(tmp_path)  # the CLI lines write their --out files here


def _block(heading: str, lang: str) -> str:
    """The first ```lang block of the README section under `## heading`."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_python_quick_start_runs(capsys):
    exec(compile(_block("Quick start (Python)", "python"), str(README), "exec"), {})
    k_star, rho, regime = capsys.readouterr().out.splitlines()[0].split()
    assert (k_star, regime) == ("1", "HighSNR") and float(rho) > 0


def _cli_lines() -> list:
    lines = _block("Quick start (CLI)", "sh").replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("ridgeless ")]


@pytest.mark.parametrize("argv", _cli_lines(), ids=lambda argv: argv[1])
def test_cli_quick_start_exits_0(argv, capsys):
    assert main(argv[1:]) == 0
    assert capsys.readouterr().err == ""
