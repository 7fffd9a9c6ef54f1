"""The README's quick starts and research runs run as written."""

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


def _cli_lines(heading: str) -> list:
    """The ridgeless calls of the section's sh block; one in a `for seed in A B ...` loop
    runs at the loop's first seed."""
    calls, seed = [], ""
    for line in _block(heading, "sh").replace("\\\n", " ").splitlines():
        line = line.strip()
        if line.startswith("for seed in "):
            seed = line.split()[3].rstrip(";")
        elif line.startswith("ridgeless "):
            calls.append(shlex.split(line.replace("$seed", seed)))
    return calls


@pytest.mark.parametrize("argv", _cli_lines("Quick start (CLI)"), ids=lambda argv: argv[1])
def test_cli_quick_start_exits_0(argv, capsys):
    assert main(argv[1:]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", _cli_lines("Research runs"), ids=lambda argv: argv[1])
def test_research_runs_exit_0(argv, capsys):
    assert main(argv[1:]) == 0
    assert capsys.readouterr().err == ""
