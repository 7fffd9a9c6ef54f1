"""The README's quick starts and research runs run as written."""

import collections
import json
import math
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


def _ids(calls) -> list:
    """Each call's subcommand, numbered from a subcommand's second call on: simulate,
    then simulate-2."""
    seen = collections.Counter()
    ids = []
    for argv in calls:
        seen[argv[1]] += 1
        ids.append(argv[1] if seen[argv[1]] == 1 else f"{argv[1]}-{seen[argv[1]]}")
    return ids


QUICK_START = _cli_lines("Quick start (CLI)")
RESEARCH_RUNS = _cli_lines("Research runs")


@pytest.mark.parametrize("argv", QUICK_START, ids=_ids(QUICK_START))
def test_cli_quick_start_exits_0(argv, capsys):
    assert main(argv[1:]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", RESEARCH_RUNS, ids=_ids(RESEARCH_RUNS))
def test_research_runs_exit_0(argv, capsys):
    assert main(argv[1:]) == 0
    assert capsys.readouterr().err == ""


def test_research_runs_histogram_recipe(capsys):
    # the certificate study's call, then the python block on the files it wrote
    assert main(next(argv for argv in RESEARCH_RUNS if "cert" in argv)[1:]) == 0
    recipe = {}
    exec(compile(_block("Research runs", "python"), str(README), "exec"), recipe)
    run = json.loads(Path("cert.json").read_text(encoding="utf-8"))
    ratios = [r["sigma_min"] / math.sqrt(run["diagnostics"]["r_kstar"]) for r in run["records"]]
    assert recipe["counts"].sum() == run["config"]["trials"] == len(ratios)
    assert (recipe["edges"][0], recipe["edges"][-1]) == pytest.approx((min(ratios), max(ratios)))
    # the share of ratios at the certificate's gate of 1/4 or above is the run's pass rate
    passed = sum(ratio >= 0.25 for ratio in ratios) / len(ratios)
    assert run["rates"]["certificate_pass_rate"] == passed
