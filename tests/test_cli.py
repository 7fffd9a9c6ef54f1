"""Command-line interface: precedence, exit codes, file outputs."""

import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ridgeless
from conftest import HUGE_INT
from ridgeless import cli, serialize
from ridgeless.cli import main
from ridgeless.experiments import ALL_CHECKS
from ridgeless.serialize import format_float

pytestmark = pytest.mark.usefixtures("clean_env")

CHECK_NAMES = "certificate, estimation_bound, identity, lower_bound, or upper_bound"


@pytest.fixture
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("RIDGELESS_"):
            monkeypatch.delenv(key)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# usage and config errors (exit 1)


def test_unknown_flag(capsys):
    assert main(["diagnose", "--bogus"]) == 1


def test_missing_spectrum(capsys):
    assert main(["diagnose", "--n", "5"]) == 1
    assert "no spectrum given" in capsys.readouterr().err


def test_missing_n(capsys):
    assert main(["diagnose", "--flat", "10"]) == 1
    assert "--n" in capsys.readouterr().err


def test_bad_noise_spec(capsys):
    code = main(["simulate", "--flat", "10", "--n", "2", "--trials", "1", "--noise", "pink:1"])
    assert code == 1
    assert "unknown noise spec" in capsys.readouterr().err


def test_conflicting_spectrum_sources(capsys):
    code = main(["diagnose", "--flat", "10", "--exp-floor", "10", "2", "0.1", "--n", "2"])
    assert code == 1
    assert "exactly one spectrum source" in capsys.readouterr().err


def test_config_file_errors_are_exhaustive(tmp_path, capsys):
    path = tmp_path / "conf.json"
    path.write_text(
        json.dumps({"schema": 2, "bogus": 1, "extra": 2, "n": 3}), encoding="utf-8"
    )
    assert main(["diagnose", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "'schema' must be 1" in err
    assert "'bogus'" in err and "'extra'" in err  # every unknown key is listed


@pytest.mark.parametrize(
    "argv,files,message",
    [
        (["--config", "c.json"], {"c.json": {"schema": 1, "constants": {"c9": 1}}},
         "config constants: unknown constants keys: ['c9']"),
        (["--config", "c.json"], {"c.json": {"schema": 1, "constants": [1]}},
         "config constants: expected an object, got [1]"),
        (["--c-frac", "2"], {}, "constants: c_frac must be in (0, 1], got 2.0"),
        (["--snr-grid", "1:2"], {}, "--snr-grid takes LO:HI:N, got '1:2'"),
        (["--config", "c.json"], {"c.json": {"schema": 1, "checks": ["identity", "nope", "x"]}},
         f"config checks entries must be {CHECK_NAMES}, got 'nope'"),
        (["--config", "c2.json"], {"c2.json": [1]}, "config file c2.json: expected a JSON object"),
        (["--config", "missing.json"], {},
         "config file: [Errno 2] No such file or directory: 'missing.json'"),
    ],
    ids=["constants-key", "constants-list", "c_frac", "snr-grid", "check", "config-list",
         "config-missing"],
)
def test_config_and_flag_refusals(argv, files, message, tmp_path, monkeypatch, capsys):
    # each is the one error of a scan that would otherwise run
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        _write(tmp_path / name, json.dumps(data))
    scan = ["scan", "--flat", "20", "--n", "2", "--noise", "gaussian:1", "--trials", "2"]
    grid = [] if "--snr-grid" in argv else ["--snr-grid", "1:2:3"]
    assert main(scan + grid + argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_scan_zero_noise_rejected(capsys):
    code = main([
        "scan", "--flat", "50", "--n", "5", "--trials", "2",
        "--snr-grid", "0.1:10:2", "--noise", "zero",
    ])
    assert code == 1
    assert "SNR undefined for zero noise" in capsys.readouterr().err


def test_scan_requires_grid(capsys):
    assert main(["scan", "--flat", "50", "--n", "5"]) == 1
    assert "--snr-grid" in capsys.readouterr().err


def test_bad_format_from_env(monkeypatch, capsys):
    monkeypatch.setenv("RIDGELESS_FORMAT", "yaml")
    code = main(["spectrum", "--flat", "4", "--out", "/tmp/x"])
    assert code == 1
    assert "--format" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# degenerate mathematics (exit 2)


def test_diagnose_infinite_index_exits_2(capsys):
    # exp-floor at default c0=10, n=100: no rank satisfies the threshold
    code = main(["diagnose", "--exp-floor", "300", "20", "1e-4", "--n", "100"])
    assert code == 2
    captured = capsys.readouterr()
    assert "effective-rank index is infinite" in captured.err
    assert "k_star" in captured.out  # the partial report still prints


def test_scan_infinite_index_exits_2(capsys):
    code = main([
        "scan", "--exp-floor", "300", "20", "1e-4", "--n", "100",
        "--trials", "2", "--snr-grid", "0.1:10:2", "--noise", "gaussian:1",
    ])
    assert code == 2


def test_certificate_study_at_an_infinite_index_exits_0_and_skips(capsys):
    code = main(["simulate", "--exp-floor", "300", "20", "1e-4", "--n", "100", "--trials", "2",
                 "--noise", "zero"])
    assert code == 0
    out = capsys.readouterr().out
    assert "certificate_pass_rate -\n" in out
    assert "[SKIP] certificate: skipped: effective-rank index is infinite\n" in out


# ---------------------------------------------------------------------------
# interrupted (exit 130) and a closed stdout (exit 1)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_ctrl_c_exits_130_with_one_line(monkeypatch, capsys, threads):
    def interrupted(configs, trial_index):
        raise KeyboardInterrupt

    monkeypatch.setattr(ridgeless.experiments, "run_trial", interrupted)
    code = main(["simulate", "--flat", "50", "--n", "5", "--trials", "4", "--threads", threads,
                 "--beta-norm", "1", "--noise", "gaussian:1"])
    assert code == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")


def _child_env():
    """os.environ without RIDGELESS_ keys, with this package first on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RIDGELESS_")}
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(ridgeless.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [e for e in env.get("PYTHONPATH", "").split(os.pathsep) if e]
    )
    return env


def test_a_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # As `ridgeless scan ... | head -1` once the reader is gone: the pipe is
    # closed before the child writes anything.
    proc = subprocess.Popen(
        [sys.executable, "-m", "ridgeless", "scan", "--flat", "50", "--n", "5", "--trials", "2",
         "--snr-grid", "0.1:10:3", "--noise", "gaussian:1", "--threads", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(), cwd=tmp_path,
    )
    proc.stdout.close()
    try:
        err = proc.stderr.read()
    finally:
        proc.stderr.close()
        proc.wait(timeout=120)
    assert (proc.returncode, err) == (1, b"")


def test_the_cli_imports_no_executor_or_logging():
    code = ("import sys, ridgeless.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# ---------------------------------------------------------------------------
# BLAS threads: the entry starts OpenBLAS at one thread unless the user sized it,
# and no output depends on the BLAS thread count

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# `python -m ridgeless` with a stand-in cli.main that reports the BLAS variable and
# the thread count OpenBLAS started with
_ENTRY_PROBE = """
import os, runpy, sys, types
def main():
    from ridgeless.experiments import _openblas_thread_calls
    calls = _openblas_thread_calls()
    print(os.environ.get("OPENBLAS_NUM_THREADS"), calls and calls[0]())
    return 4
cli = types.ModuleType("ridgeless.cli")
cli.main = main
sys.modules["ridgeless.cli"] = cli
runpy.run_module("ridgeless", run_name="__main__", alter_sys=True)
"""


def _blas_env(**blas):
    """_child_env() with only the given BLAS thread variables set."""
    return {**{k: v for k, v in _child_env().items() if k not in _BLAS_VARS}, **blas}


@pytest.mark.parametrize("blas,variable", [
    ({}, "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ({"GOTO_NUM_THREADS": "2"}, "None"),
    ({"OMP_NUM_THREADS": "2"}, "None"),
], ids=["unset", "openblas", "goto", "omp"])
def test_the_entry_starts_openblas_at_one_thread_unless_sized(blas, variable):
    proc = subprocess.run([sys.executable, "-c", _ENTRY_PROBE], capture_output=True,
                          text=True, env=_blas_env(**blas), timeout=120)
    assert proc.returncode == 4, proc.stderr
    set_to, threads = proc.stdout.split()
    assert set_to == variable
    if not blas:
        assert threads in ("1", "None")  # None: numpy's BLAS is not OpenBLAS


def _run_bytes(argv, env, cwd):
    """Exit code, stdout, stderr and every file that `python -m ridgeless argv` writes in cwd."""
    cwd.mkdir()
    proc = subprocess.run([sys.executable, "-m", "ridgeless", *argv], capture_output=True,
                          env=env, cwd=cwd, timeout=120)
    files = {path.name: path.read_bytes() for path in sorted(cwd.iterdir())}
    return proc.returncode, proc.stdout, proc.stderr, files


@pytest.mark.parametrize("argv", [
    ["simulate", "--flat", "200", "--n", "5", "--trials", "20", "--noise", "gaussian:1",
     "--beta-norm", "1", "--seed", "5", "--out", "run", "--format", "both"],
    ["scan", "--flat", "300", "--n", "10", "--trials", "10", "--snr-grid", "0.1:10:4",
     "--noise", "gaussian:1", "--threads", "2", "--out", "sweep", "--format", "both"],
], ids=["simulate", "scan"])
def test_output_is_the_same_with_the_blas_variables_unset_and_at_two(argv, tmp_path):
    unset = _run_bytes(argv, _blas_env(), tmp_path / "unset")
    two = _run_bytes(argv, _blas_env(OPENBLAS_NUM_THREADS="2"), tmp_path / "two")
    assert unset[0] == 0 and unset[3], unset[2]
    assert unset == two


@pytest.mark.parametrize("argv", [
    ["simulate", "--flat", "100000", "--n", "5", "--beta-direction", "random",
     "--beta-norm", "1", "--trials", "3", "--noise", "gaussian:1", "--seed", "3",
     "--out", "B", "--format", "json"],
    ["scan", "--flat", "100000", "--n", "5", "--beta-direction", "random", "--trials", "2",
     "--snr-grid", "0.1:10:3", "--noise", "gaussian:1", "--seed", "3", "--out", "S"],
], ids=["simulate", "scan"])
def test_a_wide_random_beta_is_the_same_at_one_and_two_blas_threads(argv, tmp_path):
    # beta*'s direction and norm are dots over p = 10^5 entries, which OpenBLAS runs
    # threaded outside a trial loop; "beta_star_norm" once read 0.99999999999999989 at two
    one = _run_bytes(argv, _blas_env(OPENBLAS_NUM_THREADS="1"), tmp_path / "one")
    two = _run_bytes(argv, _blas_env(OPENBLAS_NUM_THREADS="2"), tmp_path / "two")
    assert one[0] == 0, one[2]
    assert one == two


# ---------------------------------------------------------------------------
# hard-check failure (exit 3)


def test_identity_failure_exits_3(monkeypatch, capsys):
    # rel_tol 0.9 truncates the fit so it no longer interpolates
    monkeypatch.setenv("RIDGELESS_REL_TOL", "0.9")
    code = main([
        "simulate", "--flat", "50", "--n", "5", "--trials", "3",
        "--beta-norm", "1", "--noise", "gaussian:1",
    ])
    assert code == 3
    assert "[FAIL] identity" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["simulate", "--beta-norm", "1"],
                                     ["scan", "--snr-grid", "0.1:10:3"]])
@pytest.mark.parametrize("identity", [True, False])
def test_identity_verdict_only_when_the_check_runs(command, identity, monkeypatch, capsys):
    # the failing fit above, in a run and in a scan: with the identity check disabled the
    # run makes no verdict, though simulate's aggregates still show the residual
    monkeypatch.setenv("RIDGELESS_REL_TOL", "0.9")
    if not identity:
        monkeypatch.setenv("RIDGELESS_CHECKS", "upper_bound certificate")
    code = main(command + ["--flat", "50", "--n", "5", "--trials", "3", "--noise", "gaussian:1"])
    out = capsys.readouterr().out
    assert code == (3 if identity else 0)
    assert ("[FAIL] identity" in out) == identity
    assert ("] identity:" in out) == identity
    if command[0] == "simulate":
        assert "\nidentity_residual  " in out


def test_identity_ok_exits_0(capsys):
    code = main([
        "simulate", "--flat", "50", "--n", "5", "--trials", "3",
        "--beta-norm", "1", "--noise", "gaussian:1",
    ])
    assert code == 0
    assert "[OK] identity" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# precedence: flags > environment > config file


def test_option_precedence(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(
        json.dumps({"schema": 1, "spectrum": {"type": "flat", "p": 1000}, "n": 10}),
        encoding="utf-8",
    )
    out = tmp_path / "a"

    assert main(["diagnose", "--config", str(conf), "-q", "--out", str(out)]) == 0
    assert read_json(str(out) + ".json")["n"] == 10  # file value

    monkeypatch.setenv("RIDGELESS_N", "20")
    assert main(["diagnose", "--config", str(conf), "-q", "--out", str(out)]) == 0
    assert read_json(str(out) + ".json")["n"] == 20  # env beats file

    assert main(
        ["diagnose", "--config", str(conf), "--n", "30", "-q", "--out", str(out)]
    ) == 0
    assert read_json(str(out) + ".json")["n"] == 30  # flag beats env


def test_spectrum_from_env_tokens(monkeypatch, tmp_path):
    monkeypatch.setenv("RIDGELESS_FLAT", "100")
    out = tmp_path / "d"
    assert main(["diagnose", "--n", "5", "-q", "--out", str(out)]) == 0
    assert read_json(str(out) + ".json")["p"] == 100


# ---------------------------------------------------------------------------
# diagnose output values


def test_diagnose_flat_report(tmp_path):
    out = tmp_path / "report"
    code = main([
        "diagnose", "--flat", "1000", "--n", "10",
        "--beta-norm", "1", "--xi-norm", "2", "-q", "--out", str(out),
    ])
    assert code == 0
    payload = read_json(str(out) + ".json")
    assert payload["schema"] == 1
    assert payload["spectrum"] == {"type": "flat", "p": 1000, "value": 1.0}
    assert payload["k_star"] == 1
    assert payload["r_kstar"] == 1000.0
    assert payload["rho"] == pytest.approx(1 + 8 / math.sqrt(1000), rel=1e-12)
    assert payload["r_star"] == pytest.approx(math.sqrt(2000), rel=1e-12)
    assert payload["k_bar"] == 751
    assert payload["snr"] == 0.25
    assert payload["snr_threshold"] == pytest.approx(1e-3, rel=1e-12)
    assert payload["regime"] == "HighSNR"
    assert payload["error"] is None


# ---------------------------------------------------------------------------
# simulate outputs


SIM_ARGS = [
    "simulate", "--flat", "50", "--n", "5", "--trials", "4",
    "--beta-norm", "1", "--noise", "gaussian:1", "--seed", "9", "-q",
]


def test_simulate_csv_header(tmp_path):
    out = tmp_path / "run"
    assert main(SIM_ARGS + ["--out", str(out), "--format", "csv"]) == 0
    first = (tmp_path / "run.csv").read_text(encoding="utf-8").splitlines()[0]
    assert first == (
        "trial_index,xi_norm_sq,pred_error,est_error,sigma_min,"
        "deviation,identity_residual,certificate_pass,est_bound_pass"
    )


def test_simulate_json_layout(tmp_path):
    out = tmp_path / "run"
    assert main(SIM_ARGS + ["--out", str(out)]) == 0
    payload = read_json(str(out) + ".json")
    assert set(payload) == {"config", "diagnostics", "aggregates", "rates", "skipped", "records"}
    assert len(payload["records"]) == 4
    assert payload["config"]["seed"] == 9
    assert "threads" not in payload["config"]


def test_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(SIM_ARGS + ["--out", str(a), "--format", "both"]) == 0
    assert main(SIM_ARGS + ["--out", str(b), "--format", "both"]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_simulate_threads_do_not_change_bytes(tmp_path):
    a, b = tmp_path / "t1", tmp_path / "t8"
    assert main(SIM_ARGS + ["--out", str(a), "--threads", "1", "--format", "both"]) == 0
    assert main(SIM_ARGS + ["--out", str(b), "--threads", "8", "--format", "both"]) == 0
    assert (tmp_path / "t1.json").read_bytes() == (tmp_path / "t8.json").read_bytes()
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t8.csv").read_bytes()


def test_simulate_worst_noise_skips_lower_bound(tmp_path, capsys):
    out = tmp_path / "w"
    code = main([
        "simulate", "--flat", "50", "--n", "5", "--trials", "3",
        "--beta-norm", "1", "--noise", "worst:1", "--out", str(out),
    ])
    assert code == 0  # a skipped check is not a failure
    payload = read_json(str(out) + ".json")
    assert "hypothesis violated" in payload["skipped"]["lower_bound"]
    assert "[SKIP] lower_bound" in capsys.readouterr().out


def test_simulate_suffix_stripped(tmp_path):
    out = tmp_path / "x.csv"
    assert main(SIM_ARGS + ["--out", str(out), "--format", "csv"]) == 0
    assert (tmp_path / "x.csv").exists()
    assert not (tmp_path / "x.csv.csv").exists()


# ---------------------------------------------------------------------------
# scan outputs


SCAN_ARGS = [
    "scan", "--flat", "50", "--n", "5", "--trials", "3",
    "--noise", "gaussian:1", "--snr-grid", "0.001:10:2", "-q",
]


def test_scan_brackets_threshold(tmp_path, capsys):
    out = tmp_path / "scan"
    code = main(SCAN_ARGS[:-1] + ["--out", str(out), "--format", "both"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "regime switches: 1" in captured

    payload = read_json(str(out) + ".json")
    assert list(payload) == ["config", "snr_grid", "points"]
    for point in payload["points"]:  # ScanPoint's order, then its run's
        assert list(point) == [
            "snr_target", "beta_norm", "regime", "snr_threshold", "snr_threshold_cn",
            "diagnostics", "aggregates", "rates", "skipped",
        ]
    assert [pt["regime"] for pt in payload["points"]] == ["LowSNR", "HighSNR"]
    assert payload["points"][0]["snr_threshold"] == pytest.approx(0.02, rel=1e-12)

    plot_lines = (tmp_path / "scan.plot.csv").read_text(encoding="utf-8").splitlines()
    assert plot_lines[0] == (
        "snr,regime,median_pred,q05_pred,q95_pred,upper_bound,lower_bound,"
        "corollary_upper,corollary_lower,snr_threshold,snr_threshold_cn"
    )
    assert len(plot_lines) == 3

    record_lines = (tmp_path / "scan.csv").read_text(encoding="utf-8").splitlines()
    assert record_lines[0].startswith("snr,regime,trial_index")
    assert len(record_lines) == 1 + 2 * 3  # two grid points, three trials each
    row = record_lines[1].split(",")  # the point's snr and regime, then the record's fields
    assert row[0] == format_float(payload["snr_grid"][0]) and row[1:3] == ["LowSNR", "0"]
    assert len(row) == len(record_lines[0].split(","))


def test_scan_deterministic_across_threads(tmp_path):
    a, b = tmp_path / "s1", tmp_path / "s8"
    assert main(SCAN_ARGS + ["--out", str(a), "--threads", "1", "--format", "both"]) == 0
    assert main(SCAN_ARGS + ["--out", str(b), "--threads", "8", "--format", "both"]) == 0
    for suffix in (".json", ".csv", ".plot.csv"):
        assert (str(a) + suffix) != (str(b) + suffix)
        with open(str(a) + suffix, "rb") as fa, open(str(b) + suffix, "rb") as fb:
            assert fa.read() == fb.read()


# ---------------------------------------------------------------------------
# the certificate study is simulate --noise zero; certify is no subcommand


def test_certify_is_not_a_subcommand(capsys):
    assert main(["certify", "--flat", "50", "--n", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ridgeless [-h] {diagnose,simulate,scan,spectrum} ...\n")
    assert "error: argument subcommand: invalid choice: 'certify'" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# spectrum subcommand


def test_spectrum_export_reload(tmp_path, capsys):
    out = tmp_path / "spec"
    code = main([
        "spectrum", "--exp-floor", "5", "2", "0.1", "--out", str(out), "--format", "both",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "p 5" in text
    original = read_json(str(out) + ".json")["values"]

    out2 = tmp_path / "spec2"
    code = main([
        "spectrum", "--spectrum-file", str(out) + ".csv",
        "-q", "--out", str(out2), "--format", "json",
    ])
    assert code == 0
    assert read_json(str(out2) + ".json")["values"] == original


def test_zero_led_integer_token_is_read_by_its_value(tmp_path, capsys):
    # int() counts leading zeros against its 4300-digit limit; the token is still 12
    assert main(["spectrum", "--flat", "0" * 5000 + "12", "--out", str(tmp_path / "a")]) == 0
    assert main(["spectrum", "--flat", "12", "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


# ---------------------------------------------------------------------------
# every spectrum kind and noise short form: flag, environment and config
# file forms give the same echo


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _spectrum_forms(kind, tmp_path):
    """(flag argv, environment, config spectrum objects) for one spectrum."""
    if kind == "flat":
        return ["--flat", "100", "2.5"], {"RIDGELESS_FLAT": "100 2.5"}, [
            {"type": "flat", "p": 100, "value": 2.5}
        ]
    if kind == "exp_floor":
        return ["--exp-floor", "200", "5", "0.1"], {"RIDGELESS_EXP_FLOOR": "200 5 0.1"}, [
            {"type": "exp_floor", "p": 200, "tau": 5, "eps": 0.1}
        ]
    if kind == "three_level":
        return (
            ["--three-level", "3", "4", "50", "0.5", "0.1"],
            {"RIDGELESS_THREE_LEVEL": "3 4 50 0.5 0.1"},
            [{"type": "three_level", "k1": 3, "c_times_n": 4, "p": 50, "eps1": 0.5, "eps2": 0.1}],
        )
    values = [4.0, 2.0, 1.0, 1.0, 0.5, 0.25]
    path = _write(tmp_path / "eig.txt", "# unsorted on purpose\n1.0, 4.0\n0.25\n2.0 1.0\n0.5\n")
    return ["--spectrum-file", path], {"RIDGELESS_SPECTRUM_FILE": path}, [
        {"type": "values", "file": path},
        {"type": "values", "values": values},
    ]


@pytest.mark.parametrize("kind", ["flat", "exp_floor", "three_level", "values"])
def test_spectrum_sources_agree(kind, tmp_path, monkeypatch):
    flag_args, env, configs = _spectrum_forms(kind, tmp_path)
    base = ["diagnose", "--n", "2", "--c0", "1", "--beta-norm", "1", "--xi-norm", "1", "-q"]
    echoes = []

    out = tmp_path / "flag"
    assert main(base + flag_args + ["--out", str(out)]) == 0
    echoes.append(read_json(str(out) + ".json")["spectrum"])

    for i, spec in enumerate(configs):
        conf = _write(tmp_path / f"conf{i}.json", json.dumps({"schema": 1, "spectrum": spec}))
        out = tmp_path / f"conf{i}"
        assert main(base + ["--config", conf, "--out", str(out)]) == 0
        echoes.append(read_json(str(out) + ".json")["spectrum"])

    for key, value in env.items():
        monkeypatch.setenv(key, value)
    out = tmp_path / "env"
    assert main(base + ["--out", str(out)]) == 0
    echoes.append(read_json(str(out) + ".json")["spectrum"])

    # the last config form is the resolved echo itself, keys in echo order
    for echo in echoes:
        assert echo == configs[-1]
        assert list(echo) == list(configs[-1])


@pytest.mark.parametrize("reader", ["spectrum-file", "noise-file", "config-values", "config"])
def test_a_byte_order_mark_changes_no_byte(reader, tmp_path, capsys):
    """Every input file reads the same with a UTF-8 byte-order mark as without."""
    results = []
    for bom in ("", "\ufeff"):
        folder = tmp_path / ("bom" if bom else "plain")
        folder.mkdir()
        marked = {reader: bom}.get
        eig = _write(folder / "eig.txt", marked("spectrum-file", "") + "3\n2, 1\n0.5\n0.25\n")
        values = _write(folder / "values.txt", marked("config-values", "") + "4 2 1 0.5\n")
        xi = _write(folder / "xi.txt", marked("noise-file", "") + "0.5 -0.25\n1.0\n")
        conf = {"schema": 1, "n": 3, "beta_norm": 1, "trials": 2,
                "spectrum": {"type": "values", "values": values}}
        conf = _write(folder / "conf.json", marked("config", "") + json.dumps(conf))
        out = str(folder / "out")
        argv = {
            "spectrum-file": ["diagnose", "--spectrum-file", eig, "--n", "2", "--c0", "1",
                              "--xi-norm", "1"],
            "noise-file": ["simulate", "--flat", "20", "--n", "3", "--trials", "2",
                           "--noise", f"file:{xi}"],
        }.get(reader, ["simulate", "--config", conf])
        assert main(argv + ["--beta-norm", "1", "--out", out, "--format", "both"]) == 0
        std = capsys.readouterr()
        results.append((std.out, std.err.replace(str(folder), "DIR"),
                        [(folder / f"out{s}").read_bytes() for s in (".json", ".csv")]))
    assert results[0] == results[1]


_NOISE_FORMS = [
    ("zero", {"type": "zero"}),
    ("gaussian:2", {"type": "gaussian", "sigma": 2}),
    ("student:3:1.5", {"type": "student", "df": 3, "scale": 1.5}),
    ("worst:1", {"type": "scaled_direction", "target_norm": 1, "direction": "worst_singular"}),
    ("file:{xi}", {"type": "deterministic", "values": "{xi}"}),
]


@pytest.mark.parametrize("text,spec", _NOISE_FORMS, ids=[t.split(":")[0] for t, _ in _NOISE_FORMS])
def test_noise_short_forms_match_config(text, spec, tmp_path):
    xi = _write(tmp_path / "xi.txt", "0.5 -0.25\n1.0\n")
    text = text.format(xi=xi)
    spec = {k: v.format(xi=xi) if isinstance(v, str) else v for k, v in spec.items()}
    base = ["simulate", "--flat", "20", "--n", "3", "--trials", "2", "--beta-norm", "1", "-q"]

    out_flag, out_conf = tmp_path / "flag", tmp_path / "conf"
    assert main(base + ["--noise", text, "--out", str(out_flag)]) == 0
    conf = _write(tmp_path / "conf.json", json.dumps({"schema": 1, "noise": spec}))
    assert main(base + ["--config", conf, "--out", str(out_conf)]) == 0

    echo = read_json(str(out_flag) + ".json")["config"]["noise"]
    assert echo == read_json(str(out_conf) + ".json")["config"]["noise"]
    assert echo["type"] == spec["type"]


# ---------------------------------------------------------------------------
# bad values fail fast: exit 1 with a single message


def _one_error(capsys, *needles):
    err = capsys.readouterr().err
    assert err.count("error:") == 1, err
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err, err


@pytest.mark.parametrize(
    "args,needle",
    [
        (["--noise", "worst:nan"], "target_norm"),
        (["--noise", "worst:inf"], "target_norm"),
        (["--beta-norm", "nan"], "beta_norm"),
        (["--beta-norm", "inf"], "beta_norm"),
        (["--threads", "0"], "--threads"),
        (["--threads", "-5"], "--threads"),
    ],
)
def test_simulate_rejects_bad_values(args, needle, capsys):
    base = ["simulate", "--flat", "20", "--n", "3", "--trials", "2", "--beta-norm", "1"]
    assert main(base + args) == 1
    _one_error(capsys, needle)


def test_scan_rejects_zero_threads(capsys):
    assert main(SCAN_ARGS + ["--threads", "0"]) == 1
    _one_error(capsys, "--threads")


def test_non_finite_beta_values_file_rejected(tmp_path, capsys):
    beta = _write(tmp_path / "beta.txt", "1.0\n" + "nan\n" + "0\n" * 18)
    conf = _write(
        tmp_path / "conf.json",
        json.dumps({"schema": 1, "spectrum": {"type": "flat", "p": 20}, "n": 3,
                    "beta_values": beta}),
    )
    assert main(["simulate", "--config", conf, "--trials", "2"]) == 1
    _one_error(capsys, "beta_values must be finite")


@pytest.mark.parametrize("flag", ["--beta-norm", "--xi-norm"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_diagnose_rejects_non_finite_norms(flag, value, capsys):
    assert main(["diagnose", "--flat", "100", "--n", "5", flag, value]) == 1
    _one_error(capsys, "norm must be a non-negative finite number")


def _no_design_drawn(monkeypatch) -> list:
    import ridgeless.experiments as experiments

    drawn = []
    monkeypatch.setattr(experiments, "sample_design", lambda *a: drawn.append(a))
    return drawn


def test_simulate_refuses_a_bad_seed_before_any_design(monkeypatch, capsys):
    # once "error: trial 0 failed: seed must be ...", from inside the trial loop
    drawn = _no_design_drawn(monkeypatch)
    assert main(["simulate", "--flat", "50", "--n", "5", "--trials", "3", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be an unsigned 64-bit integer, got -1\n"
    assert drawn == []


def test_simulate_refuses_a_covariance_of_too_low_rank_before_any_design(
        tmp_path, monkeypatch, capsys):
    # once "error: trial 0 failed: covariance rank 3 ...", after drawing the first design
    drawn = _no_design_drawn(monkeypatch)
    path = _write(tmp_path / "z.txt", "1\n1\n1\n0\n0\n0\n0\n0\n")
    argv = ["simulate", "--spectrum-file", path, "--n", "5", "--c0", "0.01", "--noise", "zero"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: covariance rank 3 is below the sample count n=5\n"
    assert drawn == []


@pytest.mark.parametrize("cmd", ["diagnose", "simulate"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_n_beyond_a_float_is_refused_by_name(cmd, source, tmp_path, monkeypatch, capsys):
    # once "error: int too large to convert to float", which named nothing
    drawn = _no_design_drawn(monkeypatch)
    n = 10**400
    if source == "flag":
        argv = [cmd, "--flat", "5", "--n", str(n)]
    else:
        argv = [cmd, "--flat", "5", "--config",
                _write(tmp_path / "conf.json", json.dumps({"schema": 1, "n": n}))]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: n must be at most {sys.float_info.max!r}, got {HUGE_INT}\n")
    assert drawn == []


def test_missing_input_files_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "absent.txt")
    assert main(["diagnose", "--spectrum-file", missing, "--n", "5"]) == 1
    _one_error(capsys, "absent.txt")
    conf = _write(tmp_path / "conf.json", json.dumps({"schema": 1, "noise": {
        "type": "deterministic", "values": missing}}))
    assert main(["simulate", "--flat", "20", "--n", "3", "--config", conf]) == 1
    _one_error(capsys, "absent.txt")


@pytest.mark.parametrize(
    "conf,message",
    [
        ({"spectrum": {"type": "flat", "p": 5.7}}, "config spectrum p: expected an integer, got 5.7"),
        ({"spectrum": {"type": "flat", "p": True}}, "config spectrum p: expected an integer, got True"),
        ({"seed": True}, "config seed: expected an integer, got True"),
        ({"trials": True}, "config trials: expected an integer, got True"),
        ({"constants": {"c0": True}}, "config constants c0: expected a number, got True"),
        ({"beta_norm": "1"}, "config beta_norm: expected a number, got '1'"),
        ({"noise": {"type": "gaussian", "sigma": True}},
         "config noise: sigma: expected a number, got True"),
        ({"noise": {"type": "gaussian", "sigma": "2"}},
         "config noise: sigma: expected a number, got '2'"),
        ({"noise": {"type": "scaled_direction", "target_norm": 1, "direction": 5}},
         "config noise: direction: expected a string, got 5"),
        ({"schema": True}, "'schema' must be 1, got True"),  # True == 1, but no schema number
        # arrays: a list of numbers, never a string or a bool; the first bad entry is named
        ({"spectrum": {"type": "values", "values": ["3", "2", "1"]}},
         "config spectrum values[0]: expected a number, got '3'"),
        ({"spectrum": {"type": "flat", "p": 4}, "beta_values": ["1", "0", "0", "0"]},
         "config beta_values[0]: expected a number, got '1'"),
        ({"noise": {"type": "deterministic", "values": [True, "2"]}},
         "config noise: values[0]: expected a number, got True"),
        ({"spectrum": {"type": "flat", "p": 4}, "beta_values": [[1, 0, 0, 0]]},
         "config beta_values[0]: expected a number, got a list"),
        ({"spectrum": {"type": "flat", "p": 3}, "beta_values": [1, 0.5, "x"]},
         "config beta_values[2]: expected a number, got 'x'"),
        ({"beta_values": {"values": [1]}},
         "config beta_values: expected a list of numbers, got an object"),
        # integers beyond a float are named, never written out, and the other errors
        # still reported
        ({"beta_norm": 10**400, "seed": "x"},
         [f"config beta_norm: expected a number, got {HUGE_INT}\n",
          "config seed: expected an integer, got 'x'"]),
        ({"spectrum": {"type": "flat", "p": 20, "value": 10**400}},
         f"config spectrum value: expected a number, got {HUGE_INT}\n"),
        ({"constants": {"c0": -10**400}},
         f"config constants c0: expected a number, got {HUGE_INT}\n"),
        ({"noise": {"type": "student", "df": 10**400, "scale": 1}},
         f"config noise: df: expected a number, got {HUGE_INT}\n"),
        ({"spectrum": {"type": "flat", "p": 3}, "beta_values": [1, 10**400, 0]},
         f"config beta_values[1]: expected a number, got {HUGE_INT}\n"),
        ('"seed": 1' + "0" * 5000, "invalid JSON (Exceeds the limit (4300 digits)"),
    ],
    ids=["p-float", "p-bool", "seed-bool", "trials-bool", "c0-bool", "beta_norm-str",
         "sigma-bool", "sigma-str", "direction-int", "schema-bool", "values-str",
         "beta_values-str", "noise-values-bool-str", "beta_values-nested", "beta_values-third",
         "beta_values-object", "beta_norm-huge-and-seed", "value-huge", "c0-huge", "df-huge",
         "beta_values-huge", "int-5000-digits"],
)
def test_config_values_are_checked_not_coerced(conf, message, tmp_path, monkeypatch, capsys):
    # each bad value is one line that names it, before any trial and with no file written
    import ridgeless.experiments as experiments

    drawn = []
    monkeypatch.setattr(experiments, "sample_design", lambda *a: drawn.append(a))
    base = '"schema": 1, "spectrum": {"type": "flat", "p": 20}, "n": 3, "trials": 2'
    text = "{%s, %s}" % (base, conf) if isinstance(conf, str) else json.dumps(
        {**json.loads("{%s}" % base), **conf})
    path = _write(tmp_path / "conf.json", text)
    assert main(["simulate", "--config", path, "-q", "--out", str(tmp_path / "run")]) == 1
    messages = [message] if isinstance(message, str) else message
    err = capsys.readouterr().err
    assert err.count("error:") == len(messages) == len(err.splitlines()), err
    assert "Traceback" not in err
    for line in messages:
        assert line in err, err
    assert drawn == [] and sorted(tmp_path.iterdir()) == [tmp_path / "conf.json"]


@pytest.mark.parametrize(
    "argv,conf,message",
    [
        ([], {"beta_values": ""}, "config beta_values: empty path"),
        ([], {"noise": {"type": "deterministic", "values": ""}},
         "config noise: values: empty path"),
        ([], {"spectrum": {"type": "values", "file": ""}}, "config spectrum file: empty path"),
        (["--spectrum-file", ""], {}, "--spectrum-file PATH: empty path"),
    ],
    ids=["beta_values", "noise-values", "spectrum-file-config", "spectrum-file-flag"],
)
def test_empty_paths_are_refused_by_key(argv, conf, message, tmp_path, monkeypatch, capsys):
    # refused before any file is read: the empty path would read the working directory
    from pathlib import Path

    opened = []
    monkeypatch.setattr(Path, "read_text", lambda self, **kw: opened.append(self))
    path = _write(tmp_path / "conf.json", json.dumps(
        {"schema": 1, "spectrum": {"type": "flat", "p": 20}, "n": 3, "trials": 2, **conf}))
    assert main(["simulate", "--config", path, *argv, "-q"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert opened == []


@pytest.mark.parametrize(
    "argv,env,message",
    [
        (["--out", ""], {}, "--out: empty path"),
        ([], {"RIDGELESS_OUT": ""}, "environment RIDGELESS_OUT: empty path"),
        (["--config", ""], {}, "--config: empty path"),
        ([], {"RIDGELESS_CONFIG": ""}, "environment RIDGELESS_CONFIG: empty path"),
    ],
    ids=["out-flag", "out-env", "config-flag", "config-env"],
)
def test_empty_out_and_config_are_refused_by_key(argv, env, message, tmp_path, monkeypatch,
                                                 capsys):
    # an empty --out once wrote nothing and exited 0; an empty --config was ignored
    import ridgeless.experiments as experiments

    drawn = []
    monkeypatch.setattr(experiments, "sample_design", lambda *a: drawn.append(a))
    monkeypatch.chdir(tmp_path)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert main(SIM_ARGS + argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert drawn == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,out",
    [
        (["scan", "--flat", "200", "--n", "5", "--trials", "2", "--noise", "gaussian:1",
          "--snr-grid", "0.1:10:2", "--format", "both"], ".csv"),
        (["spectrum", "--flat", "3"], "sub/"),
        (["diagnose", "--flat", "100", "--n", "5"], "sub/.json"),
        (["simulate", "--flat", "50", "--n", "5", "--trials", "2"], "."),
        (["simulate", "--flat", "50", "--n", "5", "--trials", "2", "--noise", "zero"], "sub/.."),
    ],
    ids=["scan-suffix-only", "spectrum-directory", "diagnose-dir-suffix", "simulate-dot",
         "simulate-dotdot"],
)
def test_out_that_names_no_file_is_refused(argv, out, tmp_path, monkeypatch, capsys):
    # BASE would be empty, "." or "..": scan once wrote hidden .csv, .json and .plot.csv files
    import ridgeless.experiments as experiments

    drawn = []
    monkeypatch.setattr(experiments, "sample_design", lambda *a: drawn.append(a))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert main(argv + ["-q", "--out", out]) == 1
    assert capsys.readouterr().err == f"error: --out: {out!r} names no file\n"
    assert drawn == [] and [p.name for p in tmp_path.rglob("*")] == ["sub"]


def _array_conf(path: str) -> str:
    return json.dumps({"schema": 1, "spectrum": {"type": "flat", "p": 3}, "n": 2, "trials": 1,
                       "beta_values": path})


@pytest.mark.parametrize(
    "argv,env,files,message",
    [
        (["diagnose", "--flat", "10", "2", "3", "--n", "2"], {}, {}, "--flat takes P [V]"),
        (["diagnose", "--n", "2"], {"RIDGELESS_EXP_FLOOR": "300 20"}, {},
         "--exp-floor takes P TAU EPS"),
        (["simulate", "--config", "conf.json"], {}, {"conf.json": _array_conf("nope.txt")},
         "config beta_values: [Errno 2] No such file or directory: 'nope.txt'"),
        (["simulate", "--config", "conf.json"], {},
         {"conf.json": _array_conf("beta.txt"), "beta.txt": "1 2 x\n"},
         "config beta_values: cannot parse vector entry 'x'"),
    ],
    ids=["flat-token-count", "exp-floor-env-token-count", "config-array-missing-file",
         "config-array-bad-entry"],
)
def test_token_counts_and_config_array_files_are_refused(argv, env, files, message, tmp_path,
                                                          monkeypatch, capsys):
    # a short form with too many or too few tokens, and a config array file that cannot be
    # read or parsed, are each the whole of stderr
    monkeypatch.chdir(tmp_path)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    for name, text in files.items():
        _write(tmp_path / name, text)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("count", [10**4 + 1, 10**23])
def test_snr_grid_count_is_capped_before_any_grid_or_config(count, monkeypatch, capsys):
    # N = 10^23 once failed in numpy with "Maximum allowed size exceeded", naming no option
    import ridgeless.cli as cli

    built = []
    geomspace = np.geomspace

    def grid(*args):
        built.append("grid")
        return geomspace(*args)

    def config(**kwargs):
        built.append("config")
        raise ValueError("config built")

    monkeypatch.setattr(cli.np, "geomspace", grid)
    monkeypatch.setattr(cli, "ExperimentConfig", config)
    argv = ["scan", "--flat", "200", "--n", "5", "--trials", "2", "--noise", "gaussian:1",
            "--snr-grid"]
    assert main(argv + [f"0.1:10:{count}"]) == 1
    assert capsys.readouterr().err == f"error: --snr-grid N must be at most 10000, got {count}\n"
    assert built == []
    assert main(argv + ["0.1:10:3"]) == 1  # the spies do see a grid and a config built
    assert capsys.readouterr().err == "error: config built\n"
    assert built == ["grid", "config"]


def test_null_means_absent_for_every_key(tmp_path):
    # null is the key's absence: its flag, environment variable or default applies
    base = {"schema": 1, "spectrum": {"type": "flat", "p": 20}, "trials": 3, "beta_norm": 1}
    nulls = dict.fromkeys(["noise", "checks", "beta_values", "seed", "n", "rel_tol",
                           "beta_direction"])
    for name, conf in (("plain", base), ("nulls", {**base, **nulls})):
        path = _write(tmp_path / f"{name}-conf.json", json.dumps(conf))
        assert main(["simulate", "--config", path, "--n", "3", "-q",
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "nulls.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    echo = read_json(str(tmp_path / "plain.json"))["config"]
    assert echo["noise"] == {"type": "zero"} and echo["checks"] == sorted(ALL_CHECKS)


NO_SPECTRUM = "no spectrum given: use --flat/--exp-floor/--three-level/--spectrum-file or a config file"


EVERY_ERROR = pytest.mark.parametrize(
    "argv,messages",
    [
        (["diagnose", "--n", "x", "--c0", "y"],
         ["--n: expected an integer, got 'x'", "--c0: expected a number, got 'y'", NO_SPECTRUM]),
        (["spectrum", "--flat", "x"], ["--flat P: expected an integer, got 'x'"]),
        # an integer token past int()'s 4300 digits is an integer, too large, not malformed
        (["spectrum", "--flat", "1" + "0" * 5000],
         ["--flat P must be within the float range, got an int beyond the float range"]),
        # leading zeros count for nothing: this one's value has 5001 digits
        (["spectrum", "--flat", "0" * 50 + "1" + "0" * 5000],
         ["--flat P must be within the float range, got an int beyond the float range"]),
        # a long malformed token is cut to 40 characters of its repr and its length
        (["spectrum", "--flat", "1" + "0" * 2500 + "x" + "0" * 2499],
         [f"--flat P: expected an integer, got '1{'0' * 38}… (length 5001)"]),
        (["simulate", "--flat", "10", "--n", "5", "--beta-direction", "up", "--trials", "x"],
         ["--beta-direction must be e1, random, or top, got 'up'",
          "--trials: expected an integer, got 'x'"]),
    ],
    ids=["diagnose", "spectrum", "spectrum-long-token", "spectrum-long-zero-led-token",
         "spectrum-long-malformed-token", "simulate"],
)


def _every_error(argv, messages, capsys):
    assert main(argv + ["--out", "/nonexistent/x"]) == 1
    err = capsys.readouterr().err
    messages = messages + [
        "--format must be json, csv, or both, got 'yaml'",
        "environment RIDGELESS_QUIET: expected 1 or 0, got 'yes'",
    ]
    assert err.count("error:") == len(messages), err
    for message in messages:
        assert f"error: {message}\n" in err
    assert "--out" not in err  # checked only once every option is valid


@EVERY_ERROR
def test_every_subcommand_reports_every_error(argv, messages, monkeypatch, capsys):
    monkeypatch.setenv("RIDGELESS_FORMAT", "yaml")
    monkeypatch.setenv("RIDGELESS_QUIET", "yes")
    _every_error(argv, messages, capsys)


@EVERY_ERROR
def test_every_subcommand_reports_every_error_with_a_bad_choice_flag(argv, messages,
                                                                    monkeypatch, capsys):
    # a choice given as a flag is checked with every other value, not by argparse alone
    monkeypatch.setenv("RIDGELESS_QUIET", "yes")
    _every_error(argv + ["--format", "yaml"], messages, capsys)


def test_quiet_from_env(monkeypatch, capsys):
    monkeypatch.setenv("RIDGELESS_QUIET", "1")
    assert main(["spectrum", "--flat", "4"]) == 0
    assert capsys.readouterr().out == ""
    monkeypatch.setenv("RIDGELESS_QUIET", "0")
    assert main(["spectrum", "--flat", "4"]) == 0
    assert "p 4" in capsys.readouterr().out


def test_simulate_output_follows_redirected_stdout(capsys):
    # the aggregates table is printed to sys.stdout as it is at the call
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([a for a in SIM_ARGS if a != "-q"]) == 0
    assert capsys.readouterr().out == ""
    text = buf.getvalue()
    assert "[OK] identity" in text and "pred_error" in text and "metric" in text


@pytest.mark.parametrize(
    "text", ["zero:1", "gaussian:", "gaussian:abc", "student:3", "student:3:", "worst:-1", "file:"]
)
def test_malformed_noise_short_forms(text, capsys):
    assert main(["simulate", "--flat", "20", "--n", "3", "--trials", "2", "--noise", text]) == 1
    _one_error(capsys, "noise")


def _limited_address_space():
    import resource

    limit = 4 << 30  # far below the 32 GiB that 2^32 trials ask for
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize(
    "argv,message",
    [
        (["simulate", "--flat", "50", "--n", "5", "--trials", "1000000000000"],
         "trials must be an integer in [1, 4294967296], got 1000000000000"),
        (["simulate", "--flat", "20", "--n", "3", "--trials", "4294967296", "-q"],
         "out of memory"),
    ],
    ids=["simulate-above-bound", "simulate"],
)
def test_trial_count_beyond_memory_exits_1(argv, message, tmp_path):
    # The child's address space is capped before it starts, so the count's
    # arrays cannot be allocated: the run must stop there, before any trial.
    env = _child_env()
    env["OPENBLAS_NUM_THREADS"] = "1"  # per-thread buffers count against the cap
    proc = subprocess.run(
        [sys.executable, "-m", "ridgeless", *argv], capture_output=True, text=True, env=env,
        cwd=tmp_path, preexec_fn=_limited_address_space, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.count("error:") == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr.startswith(f"error: {message}"), proc.stderr


# ---------------------------------------------------------------------------
# every JSON payload re-runs itself: its "config" object, given back through
# --config alone, reproduces BASE.json and BASE.csv byte for byte


def _rerun_inline_config(tmp_path, cmd="simulate", beta=True):
    """A config file with a deterministic noise vector and, with `beta`, beta_values."""
    xi = _write(tmp_path / "xi.txt", "0.5 -0.25 1.0 2.0 -1.5\n")
    conf = {
        "schema": 1, "spectrum": {"type": "values", "values": [3.0] * 5 + [1.0] * 15},
        "noise": {"type": "deterministic", "values": xi}, "n": 5, "trials": 10,
        "checks": ["identity", "upper_bound"], "constants": {"c0": 1.0},
    }
    if beta:
        conf["beta_values"] = _write(tmp_path / "beta.txt",
                                     "".join(f"{0.1 * i * (-1) ** i}\n" for i in range(20)))
    path = _write(tmp_path / f"base-{cmd}-{beta}.json", json.dumps(conf))
    return [cmd, "--config", path] + (["--snr-grid", "0.1:10:3"] if cmd == "scan" else [])


def _rerun_argv(case, tmp_path):
    if case == "readme-simulate":
        return ["simulate", "--flat", "200", "--n", "5", "--trials", "100",
                "--noise", "gaussian:1", "--beta-norm", "1", "--seed", "5"]
    if case == "three-level-worst-random":
        return ["simulate", "--three-level", "3", "10", "200", "1e-2", "1e-5", "--n", "20",
                "--c0", "1", "--noise", "worst:1", "--beta-norm", "1",
                "--beta-direction", "random", "--trials", "20", "--seed", "4"]
    if case == "file-student":
        eig = _write(tmp_path / "eig.txt", "# unsorted\n1.0, 4.0\n0.25\n2.0 1.0\n0.5\n"
                     + "".join(f"{0.1 / i}\n" for i in range(1, 61)))
        return ["simulate", "--spectrum-file", eig, "--n", "5", "--c0", "1",
                "--noise", "student:3:1", "--beta-norm", "2", "--trials", "20"]
    if case == "inline-values":
        return _rerun_inline_config(tmp_path)
    if case == "scan-inline-values":  # a scan takes no beta_values
        return _rerun_inline_config(tmp_path, "scan", beta=False)
    return ["scan", "--exp-floor", "300", "20", "1e-4", "--n", "100", "--c0", "0.2",
            "--noise", "gaussian:1", "--snr-grid", "1e-3:3:20", "--trials", "50"]


@pytest.mark.parametrize(
    "case",
    ["readme-simulate", "three-level-worst-random", "file-student", "inline-values",
     "readme-scan", "scan-inline-values"],
)
def test_config_echo_reruns_exactly(case, tmp_path, capsys):
    argv = _rerun_argv(case, tmp_path)
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(argv + ["-q", "--out", str(first), "--format", "both"]) == 0
    echo = read_json(str(first) + ".json")["config"]
    # every top-level key the config file takes, beta_values only when the run has one (a
    # scan sets beta*'s norm at each point and refuses it)
    keys = {"schema", "spectrum", "n", "beta_norm", "beta_direction", "noise", "trials", "seed",
            "constants", "checks", "rel_tol"} | ({"beta_values"} if case == "inline-values" else set())
    assert set(echo) == keys and keys | {"beta_values"} == cli._CONFIG_KEYS
    conf = _write(tmp_path / "echo.json", json.dumps(echo))
    grid = argv[argv.index("--snr-grid"):][:2] if "--snr-grid" in argv else []
    assert main([argv[0], "--config", conf, *grid, "-q", "--out", str(again),
                 "--format", "both"]) == 0
    for suffix in (".json", ".csv"):
        assert (tmp_path / f"again{suffix}").read_bytes() == (
            tmp_path / f"first{suffix}").read_bytes()
    if case == "scan-inline-values":
        refused = _rerun_inline_config(tmp_path, "scan")  # the same file with beta_values
        assert main(refused + ["-q", "--out", str(tmp_path / "refused")]) == 1
        _one_error(capsys, "error: a scan takes no beta_values: it sets the norm of beta* along "
                           "beta_direction\n")


# ---------------------------------------------------------------------------
# --out is checked before any work runs; write failures exit 1


OUT_BEFORE_WORK = pytest.mark.parametrize(
    "argv,entry",
    [
        (SIM_ARGS, "run_experiment"),
        (SCAN_ARGS, "snr_scan"),
        (["diagnose", "--flat", "100", "--n", "5", "-q"], "diagnose"),
        (["simulate", "--flat", "50", "--n", "5", "--trials", "2", "--noise", "zero", "-q"],
         "run_experiment"),
        # k* is infinite here (exit 2), but --out is checked first, as for every subcommand
        (["scan", "--exp-floor", "300", "20", "1e-4", "--n", "100", "--trials", "2",
          "--snr-grid", "0.1:10:2", "--noise", "gaussian:1"], "snr_scan"),
    ],
)
def _out_fails_before_work(argv, entry, folder, fault, monkeypatch, capsys):
    import ridgeless.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{entry} ran before --out was checked")

    monkeypatch.setattr(cli, entry, must_not_run)
    assert main(argv + ["--out", str(folder / "x")]) == 1
    assert capsys.readouterr().err == f"error: --out: directory {str(folder)!r} {fault}\n"


@OUT_BEFORE_WORK
def test_missing_out_directory_fails_before_work(argv, entry, tmp_path, monkeypatch, capsys):
    _out_fails_before_work(argv, entry, tmp_path / "missing", "does not exist", monkeypatch,
                           capsys)


@OUT_BEFORE_WORK
def test_unwritable_out_directory_fails_before_work(argv, entry, tmp_path, monkeypatch, capsys):
    import ridgeless.cli as cli

    # root may write anywhere, so the access test is made to say no
    monkeypatch.setattr(cli.os, "access", lambda *args, **kwargs: False)
    _out_fails_before_work(argv, entry, tmp_path, "is not writable", monkeypatch, capsys)


@pytest.mark.parametrize("source", ["file", "config"])
def test_noise_vector_of_wrong_length_fails_before_work(source, tmp_path, monkeypatch, capsys):
    import ridgeless.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("run_experiment ran with a noise vector of the wrong length")

    monkeypatch.setattr(cli, "run_experiment", must_not_run)
    if source == "file":
        xi = _write(tmp_path / "xi5.txt", "1\n2\n3\n4\n5\n")
        argv = ["simulate", "--flat", "20", "--n", "3", "--noise", f"file:{xi}"]
        message = "deterministic noise values has length 5, expected n=3"
    else:
        conf = {"schema": 1, "spectrum": {"type": "flat", "p": 20}, "n": 3,
                "noise": {"type": "model_residual", "f_values": [1.0, 2.0]}}
        argv = ["simulate", "--config", _write(tmp_path / "conf.json", json.dumps(conf))]
        message = "model_residual noise f_values has length 2, expected n=3"
    assert main(argv) == 1
    _one_error(capsys, message)


def test_unwritable_output_file_exits_1(tmp_path, capsys):
    (tmp_path / "run.json").mkdir()  # BASE.json cannot be opened for writing
    assert main(SIM_ARGS + ["--out", str(tmp_path / "run")]) == 1
    _one_error(capsys, "cannot write", "run.json")


def test_a_write_that_fails_midway_keeps_the_earlier_file(tmp_path, capsys, monkeypatch):
    # a disk that fills after the first piece: BASE.json keeps its earlier bytes
    base = str(tmp_path / "run")
    assert main(SIM_ARGS + ["--out", base]) == 0
    earlier = (tmp_path / "run.json").read_bytes()

    def full_disk_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        written = []

        def write(text):
            if written:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            written.append(text)
            return real_write(text)

        real_write, fh.write = fh.write, write
        return fh

    monkeypatch.setattr(serialize, "open", full_disk_open, raising=False)
    capsys.readouterr()
    assert main(SIM_ARGS + ["--seed", "10", "--out", base]) == 1
    _one_error(capsys, "cannot write", "run.json", os.strerror(errno.ENOSPC))
    assert (tmp_path / "run.json").read_bytes() == earlier
    assert os.listdir(tmp_path) == ["run.json"]  # no temporary file left behind


def test_writing_outputs_holds_no_whole_payload(tmp_path, monkeypatch):
    # records are rendered as they are written, so the write's own peak stays flat in
    # --trials (about 39 MB at 20000 trials when the whole payload was built first)
    peaks = []
    write_outputs = cli._write_outputs

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            write_outputs(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_write_outputs", traced)
    argv = ["simulate", "--flat", "200", "--n", "10", "--noise", "gaussian:1", "--trials", "20000",
            "--format", "both", "--out", str(tmp_path / "run"), "-q"]
    assert main(argv) == 0
    assert len(peaks) == 1 and peaks[0] < 2e6, peaks
    assert sorted(os.listdir(tmp_path)) == ["run.csv", "run.json"]


def test_diagnose_out_from_env_and_csv_format(tmp_path, monkeypatch):
    args = ["diagnose", "--flat", "1000", "--n", "10", "--beta-norm", "1", "--xi-norm", "2", "-q"]
    monkeypatch.setenv("RIDGELESS_OUT", str(tmp_path / "env"))
    assert main(args) == 0
    assert read_json(str(tmp_path / "env.json"))["k_star"] == 1
    monkeypatch.delenv("RIDGELESS_OUT")

    assert main(args + ["--out", str(tmp_path / "rep"), "--format", "csv"]) == 0
    assert not (tmp_path / "rep.json").exists()
    lines = (tmp_path / "rep.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "key,value"
    rows = dict(line.split(",", 1) for line in lines[1:])
    assert rows["k_star"] == "1" and rows["regime"] == "HighSNR"
    assert rows["constants.c0"] == "10" and rows["error"] == ""
    assert main(args + ["--out", str(tmp_path / "both"), "--format", "both"]) == 0
    assert (tmp_path / "both.csv").read_bytes() == (tmp_path / "rep.csv").read_bytes()
    assert read_json(str(tmp_path / "both.json"))["spectrum"]["type"] == "flat"


# ---------------------------------------------------------------------------
# extreme magnitudes: one clear line and exit 1, before any trial; never a
# traceback or a warning


@pytest.mark.parametrize(
    "argv,message",
    [
        (["simulate", "--flat", "10", "--n", "0"], "n must be a positive integer, got 0"),
        (["diagnose", "--flat", "2000", "1e306", "--n", "20"],
         "spectrum: spectrum values must have a finite sum"),
        (["diagnose", "--flat", "2000", "--n", "20", "--beta-norm", "1e160", "--xi-norm", "1"],
         "beta_star_norm must be at most 1.3407807929942596e+154 (its square overflows), "
         "got 1e+160"),
        (["diagnose", "--flat", "2000", "--n", "20", "--xi-norm", "1e160"],
         "xi_norm must be at most 1.3407807929942596e+154 (its square overflows), got 1e+160"),
        (["scan", "--flat", "2000", "--n", "20", "--trials", "2", "--snr-grid", "0.1:10:2",
          "--noise", "gaussian:1e200"], "gaussian noise is too large: E||xi||^2 at n=20 overflows"),
        (["simulate", "--flat", "2000", "--n", "20", "--trials", "3", "--beta-norm", "1e300"],
         "beta_norm or beta_values is too large: the norm of beta* overflows"),
        (["simulate", "--flat", "2000", "--n", "20", "--trials", "3", "--noise", "worst:1e300"],
         "scaled_direction noise is too large: E||xi||^2 at n=20 overflows"),
        (["scan", "--flat", "200", "--n", "5", "--trials", "2", "--noise", "gaussian:1",
          "--snr-grid", "1:inf:3"], "--snr-grid needs 0 < LO < HI < inf and N >= 2"),
        (["scan", "--flat", "50", "--n", "5", "--trials", "1", "--noise", "gaussian:1e100",
          "--snr-grid", "1e100:1e300:2"],
         "SNR target 1e+300 is too large for gaussian noise: target * E||xi||^2 at n=5 overflows"),
    ],
    ids=["simulate-n0", "diagnose-flat-sum", "diagnose-beta", "diagnose-xi", "scan-gaussian",
         "simulate-beta", "simulate-worst", "scan-grid-inf", "scan-target"],
)
def test_overflowing_input_is_refused_before_any_trial(argv, message, tmp_path, monkeypatch,
                                                       capsys):
    import ridgeless.experiments as experiments

    drawn = []
    monkeypatch.setattr(experiments, "sample_design", lambda *a: drawn.append(a))
    assert main(argv + ["-q", "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert drawn == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "env,conf,message",
    [
        ({"RIDGELESS_REL_TOL": "1"}, {}, "rel_tol must be in (0, 1), got 1.0"),
        ({"RIDGELESS_REL_TOL": "inf"}, {}, "rel_tol must be in (0, 1), got inf"),
        ({}, {"rel_tol": 2}, "rel_tol must be in (0, 1), got 2.0"),
        ({}, {"rotation": [[1.0]]}, "config file {path}: unknown key 'rotation'"),
    ],
    ids=["rel_tol-1", "rel_tol-inf", "rel_tol-config", "rotation-unknown"],
)
def test_run_settings_are_refused_before_any_trial(env, conf, message, tmp_path, monkeypatch,
                                                   capsys):
    # a cutoff of 1 or more once dropped every singular value and exited 3; Sigma
    # is diagonal, so a rotation is an unknown key (its run is at beta_values = Q^T beta*)
    import ridgeless.experiments as experiments

    drawn = []
    monkeypatch.setattr(experiments, "sample_design", lambda *a: drawn.append(a))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    path = _write(tmp_path / "conf.json", json.dumps({"schema": 1, **conf}))  # NaN as JSON NaN
    argv = ["simulate", "--flat", "3", "--n", "2", "--trials", "2", "--beta-norm", "1",
            "--config", path, "-q", "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert drawn == [] and sorted(tmp_path.iterdir()) == [tmp_path / "conf.json"]


@pytest.mark.parametrize("checks,message", [
    ([["identity"]], f"config checks entries must be {CHECK_NAMES}, got a list"),
    ([1, "identity"], f"config checks entries must be {CHECK_NAMES}, got 1"),
    ({"identity": 1}, "config checks must be a list of names, got an object"),
    ("identity", "config checks must be a list of names, got 'identity'"),
], ids=["checks0", "checks1", "checks2", "checks-str"])
def test_config_checks_must_be_a_list_of_names(checks, message, tmp_path, capsys):
    # an unhashable or non-string entry once escaped as a TypeError traceback; each is
    # worded by the choice rule that ExperimentConfig and every choice flag use
    conf = _write(tmp_path / "conf.json", json.dumps({"schema": 1, "checks": checks}))
    assert main(["simulate", "--flat", "5", "--n", "2", "--config", conf]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_names_from_the_environment(monkeypatch, capsys):
    # text is split at commas and spaces, then checked by the same rule
    monkeypatch.setenv("RIDGELESS_CHECKS", "identity, vibes")
    assert main(["simulate", "--flat", "5", "--n", "2", "--trials", "1"]) == 1
    assert capsys.readouterr().err == (
        f"error: environment RIDGELESS_CHECKS entries must be {CHECK_NAMES}, got 'vibes'\n")


def _run_unfiltered(argv):
    """main(argv) with warnings recorded, not raised: (exit code, warnings, stderr lines)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, [str(w.message) for w in caught], err.getvalue().splitlines()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_overflow_inside_a_trial_exits_1_without_a_warning(threads):
    # each input is in range, but X beta* overflows: numpy raises, the run stops
    argv = ["simulate", "--flat", "5", "1e300", "--n", "2", "--trials", "2", "--beta-norm",
            "1e100", "--threads", threads, "-q"]
    code, caught, err = _run_unfiltered(argv)
    assert (code, caught, len(err)) == (1, [], 1)
    assert err[0].startswith("error: trial 0 failed: overflow encountered in "), err


@pytest.mark.parametrize("argv", [
    ["simulate", "--flat", "50", "--n", "5", "--beta-norm", "5e153"],
    ["scan", "--flat", "50", "--n", "5", "--snr-grid", "1e306:5e306:2"],
], ids=["simulate", "scan"])
def test_a_later_failing_trial_gives_one_message_at_any_threads(argv, capsys):
    # trials 0 to 2 fit, trial 3 overflows: every pool stops there, as one thread does
    errs = []
    for threads in ("1", "2", "8"):
        assert main(argv + ["--noise", "gaussian:1", "--trials", "8", "--threads", threads]) == 1
        errs.append(capsys.readouterr().err)
    assert errs == errs[:1] * 3, errs
    assert re.fullmatch(r"error: trial 3 failed: overflow encountered in \w+ "
                        r"\(3 earlier trial\(s\) preserved\)\n", errs[0]), errs[0]


# as flag text: a float from 1e-300 to 1e300, log-uniform, or an edge value
_MAGNITUDE = st.one_of(
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-300, 299)),
    st.sampled_from([math.inf, math.nan, 5e-324, 1e-300, 1e300, 1.3407807929942596e154,
                     1.7976931348623157e308]),
).map(repr)


@st.composite
def _extreme_argv(draw):
    cmd = draw(st.sampled_from(["diagnose", "simulate", "scan", "spectrum"]))
    p, n = draw(st.integers(1, 50)), draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["flat", "exp-floor", "three-level"]))
    if kind == "flat":
        argv = [cmd, "--flat", str(p), draw(_MAGNITUDE)]
    elif kind == "exp-floor":
        argv = [cmd, "--exp-floor", str(p), draw(_MAGNITUDE), draw(_MAGNITUDE)]
    else:
        argv = [cmd, "--three-level", "1", "1", str(max(p, 3)), draw(_MAGNITUDE),
                draw(_MAGNITUDE)]
    if cmd == "spectrum":
        return argv
    argv += ["--n", str(n), "--beta-norm", draw(_MAGNITUDE)]
    if cmd == "diagnose":
        return argv + ["--xi-norm", draw(_MAGNITUDE)]
    argv += ["--trials", str(draw(st.integers(1, 3)))]
    noise = draw(st.sampled_from(["gaussian:{}", "student:{}:{}", "worst:{}"]))
    argv += ["--noise", noise.format(draw(_MAGNITUDE), draw(_MAGNITUDE)),
             "--threads", str(draw(st.integers(1, 2)))]
    if cmd == "scan":
        grid = f"{draw(_MAGNITUDE)}:{draw(_MAGNITUDE)}:{draw(st.integers(2, 4))}"
        argv += ["--snr-grid", grid]
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_extreme_argv())
def test_extreme_magnitudes_never_escape_main(argv):
    # clean_env runs once for all examples, which is all it has to
    code, caught, err = _run_unfiltered(argv + ["-q"])
    assert code in (0, 1, 2, 3) and caught == [], (code, caught)
    assert all(line.startswith("error: ") for line in err), err
    assert bool(err) == (code in (1, 2)), (code, err)
    if "--threads" in argv:  # simulate and scan: the same outcome at the other count
        at = argv.index("--threads") + 1
        other = argv[:at] + [{"1": "2", "2": "1"}[argv[at]]] + argv[at + 1:]
        other_code, _, other_err = _run_unfiltered(other + ["-q"])
        assert (other_code, other_err) == (code, err), other


# random config files: wrong types, nesting, unknown keys, null, +-10^400, random spectrum
# and noise objects.  Every count is tiny (<= 5) or out of its range, never a large valid
# one, which would start the allocation or the trials it asks for.
_HUGE = st.sampled_from([10**400, -(10**400)])
_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), _HUGE,
    st.sampled_from([0.5, -1.0, 0.0, 1e-300, 1e300, math.inf, -math.inf, math.nan]),
    st.lists(st.integers(-1, 2), max_size=2), st.dictionaries(st.sampled_from(["type", "x"]),
                                                              st.integers(0, 1), max_size=2),
)


def _mostly(valid):
    """valid three times in four, else junk: most files then get past their first key."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else _JUNK)


_COUNT = _mostly(st.one_of(st.integers(-2, 5), _HUGE))
_NUMBER = _mostly(st.one_of(st.floats(0.01, 10), st.integers(1, 3)))
_PATH = st.sampled_from(["", "missing.txt", "xi.txt", "."])
_ARRAY = _mostly(st.one_of(_PATH, st.lists(_NUMBER, max_size=5),
                           st.lists(st.lists(_NUMBER, max_size=4), max_size=4)))
_VALUES = {"p": _COUNT, "k1": _COUNT, "c_times_n": _COUNT, "file": _PATH, "values": _ARRAY,
           "f_values": _ARRAY, "direction": _mostly(st.sampled_from(["worst_singular", "uniform"]))}


def _objects(keys: dict):
    """{"type": T, ...} with some of T's keys (and an unknown type), each of its kind."""
    return _mostly(st.sampled_from(sorted(keys.items())).flatmap(lambda item: st.fixed_dictionaries(
        {"type": st.just(item[0])},
        optional={key: _VALUES.get(key, _NUMBER) for key in item[1].split()})))


_SPECTRUM = _objects({"flat": "p value", "exp_floor": "p tau eps", "values": "values file",
                      "three_level": "k1 c_times_n p eps1 eps2", "pink": "p"})
_NOISE = _objects({"zero": "", "gaussian": "sigma", "student": "df scale", "pink": "sigma",
                   "scaled_direction": "target_norm direction", "deterministic": "values",
                   "model_residual": "f_values"})
_CONFIG = st.fixed_dictionaries(
    {"schema": _mostly(st.just(1))},
    optional={
        "spectrum": _SPECTRUM, "n": _COUNT, "trials": _COUNT, "seed": _mostly(st.integers(0, 3)),
        "beta_norm": _NUMBER, "beta_direction": _mostly(st.sampled_from(["e1", "random", "top"])),
        "noise": _NOISE, "beta_values": _ARRAY, "rel_tol": _NUMBER,
        "checks": _mostly(st.lists(st.sampled_from(sorted(ALL_CHECKS)), max_size=3)),
        "constants": _mostly(st.dictionaries(st.sampled_from(["c0", "eta", "c3"]), _NUMBER,
                                             max_size=2)),
    },
)
# an unknown key, at the top or in a nested object, one file in four
_UNKNOWN = st.sampled_from([None, None, None, (), ("spectrum",), ("noise",), ("constants",)])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cmd=st.sampled_from(["diagnose", "simulate", "scan", "spectrum"]),
       conf=_CONFIG, unknown=_UNKNOWN, flat=st.booleans(), n=st.booleans())
def test_random_config_files_never_escape_main(cmd, conf, unknown, flat, n, tmp_path,
                                               monkeypatch):
    # a flag here and there lets more files reach the spectrum, the noise and the trials
    monkeypatch.chdir(tmp_path)  # relative paths: xi.txt below, missing.txt nowhere
    _write(tmp_path / "xi.txt", "0.5 -1 2\n")
    if unknown is not None:
        obj = conf.get(unknown[0]) if unknown else conf
        if isinstance(obj, dict):
            obj["x"] = 1
    _write(tmp_path / "conf.json", json.dumps(conf))
    argv = [cmd, "--config", "conf.json", *(["--flat", "5"] if flat else [])]
    if n and cmd != "spectrum":
        argv += ["--n", "2"]
    if cmd == "scan":
        argv += ["--snr-grid", "0.1:10:2"]
    code, caught, err = _run_unfiltered(argv + ["-q"])
    assert code in (0, 1, 2, 3) and caught == [], (code, caught)
    assert all(line.startswith(("error: ", "note: ")) for line in err), err
