"""Command-line interface: precedence, exit codes, file outputs."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ridgeless
from ridgeless.cli import main

pytestmark = pytest.mark.usefixtures("clean_env")


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


def test_certify_infinite_index_exits_2(capsys):
    code = main(["certify", "--exp-floor", "300", "20", "1e-4", "--n", "100", "--trials", "2"])
    assert code == 2


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


def test_scan_deterministic_across_threads(tmp_path):
    a, b = tmp_path / "s1", tmp_path / "s8"
    assert main(SCAN_ARGS + ["--out", str(a), "--threads", "1", "--format", "both"]) == 0
    assert main(SCAN_ARGS + ["--out", str(b), "--threads", "8", "--format", "both"]) == 0
    for suffix in (".json", ".csv", ".plot.csv"):
        assert (str(a) + suffix) != (str(b) + suffix)
        with open(str(a) + suffix, "rb") as fa, open(str(b) + suffix, "rb") as fb:
            assert fa.read() == fb.read()


# ---------------------------------------------------------------------------
# certify outputs


def test_certify_flat_wide(tmp_path, capsys):
    out = tmp_path / "cert"
    code = main([
        "certify", "--flat", "2000", "--n", "20", "--trials", "20",
        "-q", "--out", str(out), "--format", "both",
    ])
    assert code == 0
    assert "pass_rate 1" in capsys.readouterr().out
    payload = read_json(str(out) + ".json")
    assert list(payload) == [  # CertificateStudy's order
        "schema", "spectrum", "n", "c0", "trials", "seed", "k_star", "r_kstar", "threshold",
        "pass_rate", "hist_edges", "hist_counts", "sigma_min",
    ]
    assert payload["k_star"] == 1
    assert payload["pass_rate"] == 1.0
    assert payload["threshold"] == pytest.approx(math.sqrt(2000) / 4, rel=1e-12)
    lines = (tmp_path / "cert.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "ratio_lo,ratio_hi,count"
    assert sum(int(line.split(",")[2]) for line in lines[1:]) == 20


def test_certify_missing_spectrum(capsys):
    assert main(["certify", "--n", "5"]) == 1


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


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_certify_rejects_bins_below_one(bins, capsys):
    assert main(["certify", "--flat", "50", "--n", "5", "--trials", "2", "--bins", bins]) == 1
    _one_error(capsys, "bins must be a positive integer")


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
    ],
    ids=["p-float", "p-bool", "seed-bool", "trials-bool", "c0-bool", "beta_norm-str",
         "sigma-bool", "sigma-str", "direction-int"],
)
def test_config_values_are_checked_not_coerced(conf, message, tmp_path, capsys):
    base = {"schema": 1, "spectrum": {"type": "flat", "p": 20}, "n": 3, "trials": 2}
    path = _write(tmp_path / "conf.json", json.dumps({**base, **conf}))
    assert main(["simulate", "--config", path, "-q"]) == 1
    _one_error(capsys, message)


NO_SPECTRUM = "no spectrum given: use --flat/--exp-floor/--three-level/--spectrum-file or a config file"


@pytest.mark.parametrize(
    "argv,messages",
    [
        (["diagnose", "--n", "x", "--c0", "y"],
         ["--n: expected an integer, got 'x'", "--c0: expected a number, got 'y'", NO_SPECTRUM]),
        (["certify", "--n", "5", "--trials", "1.5", "--bins", "b"],
         ["--trials: expected an integer, got '1.5'", "--bins: expected an integer, got 'b'",
          NO_SPECTRUM]),
        (["spectrum", "--flat", "x"], ["--flat P: expected an integer, got 'x'"]),
    ],
    ids=["diagnose", "certify", "spectrum"],
)
def test_every_subcommand_reports_every_error(argv, messages, monkeypatch, capsys):
    monkeypatch.setenv("RIDGELESS_FORMAT", "yaml")
    monkeypatch.setenv("RIDGELESS_QUIET", "yes")
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
        (["certify", "--flat", "50", "--n", "5", "--trials", "1000000000000"],
         "trials must be an integer in [1, 4294967296], got 1000000000000"),
        (["certify", "--flat", "50", "--n", "5", "--trials", "4294967296"],
         "out of memory: Unable to allocate 32.0 GiB"),
        (["simulate", "--flat", "20", "--n", "3", "--trials", "4294967296", "-q"],
         "out of memory"),
    ],
    ids=["certify-above-bound", "certify", "simulate"],
)
def test_trial_count_beyond_memory_exits_1(argv, message, tmp_path):
    # The child's address space is capped before it starts, so the count's
    # arrays cannot be allocated: the run must stop there, before any trial.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RIDGELESS_")}
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(ridgeless.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [e for e in env.get("PYTHONPATH", "").split(os.pathsep) if e]
    )
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


def _rerun_inline_config(tmp_path):
    rng = np.random.default_rng(3)
    rotation, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    beta = _write(tmp_path / "beta.txt", "".join(f"{0.1 * i * (-1) ** i}\n" for i in range(20)))
    xi = _write(tmp_path / "xi.txt", "0.5 -0.25 1.0 2.0 -1.5\n")
    conf = _write(tmp_path / "base.json", json.dumps({
        "schema": 1, "spectrum": {"type": "values", "values": [3.0] * 5 + [1.0] * 15},
        "rotation": rotation.tolist(), "beta_values": beta,
        "noise": {"type": "deterministic", "values": xi}, "n": 5, "trials": 10,
        "checks": ["identity", "upper_bound"], "constants": {"c0": 1.0},
    }))
    return ["simulate", "--config", conf]


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
    return ["scan", "--exp-floor", "300", "20", "1e-4", "--n", "100", "--c0", "0.2",
            "--noise", "gaussian:1", "--snr-grid", "1e-3:3:20", "--trials", "50"]


@pytest.mark.parametrize(
    "case",
    ["readme-simulate", "three-level-worst-random", "file-student", "inline-values",
     "readme-scan"],
)
def test_config_echo_reruns_exactly(case, tmp_path):
    argv = _rerun_argv(case, tmp_path)
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(argv + ["-q", "--out", str(first), "--format", "both"]) == 0
    echo = read_json(str(first) + ".json")["config"]
    conf = _write(tmp_path / "echo.json", json.dumps(echo))
    grid = argv[argv.index("--snr-grid"):][:2] if "--snr-grid" in argv else []
    assert main([argv[0], "--config", conf, *grid, "-q", "--out", str(again),
                 "--format", "both"]) == 0
    for suffix in (".json", ".csv"):
        assert (tmp_path / f"again{suffix}").read_bytes() == (
            tmp_path / f"first{suffix}").read_bytes()


# ---------------------------------------------------------------------------
# --out is checked before any work runs; write failures exit 1


@pytest.mark.parametrize(
    "argv,entry",
    [
        (SIM_ARGS, "run_experiment"),
        (SCAN_ARGS, "snr_scan"),
        (["diagnose", "--flat", "100", "--n", "5", "-q"], "diagnose"),
        (["certify", "--flat", "50", "--n", "5", "--trials", "2", "-q"], "certificate_study"),
        # k* is infinite here (exit 2), but --out is checked first, as for every subcommand
        (["scan", "--exp-floor", "300", "20", "1e-4", "--n", "100", "--trials", "2",
          "--snr-grid", "0.1:10:2", "--noise", "gaussian:1"], "snr_scan"),
    ],
)
def test_missing_out_directory_fails_before_work(argv, entry, tmp_path, monkeypatch, capsys):
    import ridgeless.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{entry} ran before --out was checked")

    monkeypatch.setattr(cli, entry, must_not_run)
    assert main(argv + ["--out", str(tmp_path / "missing" / "x")]) == 1
    _one_error(capsys, "--out", "does not exist")


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
        (["certify", "--flat", "10", "--n", "0"], "n must be a positive integer, got 0"),
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
    ],
    ids=["certify-n0", "diagnose-flat-sum", "diagnose-beta", "diagnose-xi", "scan-gaussian",
         "simulate-beta", "simulate-worst", "scan-grid-inf"],
)
def test_overflowing_input_is_refused_before_any_trial(argv, message, tmp_path, monkeypatch,
                                                       capsys):
    import ridgeless.experiments as experiments

    drawn = []
    monkeypatch.setattr(experiments, "sample_design", lambda *a: drawn.append(a))
    assert main(argv + ["-q", "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert drawn == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("checks", [[["identity"]], [1, "identity"], {"identity": 1}])
def test_config_checks_must_be_a_list_of_names(checks, tmp_path, capsys):
    # an unhashable or non-string entry once escaped as a TypeError traceback
    conf = _write(tmp_path / "conf.json", json.dumps({"schema": 1, "checks": checks}))
    assert main(["simulate", "--flat", "5", "--n", "2", "--config", conf]) == 1
    assert capsys.readouterr().err == "error: config checks: expected a list of check names\n"


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


# as flag text: a float from 1e-300 to 1e300, log-uniform, or an edge value
_MAGNITUDE = st.one_of(
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-300, 299)),
    st.sampled_from([math.inf, math.nan, 5e-324, 1e-300, 1e300, 1.3407807929942596e154,
                     1.7976931348623157e308]),
).map(repr)


@st.composite
def _extreme_argv(draw):
    cmd = draw(st.sampled_from(["diagnose", "simulate", "scan", "certify", "spectrum"]))
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
    argv += ["--n", str(n)]
    if cmd != "certify":
        argv += ["--beta-norm", draw(_MAGNITUDE)]
    if cmd == "diagnose":
        return argv + ["--xi-norm", draw(_MAGNITUDE)]
    argv += ["--trials", str(draw(st.integers(1, 3)))]
    if cmd == "certify":
        return argv
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
