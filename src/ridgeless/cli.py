"""Command-line front end: diagnostics, experiments, SNR scans, certificates.

Option precedence is flags > environment > config file > defaults.  Every
long flag has an environment twin with the RIDGELESS_ prefix (dashes to
underscores, upper case); multi-token flags take the same tokens space
separated, e.g. RIDGELESS_EXP_FLOOR="300 20 1e-4", and --quiet takes 1 or
0.  Values from every source are converted and checked alike, and every
error is reported before any work runs.

Exit codes, all set in main: 0 success, 1 usage, config or runtime error,
2 degenerate mathematics (infinite effective-rank index), 3 hard-check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from typing import NamedTuple

import numpy as np

from .diagnostics import Constants, InfiniteIndexError, diagnose
from .experiments import (
    ALL_CHECKS,
    CHECK_IDENTITY,
    IDENTITY_TOL,
    ExperimentConfig,
    ExperimentError,
    certificate_study,
    record_csv_header,
    record_csv_row,
    result_to_dict,
    run_experiment,
    snr_scan,
)
from .noise import NOISE_TYPES, WORST_SINGULAR, ZeroNoise, noise_from_dict
from .serialize import csv_line, format_float, format_floats, to_json, write_text
from .spectra import (
    CovarianceModel,
    Spectrum,
    fill_spec,
    load_spectrum,
    make_exp_floor_spectrum,
    make_flat_spectrum,
    make_three_level_spectrum,
    read_spec,
    read_vector,
    strict_value,
)

__all__ = ["main", "entry"]

ENV_PREFIX = "RIDGELESS_"


class _CliError(Exception):
    """Config/usage failure; carries every message so typos surface at once."""

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved here, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name.upper())


def _collect(errors: list, resolve, *args):
    """resolve(*args); on a usage error or a bad value, None with its messages added to errors."""
    try:
        return resolve(*args)
    except _CliError as exc:
        errors.extend(exc.messages)
    except ValueError as exc:
        errors.append(str(exc))


# ---------------------------------------------------------------------------
# conversion


def _snr_grid(text: str) -> list:
    """LO:HI:N as N log-spaced SNR targets."""
    parts = text.split(":")
    if len(parts) != 3:
        raise _CliError(f"--snr-grid takes LO:HI:N, got {text!r}")
    lo = strict_value(float, parts[0], "--snr-grid LO", text=True)
    hi = strict_value(float, parts[1], "--snr-grid HI", text=True)
    count = strict_value(int, parts[2], "--snr-grid N", text=True)
    if not (0 < lo < hi < math.inf and count >= 2):
        raise _CliError("--snr-grid needs 0 < LO < HI < inf and N >= 2")
    return [float(v) for v in np.geomspace(lo, hi, count)]


# --noise forms: usage -> the fixed part of the noise dict; the colon-separated
# parameters fill the model's other fields in order (see fill_spec).
_NOISE_FORMS = {
    "zero": {"type": "zero"},
    "gaussian:S": {"type": "gaussian"},
    "student:DF:S": {"type": "student"},
    "worst:S": {"type": "scaled_direction", "direction": WORST_SINGULAR},
    "file:PATH": {"type": "deterministic"},
}
_NOISE_USAGE = " | ".join(_NOISE_FORMS)


def parse_noise_spec(text: str):
    """zero | gaussian:S | student:DF:S | worst:S | file:PATH"""
    head, _, rest = text.partition(":")
    usage = next((u for u in _NOISE_FORMS if u.partition(":")[0] == head), None)
    if usage is None:
        raise _CliError(f"unknown noise spec {text!r}: expected {_NOISE_USAGE}")
    count = usage.count(":")
    # the last parameter keeps any further colons (a file path may hold them)
    params = rest.split(":", count - 1) if rest else []
    if len(params) != count or "" in params:
        raise _CliError(f"noise {head!r} takes {usage}, got {text!r}")
    spec = fill_spec(NOISE_TYPES, _NOISE_FORMS[usage], params, "--noise")
    try:
        return noise_from_dict(spec)
    except (OSError, ValueError) as exc:
        raise _CliError(f"--noise: {exc}")


# ---------------------------------------------------------------------------
# the option table

_COMMANDS = ("diagnose", "simulate", "scan", "certify", "spectrum")
_BOUNDS = _COMMANDS[:4]  # the subcommands that take the paper's constants
_RUNS = ("simulate", "scan")  # the subcommands that build an ExperimentConfig
_REQUIRED = object()  # the default of an option that must be given


def _on(commands, default=None) -> dict:
    return dict.fromkeys(commands, default)


class _Opt(NamedTuple):
    """One option, declared once: its flag --NAME (underscores as dashes), its
    environment twin RIDGELESS_NAME, its config-file `key` ("constants.c0" is
    c0 in the "constants" object) and its default per subcommand that takes
    it (None: unset), which a "{}" in the help shows.  The help is one
    string or one per subcommand; an option without help has no flag.
    """

    name: str
    conv: object  # int, float, str, bool (1 or 0 as text) or _snr_grid, for every source
    defaults: dict
    help: object
    key: str | None = None
    metavar: str | None = None
    choices: tuple | None = None
    least: int | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def _constant(name: str, text: str) -> _Opt:
    default = getattr(Constants, name)
    return _Opt(name, float, _on(_BOUNDS, default), text + " (default {})", "constants." + name)


_OPTIONS = {row.name: row for row in (
    _Opt("config", str, _on(_COMMANDS), "JSON config file (schema 1)", metavar="PATH"),
    _constant("c0", "effective-rank constant"),
    _constant("eta", "complexity-radius level"),
    _constant("gamma", "lower-radius budget fraction"),
    _constant("c3", "noise-floor constant"),
    _constant("c_frac", "cn = max(1, floor(c_frac * n))"),
    _Opt("n", int, _on(_BOUNDS, _REQUIRED), "sample count", "n"),
    _Opt("beta_norm", float, _on(("diagnose", *_RUNS), 0.0),
         "true coefficient norm (default {})", "beta_norm"),
    _Opt("xi_norm", float, {"diagnose": 0.0}, "noise norm (default {})"),
    _Opt("beta_direction", str, _on(_RUNS, "e1"), "true coefficient direction (default {})",
         "beta_direction", choices=("e1", "random", "top")),
    _Opt("noise", str, _on(_RUNS), _NOISE_USAGE, metavar="SPEC"),  # config: _resolve_noise
    _Opt("trials", int, {"simulate": 100, "scan": 100, "certify": 200}, {
        **_on(_RUNS, "number of Monte Carlo trials (default {})"),
        "certify": "number of designs sampled (default {})"}, "trials"),
    _Opt("seed", int, _on((*_RUNS, "certify"), 0), "base seed (default {})", "seed"),
    _Opt("threads", int, _on(_RUNS, 1), "worker thread cap; never affects results", least=1),
    _Opt("out", str, _on(_COMMANDS), "output base path (known suffixes stripped)", metavar="PATH"),
    _Opt("format", str, _on(_COMMANDS, "json"), "output format (default {})",
         choices=("json", "csv", "both")),
    _Opt("quiet", bool, _on(_COMMANDS, False), "suppress the stdout tables"),
    _Opt("snr_grid", _snr_grid, {"scan": _REQUIRED}, "log-spaced SNR targets", metavar="LO:HI:N"),
    _Opt("bins", int, {"certify": 20}, "histogram bin count (default {})"),
    _Opt("rel_tol", float, _on(_RUNS, 1e-10), None, "rel_tol"),
)}
_CONSTANTS = tuple(f.name for f in fields(Constants))
# the config keys of the rows, and those with a resolver of their own
_CONFIG_KEYS = {row.key.partition(".")[0] for row in _OPTIONS.values() if row.key} | {
    "schema", "spectrum", "noise", "checks", "beta_values", "rotation"}


def _config_value(conf: dict, key):
    section, _, name = (key or "").rpartition(".")
    if section:
        conf = conf.get(section)
    return conf.get(name) if isinstance(conf, dict) and name else None


def _value(row: _Opt, ns, conf: dict):
    """One row's value: flag > environment > config file > default, converted and checked."""
    text = True
    if (raw := getattr(ns, row.name, None)) is not None:  # None also without a flag
        where = row.flag
    elif (raw := _env(row.name)) is not None:
        where = f"environment {ENV_PREFIX}{row.name.upper()}"
    elif (raw := _config_value(conf, row.key)) is not None:
        where, text = "config " + row.key.replace(".", " "), False
    elif row.defaults[ns.subcommand] is _REQUIRED:
        usage = f"{row.flag} {row.metavar}" if row.metavar else row.flag
        raise _CliError(f"missing required option {usage}")
    else:
        return row.defaults[ns.subcommand]
    value = row.conv(raw) if row.conv is _snr_grid else strict_value(row.conv, raw, where, text)
    if row.choices and value not in row.choices:
        *head, last = row.choices
        raise _CliError(f"{row.flag} must be {', '.join(head)}, or {last}, got {value!r}")
    if row.least is not None and value < row.least:
        raise _CliError(f"{row.flag} must be at least {row.least}, got {value}")
    return value


def _resolve(ns) -> None:
    """Resolve every option of ns.subcommand into ns, converted and checked.

    The spectrum, constants, noise, checks, beta_values and rotation follow
    their own rules after the rows.  All errors are raised together, before
    any work runs; a config file that cannot be read, or breaks the schema,
    at once, since nothing read from it could be trusted.
    """
    cmd = ns.subcommand
    conf = _load_config_file(_value(_OPTIONS["config"], ns, {}))
    errors: list = []
    for row in _OPTIONS.values():
        if cmd in row.defaults:
            setattr(ns, row.name, _collect(errors, _value, row, ns, conf))
    ns.spectrum = _collect(errors, _resolve_spectrum, ns, conf.get("spectrum"))
    if cmd in _BOUNDS:
        ns.constants = _collect(errors, _resolve_constants, ns, conf.get("constants"))
    if cmd in _RUNS:
        ns.noise = _collect(errors, _resolve_noise, ns.noise, conf)
        ns.checks = _collect(errors, _resolve_checks, conf)
        ns.beta_values = _collect(errors, _config_array, conf, "beta_values")
        ns.rotation = _collect(errors, _config_array, conf, "rotation")
    if errors:
        raise _CliError(errors)


# ---------------------------------------------------------------------------
# spectrum resolution


def _values_spectrum(file: str | None = None, values: list | None = None) -> Spectrum:
    """Inline values as given, else the file's values sorted non-increasing."""
    if values is not None:
        return Spectrum(np.asarray(values, dtype=float))
    if file is None:
        raise _CliError("spectrum of type 'values' needs 'values' or 'file'")
    loaded = load_spectrum(file)
    if loaded.reordered:
        note = "was not sorted; values reordered to non-increasing"
        print(f"note: spectrum file {file} {note}", file=sys.stderr)
    return loaded.spectrum


class _Kind(NamedTuple):
    """One spectrum kind: its flag and its builder, whose parameters are the
    config keys (see read_spec).  The flag's tokens fill them in order, and
    the echo lists them in the same order after "type".
    """

    flag: str
    nargs: object  # argparse nargs; None: one token, unsplit in the environment
    metavar: tuple
    build: object  # the config keys as keyword arguments -> Spectrum
    help: str
    echo: object = None  # Spectrum -> echo fields, when not the keys themselves

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


_SPECTRUM_KINDS = {
    "flat": _Kind("--flat", "+", ("P", "V"), make_flat_spectrum,
                  "flat spectrum: P eigenvalues, each V (default 1)"),
    "exp_floor": _Kind("--exp-floor", 3, ("P", "TAU", "EPS"), make_exp_floor_spectrum,
                       "exp(-k/TAU) + EPS, k = 1..P"),
    "three_level": _Kind("--three-level", 5, ("K1", "CN", "P", "E1", "E2"),
                         make_three_level_spectrum, "three-level spectrum"),
    # An inline list or an external file; the echo pins the resolved
    # (sorted) values so a re-run does not depend on the file's future.
    "values": _Kind("--spectrum-file", None, ("PATH",), _values_spectrum,
                    "eigenvalues from a text file", lambda s: {"values": s.values.tolist()}),
}
_SPECTRUM_BUILDERS = {kind: row.build for kind, row in _SPECTRUM_KINDS.items()}


def _spectrum_from_spec(spec) -> tuple[Spectrum, dict]:
    """Build a spectrum from its dict form; returns (spectrum, resolved echo)."""
    kind, args = read_spec(spec, _SPECTRUM_BUILDERS, "spectrum", "config spectrum ")
    row = _SPECTRUM_KINDS[kind]
    try:
        s = row.build(**args)
    except (OSError, ValueError) as exc:
        raise _CliError(f"spectrum: {exc}")
    return s, {"type": kind, **(row.echo(s) if row.echo else args)}


def _resolve_spectrum(ns, file_spec) -> tuple[Spectrum, dict]:
    """Flags beat environment beat config file; exactly one source required."""
    for where, lookup in (("", lambda dest: getattr(ns, dest)), (" in the environment", _env)):
        sources = []
        for kind, row in _SPECTRUM_KINDS.items():
            raw = lookup(row.dest)
            if isinstance(raw, str):  # an environment value, or a one-token flag
                raw = raw.split() if row.nargs else [raw]
            if raw is not None:
                sources.append(fill_spec(_SPECTRUM_BUILDERS, {"type": kind}, raw, row.flag,
                                         row.metavar))
        if len(sources) > 1:
            raise _CliError("give exactly one spectrum source" + where)
        if sources:
            return _spectrum_from_spec(sources[0])
    if file_spec is not None:
        return _spectrum_from_spec(file_spec)
    flags = "/".join(row.flag for row in _SPECTRUM_KINDS.values())
    raise _CliError(f"no spectrum given: use {flags} or a config file")


# ---------------------------------------------------------------------------
# config file and the options with their own rules


def _load_config_file(path) -> dict:
    """The contents of the config file at path; {} when there is none."""
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _CliError(f"config file: {exc}")
    except json.JSONDecodeError as exc:
        raise _CliError(f"config file {path}: invalid JSON ({exc})")
    if not isinstance(data, dict):
        raise _CliError(f"config file {path}: expected a JSON object")
    errors = []
    if data.get("schema") != 1:
        errors.append(f"config file {path}: 'schema' must be 1, got {data.get('schema')!r}")
    for key in sorted(set(data) - _CONFIG_KEYS):
        errors.append(f"config file {path}: unknown key {key!r}")
    if errors:
        raise _CliError(errors)
    return data


def _resolve_constants(ns, section) -> Constants | None:
    """The constants from their rows; the config file's object must hold only their keys."""
    if section is not None and not isinstance(section, dict):
        raise _CliError(f"config constants: expected an object, got {section!r}")
    unknown = sorted(set(section or ()) - set(_CONSTANTS))
    if unknown:
        raise _CliError(f"config constants: unknown constants keys: {unknown}")
    values = {name: getattr(ns, name) for name in _CONSTANTS}
    if None in values.values():  # a value that did not convert, already reported
        return None
    try:
        return Constants(**values)
    except ValueError as exc:
        raise _CliError(f"constants: {exc}")


def _resolve_noise(text, conf: dict):
    if text is not None:
        return parse_noise_spec(text)
    if "noise" not in conf:
        return ZeroNoise()
    try:
        return noise_from_dict(conf["noise"])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise _CliError(f"config noise: {exc}")


def _resolve_checks(conf: dict):
    raw = _env("checks")
    if raw is not None:
        names = [t for t in raw.replace(",", " ").split() if t]
    elif "checks" in conf:
        names = conf["checks"]
        if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
            raise _CliError("config checks: expected a list of check names")
    else:
        return ALL_CHECKS
    unknown = sorted(set(names) - ALL_CHECKS)
    if unknown:
        raise _CliError([f"unknown check {name!r}" for name in unknown])
    return frozenset(names)


def _config_array(conf: dict, key: str):
    """The array the config file gives under key, inline or as a file; None when absent."""
    if conf.get(key) is None:
        return None
    try:
        return read_vector(conf[key])
    except (OSError, TypeError, ValueError) as exc:
        raise _CliError(f"config {key}: {exc}")


def _experiment_config(ns) -> ExperimentConfig:
    spectrum, spec_echo = ns.spectrum
    same = ("n", "trials", "seed", "constants", "beta_norm", "beta_direction", "beta_values",
            "checks", "rel_tol")  # resolved under ExperimentConfig's own field names
    return ExperimentConfig(
        covariance=CovarianceModel(spectrum, ns.rotation), noise_model=ns.noise,
        spectrum_spec=spec_echo, **{name: getattr(ns, name) for name in same},
    )


# ---------------------------------------------------------------------------
# output helpers

_KNOWN_SUFFIXES = (".plot.csv", ".json", ".csv")


def _output_base(out) -> str | None:
    """BASE of --out, known suffixes stripped (None without it); its directory
    must exist and be writable, so a bad path fails before any work, not after.
    """
    if not out:
        return None
    base = next((out[: -len(s)] for s in _KNOWN_SUFFIXES if out.endswith(s)), out)
    folder = os.path.dirname(base) or "."
    if not os.path.isdir(folder):
        raise _CliError(f"--out: directory {folder!r} does not exist")
    if not os.access(folder, os.W_OK):
        raise _CliError(f"--out: directory {folder!r} is not writable")
    return base


def _write(path: str, text: str) -> None:
    try:
        write_text(path, text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc.strerror or exc}")


def _write_outputs(ns, payload, csv_pieces) -> None:
    """Write BASE.json and/or BASE.csv, as ns.format selects, when ns.out is a BASE.

    payload() gives the JSON object and csv_pieces() the CSV text in
    pieces; each is built only when written.
    """
    if ns.out is None:
        return
    if ns.format in ("json", "both"):
        _write(ns.out + ".json", to_json(payload()))
    if ns.format in ("csv", "both"):
        _write(ns.out + ".csv", "".join(csv_pieces()))


def _fields(obj, *drop) -> dict:
    """A dataclass's fields by name, in declared order, less those named in drop."""
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in drop}


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _print_aggregates(aggregates: dict) -> None:
    cols = ("min", "q05", "median", "q95", "max", "mean")
    width = max(len(name) for name in aggregates)
    print(f"{'metric':<{width}}  " + "  ".join(f"{c:>12}" for c in cols))
    for name, stats in aggregates.items():
        row = "  ".join(f"{_fmt(stats[c]):>12}" for c in cols)
        print(f"{name:<{width}}  {row}")


def _identity_status(config, records) -> int:
    """Print the identity check's line when it is enabled; 3 if it failed, else 0."""
    if CHECK_IDENTITY not in config.checks:
        return 0
    worst = max(r.identity_residual for r in records)
    ok = worst <= IDENTITY_TOL
    tag = "[OK]" if ok else "[FAIL]"
    print(f"{tag} identity: max residual {worst:.3e} (tolerance {IDENTITY_TOL:g})")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# subcommands


def _cmd_diagnose(ns) -> int:
    spectrum, spec_echo = ns.spectrum
    report = diagnose(spectrum, ns.n, ns.beta_norm, ns.xi_norm, ns.constants)
    report_dict = report.to_dict()

    def rows():
        yield ("key", "value")
        for key, value in report_dict.items():
            if key == "constants":
                yield from ((f"constants.{k}", v) for k, v in value.items())
            else:
                yield (key, value)

    payload = {"schema": 1, "spectrum": spec_echo, **report_dict}
    _write_outputs(ns, lambda: payload, lambda: map(csv_line, rows()))
    if not ns.quiet:
        for key, value in report_dict.items():
            if key == "constants":
                value = " ".join(f"{k}={_fmt(v)}" for k, v in value.items())
            print(f"{key:>14}  {_fmt(value)}")
    if report.error is not None:
        print(f"error: {report.error}", file=sys.stderr)
        return 2
    return 0


def _cmd_simulate(ns) -> int:
    result = run_experiment(ns.experiment, threads=ns.threads)
    _write_outputs(
        ns,
        lambda: result_to_dict(result),
        lambda: map(csv_line, [record_csv_header(), *map(record_csv_row, result.records)]),
    )

    if not ns.quiet:
        _print_aggregates(result.aggregates)
        for name, value in result.rates.items():
            print(f"{name} {_fmt(value)}")
        for check, reason in result.skipped.items():
            print(f"[SKIP] {check}: {reason}")
    return _identity_status(ns.experiment, result.records)


_PLOT_COLUMNS = (
    "snr", "regime", "median_pred", "q05_pred", "q95_pred", "upper_bound", "lower_bound",
    "corollary_upper", "corollary_lower", "snr_threshold", "snr_threshold_cn",
)


def _cmd_scan(ns) -> int:
    config = ns.experiment
    points = snr_scan(config, ns.snr_grid, threads=ns.threads)

    def point(pt):  # the point's own fields, then its run's view less the shared parts
        run = result_to_dict(pt.result)
        del run["config"], run["records"]
        return {**_fields(pt, "result"), **run}

    def payload():
        return {
            "config": points[0].result.config_echo,
            "snr_grid": [pt.snr_target for pt in points],
            "points": [point(pt) for pt in points],
        }

    def rows():
        yield record_csv_header(extra=("snr", "regime"))
        for pt in points:
            for r in pt.result.records:
                yield record_csv_row(r, extra=(pt.snr_target, pt.regime))

    def plot_row(pt):  # one value per _PLOT_COLUMNS entry
        diag, agg = pt.result.diagnostics, pt.result.aggregates["pred_error"]
        return (
            pt.snr_target, pt.regime, agg["median"], agg["q05"], agg["q95"], diag.upper_bound,
            diag.lower_bound, diag.corollary_upper, diag.corollary_lower, pt.snr_threshold,
            pt.snr_threshold_cn,
        )

    _write_outputs(ns, payload, lambda: map(csv_line, rows()))
    if ns.out is not None:
        plot = map(csv_line, [_PLOT_COLUMNS, *map(plot_row, points)])
        _write(ns.out + ".plot.csv", "".join(plot))

    if not ns.quiet:
        for pt in points:
            print(
                f"snr {_fmt(pt.snr_target):>12}  regime {pt.regime:<7}  "
                f"median_pred {_fmt(pt.result.aggregates['pred_error']['median'])}"
            )
        switches = sum(a.regime != b.regime for a, b in zip(points, points[1:]))
        print(f"regime switches: {switches}")
    return _identity_status(config, [r for pt in points for r in pt.result.records])


def _cmd_certify(ns) -> int:
    spectrum, spec_echo = ns.spectrum
    study = certificate_study(spectrum, ns.n, ns.constants.c0, ns.trials, ns.seed, bins=ns.bins)
    edges = study.hist_edges
    header = ("ratio_lo", "ratio_hi", "count")
    _write_outputs(
        ns,
        lambda: {"schema": 1, "spectrum": spec_echo, **_fields(study)},
        lambda: map(csv_line, [header, *zip(edges, edges[1:], study.hist_counts)]),
    )

    if not ns.quiet:
        print(f"k_star {study.k_star}")
        print(f"r_kstar {format_float(study.r_kstar)}")
        print(f"threshold {format_float(study.threshold)}")
    print(f"pass_rate {format_float(study.pass_rate)}")
    return 0


def _cmd_spectrum(ns) -> int:
    spectrum, spec_echo = ns.spectrum

    values = spectrum.values.tolist()
    payload = {"schema": 1, "spectrum": spec_echo, "p": spectrum.p, "trace": spectrum.trace}
    _write_outputs(
        ns,
        lambda: {**payload, "values": values},
        # one value per line, headerless: loadable back through --spectrum-file
        lambda: [*format_floats(values, "\n"), "\n"],
    )
    if not ns.quiet:
        print(f"p {spectrum.p}")
        print(f"trace {format_float(spectrum.trace)}")
        print(f"largest {format_float(float(spectrum.values[0]))}")
        print(f"smallest {format_float(float(spectrum.values[-1]))}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="ridgeless", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for cmd, func, text in (
        ("diagnose", _cmd_diagnose, "spectrum diagnostics and bound report"),
        ("simulate", _cmd_simulate, "run one Monte Carlo experiment"),
        ("scan", _cmd_scan, "sweep the SNR grid and tag regimes"),
        ("certify", _cmd_certify, "smallest-singular-value certificate study"),
        ("spectrum", _cmd_spectrum, "build a spectrum and export its values"),
    ):
        sub = subs.add_parser(cmd, help=text)
        for kind in _SPECTRUM_KINDS.values():
            metavar = kind.metavar if kind.nargs else kind.metavar[0]
            sub.add_argument(kind.flag, nargs=kind.nargs, metavar=metavar, help=kind.help)
        for row in _OPTIONS.values():
            if cmd not in row.defaults or row.help is None:
                continue
            text = row.help[cmd] if isinstance(row.help, dict) else row.help
            text = text.format(_fmt(row.defaults[cmd]))
            if row.conv is bool:  # the flag alone means 1
                sub.add_argument("-" + row.name[0], row.flag, action="store_const", const="1",
                                 help=text)
            else:
                sub.add_argument(row.flag, metavar=row.metavar, choices=row.choices, help=text)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 1
    # Every library error ends here: an infinite k* exits 2, any other 1.  numpy
    # raises FloatingPointError on overflow, 1/0 and NaN rather than warn, in the
    # trials too (_map_trials runs them in this context).
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            # options, then the run's config, then --out: all before any work
            _resolve(ns)
            if ns.subcommand in _RUNS:
                ns.experiment = _experiment_config(ns)
            ns.out = _output_base(ns.out)
            return ns.func(ns)
    except (_CliError, ValueError, ArithmeticError, ExperimentError) as exc:
        for message in getattr(exc, "messages", [exc]):
            print(f"error: {message}", file=sys.stderr)
        return 2 if isinstance(exc, InfiniteIndexError) else 1
    except MemoryError as exc:  # e.g. a --trials count too large to allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
