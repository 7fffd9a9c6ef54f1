"""Command-line front end: diagnostics, experiments, SNR scans.

Option precedence is flags > environment > config file > defaults.  Every
long flag has an environment twin with the RIDGELESS_ prefix (dashes to
underscores, upper case); multi-token flags take the same tokens space
separated, e.g. RIDGELESS_EXP_FLOOR="300 20 1e-4", and --quiet takes 1 or
0.  Values from every source are converted and checked alike, and every
error is reported before any work runs.

Exit codes, all set in main: 0 success, 1 usage, config or runtime error
(a closed stdout too), 2 degenerate mathematics (infinite effective-rank
index), 3 hard-check failure, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import math
import operator
import os
import re
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .diagnostics import Constants, InfiniteIndexError, diagnose
from .experiments import (
    _DIRECTIONS,
    _STATS,
    ALL_CHECKS,
    CHECK_IDENTITY,
    IDENTITY_TOL,
    ExperimentConfig,
    ExperimentError,
    TrialRecord,
    run_experiment,
    snr_scan,
)
from .noise import NOISE_TYPES, WORST_SINGULAR, ZeroNoise
from .serialize import csv_line, format_float, format_floats, json_pieces, write_text
from .spectra import (
    CovarianceModel,
    Spectrum,
    _brief,
    _check_at_most,
    _check_choice,
    _float_array,
    load_spectrum,
    make_exp_floor_spectrum,
    make_flat_spectrum,
    make_three_level_spectrum,
    parse_numbers,
)

__all__ = ["main"]

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
# conversion: the one reader of text and of the config file's values


def _path(value, what: str, text: bool = False) -> str:
    """A string, refused when empty: the empty path would read the working directory."""
    if not strict_value(str, value, what, text):
        raise _CliError(f"{what}: empty path")
    return value


def _numbers(value, what: str, text: bool = False) -> np.ndarray:
    """A number array: a file of numbers (see _path; text is always one), or a JSON list of
    numbers as spectra._float_array takes it, whose refusal names the first bad entry."""
    if text or isinstance(value, str):
        return parse_numbers(Path(_path(value, what, text)).read_text(encoding="utf-8-sig"),
                             "vector")
    try:
        return _float_array(what, value)
    except ValueError as exc:  # its message names `what`, so no caller prefixes it again
        raise _CliError(str(exc))


_EXPECTED = {int: "an integer", float: "a number", str: "a string", bool: "1 or 0"}
_KINDS = {"int": int, "float": float, "str": str, "bool": bool, "Path": _path,
          "np.ndarray": _numbers}


def strict_value(kind, value, what: str, text: bool = False):
    """value as a `kind` (int, float, str, bool, a reader (value, what, text) or an annotation
    naming one: "Path | None" is _path), or a _CliError naming `what`; never a coercion.  Text
    (a flag, an environment variable, a short-form token) is parsed, a bool from 1 or 0.  A
    JSON value must already be of the kind: a string or a bool is not a number, nor 5.7 an int.
    """
    kind = _KINDS[kind.partition(" |")[0]] if isinstance(kind, str) else kind
    if not isinstance(kind, type):
        return kind(value, what, text)
    # int() counts leading zeros against its 4300-digit limit, so an int token drops them
    token = re.sub(r"^(\s*[+-]?)0+(?=\d)", r"\1", value) if text and kind is int else value
    try:
        if text:
            return {"1": True, "0": False}[value] if kind is bool else kind(token)
        if type(value) is kind or (kind, type(value)) == (float, int) or (
                kind is int and type(value) is float and value.is_integer()):
            return kind(value)
    except (KeyError, TypeError, ValueError, OverflowError):  # OverflowError: an int beyond a float
        pass
    if text and kind is int and re.fullmatch(r"\s*[+-]?[1-9](_?[0-9])*\s*", token):
        raise _CliError(  # int() refuses an integer token of more than 4300 digits
            f"{what} must be within the float range, got an int beyond the float range")
    raise _CliError(f"{what}: expected {_EXPECTED[kind]}, got {_brief(value)}")


def read_spec(spec, builders: dict, where: str = "") -> tuple[str, dict]:
    """(type, keyword arguments for builders[type]) from a {"type": ...} object.

    The other keys are the builder's parameters, in signature order, each of the kind its
    annotation names (see strict_value) and required unless it has a default.  `where`
    prefixes a key: a value's refusal is a _CliError, the object's a ValueError to place.
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError(f"expected an object with a 'type' key, got {_brief(spec)}")
    kind = spec["type"]
    _check_choice("type", kind, sorted(builders))
    params = inspect.signature(builders[kind]).parameters.values()
    if unknown := sorted(set(spec) - {"type", *(p.name for p in params)}):
        raise ValueError(f"unknown keys for type {kind!r}: {unknown}")
    if missing := [p.name for p in params if p.name not in spec and p.default is p.empty]:
        raise ValueError(f"missing keys for type {kind!r}: {missing}")
    return kind, {p.name: strict_value(p.annotation, spec[p.name], where + p.name) if p.name in spec
                  else p.default for p in params}


def fill_spec(builders: dict, fixed: dict, tokens, what: str, labels=None) -> dict:
    """`fixed` plus the parameters of builders[fixed["type"]] it leaves open,
    parsed from text tokens in signature order; those with a default may be
    left off the end.  `labels` name them in messages (default: their names).
    """
    params = [p for p in inspect.signature(builders[fixed["type"]]).parameters.values()
              if p.name not in fixed]
    labels = labels or [p.name for p in params]
    least = sum(p.default is p.empty for p in params)
    if not least <= len(tokens) <= len(labels):
        usage = " ".join(m if i < least else f"[{m}]" for i, m in enumerate(labels))
        raise _CliError(f"{what} takes {usage}")
    return {**fixed, **{p.name: strict_value(p.annotation, token, f"{what} {label}", True)
                        for p, label, token in zip(params, labels, tokens)}}


def noise_to_dict(model) -> dict:
    """A noise model's config object: its type name, then its fields."""
    return {"type": model.type_name, **{name: value.tolist() if isinstance(value, np.ndarray)
                                        else value for name, value in _fields(model).items()}}


def noise_from_dict(d, where: str = ""):
    """The noise model of a config object, the inverse of noise_to_dict (see read_spec)."""
    kind, kwargs = read_spec(d, NOISE_TYPES, where)
    return NOISE_TYPES[kind](**kwargs)


# Most --snr-grid points: the scan builds one config, and fits every trial, per point.
_MAX_GRID = 10**4


def _snr_grid(raw: str, where: str, text: bool) -> list:
    """LO:HI:N as N log-spaced SNR targets; a flag or an environment value, so always text."""
    parts = raw.split(":")
    if len(parts) != 3:
        raise _CliError(f"--snr-grid takes LO:HI:N, got {raw!r}")
    lo = strict_value(float, parts[0], "--snr-grid LO", text=True)
    hi = strict_value(float, parts[1], "--snr-grid HI", text=True)
    count = strict_value(int, parts[2], "--snr-grid N", text=True)
    if not (0 < lo < hi < math.inf and count >= 2):
        raise _CliError("--snr-grid needs 0 < LO < HI < inf and N >= 2")
    _check_at_most("--snr-grid N", count, _MAX_GRID)  # before the grid and its configs
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
    spec = fill_spec(NOISE_TYPES, _NOISE_FORMS[usage], params, "--noise")  # reads file:PATH
    return NOISE_TYPES[spec.pop("type")](**spec)


def _noise(raw, where: str, text: bool):
    """The noise model of a --noise short form (text) or of a config object.  A refused
    value is a _CliError that names it; a file's or a model's error is placed here."""
    try:
        return parse_noise_spec(raw) if text else noise_from_dict(raw, where + ": ")
    except (OSError, ValueError) as exc:
        raise _CliError(f"{where}: {exc}")


def _checks(raw, where: str, text: bool) -> frozenset:
    """Check names: comma- or space-separated as text, a JSON list of strings in a config file."""
    names = raw.replace(",", " ").split() if text else raw
    _check_choice(where, names, sorted(ALL_CHECKS), many=True)
    return frozenset(names)


# ---------------------------------------------------------------------------
# the option table

_COMMANDS = ("diagnose", "simulate", "scan", "spectrum")
_RUNS = ("simulate", "scan")  # the subcommands that build an ExperimentConfig
_BOUNDS = ("diagnose", *_RUNS)  # the subcommands that take the paper's constants
_REQUIRED = object()  # the default of an option that must be given


def _on(commands, default=None) -> dict:
    return dict.fromkeys(commands, default)


class _Opt(NamedTuple):
    """One option, declared once: its flag --NAME (underscores as dashes), its
    environment twin RIDGELESS_NAME, its config-file `key` ("constants.c0" is
    c0 in the "constants" object) and its default per subcommand that takes
    it (None: unset), which a "{}" in the help shows.  An option without
    help has no flag.
    """

    name: str
    conv: object  # a kind of strict_value, for every source: int, float, str, bool or a reader
    defaults: dict
    help: str | None
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
    _Opt("config", _path, _on(_COMMANDS), "JSON config file (schema 1)", metavar="PATH"),
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
         "beta_direction", choices=_DIRECTIONS),
    _Opt("noise", _noise, _on(_RUNS, ZeroNoise()), _NOISE_USAGE, "noise", metavar="SPEC"),
    _Opt("trials", int, _on(_RUNS, 100), "number of Monte Carlo trials (default {})", "trials"),
    _Opt("seed", int, _on(_RUNS, 0), "base seed (default {})", "seed"),
    _Opt("threads", int, _on(_RUNS, 1), "worker thread cap; never affects results", least=1),
    _Opt("out", _path, _on(_COMMANDS), "output base path (known suffixes stripped)",
         metavar="PATH"),
    _Opt("format", str, _on(_COMMANDS, "json"), "output format (default {})",
         choices=("json", "csv", "both")),
    _Opt("quiet", bool, _on(_COMMANDS, False), "suppress the stdout tables"),
    _Opt("snr_grid", _snr_grid, {"scan": _REQUIRED}, "log-spaced SNR targets", metavar="LO:HI:N"),
    _Opt("checks", _checks, _on(_RUNS, ALL_CHECKS), None, "checks"),
    _Opt("rel_tol", float, _on(_RUNS, 1e-10), None, "rel_tol"),
)}
_CONSTANTS = tuple(f.name for f in fields(Constants))
# A run's config keys in echo order, each with its ExperimentConfig field and the writer of
# its echo (None: the value itself); the config file takes these and those of the spectrum,
# beta_values and the schema, which have rules of their own.
_RUN_KEYS = (("n", "n", None), ("beta_norm", "beta_norm", None),
             ("beta_direction", "beta_direction", None), ("noise", "noise_model", noise_to_dict),
             ("trials", "trials", None), ("seed", "seed", None), ("constants", "constants", asdict),
             ("checks", "checks", sorted), ("rel_tol", "rel_tol", None))
_CONFIG_KEYS = {key for key, _, _ in _RUN_KEYS} | {"schema", "spectrum", "beta_values"}


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
    value = strict_value(row.conv, raw, where, text)
    if row.choices:
        _check_choice(row.flag, value, row.choices)
    if row.least is not None and value < row.least:
        raise _CliError(f"{row.flag} must be at least {row.least}, got {value}")
    return value


def _resolve(ns) -> None:
    """Resolve every option of ns.subcommand into ns, converted and checked.

    The spectrum, constants and beta_values follow their own rules after the
    rows.  All errors are raised together, before any work runs; a config
    file that cannot be read, or breaks the schema, at once, since nothing
    read from it could be trusted.
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
        ns.beta_values = _collect(errors, _config_array, conf, "beta_values")
    if errors:
        raise _CliError(errors)


# ---------------------------------------------------------------------------
# spectrum resolution


def _values_spectrum(file: Path | None = None, values: np.ndarray | None = None) -> Spectrum:
    """The values as given, else the file's values sorted non-increasing."""
    if values is not None:
        return Spectrum(values)
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
                    "eigenvalues from a text file", lambda s: {"values": s.values}),
}
_SPECTRUM_BUILDERS = {kind: row.build for kind, row in _SPECTRUM_KINDS.items()}


def _spectrum_from_spec(spec) -> tuple[Spectrum, dict]:
    """Build a spectrum from its dict form; returns (spectrum, resolved echo)."""
    try:  # a refusal of a value is a _CliError, which names its key
        kind, args = read_spec(spec, _SPECTRUM_BUILDERS, "config spectrum ")
        s = _SPECTRUM_KINDS[kind].build(**args)
    except (OSError, ValueError) as exc:
        raise _CliError(f"spectrum: {exc}")
    row = _SPECTRUM_KINDS[kind]
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
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _CliError(f"config file: {exc}")
    except (RecursionError, ValueError) as exc:  # too deep, not JSON, an int beyond 4300 digits
        raise _CliError(f"config file {path}: invalid JSON ({exc})")
    if not isinstance(data, dict):
        raise _CliError(f"config file {path}: expected a JSON object")
    errors = []
    schema = data.get("schema")
    if isinstance(schema, bool) or schema != 1:  # True == 1, but a bool is no schema number
        errors.append(f"config file {path}: 'schema' must be 1, got {schema!r}")
    for key in sorted(set(data) - _CONFIG_KEYS):
        errors.append(f"config file {path}: unknown key {key!r}")
    if errors:
        raise _CliError(errors)
    return data


def _resolve_constants(ns, section) -> Constants | None:
    """The constants from their rows; the config file's object must hold only their keys."""
    if section is not None and not isinstance(section, dict):
        raise _CliError(f"config constants: expected an object, got {section!r}")
    if unknown := sorted(set(section or ()) - set(_CONSTANTS)):
        raise _CliError(f"config constants: unknown constants keys: {unknown}")
    values = {name: getattr(ns, name) for name in _CONSTANTS}
    if None in values.values():  # a value that did not convert, already reported
        return None
    try:
        return Constants(**values)
    except ValueError as exc:
        raise _CliError(f"constants: {exc}")


def _config_array(conf: dict, key: str):
    """The number array the config file gives under key (see _numbers); None when absent."""
    if conf.get(key) is None:
        return None
    try:
        return _numbers(conf[key], "config " + key)
    except (OSError, ValueError) as exc:  # a file that cannot be read or parsed
        raise _CliError(f"config {key}: {exc}")


def _experiment_config(ns) -> ExperimentConfig:
    return ExperimentConfig(covariance=CovarianceModel(ns.spectrum[0]), beta_values=ns.beta_values,
                            **{name: getattr(ns, key) for key, name, _ in _RUN_KEYS})


def _config_echo(config: ExperimentConfig, spectrum_echo: dict) -> dict:
    """The run's config under the config file's keys, enough to re-run it bit for bit; without
    the worker count, since results and output files are the same at any thread count."""
    echo = {"schema": 1, "spectrum": spectrum_echo}
    for key, name, write in _RUN_KEYS:
        echo[key] = write(getattr(config, name)) if write else getattr(config, name)
    if config.beta_values is not None:
        echo["beta_values"] = [float(v) for v in config.beta_values]
    return echo


# ---------------------------------------------------------------------------
# output helpers

_KNOWN_SUFFIXES = (".plot.csv", ".json", ".csv")


def _output_base(out) -> str | None:
    """BASE of --out, known suffixes stripped (None without it); it must name a file in a
    directory that exists and is writable, so a bad path fails before any work, not after.
    """
    if out is None:  # an empty --out is refused by its reader, _path
        return None
    base = next((out[: -len(s)] for s in _KNOWN_SUFFIXES if out.endswith(s)), out)
    if os.path.basename(base) in ("", ".", ".."):  # BASE.json would be a hidden file
        raise _CliError(f"--out: {out!r} names no file")
    folder = os.path.dirname(base) or "."
    if not os.path.isdir(folder):
        raise _CliError(f"--out: directory {folder!r} does not exist")
    if not os.access(folder, os.W_OK):
        raise _CliError(f"--out: directory {folder!r} is not writable")
    return base


def _write(path: str, text) -> None:
    try:
        write_text(path, text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc.strerror or exc}")


def _write_outputs(ns, payload, csv_pieces) -> None:
    """Write BASE.json and/or BASE.csv, as ns.format selects, when ns.out is a BASE.

    payload() gives the JSON object and csv_pieces() the CSV text in
    pieces; each is built only when written, and rendered as it is written.
    """
    if ns.out is None:
        return
    if ns.format in ("json", "both"):
        _write(ns.out + ".json", json_pieces(payload()))
    if ns.format in ("csv", "both"):
        _write(ns.out + ".csv", csv_pieces())


def _fields(obj, *drop) -> dict:
    """A dataclass's fields by name, in declared order, less those named in drop."""
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in drop}


# A trial record's CSV columns (also its JSON keys) and their getter: _fields per record
# would leave one tuple per fields() call on CPython's free list (0.2 MB at 2000 records).
_RECORD_COLUMNS = tuple(f.name for f in fields(TrialRecord))
_record_values = operator.attrgetter(*_RECORD_COLUMNS)


def _csv(header, rows):
    """The CSV lines of header and then of each row, made as they are written."""
    return map(csv_line, itertools.chain([header], rows))


def _run_view(result) -> dict:
    """A run's diagnostics, aggregates, rates and skipped checks: each scan point's view."""
    return {"diagnostics": asdict(result.diagnostics), "aggregates": result.aggregates,
            "rates": result.rates, "skipped": result.skipped}


def _run_payload(result, spectrum_echo: dict) -> dict:
    """simulate's JSON payload: the config echo, the run's view and every record, each
    rendered from its TrialRecord as the dict of its fields."""
    return {"config": _config_echo(result.config, spectrum_echo), **_run_view(result),
            "records": result.records}


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _print_aggregates(aggregates: dict) -> None:
    width = max(len(name) for name in aggregates)
    print(f"{'metric':<{width}}  " + "  ".join(f"{c:>12}" for c in _STATS))
    for name, stats in aggregates.items():
        row = "  ".join(f"{_fmt(stats[c]):>12}" for c in _STATS)
        print(f"{name:<{width}}  {row}")


def _identity_status(config, results) -> int:
    """Print the identity check's line when the runs make it; 3 if it failed, else 0."""
    if not config._runs(CHECK_IDENTITY):
        return 0
    worst = max(result.aggregates["identity_residual"]["max"] for result in results)
    ok = worst <= IDENTITY_TOL
    tag = "[OK]" if ok else "[FAIL]"
    print(f"{tag} identity: max residual {worst:.3e} (tolerance {IDENTITY_TOL:g})")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# subcommands


def _cmd_diagnose(ns) -> int:
    spectrum, spec_echo = ns.spectrum
    report = diagnose(spectrum, ns.n, ns.beta_norm, ns.xi_norm, ns.constants)
    report_dict = asdict(report)

    def rows():
        for key, value in report_dict.items():
            if key == "constants":
                yield from ((f"constants.{k}", v) for k, v in value.items())
            else:
                yield (key, value)

    payload = {"schema": 1, "spectrum": spec_echo, **report_dict}
    _write_outputs(ns, lambda: payload, lambda: _csv(("key", "value"), rows()))
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
        lambda: _run_payload(result, ns.spectrum[1]),
        lambda: _csv(_RECORD_COLUMNS, map(_record_values, result.records)),
    )

    if not ns.quiet:
        _print_aggregates(result.aggregates)
        for name, value in result.rates.items():
            print(f"{name} {_fmt(value)}")
        for check, reason in result.skipped.items():
            print(f"[SKIP] {check}: {reason}")
    return _identity_status(ns.experiment, [result])


_PLOT_COLUMNS = (
    "snr", "regime", "median_pred", "q05_pred", "q95_pred", "upper_bound", "lower_bound",
    "corollary_upper", "corollary_lower", "snr_threshold", "snr_threshold_cn",
)


def _cmd_scan(ns) -> int:
    config = ns.experiment
    points = snr_scan(config, ns.snr_grid, threads=ns.threads)

    def payload():  # the first point's config echo stands for all; records go to BASE.csv
        return {
            "config": _config_echo(points[0].result.config, ns.spectrum[1]),
            "snr_grid": [pt.snr_target for pt in points],
            "points": ({**_fields(pt, "result"), **_run_view(pt.result)} for pt in points),
        }

    rows = ((pt.snr_target, pt.regime, *_record_values(r))
            for pt in points for r in pt.result.records)

    def plot_row(pt):  # one value per _PLOT_COLUMNS entry
        diag, agg = pt.result.diagnostics, pt.result.aggregates["pred_error"]
        return (
            pt.snr_target, pt.regime, agg["median"], agg["q05"], agg["q95"], diag.upper_bound,
            diag.lower_bound, diag.corollary_upper, diag.corollary_lower, pt.snr_threshold,
            pt.snr_threshold_cn,
        )

    _write_outputs(ns, payload, lambda: _csv(("snr", "regime", *_RECORD_COLUMNS), rows))
    if ns.out is not None:
        _write(ns.out + ".plot.csv", _csv(_PLOT_COLUMNS, map(plot_row, points)))

    if not ns.quiet:
        for pt in points:
            print(
                f"snr {_fmt(pt.snr_target):>12}  regime {pt.regime:<7}  "
                f"median_pred {_fmt(pt.result.aggregates['pred_error']['median'])}"
            )
        switches = sum(a.regime != b.regime for a, b in zip(points, points[1:]))
        print(f"regime switches: {switches}")
    return _identity_status(config, [pt.result for pt in points])


def _cmd_spectrum(ns) -> int:
    spectrum, spec_echo = ns.spectrum
    payload = {"schema": 1, "spectrum": spec_echo, "p": spectrum.p, "trace": spectrum.trace}
    _write_outputs(
        ns,
        lambda: {**payload, "values": spectrum.values},
        # one value per line, headerless: loadable back through --spectrum-file
        lambda: itertools.chain(format_floats(spectrum.values, "\n"), ["\n"]),
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
        ("spectrum", _cmd_spectrum, "build a spectrum and export its values"),
    ):
        sub = subs.add_parser(cmd, help=text)
        for kind in _SPECTRUM_KINDS.values():
            metavar = kind.metavar if kind.nargs else kind.metavar[0]
            sub.add_argument(kind.flag, nargs=kind.nargs, metavar=metavar, help=kind.help)
        for row in _OPTIONS.values():
            if cmd not in row.defaults or row.help is None:
                continue
            text = row.help.format(_fmt(row.defaults[cmd]))
            if row.conv is bool:  # the flag alone means 1
                sub.add_argument("-" + row.name[0], row.flag, action="store_const", const="1",
                                 help=text)
            else:  # choices are checked with every other value, so argparse only shows them
                metavar = "{%s}" % ",".join(row.choices) if row.choices else row.metavar
                sub.add_argument(row.flag, metavar=metavar, help=text)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()  # so that a closed pipe raises here, not at interpreter exit
        return code
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Python's SIGPIPE recipe: stdout's pending bytes go to devnull at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _dispatch(argv) -> int:
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
