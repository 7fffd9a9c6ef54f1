"""Command-line front end: diagnostics, experiments, SNR scans, certificates.

Option precedence is flags > environment > config file > defaults.  Every
long flag has an environment twin with the RIDGELESS_ prefix (dashes to
underscores, upper case); multi-token flags take the same tokens space
separated, e.g. RIDGELESS_EXP_FLOOR="300 20 1e-4".

Exit codes: 0 success, 1 usage or config error, 2 degenerate mathematics
(infinite effective-rank index), 3 hard-check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .diagnostics import Constants, diagnose, effective_rank_index
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
from .noise import WORST_SINGULAR, ZeroNoise, noise_from_dict
from .serialize import csv_line, format_float, to_json, write_text
from .spectra import (
    CovarianceModel,
    Spectrum,
    load_spectrum,
    make_exp_floor_spectrum,
    make_flat_spectrum,
    make_three_level_spectrum,
    read_vector,
)

__all__ = ["main", "entry"]

ENV_PREFIX = "RIDGELESS_"

_CONFIG_KEYS = {
    "schema",
    "spectrum",
    "n",
    "beta_norm",
    "beta_direction",
    "beta_values",
    "noise",
    "trials",
    "seed",
    "constants",
    "checks",
    "rel_tol",
    "rotation",
}


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
    return os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"))


def _pick(flag_value, env_name: str, parse, file_value=None, default=None):
    """Apply the precedence chain for one scalar option."""
    if flag_value is not None:
        return flag_value
    raw = _env(env_name)
    if raw is not None:
        try:
            return parse(raw)
        except (TypeError, ValueError) as exc:
            raise _CliError(f"environment {ENV_PREFIX}{env_name.upper()}: {exc}")
    if file_value is not None:
        return file_value
    return default


# ---------------------------------------------------------------------------
# spectrum resolution


def _parse(conv, text, what: str):
    """conv(text), or a usage error naming the option."""
    try:
        return conv(text)
    except (TypeError, ValueError):
        expected = "an integer" if conv is int else "a number"
        raise _CliError(f"{what}: expected {expected}, got {text!r}")


def _values_spectrum(file, values) -> Spectrum:
    """Inline values as given, else the file's values sorted non-increasing."""
    if values is not None:
        return Spectrum(np.asarray(values, dtype=float))
    if file is None:
        raise _CliError("spectrum of type 'values' needs 'values' or 'file'")
    loaded = load_spectrum(file)
    if loaded.reordered:
        print(
            f"note: spectrum file {file} was not sorted; values reordered to non-increasing",
            file=sys.stderr,
        )
    return loaded.spectrum


class _Kind(NamedTuple):
    """One spectrum kind: its flag, its config keys and its builder.

    The flag's tokens fill `keys` in order; the echo lists them in the
    same order after "type".  Keys in `defaults` may be left out.
    """

    flag: str
    nargs: object  # argparse nargs; None: one token, unsplit in the environment
    metavar: tuple
    keys: dict  # config key -> converter
    build: object  # keyword arguments named by keys -> Spectrum
    help: str
    defaults: dict = {}
    echo: object = None  # Spectrum -> echo fields, when not the keys themselves

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


_SPECTRUM_KINDS = {
    "flat": _Kind(
        "--flat", "+", ("P", "V"), {"p": int, "value": float}, make_flat_spectrum,
        "flat spectrum: P eigenvalues, each V (default 1)", {"value": 1.0},
    ),
    "exp_floor": _Kind(
        "--exp-floor", 3, ("P", "TAU", "EPS"), {"p": int, "tau": float, "eps": float},
        make_exp_floor_spectrum, "exp(-k/TAU) + EPS, k = 1..P",
    ),
    "three_level": _Kind(
        "--three-level", 5, ("K1", "CN", "P", "E1", "E2"),
        {"k1": int, "c_times_n": int, "p": int, "eps1": float, "eps2": float},
        make_three_level_spectrum, "three-level spectrum",
    ),
    # An inline list or an external file; the echo pins the resolved
    # (sorted) values so a re-run does not depend on the file's future.
    "values": _Kind(
        "--spectrum-file", None, ("PATH",), {"file": str, "values": list}, _values_spectrum,
        "eigenvalues from a text file", {"file": None, "values": None},
        lambda s: {"values": s.values.tolist()},
    ),
}


def _spec_from_tokens(kind: str, tokens) -> dict:
    row = _SPECTRUM_KINDS[kind]
    least = sum(key not in row.defaults for key in row.keys)
    if not least <= len(tokens) <= len(row.metavar):
        usage = " ".join(m if i < least else f"[{m}]" for i, m in enumerate(row.metavar))
        raise _CliError(f"{row.flag} takes {usage}")
    spec = {"type": kind}
    for (key, conv), meta, token in zip(row.keys.items(), row.metavar, tokens):
        spec[key] = _parse(conv, token, f"{row.flag} {meta}")
    return spec


def _spectrum_from_spec(spec: dict) -> tuple[Spectrum, dict]:
    """Build a spectrum from its dict form; returns (spectrum, resolved echo)."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise _CliError("spectrum spec must be an object with a 'type' field")
    kind = spec["type"]
    row = _SPECTRUM_KINDS.get(kind)
    if row is None:
        raise _CliError(
            f"spectrum type must be one of {sorted(_SPECTRUM_KINDS)}, got {kind!r}"
        )
    unknown = set(spec) - set(row.keys) - {"type"}
    if unknown:
        raise _CliError([f"spectrum: unknown key {k!r}" for k in sorted(unknown)])
    args = {}
    for key, conv in row.keys.items():
        if key in spec:
            args[key] = _parse(conv, spec[key], f"spectrum {key}")
        elif key in row.defaults:
            args[key] = row.defaults[key]
        else:
            raise _CliError(f"spectrum: missing key {key!r}")
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
                sources.append(_spec_from_tokens(kind, raw))
        if len(sources) > 1:
            raise _CliError("give exactly one spectrum source" + where)
        if sources:
            return _spectrum_from_spec(sources[0])
    if file_spec is not None:
        return _spectrum_from_spec(file_spec)
    flags = "/".join(row.flag for row in _SPECTRUM_KINDS.values())
    raise _CliError(f"no spectrum given: use {flags} or a config file")


# ---------------------------------------------------------------------------
# noise resolution

# --noise forms: usage -> (the fixed part of the noise dict, the keys that
# the colon-separated parameters fill in order).
_NOISE_FORMS = {
    "zero": ({"type": "zero"}, ()),
    "gaussian:S": ({"type": "gaussian"}, ("sigma",)),
    "student:DF:S": ({"type": "student"}, ("df", "scale")),
    "worst:S": ({"type": "scaled_direction", "direction": WORST_SINGULAR}, ("target_norm",)),
    "file:PATH": ({"type": "deterministic"}, ("values",)),
}
_NOISE_USAGE = " | ".join(_NOISE_FORMS)


def parse_noise_spec(text: str):
    """zero | gaussian:S | student:DF:S | worst:S | file:PATH"""
    head, _, rest = text.partition(":")
    usage = next((u for u in _NOISE_FORMS if u.partition(":")[0] == head), None)
    if usage is None:
        raise _CliError(f"unknown noise spec {text!r}: expected {_NOISE_USAGE}")
    fixed, keys = _NOISE_FORMS[usage]
    # the last parameter keeps any further colons (a file path may hold them)
    params = rest.split(":", len(keys) - 1) if rest else []
    if len(params) != len(keys) or "" in params:
        raise _CliError(f"noise {head!r} takes {usage}, got {text!r}")
    try:
        return noise_from_dict({**fixed, **dict(zip(keys, params))})
    except (OSError, ValueError) as exc:
        raise _CliError(f"--noise: {exc}")


# ---------------------------------------------------------------------------
# config file


def _load_config_file(ns) -> dict:
    """The contents of --config (or RIDGELESS_CONFIG); {} when neither is given."""
    path = ns.config if ns.config is not None else _env("config")
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


def _resolve_constants(ns, file_conf: dict) -> Constants:
    base = file_conf.get("constants")
    if base is not None:
        try:
            cons = Constants.from_dict(base)
        except (TypeError, ValueError) as exc:
            raise _CliError(f"config constants: {exc}")
    else:
        cons = Constants()
    fields = {}
    for name in ("c0", "eta", "gamma", "c3", "c_frac"):
        value = _pick(getattr(ns, name), name, float)
        if value is not None:
            fields[name] = value
    if not fields:
        return cons
    try:
        return Constants(**{**cons.to_dict(), **fields})
    except ValueError as exc:
        raise _CliError(f"constants: {exc}")


def _resolve_checks(file_conf: dict):
    raw = _env("checks")
    if raw is not None:
        names = [t for t in raw.replace(",", " ").split() if t]
    elif "checks" in file_conf:
        names = file_conf["checks"]
        if not isinstance(names, list):
            raise _CliError("config checks: expected a list of check names")
    else:
        return ALL_CHECKS
    unknown = sorted(set(names) - ALL_CHECKS)
    if unknown:
        raise _CliError([f"unknown check {name!r}" for name in unknown])
    return frozenset(names)


def _required_n(ns, file_conf: dict) -> int:
    n = _pick(ns.n, "n", int, file_conf.get("n"))
    if n is None:
        raise _CliError("missing required option --n")
    return n


def _threads(ns) -> int:
    threads = _pick(ns.threads, "threads", int, None, 1)
    if threads < 1:
        raise _CliError(f"--threads must be at least 1, got {threads}")
    return threads


def _build_experiment_config(ns) -> ExperimentConfig:
    file_conf = _load_config_file(ns)

    errors = []
    spectrum = spec_echo = None
    try:
        spectrum, spec_echo = _resolve_spectrum(ns, file_conf.get("spectrum"))
    except _CliError as exc:
        errors.extend(exc.messages)

    noise = None
    try:
        noise_text = _pick(ns.noise, "noise", str)
        if noise_text is not None:
            noise = parse_noise_spec(noise_text)
        elif "noise" in file_conf:
            noise = noise_from_dict(file_conf["noise"])
        else:
            noise = ZeroNoise()
    except _CliError as exc:
        errors.extend(exc.messages)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        errors.append(f"config noise: {exc}")

    constants = Constants()
    try:
        constants = _resolve_constants(ns, file_conf)
    except _CliError as exc:
        errors.extend(exc.messages)

    checks = ALL_CHECKS
    try:
        checks = _resolve_checks(file_conf)
    except _CliError as exc:
        errors.extend(exc.messages)

    n = trials = seed = beta_norm = beta_direction = rel_tol = None
    try:
        n = _required_n(ns, file_conf)
    except _CliError as exc:
        errors.extend(exc.messages)
    try:
        trials = _pick(ns.trials, "trials", int, file_conf.get("trials"), 100)
        seed = _pick(ns.seed, "seed", int, file_conf.get("seed"), 0)
        beta_norm = _pick(ns.beta_norm, "beta_norm", float, file_conf.get("beta_norm"), 0.0)
        beta_direction = _pick(
            ns.beta_direction, "beta_direction", str, file_conf.get("beta_direction"), "e1"
        )
        rel_tol = _pick(None, "rel_tol", float, file_conf.get("rel_tol"), 1e-10)
    except _CliError as exc:
        errors.extend(exc.messages)

    beta_values = None
    if file_conf.get("beta_values") is not None:
        try:
            beta_values = read_vector(file_conf["beta_values"])
        except (OSError, ValueError) as exc:
            errors.append(f"config beta_values: {exc}")

    rotation = None
    if file_conf.get("rotation") is not None:
        try:
            rotation = np.asarray(file_conf["rotation"], dtype=float)
        except ValueError as exc:
            errors.append(f"config rotation: {exc}")

    if errors:
        raise _CliError(errors)

    try:
        cov = CovarianceModel(spectrum, rotation)
        return ExperimentConfig(
            covariance=cov,
            n=n,
            noise_model=noise,
            trials=trials,
            seed=seed,
            constants=constants,
            beta_norm=beta_norm,
            beta_direction=beta_direction,
            beta_values=beta_values,
            checks=checks,
            rel_tol=rel_tol,
            spectrum_spec=spec_echo,
        )
    except (TypeError, ValueError) as exc:
        raise _CliError(str(exc))


# ---------------------------------------------------------------------------
# output helpers

_KNOWN_SUFFIXES = (".plot.csv", ".json", ".csv")


def _pick_format(ns) -> str:
    fmt = _pick(ns.format, "format", str, None, "json")
    if fmt not in ("json", "csv", "both"):
        raise _CliError(f"--format must be json, csv, or both, got {fmt!r}")
    return fmt


def _out_base(path: str) -> str:
    for suffix in _KNOWN_SUFFIXES:
        if path.endswith(suffix):
            return path[: -len(suffix)]
    return path


def _output_target(ns) -> tuple[str | None, str]:
    """(BASE, format) from --out and --format, checked before any work runs.

    BASE is None without --out; with it, BASE's directory must exist and
    be writable, so a bad path fails before the trials rather than after.
    """
    fmt = _pick_format(ns)
    out = _pick(ns.out, "out", str)
    if not out:
        return None, fmt
    base = _out_base(out)
    folder = os.path.dirname(base) or "."
    if not os.path.isdir(folder):
        raise _CliError(f"--out: directory {folder!r} does not exist")
    if not os.access(folder, os.W_OK):
        raise _CliError(f"--out: directory {folder!r} is not writable")
    return base, fmt


def _write(path: str, text: str) -> None:
    try:
        write_text(path, text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc.strerror or exc}")


def _write_outputs(target, payload, rows) -> None:
    """Write BASE.json and/or BASE.csv as the target's format selects.

    target is _output_target's (BASE, format); nothing is written when BASE
    is None.  payload() gives the JSON object and rows() the CSV rows,
    header first; each is built only when written.
    """
    base, fmt = target
    if base is None:
        return
    if fmt in ("json", "both"):
        _write(base + ".json", to_json(payload()))
    if fmt in ("csv", "both"):
        _write(base + ".csv", "".join(csv_line(row) for row in rows()))


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _print_aggregates(aggregates: dict, out=sys.stdout) -> None:
    cols = ("min", "q05", "median", "q95", "max", "mean")
    width = max(len(name) for name in aggregates)
    print(f"{'metric':<{width}}  " + "  ".join(f"{c:>12}" for c in cols), file=out)
    for name, stats in aggregates.items():
        row = "  ".join(f"{_fmt(stats[c]):>12}" for c in cols)
        print(f"{name:<{width}}  {row}", file=out)


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
    file_conf = _load_config_file(ns)
    spectrum, spec_echo = _resolve_spectrum(ns, file_conf.get("spectrum"))
    n = _required_n(ns, file_conf)
    beta_norm = _pick(ns.beta_norm, "beta_norm", float, file_conf.get("beta_norm"), 0.0)
    xi_norm = _pick(ns.xi_norm, "xi_norm", float, None, 0.0)
    constants = _resolve_constants(ns, file_conf)
    target = _output_target(ns)

    try:
        report = diagnose(spectrum, n, beta_norm, xi_norm, constants)
    except ValueError as exc:
        raise _CliError(str(exc))

    report_dict = report.to_dict()

    def rows():
        yield ("key", "value")
        for key, value in report_dict.items():
            if key == "constants":
                yield from ((f"constants.{k}", v) for k, v in value.items())
            else:
                yield (key, value)

    _write_outputs(target, lambda: {"schema": 1, "spectrum": spec_echo, **report_dict}, rows)
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
    config = _build_experiment_config(ns)
    threads = _threads(ns)
    target = _output_target(ns)
    try:
        result = run_experiment(config, threads=threads)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _write_outputs(
        target,
        lambda: result_to_dict(result),
        lambda: [record_csv_header(), *map(record_csv_row, result.records)],
    )

    if not ns.quiet:
        _print_aggregates(result.aggregates)
        for name, value in result.rates.items():
            print(f"{name} {_fmt(value)}")
        for check, reason in result.skipped.items():
            print(f"[SKIP] {check}: {reason}")
    return _identity_status(config, result.records)


def _parse_snr_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise _CliError(f"--snr-grid takes LO:HI:N, got {text!r}")
    lo = _parse(float, parts[0], "--snr-grid LO")
    hi = _parse(float, parts[1], "--snr-grid HI")
    count = _parse(int, parts[2], "--snr-grid N")
    if not (lo > 0 and hi > lo and count >= 2):
        raise _CliError("--snr-grid needs 0 < LO < HI and N >= 2")
    return [float(v) for v in np.geomspace(lo, hi, count)]


_PLOT_COLUMNS = (
    "snr",
    "regime",
    "median_pred",
    "q05_pred",
    "q95_pred",
    "upper_bound",
    "lower_bound",
    "corollary_upper",
    "corollary_lower",
    "snr_threshold",
    "snr_threshold_cn",
)


def _cmd_scan(ns) -> int:
    grid_text = _pick(ns.snr_grid, "snr_grid", str)
    if grid_text is None:
        raise _CliError("missing required option --snr-grid LO:HI:N")
    grid = _parse_snr_grid(grid_text)
    config = _build_experiment_config(ns)
    if math.isinf(effective_rank_index(config.covariance.spectrum, config.n, config.constants.c0)):
        print(
            "error: effective-rank index is infinite for this spectrum and c0; "
            "the scan's regime split is undefined",
            file=sys.stderr,
        )
        return 2
    threads = _threads(ns)
    target = _output_target(ns)
    try:
        points = snr_scan(config, grid, threads=threads)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        raise _CliError(str(exc))

    def payload():
        return {
            "config": points[0].result.config_echo,
            "snr_grid": [pt.snr_target for pt in points],
            "points": [
                {
                    "snr_target": pt.snr_target,
                    "beta_norm": pt.beta_norm,
                    "regime": pt.regime,
                    "snr_threshold": pt.snr_threshold,
                    "snr_threshold_cn": pt.snr_threshold_cn,
                    "diagnostics": pt.result.diagnostics.to_dict(),
                    "aggregates": pt.result.aggregates,
                    "rates": pt.result.rates,
                    "skipped": pt.result.skipped,
                }
                for pt in points
            ],
        }

    def rows():
        yield record_csv_header(extra=("snr", "regime"))
        for pt in points:
            for r in pt.result.records:
                yield record_csv_row(r, extra=(pt.snr_target, pt.regime))

    _write_outputs(target, payload, rows)
    base = target[0]
    if base is not None:
        plot_lines = [csv_line(_PLOT_COLUMNS)]
        for pt in points:
            diag = pt.result.diagnostics
            agg = pt.result.aggregates["pred_error"]
            plot_lines.append(
                csv_line(
                    [
                        pt.snr_target,
                        pt.regime,
                        agg["median"],
                        agg["q05"],
                        agg["q95"],
                        diag.upper_bound,
                        diag.lower_bound,
                        diag.corollary_upper,
                        diag.corollary_lower,
                        pt.snr_threshold,
                        pt.snr_threshold_cn,
                    ]
                )
            )
        _write(base + ".plot.csv", "".join(plot_lines))

    if not ns.quiet:
        for pt in points:
            print(
                f"snr {_fmt(pt.snr_target):>12}  regime {pt.regime:<7}  "
                f"median_pred {_fmt(pt.result.aggregates['pred_error']['median'])}"
            )
        switches = sum(
            1 for a, b in zip(points, points[1:]) if a.regime != b.regime
        )
        print(f"regime switches: {switches}")
    return _identity_status(config, [r for pt in points for r in pt.result.records])


def _cmd_certify(ns) -> int:
    file_conf = _load_config_file(ns)
    spectrum, spec_echo = _resolve_spectrum(ns, file_conf.get("spectrum"))
    n = _required_n(ns, file_conf)
    trials = _pick(ns.trials, "trials", int, file_conf.get("trials"), 200)
    seed = _pick(ns.seed, "seed", int, file_conf.get("seed"), 0)
    constants = _resolve_constants(ns, file_conf)
    bins = _pick(ns.bins, "bins", int, None, 20)
    target = _output_target(ns)

    if math.isinf(effective_rank_index(spectrum, n, constants.c0)):
        print(
            "error: effective-rank index is infinite; the certificate threshold "
            "is undefined",
            file=sys.stderr,
        )
        return 2
    try:
        study = certificate_study(spectrum, n, constants.c0, trials, seed, bins=bins)
    except ValueError as exc:
        raise _CliError(str(exc))

    payload = {
        "schema": 1,
        "spectrum": spec_echo,
        "n": n,
        "c0": constants.c0,
        "trials": trials,
        "seed": seed,
        "k_star": study.k_star,
        "r_kstar": study.r_kstar,
        "threshold": study.threshold,
        "pass_rate": study.pass_rate,
        "hist_edges": list(study.hist_edges),
        "hist_counts": list(study.hist_counts),
        "sigma_min": list(study.sigma_min),
    }
    edges = study.hist_edges
    _write_outputs(
        target,
        lambda: payload,
        lambda: [("ratio_lo", "ratio_hi", "count"), *zip(edges, edges[1:], study.hist_counts)],
    )

    if not ns.quiet:
        print(f"k_star {study.k_star}")
        print(f"r_kstar {format_float(study.r_kstar)}")
        print(f"threshold {format_float(study.threshold)}")
    print(f"pass_rate {format_float(study.pass_rate)}")
    return 0


def _cmd_spectrum(ns) -> int:
    spectrum, spec_echo = _resolve_spectrum(ns, _load_config_file(ns).get("spectrum"))
    target = _output_target(ns)

    values = spectrum.values.tolist()
    payload = {"schema": 1, "spectrum": spec_echo, "p": spectrum.p, "trace": spectrum.trace}
    _write_outputs(
        target,
        lambda: {**payload, "values": values},
        # one value per line, headerless: loadable back through --spectrum-file
        lambda: ([v] for v in values),
    )
    if not ns.quiet:
        print(f"p {spectrum.p}")
        print(f"trace {format_float(spectrum.trace)}")
        print(f"largest {format_float(float(spectrum.values[0]))}")
        print(f"smallest {format_float(float(spectrum.values[-1]))}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_spectrum_flags(sub) -> None:
    for row in _SPECTRUM_KINDS.values():
        metavar = row.metavar if row.nargs else row.metavar[0]
        sub.add_argument(row.flag, nargs=row.nargs, metavar=metavar, help=row.help)
    sub.add_argument("--config", metavar="PATH", help="JSON config file (schema 1)")


def _add_constant_flags(sub) -> None:
    sub.add_argument("--c0", type=float, help="effective-rank constant (default 10)")
    sub.add_argument("--eta", type=float, help="complexity-radius level (default 0.05)")
    sub.add_argument("--gamma", type=float, help="lower-radius budget fraction (default 0.5)")
    sub.add_argument("--c3", type=float, help="noise-floor constant (default 1)")
    sub.add_argument("--c-frac", type=float, help="cn = max(1, floor(c_frac * n)) (default 0.5)")


def _add_output_flags(sub) -> None:
    sub.add_argument("--out", metavar="PATH", help="output base path (known suffixes stripped)")
    sub.add_argument("--format", choices=("json", "csv", "both"), help="output format (default json)")
    sub.add_argument("-q", "--quiet", action="store_true", help="suppress the stdout tables")


def _add_experiment_flags(sub) -> None:
    sub.add_argument("--n", type=int, help="sample count")
    sub.add_argument("--beta-norm", type=float, help="true coefficient norm (default 0)")
    sub.add_argument("--beta-direction", choices=("e1", "random", "top"), help="true coefficient direction (default e1)")
    sub.add_argument("--noise", metavar="SPEC", help=_NOISE_USAGE)
    sub.add_argument("--trials", type=int, help="number of Monte Carlo trials (default 100)")
    sub.add_argument("--seed", type=int, help="base seed (default 0)")
    sub.add_argument("--threads", type=int, help="worker thread cap; never affects results")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ridgeless", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("diagnose", help="spectrum diagnostics and bound report")
    _add_spectrum_flags(p)
    _add_constant_flags(p)
    _add_output_flags(p)
    p.add_argument("--n", type=int, help="sample count")
    p.add_argument("--beta-norm", type=float, help="true coefficient norm (default 0)")
    p.add_argument("--xi-norm", type=float, help="noise norm (default 0)")
    p.set_defaults(func=_cmd_diagnose)

    p = subs.add_parser("simulate", help="run one Monte Carlo experiment")
    _add_spectrum_flags(p)
    _add_constant_flags(p)
    _add_experiment_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("scan", help="sweep the SNR grid and tag regimes")
    _add_spectrum_flags(p)
    _add_constant_flags(p)
    _add_experiment_flags(p)
    _add_output_flags(p)
    p.add_argument("--snr-grid", metavar="LO:HI:N", help="log-spaced SNR targets")
    p.set_defaults(func=_cmd_scan)

    p = subs.add_parser("certify", help="smallest-singular-value certificate study")
    _add_spectrum_flags(p)
    _add_constant_flags(p)
    _add_output_flags(p)
    p.add_argument("--n", type=int, help="sample count")
    p.add_argument("--trials", type=int, help="number of designs sampled (default 200)")
    p.add_argument("--seed", type=int, help="base seed (default 0)")
    p.add_argument("--bins", type=int, help="histogram bin count (default 20)")
    p.set_defaults(func=_cmd_certify)

    p = subs.add_parser("spectrum", help="build a spectrum and export its values")
    _add_spectrum_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_spectrum)

    return parser


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 1
    try:
        return ns.func(ns)
    except _CliError as exc:
        for message in exc.messages:
            print(f"error: {message}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
