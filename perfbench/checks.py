"""Output checks: key values of each CLI call, compared with values
recorded at the seed commit (golden.json, written by record_golden.py).

Strings and integers (regimes, the switch count, k_star, k_bar) must match
exactly; floats within REL_TOL.  For a seed with no recording, only the
keys that read the same on every recorded seed are compared.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# Loose enough for values the diagnose report prints with 6 significant
# digits; far below any change a defect would make.
REL_TOL = 1e-5

_DIAGNOSE_KEYS = ("k_star", "k_bar", "regime", "trace", "r_kstar", "rho", "r_star",
                  "r_bar", "upper_bound", "corollary_upper")


def _scalar(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _scan_keys(stdout: str, base: str) -> dict:
    data = json.loads(Path(base + ".json").read_text())
    keys = {"switches": int(stdout.split("regime switches:")[1].split()[0])}
    for i, pt in enumerate(data["points"]):
        diag, pred = pt["diagnostics"], pt["aggregates"]["pred_error"]
        keys.update({
            f"points.{i}.regime": pt["regime"],
            f"points.{i}.k_star": diag["k_star"],
            f"points.{i}.k_bar": diag["k_bar"],
            f"points.{i}.median_pred": pred["median"],
            f"points.{i}.mean_pred": pred["mean"],
        })
    return keys


def _simulate_keys(stdout: str, base: str) -> dict:
    data = json.loads(Path(base + ".json").read_text())
    diag, agg = data["diagnostics"], data["aggregates"]
    keys = {f"diagnostics.{k}": diag[k] for k in ("k_star", "k_bar", "regime", "rho", "r_star")}
    keys.update({
        "pred_error.median": agg["pred_error"]["median"],
        "pred_error.mean": agg["pred_error"]["mean"],
        "est_error.mean": agg["est_error"]["mean"],
        "sigma_min.median": agg["sigma_min"]["median"],
    })
    keys.update({f"rates.{k}": v for k, v in data["rates"].items()})
    return keys


def _diagnose_keys(stdout: str, base) -> dict:
    report = {}
    for line in stdout.splitlines():
        parts = line.split(None, 1)
        if len(parts) == 2:
            report[parts[0]] = _scalar(parts[1].strip())
    return {k: report[k] for k in _DIAGNOSE_KEYS}


EXTRACT = {"scan": _scan_keys, "simulate": _simulate_keys, "diagnose": _diagnose_keys}


def out_base(argv):
    """The --out base of a CLI call, or None."""
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def key_values(argv, stdout: str) -> dict:
    """Key values of one call's outputs; raises on missing or malformed output."""
    return EXTRACT[argv[0]](stdout, out_base(argv))


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    return a == b and type(a) is type(b)


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def compare(observed: dict, recorded: dict, seed: int):
    """Mismatches of one call's keys against recorded[seed] (a dict of
    seed -> keys).  Returns (messages, how), how naming what was compared."""
    if str(seed) in recorded:
        expected, how = recorded[str(seed)], f"golden values of seed {seed}"
    else:
        runs = list(recorded.values())
        expected = {
            k: v for k, v in runs[0].items() if all(k in r and _same(r[k], v) for r in runs)
        } if runs else {}
        how = f"{len(expected)} seed-independent golden values"
    messages = [
        f"{key}: expected {want!r}, got {observed.get(key)!r}"
        for key, want in expected.items()
        if key not in observed or not _same(observed[key], want)
    ]
    return messages, how
