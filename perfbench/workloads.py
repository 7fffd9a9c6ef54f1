"""The benchmark's workloads: the CLI calls each one makes, its inputs and
the set-up a fresh process pays before its first trial.

Each workload follows one half of the source paper.  ``scan-threaded`` and
``simulate-worst`` fit the min-norm interpolator by Monte Carlo;
``diagnose-1m`` computes the spectrum-only diagnostics at p = 10^6 with no
sampling.  Sizes in ``full`` are what the benchmark measures; ``smoke``
sizes exist so the harness itself can be tested in seconds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

# Threads for the pooled scan; never more than the machine has cores.
SCAN_THREADS = min(2, os.cpu_count() or 1)

# The eigenvalue file of diagnose-1m is Pareto(1.5) + 1e-6, so its
# effective-rank index depends on the seed.  This second seed was checked
# to give a finite k* (as were seeds 0-15 in golden.json); use it to verify
# a claim on a seed that was not used while writing the change.
VERIFY_SEED = 101


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict  # "full" / "smoke" -> parameters
    calls: object  # (params, seed, inputs, out_dir) -> list of argv lists
    setup: object  # (params, seed, inputs) -> None, run inside a fresh process
    prepare: object = None  # (params, seed, inputs) -> None, writes input files
    identity_line: bool = False  # stdout must report "[OK] identity"
    threads_reference: bool = False  # bytes must match a --threads 1 run

    def params(self, smoke: bool) -> dict:
        return self.sizes["smoke" if smoke else "full"]

    def work(self, smoke: bool) -> int:
        """Trials, or diagnose calls, per round: what work_per_s counts."""
        return self.params(smoke)["work"]


def _scan_calls(p, seed, inputs, out):
    return [[
        "scan", "--exp-floor", str(p["p"]), "20", "1e-4", "--n", str(p["n"]), "--c0", "0.2",
        "--noise", "gaussian:1", "--snr-grid", p["grid"], "--trials", str(p["trials"]),
        "--seed", str(seed), "--threads", str(SCAN_THREADS),
        "--out", os.path.join(out, "scan"), "--format", "both",
    ]]


def _scan_setup(p, seed, inputs):
    from ridgeless.cli import parse_noise_spec
    from ridgeless.diagnostics import Constants
    from ridgeless.experiments import ExperimentConfig
    from ridgeless.spectra import CovarianceModel, make_exp_floor_spectrum

    ExperimentConfig(
        covariance=CovarianceModel(make_exp_floor_spectrum(p["p"], 20.0, 1e-4)),
        n=p["n"], noise_model=parse_noise_spec("gaussian:1"), trials=p["trials"],
        seed=seed, constants=Constants(c0=0.2),
    )


def _simulate_calls(p, seed, inputs, out):
    return [[
        "simulate", "--flat", str(p["p"]), "--n", str(p["n"]), "--noise", "worst:1",
        "--beta-norm", "1", "--trials", str(p["trials"]), "--seed", str(seed),
        "--threads", "1", "--out", os.path.join(out, "simulate"), "--format", "both",
    ]]


def _simulate_setup(p, seed, inputs):
    from ridgeless.cli import parse_noise_spec
    from ridgeless.experiments import ExperimentConfig
    from ridgeless.spectra import CovarianceModel, make_flat_spectrum

    ExperimentConfig(
        covariance=CovarianceModel(make_flat_spectrum(p["p"])), n=p["n"],
        noise_model=parse_noise_spec("worst:1"), trials=p["trials"], seed=seed, beta_norm=1.0,
    )


def spectrum_file(inputs) -> str:
    return os.path.join(inputs, "eigenvalues.txt")


def _diagnose_prepare(p, seed, inputs):
    """Heavy-tailed eigenvalues drawn from the seed, written in ascending
    order so the CLI has to reorder them."""
    import numpy as np

    values = np.sort(np.random.default_rng(seed).pareto(1.5, p["p"]) + 1e-6)
    Path(spectrum_file(inputs)).write_text("".join(f"{v:.17g}\n" for v in values.tolist()))


def _diagnose_calls(p, seed, inputs, out):
    size = str(p["p"])
    return [
        ["diagnose", "--exp-floor", size, "20", "1e-4", "--n", "100", "--c0", "0.2",
         "--beta-norm", "1", "--xi-norm", "10"],
        ["diagnose", "--three-level", "10", "50", size, "1e-2", "1e-5", "--n", "100",
         "--c0", "1", "--beta-norm", "1", "--xi-norm", "1"],
        ["diagnose", "--spectrum-file", spectrum_file(inputs), "--n", "100",
         "--beta-norm", "1", "--xi-norm", "1", "--out", os.path.join(out, "diagnose")],
    ]


def _diagnose_setup(p, seed, inputs):
    from ridgeless.diagnostics import Constants
    from ridgeless.spectra import load_spectrum, make_exp_floor_spectrum, make_three_level_spectrum

    make_exp_floor_spectrum(p["p"], 20.0, 1e-4)
    make_three_level_spectrum(10, 50, p["p"], 1e-2, 1e-5)
    load_spectrum(spectrum_file(inputs))
    Constants(c0=0.2), Constants(c0=1.0), Constants()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scan-threaded",
            why="README scan: 1000 fits of 100x300 over a 20-point SNR grid in the worker "
            "pool; shows BLAS pinning, a cheaper solver and reuse of factors across the grid",
            sizes={
                "full": {"p": 300, "n": 100, "trials": 50, "grid": "1e-3:3:20", "work": 1000},
                "smoke": {"p": 200, "n": 20, "trials": 5, "grid": "1e-3:3:4", "work": 20},
            },
            calls=_scan_calls,
            setup=_scan_setup,
            identity_line=True,
            threads_reference=True,
        ),
        Workload(
            name="simulate-worst",
            why="serial, wide (p/n = 100) fits with design-dependent noise that does its own "
            "SVD; pool changes should leave it unchanged",
            sizes={
                "full": {"p": 2000, "n": 20, "trials": 2000, "work": 2000},
                "smoke": {"p": 200, "n": 10, "trials": 20, "work": 20},
            },
            calls=_simulate_calls,
            setup=_simulate_setup,
            identity_line=True,
        ),
        Workload(
            name="diagnose-1m",
            why="three diagnose calls at p = 10^6 with no sampling (built, built, parsed from "
            "a seeded file); simulation changes should leave it unchanged",
            sizes={
                "full": {"p": 1_000_000, "work": 3},
                "smoke": {"p": 10_000, "work": 3},
            },
            calls=_diagnose_calls,
            setup=_diagnose_setup,
            prepare=_diagnose_prepare,
        ),
    )
}
