"""Minimum-norm interpolation diagnostics and Monte Carlo experiments.

The package splits into spectra (eigenvalue sequences and tail sums),
diagnostics (effective-rank index, fixed-point radii, bounds, regimes),
design (Gaussian designs and the pseudo-inverse fit), noise (noise
models, each with its realization, design-independence flag and
expected norm), experiments (seeded trial harness, scans), and
cli (the command-line front end).  Each public name is imported from
its own module, e.g. `from ridgeless.spectra import make_flat_spectrum`;
the package itself re-exports nothing, so `import ridgeless` loads no
numpy.
"""

__version__ = "0.1.0"
