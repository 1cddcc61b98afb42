"""Timings of the default PBC spectrum sweep and the real-space matrix build,
with pytest-benchmark.

    PYTHONPATH=src python -m pytest benchmarks/bench_spectrum.py \
        --benchmark-json BENCH_14.json

``spectrum_sweep_pbc`` runs the ``spectrum`` command's sweep at its
defaults (41 deltas at theta = 0.4, 101 momenta, 8 eigenvalues each) in
both regimes: per delta, the 8x8 dynamical matrices of the grid and their
eigenvalues, sorted.  ``realspace_dynamical`` builds the default OBC
command's 320 x 320 dynamical matrix (N = 40, delta = 0.5) in both regimes,
with its Hermiticity and symmetry checks; the OBC sweep's eigensolve is
not timed.  The file name is outside pytest's default ``test_*.py``
pattern, so the test suite does not collect it; pass it to pytest by path.
Each record's ``extra_info`` holds the manifest's ``env`` block (versions,
BLAS, cores, thread settings).  Every test uses only names that earlier
versions of ``qbchain`` also have, so the same file times an older checkout
put first on ``PYTHONPATH``.
"""

import pytest

from qbchain import cli, model, spectral

ROUNDS = 10


@pytest.fixture(scope="module")
def cfg():
    return cli.validate({"command": "spectrum"})


@pytest.mark.parametrize("regime", list(model.Regime), ids=lambda r: r.value)
def test_spectrum_sweep_pbc(benchmark, cfg, regime):
    benchmark.extra_info["env"] = cli._environment()
    sweep = benchmark.pedantic(
        spectral.spectrum_sweep,
        args=(float(cfg["theta"]), cli._delta_grid(cfg), regime,
              model.PBC.uniform(int(cfg["k_points"]))),
        rounds=ROUNDS, iterations=1)
    assert [evs.size for evs in sweep.eigenvalues] == [8 * 101] * 41


@pytest.mark.parametrize("regime", list(model.Regime), ids=lambda r: r.value)
def test_realspace_dynamical(benchmark, regime):
    # the spectrum command reads no delta: the documented defaults
    d = cli.DEFAULTS
    benchmark.extra_info["env"] = cli._environment()
    n_cells = int(d["n_cells"])
    c = model.derive_couplings(float(d["delta"]), float(d["theta"]))
    G = benchmark.pedantic(model.realspace_dynamical,
                           args=(c, n_cells, regime),
                           rounds=ROUNDS, iterations=1)
    assert G.shape == (8 * n_cells, 8 * n_cells)
