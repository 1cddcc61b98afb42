"""Timings of the default amplify scan, its winding, the manifest's env block
and the chi CSV writes, with pytest-benchmark.

    PYTHONPATH=src python -m pytest benchmarks/bench_amplify.py \
        --benchmark-json BENCH_30.json

``amplification_phase_scan`` runs the default scan (41 deltas at
theta = 0.4, N = 40) one block of ``topology.DELTA_BLOCK`` deltas at a
time: the nSSH1 windings of the block as (delta, k) arrays, the 2x2
Neumann recurrence with delta as a leading axis, and its residual checked
against each delta's ``model.quadrature_cells``, with no dense matrix.
``amplification_phase_scan_n2000`` runs the same scan at the one trivial
delta = -0.5 with N = 2000, where time and memory show how the scan grows
with the chain.
``classify_phases`` (imaginary regime) winds the nSSH1 Bloch vector on the
default 2001-point grid at (delta, theta) = (0.5, 0.4), all momenta at once;
``winding_pair_per_momentum`` winds the Bloch vector of either regime
there one momentum at a time: the imaginary case is the reference for that
speed-up, and the real (nSSH2) case is the per-momentum winding that the
``phase-diagram`` and ``check`` commands run.  ``environment`` builds the
manifest's ``env`` block afresh (it is cached per process in a run).  ``chi_csv_writes``
writes the four ``chi_*.csv`` files of the theta = 0, N = 80 run
(4 x 25,600 rows, two blocks each) into a fresh directory each round with
``cli._write_chi``: the text of each sector's Neumann blocks, laid out
once as its X file, which is copied to its P file.  The file name is
outside pytest's default ``test_*.py`` pattern, so the test suite does not
collect it; pass it to pytest by path.  Each record's ``extra_info`` holds
the manifest's ``env`` block (versions, BLAS, cores, thread settings).
The file calls ``model.bloch(k, c, regime)``, which older versions of
``qbchain`` lack; time an older checkout with that checkout's own copy of
this file.
"""

import pytest

from qbchain import amplification, cli, model, topology

ROUNDS = 10


@pytest.fixture(scope="module")
def cfg():
    return cli.validate({"command": "amplify", "regime": "imaginary"})


@pytest.fixture(scope="module")
def couplings(cfg):
    return model.derive_couplings(float(cfg["delta"]), float(cfg["theta"]))


def test_amplification_phase_scan(benchmark, cfg):
    benchmark.extra_info["env"] = cli._environment()
    rows = benchmark.pedantic(
        amplification.amplification_phase_scan,
        args=(float(cfg["theta"]), cli._delta_grid(cfg), int(cfg["n_cells"])),
        rounds=ROUNDS, iterations=1)
    assert len(rows) == 41


def test_amplification_phase_scan_n2000(benchmark):
    benchmark.extra_info["env"] = cli._environment()
    rows = benchmark.pedantic(amplification.amplification_phase_scan,
                              args=(0.4, [-0.5], 2000),
                              rounds=ROUNDS, iterations=1)
    assert rows.residual < 1e-10


def test_classify_phase_imag(benchmark, couplings):
    benchmark.extra_info["env"] = cli._environment()
    labels = benchmark.pedantic(
        topology.classify_phases,
        args=(couplings.theta, [couplings.delta], model.Regime.IMAGINARY),
        rounds=ROUNDS, iterations=1)
    assert labels[0].tag is topology.Phase.NONTRIVIAL


@pytest.mark.parametrize("regime", list(model.Regime), ids=lambda r: r.value)
def test_winding_pair_per_momentum(benchmark, couplings, regime):
    benchmark.extra_info["env"] = cli._environment()
    grid = topology.default_bz_grid()
    res = benchmark.pedantic(
        topology.winding_pair,
        args=(lambda k: model.bloch(k, couplings, regime), grid),
        rounds=ROUNDS, iterations=1)
    # the same vector wound on the whole grid at once
    phi1, phi2 = topology._phi_angles(model.bloch(grid, couplings, regime))
    assert res == topology._windings(phi1[None], phi2[None])[0]


def test_environment(benchmark):
    benchmark.extra_info["env"] = cli._environment()
    env = benchmark.pedantic(cli._environment.__wrapped__, rounds=ROUNDS,
                             iterations=1)
    assert env == cli._environment()


def test_chi_csv_writes(benchmark, tmp_path):
    benchmark.extra_info["env"] = cli._environment()
    rep = amplification.susceptibility(model.derive_couplings(0.5, 0.0), 80)
    def fresh_files():
        for path in tmp_path.glob("chi_*.csv"):
            path.unlink()
        return (), {}

    def write_all():
        stages = []
        cli._write_chi(tmp_path, [], stages, rep.blocks)
        return sum(s["bytes"] for s in stages)

    nbytes = benchmark.pedantic(write_all, setup=fresh_files, rounds=ROUNDS,
                                iterations=1)
    written = list(tmp_path.glob("chi_*.csv"))
    assert len(written) == len(amplification.PAIRS)
    assert nbytes == sum(path.stat().st_size for path in written)
