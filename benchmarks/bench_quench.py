"""Timings of the default quench's stages, with pytest-benchmark.

    PYTHONPATH=src python -m pytest benchmarks/bench_quench.py \
        --benchmark-json BENCH_9.json

``pgp_field`` builds the 2000 k x 800 t field (log |g_k|^2 and the PGP);
``return_rate`` and ``dtop`` read it, as the ``quench`` command does;
``pgp_grid.csv`` writes the PGP (1.6 M rows, 112 MB) into a fresh file each
round.  The file name is outside pytest's default ``test_*.py`` pattern,
so the test suite does not collect it; pass it to pytest by path.  Each
record's ``extra_info`` holds the manifest's ``env`` block (versions,
BLAS, cores, thread settings) and, for the threaded stages, the number of
threads used.
"""

import pytest

from qbchain import cli, model, quench

ROUNDS = 5


@pytest.fixture(scope="module")
def protocol():
    cfg = cli.validate({"command": "quench"})
    ci, cf = (model.derive_couplings(float(cfg[f"J_{s}"]), float(cfg[f"delta_{s}"]),
                                     float(cfg[f"theta_{s}"])) for s in "if")
    return quench.QuenchProtocol.default(ci, cf, t_max=float(cfg["t_max"]),
                                         n_half=int(cfg["n_half"]),
                                         n_t=int(cfg["n_t"]))


@pytest.fixture(scope="module")
def field(protocol):
    return quench.pgp_field(protocol)


def test_pgp_field(benchmark, protocol):
    benchmark.extra_info["env"] = cli._environment()
    field = benchmark.pedantic(quench.pgp_field, args=(protocol,),
                               rounds=ROUNDS, iterations=1)
    benchmark.extra_info["workers"] = field.workers
    assert field.phi_pgp.shape == (2000, 800)


def test_return_rate(benchmark, field):
    benchmark.extra_info["env"] = cli._environment()
    rr = benchmark.pedantic(quench.return_rate, args=(field,),
                            rounds=ROUNDS, iterations=1)
    assert rr.shape == (800,)


def test_dtop(benchmark, protocol, field):
    benchmark.extra_info["env"] = cli._environment()
    critical = quench.critical_set(protocol)
    d = benchmark.pedantic(quench.dtop, args=(field, critical),
                           rounds=ROUNDS, iterations=1)
    assert d.resolved.all()


def test_pgp_grid_write(benchmark, protocol, field, tmp_path):
    benchmark.extra_info["env"] = cli._environment()
    path = tmp_path / "pgp_grid.csv"

    def fresh_file():
        path.unlink(missing_ok=True)
        return (path, protocol.k_grid, protocol.t_grid, field.phi_pgp), {}

    nbytes, workers = benchmark.pedantic(cli._write_pgp_grid, setup=fresh_file,
                                         rounds=ROUNDS, iterations=1)
    benchmark.extra_info["workers"] = workers
    assert nbytes == path.stat().st_size == 111959589
