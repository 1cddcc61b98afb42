"""Timings of the default quench's two largest stages, with pytest-benchmark.

    PYTHONPATH=src python -m pytest benchmarks/bench_quench.py \
        --benchmark-json BENCH_8.json

``pgp_field`` builds the 2000 k x 800 t Loschmidt and PGP field;
``pgp_grid.csv`` writes it (1.6 M rows, 112 MB) into a fresh file each
round.  The file name is outside pytest's default ``test_*.py`` pattern,
so the test suite does not collect it; pass it to pytest by path.  Each
record's ``extra_info`` holds the manifest's ``env`` block (versions,
BLAS, cores, thread settings) and the number of threads the stage used.
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


def test_pgp_field(benchmark, protocol):
    benchmark.extra_info["env"] = cli._environment()
    field = benchmark.pedantic(quench.pgp_field, args=(protocol,),
                               rounds=ROUNDS, iterations=1)
    benchmark.extra_info["workers"] = field.workers
    assert field.phi_pgp.shape == (2000, 800)


def test_pgp_grid_write(benchmark, protocol, tmp_path):
    benchmark.extra_info["env"] = cli._environment()
    phi = quench.pgp_field(protocol).phi_pgp
    path = tmp_path / "pgp_grid.csv"

    def fresh_file():
        path.unlink(missing_ok=True)
        return (path, protocol.k_grid, protocol.t_grid, phi), {}

    nbytes, workers = benchmark.pedantic(cli._write_pgp_grid, setup=fresh_file,
                                         rounds=ROUNDS, iterations=1)
    benchmark.extra_info["workers"] = workers
    assert nbytes == path.stat().st_size == 111959589
