"""Timings of the default quench's stages, with pytest-benchmark.

    PYTHONPATH=src python -m pytest benchmarks/bench_quench.py \
        --benchmark-json BENCH_19.json

``pgp_field`` builds the 2000 k x 800 t field (log |g_k|^2 and the PGP);
``return_rate`` and ``dtop`` read it, as the ``quench`` command does;
``critical_set`` scans the k_c equation for Fisher-zero crossings of ten
orders and bisects its 20 brackets to 1e-12 in k;
``pgp_grid.csv`` writes the PGP (1.6 M rows, 112 MB) through
``cli._write_table``, as the command does, into a fresh file each round.
The file name is outside pytest's default ``test_*.py`` pattern, so the
test suite does not collect it; pass it to pytest by path.  Each record's
``extra_info`` holds the manifest's ``env`` block (versions, BLAS, cores,
thread settings) and, for the threaded stages, the number of threads used.
Checkouts whose ``pgp_grid.csv`` has its own writer (``_write_pgp_grid``)
are timed with their own copy of this file.
"""

import pytest

from qbchain import cli, model, quench

ROUNDS = 5


@pytest.fixture(scope="module")
def protocol():
    cfg = cli.validate({"command": "quench"})
    ci, cf = (model.derive_couplings(float(cfg[f"delta_{s}"]), float(cfg[f"theta_{s}"]))
              for s in "if")
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


def test_critical_set(benchmark, protocol):
    benchmark.extra_info["env"] = cli._environment()
    ct = benchmark.pedantic(quench.critical_set, args=(protocol,),
                            rounds=ROUNDS, iterations=1)
    assert len(ct.entries) == 18


def test_dtop(benchmark, protocol, field):
    benchmark.extra_info["env"] = cli._environment()
    critical = quench.critical_set(protocol)
    d = benchmark.pedantic(quench.dtop, args=(field, critical),
                           rounds=ROUNDS, iterations=1)
    assert d.resolved.all()


def test_pgp_grid_write(benchmark, protocol, field, tmp_path):
    benchmark.extra_info["env"] = cli._environment()
    path = tmp_path / "pgp_grid.csv"
    stages = []

    def fresh_file():
        path.unlink(missing_ok=True)
        return (tmp_path, [], stages, path.name, "k,t,phi_pgp",
                [protocol.k_grid[:, None], protocol.t_grid, field.phi_pgp]), {}

    benchmark.pedantic(cli._write_table, setup=fresh_file, rounds=ROUNDS,
                       iterations=1)
    benchmark.extra_info["workers"] = stages[-1]["workers"]
    assert stages[-1]["bytes"] == path.stat().st_size == 111959589
