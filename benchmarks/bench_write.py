"""Timings of the default PBC spectrum.csv and energy_loops.csv writes, with
pytest-benchmark.

    PYTHONPATH=src python -m pytest benchmarks/bench_write.py \
        --benchmark-json BENCH_12.json

``spectrum_csv`` runs the ``spectrum`` command at its defaults (41 deltas x
101 momenta x 8 eigenvalues, 33,128 rows) on a sweep computed once, so only
the column assembly, the formatting and the write are timed.
``energy_loops_csv`` writes the default ``winding`` command's 2001 rows
through ``cli._write_table``, as the command does.  The two
``per_row_reference`` records time the per-row writers these files had
before the common table writer (``'%.17e'`` rows in a ``StringIO`` for the
spectrum, one ``'%.16e'`` call per value for the loops), on the same data.
Every round writes into a fresh file.  The file name is outside pytest's
default ``test_*.py`` pattern, so the test suite does not collect it; pass
it to pytest by path.  Each record's ``extra_info`` holds the manifest's
``env`` block (versions, BLAS, cores, thread settings).
"""

import io

import pytest

from qbchain import cli, model, spectral, topology

ROUNDS = 10
LOOPS_HEADER = "k,re_E_plus,im_E_plus,re_E_minus,im_E_minus"


@pytest.fixture(scope="module")
def sweep():
    cfg = cli.validate({"command": "spectrum"})
    return spectral.spectrum_sweep(
        float(cfg["J"]), float(cfg["theta"]), cli._delta_grid(cfg),
        model.Regime(cfg["regime"]), model.PBC.uniform(int(cfg["k_points"])))


@pytest.fixture(scope="module")
def loops():
    cfg = cli.validate({"command": "winding"})
    c = model.derive_couplings(float(cfg["J"]), float(cfg["delta"]),
                               float(cfg["theta"]))
    grid = topology.default_bz_grid(int(cfg["grid_points"]))
    ep, em, _ = topology.parametric_energy_loops(c, grid)
    return grid, ep, em


def _fresh(path, *args):
    """A pedantic setup that deletes ``path`` and passes ``args`` on."""
    def setup():
        path.unlink(missing_ok=True)
        return args, {}
    return setup


def per_row_spectrum(path, sweep):
    cfg = cli.validate({"command": "spectrum"})
    buf = io.StringIO()
    for key in ("J", "boundary", "k_points", "regime", "theta"):
        buf.write(f"# {key}={cfg[key]}\n")
    buf.write("delta,index,re_lambda,im_lambda\n")
    for d, evs in zip(sweep.deltas, sweep.eigenvalues):
        for i, ev in enumerate(evs):
            buf.write(f"{d:.17e},{i},{ev.real:.17e},{ev.imag:.17e}\n")
    path.write_text(buf.getvalue())


def per_row_loops(path, loops):
    lines = [LOOPS_HEADER]
    for k, p, m in zip(*loops):
        lines.append(",".join(f"{x:.16e}" for x in (k, p.real, p.imag, m.real,
                                                     m.imag)))
    path.write_text("\n".join(lines) + "\n")


def test_spectrum_csv(benchmark, sweep, tmp_path, monkeypatch):
    benchmark.extra_info["env"] = cli._environment()
    monkeypatch.setattr(spectral, "spectrum_sweep", lambda *args: sweep)
    cfg = cli.validate({"command": "spectrum"})
    stages = []
    benchmark.pedantic(cli._cmd_spectrum, setup=_fresh(
        tmp_path / "spectrum.csv", cfg, tmp_path, [], {}, stages),
        rounds=ROUNDS, iterations=1)
    assert stages[-1]["shape"] == [33128, 4]


def test_spectrum_csv_per_row_reference(benchmark, sweep, tmp_path):
    benchmark.extra_info["env"] = cli._environment()
    path = tmp_path / "spectrum.csv"
    benchmark.pedantic(per_row_spectrum, setup=_fresh(path, path, sweep),
                       rounds=ROUNDS, iterations=1)


def test_energy_loops_csv(benchmark, loops, tmp_path):
    benchmark.extra_info["env"] = cli._environment()
    grid, ep, em = loops
    path = tmp_path / "energy_loops.csv"
    benchmark.pedantic(cli._write_table, setup=_fresh(
        path, tmp_path, [], [], path.name, LOOPS_HEADER,
        [grid, ep.real, ep.imag, em.real, em.imag]),
        rounds=ROUNDS, iterations=1)
    per_row_loops(tmp_path / "ref.csv", loops)
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_energy_loops_csv_per_row_reference(benchmark, loops, tmp_path):
    benchmark.extra_info["env"] = cli._environment()
    path = tmp_path / "energy_loops.csv"
    benchmark.pedantic(per_row_loops, setup=_fresh(path, path, loops),
                       rounds=ROUNDS, iterations=1)
