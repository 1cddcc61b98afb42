import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbchain
from qbchain import cli, model, quench


def run_cli(tmp_path, args):
    out = tmp_path / "out"
    code = cli.main(args + ["--out", str(out)])
    manifest = None
    mpath = out / "manifest.json"
    if mpath.exists():
        manifest = json.loads(mpath.read_text())
    return code, out, manifest


class TestValidation:
    def test_defaults_fill_in(self):
        cfg = cli.validate({})
        assert cfg["command"] == "check"
        assert cfg["n_cells"] == "40"

    def test_unknown_key_lists_schema(self):
        with pytest.raises(cli.UsageError, match="valid keys"):
            cli.validate({"frobnicate": "1"})

    @pytest.mark.parametrize("key", ["format", "threads", "seed"])
    def test_removed_keys_rejected(self, key):
        with pytest.raises(cli.UsageError, match="unknown config keys"):
            cli.validate({key: "1"})

    def test_bad_number(self):
        with pytest.raises(cli.UsageError):
            cli.validate({"delta": "half"})

    def test_empty_delta_range(self):
        with pytest.raises(cli.UsageError):
            cli.validate({"delta_min": "1", "delta_max": "0"})

    def test_amplify_real_rejected(self):
        with pytest.raises(cli.UsageError, match="decouple"):
            cli.validate({"command": "amplify", "regime": "real"})

    def test_config_file_parsing(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\n[run]\ncommand = winding\ndelta=0.9\n; also\n")
        cfg = cli.read_config(str(p))
        assert cfg == {"command": "winding", "delta": "0.9"}

    def test_config_file_bad_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("delta\n")
        with pytest.raises(cli.UsageError):
            cli.read_config(str(p))


class TestCommands:
    def test_usage_error_exit_1(self, tmp_path, capsys):
        code, _, _ = run_cli(tmp_path, ["--command", "amplify"])  # default regime=real
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_computation_error_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        # amplification scan landing on the transition point
        cfg.write_text("command=amplify\nregime=imaginary\ndelta=0.5\n"
                       "delta_min=-0.1189229\ndelta_steps=1\nn_cells=4\n")
        code, out, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 2
        assert manifest["status"] == 2
        assert "error" in manifest

    def test_winding_outputs(self, tmp_path):
        cfg = tmp_path / "w.cfg"
        cfg.write_text("command=winding\ndelta=0.9\ngrid_points=401\n")
        code, out, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 0
        names = {f["name"] for f in manifest["files"]}
        assert {"winding.csv", "energy_loops.csv"} <= names
        header, row = (out / "winding.csv").read_text().splitlines()
        assert header == "nu1,nu2,nu,integral_re,integral_im,grid_size"
        nu = float(row.split(",")[2])
        assert abs(nu - 1.0) < 1e-3
        assert manifest["tolerances"]["winding_quantization_residual"] < 1e-6

    def test_spectrum_obc(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("command=spectrum\nboundary=obc\nn_cells=4\n"
                       "delta_steps=3\n")
        code, out, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 0
        text = (out / "spectrum.csv").read_text()
        rows = [l for l in text.splitlines() if not l.startswith(("#", "delta"))]
        assert len(rows) == 3 * 32

    def test_phase_diagram(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("command=phase-diagram\ndelta_min=-0.9\ndelta_max=0.7\n"
                       "delta_steps=3\ntheta_steps=1\ntheta_min=0.4\n"
                       "grid_points=401\n")
        code, out, _ = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 0
        lines = (out / "phase_diagram.csv").read_text().splitlines()
        labels = [l.split(",")[-1] for l in lines[1:]]
        assert labels == ["trivial", "moebius", "nontrivial"]

    def test_quench_outputs(self, tmp_path):
        cfg = tmp_path / "q.cfg"
        cfg.write_text("command=quench\nn_half=100\nn_t=60\ndelta_f=0.9\n")
        code, out, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 0
        names = {f["name"] for f in manifest["files"]}
        assert {"return_rate.csv", "dtop.csv", "critical_times.csv",
                "pgp_grid.csv"} <= names
        assert manifest["tolerances"]["kc_equation_residual"] < 1e-9
        dtop_lines = (out / "dtop.csv").read_text().splitlines()
        assert dtop_lines[0] == ("t,dtop_plus,dtop_minus,drift_plus,drift_minus,"
                                 "resolved")
        assert {line.split(",")[-1] for line in dtop_lines[1:]} == {"1"}
        entries = {f["name"]: f for f in manifest["files"]}
        assert entries["dtop.csv"]["unresolved"] == 0
        assert entries["critical_times.csv"]["t_complete"] > 12.0
        assert manifest["tolerances"]["dtop_quantization_residual"] < 1e-12
        assert manifest["tolerances"]["dtop_endpoint_drift"] > 0.0
        # |DTOP_pm| counts the critical times on its side away from them
        assert manifest["tolerances"]["dtop_critical_count_mismatch"] == 0.0
        stages = {s["name"]: s for s in manifest["stages"]}
        assert list(stages) == ["pgp_field", "return_rate", "critical_set",
                                "dtop", "pgp_grid.csv"]
        assert all(s["wall_s"] >= 0.0 for s in stages.values())
        # 200 momenta: 7 row chunks of 32 and 13 blocks of 16
        cpus = len(os.sched_getaffinity(0))
        assert stages["pgp_field"]["workers"] == min(cpus, 7)
        assert stages["pgp_grid.csv"]["workers"] == min(cpus, 13)
        assert stages["pgp_field"]["shape"] == [200, 60]
        assert stages["pgp_field"]["arrays"] == {
            "phi_pgp": {"shape": [200, 60], "bytes": 96000},
            "log_mag2": {"shape": [60, 200], "bytes": 96000}}
        assert stages["pgp_field"]["bytes"] == 192000
        assert manifest["peak_rss_mb"] > 0.0
        assert (stages["pgp_grid.csv"]["bytes"]
                == (out / "pgp_grid.csv").stat().st_size)
        # pgp_grid.csv: k-major rows of the field, 17 digits, exact round trip
        rows = {f["name"]: f["rows"] for f in manifest["files"]}
        assert rows["pgp_grid.csv"] == 12000
        p = quench.QuenchProtocol.default(
            model.derive_couplings(1.0, -0.9, 0.0),
            model.derive_couplings(1.0, 0.9, 0.4), t_max=12.0, n_half=100, n_t=60)
        f = quench.pgp_field(p)
        lines = (out / "pgp_grid.csv").read_text().splitlines()
        assert lines[0] == "k,t,phi_pgp"
        expected = [f"{cli._fmt(k)},{cli._fmt(t)},{cli._fmt(phi)}"
                    for k, row in zip(p.k_grid, f.phi_pgp)
                    for t, phi in zip(p.t_grid, row)]
        assert lines[1:] == expected
        parsed = np.array([[float(x) for x in line.split(",")]
                           for line in lines[1:]])
        assert np.array_equal(parsed[:, 0], np.repeat(p.k_grid, 60))
        assert np.array_equal(parsed[:, 1], np.tile(p.t_grid, 200))
        assert np.array_equal(parsed[:, 2], f.phi_pgp.ravel())

    def test_overflow_writes_no_csv(self, tmp_path):
        # |g_k(t)|^2 leaves the double range from t = 1667: a typed error
        # before any file, not inf in return_rate.csv and a misleading
        # resolution error later
        cfg = tmp_path / "q.cfg"
        cfg.write_text("command=quench\ntheta_f=3.0\nt_max=5000\nn_half=50\n"
                       "n_t=400\n")
        code, out, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 2
        assert manifest["status"] == 2
        assert manifest["error"].startswith("DoubleOverflowError: ")
        assert "max|Im E^f| t = 354.9" in manifest["error"]
        assert manifest["files"] == [] and manifest["stages"] == []
        assert sorted(x.name for x in out.iterdir()) == ["manifest.json"]

    def test_count_oracle_stops_at_t_complete(self, tmp_path):
        # three Fisher-zero orders list the crossings up to t_complete = 3.92
        # only; the oracle counts no further
        cfg = tmp_path / "q.cfg"
        cfg.write_text("command=quench\nn_half=100\nn_t=60\nn_max=3\n")
        code, out, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 0
        entries = {f["name"]: f for f in manifest["files"]}
        assert 3.9 < entries["critical_times.csv"]["t_complete"] < 4.0
        assert entries["critical_times.csv"]["rows"] == 6
        assert manifest["tolerances"]["dtop_critical_count_mismatch"] == 0.0

    def test_unresolved_dtop_row(self, tmp_path):
        # one grid time lies 6e-6 from a critical time: that row is flagged,
        # and the series is still written
        cfg = tmp_path / "q.cfg"
        cfg.write_text("command=quench\nn_half=400\nn_t=200\n")
        code, out, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 0
        entries = {f["name"]: f for f in manifest["files"]}
        assert entries["dtop.csv"]["unresolved"] == 1
        rows = (out / "dtop.csv").read_text().splitlines()[1:]
        flagged = [r for r in rows if r.endswith(",0")]
        assert len(rows) == 200 and len(flagged) == 1
        assert flagged[0].startswith("1.0010050251256281e+01,")
        assert "nan" not in (out / "dtop.csv").read_text()

    def test_amplify_outputs(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("command=amplify\nregime=imaginary\ndelta=0.5\n"
                       "n_cells=4\ndelta_min=0.3\ndelta_max=0.6\ndelta_steps=2\n")
        code, out, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 0
        names = {f["name"] for f in manifest["files"]}
        assert {"chi_ac_x.csv", "chi_ac_p.csv", "chi_bd_x.csv", "chi_bd_p.csv",
                "amplification_scan.csv"} <= names
        first = (out / "chi_ac_x.csv").read_text().splitlines()[1]
        assert first.split(",")[0] == "1A" and first.split(",")[1] == "1B"
        assert manifest["tolerances"]["susceptibility_residual"] < 1e-10

    def test_check_passes(self, tmp_path):
        code, out, manifest = run_cli(tmp_path, ["--command", "check"])
        assert code == 0
        assert manifest["status"] == 0
        report = (out / "check_report.csv").read_text()
        assert report.splitlines()[-1] == "failures,0"

    def test_determinism_byte_identical(self, tmp_path):
        texts = []
        for sub in ("r1", "r2"):
            cfg = tmp_path / f"{sub}.cfg"
            cfg.write_text("command=winding\ndelta=-0.1\ngrid_points=401\n")
            out = tmp_path / sub
            assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
            texts.append(((out / "winding.csv").read_bytes(),
                          (out / "energy_loops.csv").read_bytes()))
        assert texts[0] == texts[1]

    def test_manifest_contents(self, tmp_path):
        code, out, manifest = run_cli(tmp_path, ["--command", "winding"])
        assert code == 0
        assert manifest["tool"] == "qbchain"
        assert manifest["config"]["command"] == "winding"
        assert all(f["rows"] > 0 for f in manifest["files"])
        assert manifest["wall_time_s"] >= 0
        env = manifest["env"]
        assert env["numpy"] == np.__version__
        assert env["python"] == platform.python_version()
        assert isinstance(env["scipy"], str)
        assert set(env["blas"]) == {"name", "version"}
        assert env["cpu_count"] == os.cpu_count()
        assert env["cpus_available"] == len(os.sched_getaffinity(0))
        assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS",
                                       "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        # VmHWM of this process, which ran the command
        status = Path("/proc/self/status").read_text()
        hwm = int(status.split("VmHWM:")[1].split()[0]) / 1024.0
        assert 0.0 < manifest["peak_rss_mb"] <= hwm
        assert cli._peak_rss_mb(str(tmp_path / "no-status")) is None

    def test_commands_do_not_import_scipy(self, tmp_path):
        # only spectral.ipr_localization needs scipy, and imports it itself;
        # the quench's thread pool is plain threading, which numpy loads, not
        # concurrent.futures (about 5 ms of start-up)
        configs = [
            {"command": "amplify", "regime": "imaginary", "n_cells": "4",
             "delta_steps": "3"},
            {"command": "quench", "n_half": "50", "n_t": "20"},
            {"command": "phase-diagram", "delta_steps": "3", "theta_steps": "2",
             "grid_points": "401"},
        ]
        for cfg in configs:
            cfg["out"] = str(tmp_path / cfg["command"])
        script = (
            "import sys\n"
            "from qbchain import cli\n"
            f"for cfg in {configs!r}:\n"
            "    assert cli.run(cli.validate(cfg)) == 0, cfg['command']\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('scipy', 'concurrent')))\n"
        )
        src = str(Path(qbchain.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def _cell_texts(cells):
    """The strings held by _fmt_cells rows, padding dropped."""
    rows = np.concatenate([cells, np.full((len(cells), 1), ord("\n"), np.uint8)],
                          axis=1)
    return rows[rows != 0].tobytes().decode().split("\n")[:-1]


def _edge_values():
    p10 = np.array([10.0**s for s in range(-30, 31)] + [1e-6, 1e17])
    edges = np.concatenate([
        p10, np.nextafter(p10, 0.0), np.nextafter(p10, np.inf),
        [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
         1.7976931348623157e308, np.inf, np.nan, np.pi, 0.5,
         1e17 - 16, 99999999999999984.0, 9.9999999999999995e-07],
        # exact ties between 17-digit decimals: n 2^-17 in [1, 10), n odd
        np.ldexp(np.arange(2**17 + 1, 2**17 + 200, 2, dtype=float), -17),
    ])
    return np.concatenate([edges, -edges])


class TestFormatKernel:
    def test_matches_percent_format(self):
        rng = np.random.default_rng(20261018)
        x = np.concatenate([
            rng.uniform(-np.pi, np.pi, 400_000),
            rng.standard_normal(400_000) * 10.0 ** rng.integers(-12, 20, 400_000),
            rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64),
            _edge_values(),
        ])
        cells = cli._fmt_cells(x)
        assert cells.shape == (x.size, 24)
        got = _cell_texts(cells)
        expected = ["%.16e" % v for v in x.tolist()]
        bad = [(v, g, e) for v, g, e in zip(x.tolist(), got, expected) if g != e]
        assert len(got) == len(expected) and not bad, bad[:5]

    def test_pgp_grid_matches_percent_writer(self, tmp_path, monkeypatch):
        p = quench.QuenchProtocol.default(
            model.derive_couplings(1.0, -0.9, 0.0),
            model.derive_couplings(1.0, 0.9, 0.4), n_half=37, n_t=23)
        phi = quench.pgp_field(p).phi_pgp.copy()
        assert p.t_grid[0] == 0.0 and (phi < 0).any()
        phi[5, 1:1 + 11] = [-0.0, 1e-300, -1e-7, 1e-6, np.nan, -np.inf,
                            1e300, 5e-324, 1e17, -9.9999999999999995e-07, 1e-5]

        def percent_writer(path):
            # the per-row % writer that _write_pgp_grid replaced
            t_cells = [f",{cli._fmt(t)},%.16e\n" for t in p.t_grid]
            with path.open("w") as fh:
                fh.write("k,t,phi_pgp\n")
                for k, row in zip(p.k_grid, phi):
                    kf = cli._fmt(k)
                    fh.write((kf + kf.join(t_cells)) % tuple(row.tolist()))

        percent_writer(tmp_path / "ref.csv")
        monkeypatch.setattr(cli, "_PGP_BLOCK", 16)  # 74 momenta: a partial block
        ref = (tmp_path / "ref.csv").read_bytes()
        # one thread, two, and more CPUs than the 5 blocks
        for cpus in (1, 2, 16):
            monkeypatch.setattr(quench, "cpus_available", lambda: cpus)
            nbytes, workers = cli._write_pgp_grid(tmp_path / "new.csv", p.k_grid,
                                                  p.t_grid, phi)
            assert (tmp_path / "new.csv").read_bytes() == ref
            assert nbytes == len(ref)
            assert workers == min(cpus, 5)
