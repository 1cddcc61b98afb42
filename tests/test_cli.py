import hashlib
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbchain
from qbchain import cli, model, quench, spectral, topology


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

    @pytest.mark.parametrize("key, value", [
        ("delta_min", "nan"), ("delta", "inf"), ("theta", "-inf"),
        ("t_max", "NaN"), ("J_f", "infinity")])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(cli.UsageError, match=f"{key} must be finite"):
            cli.validate({key: value})

    def test_unknown_model_rejected(self):
        with pytest.raises(cli.UsageError, match="model must be nssh2 or nssh1"):
            cli.validate({"model": "bogus"})

    def test_amplify_real_rejected(self):
        with pytest.raises(cli.UsageError, match="decouple"):
            cli.validate({"command": "amplify", "regime": "real"})

    def test_quench_imaginary_rejected(self):
        # the quench layer builds the real-regime (nSSH2) block only
        with pytest.raises(cli.UsageError, match="quench runs the real regime only"):
            cli.validate({"command": "quench", "regime": "imaginary"})

    @pytest.mark.parametrize("key, kind", [
        *((key, "a number") for key in (
            "J", "theta", "delta", "delta_min", "delta_max", "theta_min",
            "theta_max", "J_i", "delta_i", "theta_i", "J_f", "delta_f", "theta_f",
            "t_max")),
        *((key, "an integer") for key in (
            "n_cells", "k_points", "delta_steps", "theta_steps", "grid_points",
            "n_half", "n_t", "n_max"))])
    def test_numeric_key_rejects_text(self, key, kind):
        with pytest.raises(cli.UsageError, match=f"^{key} must be {kind}, got 'x'$"):
            cli.validate({key: "x"})

    @pytest.mark.parametrize("key", [
        "n_cells", "k_points", "delta_steps", "theta_steps", "grid_points",
        "n_half", "n_t", "n_max"])
    def test_negative_count_rejected(self, key):
        with pytest.raises(cli.UsageError, match=f"^{key} must be >= 0, got '-1'$"):
            cli.validate({key: "-1"})

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

    @pytest.mark.parametrize("config", [
        "command=amplify\nregime=imaginary\ndelta_min=nan\n",
        "command=amplify\nregime=imaginary\ndelta=inf\n",
        "command=winding\ndelta=nan\n"])
    def test_non_finite_exit_1(self, tmp_path, capsys, config):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        code, _, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 1 and manifest is None
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("config, key", [
        ("command=quench\nn_t=-5\n", "n_t"),
        ("command=spectrum\nk_points=-3\n", "k_points"),
        ("command=amplify\nregime=imaginary\nn_cells=-2\n", "n_cells")])
    def test_negative_count_exit_1(self, tmp_path, capsys, config, key):
        # these once passed validate and crashed in numpy with no manifest
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        code, _, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 1 and manifest is None
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {key} must be >= 0")
        assert "Traceback" not in err

    def test_computation_error_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        # amplification scan landing on the transition point
        cfg.write_text("command=amplify\nregime=imaginary\ndelta=0.5\n"
                       "delta_min=-0.1189229\ndelta_steps=1\nn_cells=4\n")
        code, out, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 2
        assert manifest["status"] == 2
        assert "error" in manifest

    @pytest.mark.parametrize("config, name", [
        ("command=winding\ntheta=800\n", "theta=800"),
        ("command=quench\ntheta_f=800\n", "theta=800"),
        ("command=spectrum\ntheta=710\n", "theta=710"),
        # finite couplings whose squares overflow in model.energy
        ("command=winding\nJ=1e155\n", "OverflowError"),
        ("command=winding\nJ=1e155\n", "J="),
    ])
    def test_overflow_exit_2(self, tmp_path, config, name):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(config)
        code, _, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 2
        assert manifest["status"] == 2
        assert name in manifest["error"]

    def test_winding_large_J(self, tmp_path):
        cfg = tmp_path / "w.cfg"
        cfg.write_text("command=winding\nJ=1e150\n")
        code, out, _ = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 0
        nu = float((out / "winding.csv").read_text().splitlines()[1].split(",")[2])
        assert abs(nu - 1.0) < 1e-12

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

    @pytest.mark.parametrize("command", ["winding", "check"])
    def test_unknown_model_exit_1(self, tmp_path, capsys, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"command={command}\nmodel=bogus\n")
        code, out, _ = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 1 and not out.exists()
        assert "model must be" in capsys.readouterr().err

    @pytest.mark.parametrize("delta, merged", [(-0.1, True), (0.5, False)])
    def test_winding_records_merged_loops(self, tmp_path, delta, merged):
        cfg = tmp_path / "w.cfg"
        cfg.write_text(f"command=winding\ndelta={delta}\ntheta=0.4\n"
                       "grid_points=401\n")
        code, _, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 0
        (entry,) = [f for f in manifest["files"] if f["name"] == "energy_loops.csv"]
        assert entry["merged"] is merged

    def test_spectrum_obc(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("command=spectrum\nboundary=obc\nn_cells=4\n"
                       "delta_steps=3\n")
        code, out, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 0
        text = (out / "spectrum.csv").read_text()
        rows = [l for l in text.splitlines() if not l.startswith(("#", "delta"))]
        assert len(rows) == 3 * 32

    def test_spectrum_csv_round_trip(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("command=spectrum\nboundary=obc\nn_cells=2\ntheta=0\n"
                       "delta_min=0.1\ndelta_max=0.2\ndelta_steps=2\n")
        code, out, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[:6] == ["# J=1.0", "# boundary=obc", "# n_cells=2",
                             "# regime=real", "# theta=0.0",
                             "delta,index,re_lambda,im_lambda"]
        assert len(lines[6:]) == 2 * 16 == manifest["files"][0]["rows"]
        sweep = spectral.spectrum_sweep(1.0, 0.0, [0.1, 0.2], model.Regime.REAL,
                                        model.OBC(2))
        expected = [(d, i, ev.real, ev.imag)
                    for d, evs in zip(sweep.deltas, sweep.eigenvalues)
                    for i, ev in enumerate(evs)]
        parsed = [(float(d), int(i), float(re), float(im))
                  for d, i, re, im in (line.split(",") for line in lines[6:])]
        assert parsed == expected
        # every float field is '%.16e': 17 significant digits
        assert lines[6:] == ["%.16e,%d,%.16e,%.16e" % row for row in expected]

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

    def test_phase_diagram_imaginary(self, tmp_path):
        """The classifier's winding is reused, byte for byte."""
        code, out, _ = run_cli(tmp_path, ["--config", str(self._imag_cfg(
            tmp_path, "delta_steps=9\ntheta_steps=3\ngrid_points=401\n"))])
        assert code == 0
        grid = topology.default_bz_grid(401)
        lines = ["delta,theta,nu1,nu2,nu,label"]
        for th in np.linspace(0.0, 1.0, 3):
            for d in np.linspace(-0.9, 0.9, 9):
                c = model.derive_couplings(1.0, d, th)
                tag = topology.classify_phases(1.0, th, [d], model.Regime.IMAGINARY,
                                               grid)[0].tag
                if tag is topology.Phase.CRITICAL:
                    lines.append(f"{'%.16e' % d},{'%.16e' % th},nan,nan,nan,"
                                 f"{tag.value}")
                    continue
                res = topology.winding_pair(
                    lambda k: model.bloch(k, c, model.Regime.IMAGINARY), grid)
                lines.append(",".join(["%.16e" % x for x in (
                    d, th, res.nu1, res.nu2, res.nu)] + [tag.value]))
        text = (out / "phase_diagram.csv").read_text()
        assert text == "\n".join(lines) + "\n"
        assert text.count(",critical\n") == 1

    def test_phase_diagram_imaginary_digest(self, tmp_path):
        code, out, _ = run_cli(tmp_path, ["--config", str(self._imag_cfg(
            tmp_path, "theta_steps=3\n"))])
        assert code == 0
        digest = hashlib.sha256((out / "phase_diagram.csv").read_bytes())
        assert digest.hexdigest()[:16] == "2d77e572a5565117"

    @staticmethod
    def _imag_cfg(tmp_path, extra):
        cfg = tmp_path / "pi.cfg"
        cfg.write_text("command=phase-diagram\nregime=imaginary\n" + extra)
        return cfg

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
        assert list(stages) == ["pgp_field", "return_rate", "return_rate.csv",
                                "critical_set", "critical_times.csv", "dtop",
                                "dtop.csv", "pgp_grid.csv"]
        assert all(s["wall_s"] >= 0.0 for s in stages.values())
        # 200 momenta: 7 row chunks of 32, and one write block, since a
        # block of _TABLE_BLOCK = 12,800 rows holds 213 momenta of 60 times
        cpus = len(os.sched_getaffinity(0))
        assert stages["pgp_field"]["workers"] == min(cpus, 7)
        assert -(-200 // (cli._TABLE_BLOCK // 60)) == 1
        assert stages["pgp_grid.csv"]["workers"] == 1
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
        expected = ["%.16e,%.16e,%.16e" % (k, t, phi)
                    for k, row in zip(p.k_grid, f.phi_pgp)
                    for t, phi in zip(p.t_grid, row)]
        assert lines[1:] == expected
        parsed = np.array([[float(x) for x in line.split(",")]
                           for line in lines[1:]])
        assert np.array_equal(parsed[:, 0], np.repeat(p.k_grid, 60))
        assert np.array_equal(parsed[:, 1], np.tile(p.t_grid, 200))
        assert np.array_equal(parsed[:, 2], f.phi_pgp.ravel())

    def test_default_quench_digests(self, tmp_path):
        # the default 2000 k x 800 t quench: its pgp_grid.csv has blocks of
        # 16 momenta with phi of both signs and of one sign, and a block
        # whose momenta have both signs
        code, out, manifest = run_cli(tmp_path, ["--command", "quench"])
        assert code == 0
        digests = {}
        for name in ("return_rate.csv", "critical_times.csv", "dtop.csv",
                     "pgp_grid.csv"):
            h = hashlib.sha256()
            with (out / name).open("rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
            digests[name] = h.hexdigest()[:16]
            (out / name).unlink()  # 112 MB for pgp_grid.csv
        assert digests == {"return_rate.csv": "2aa77ac88acfd6e3",
                           "critical_times.csv": "636c26805602e489",
                           "dtop.csv": "877e4a7f9cd355cd",
                           "pgp_grid.csv": "d1147a1153864628"}
        stages = {s["name"]: s for s in manifest["stages"]}
        # every -k row is built from its +k mirror
        assert stages["pgp_field"]["mirrored"] == 1000
        # 20 brackets, each halved 32 times from pi/1000 to 1e-12
        assert stages["critical_set"]["brackets"] == 20
        assert stages["critical_set"]["halvings"] == 640
        assert 0 < stages["critical_set"]["scalar_checks"] < 640
        entries = {f["name"]: f for f in manifest["files"]}
        assert entries["dtop.csv"]["refined"] == 2
        assert entries["dtop.csv"]["unresolved"] == 0

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
        assert manifest["tolerances"]["scan_residual"] < 1e-10
        stages = {s["name"]: s for s in manifest["stages"]}
        writes = ["chi_ac_x.csv", "chi_ac_p.csv", "chi_bd_x.csv", "chi_bd_p.csv"]
        assert list(stages) == ["susceptibility", *writes, "phase_scan",
                                "amplification_scan.csv"]
        assert all(s["wall_s"] >= 0.0 for s in stages.values())
        # chi_x, chi_p (16 x 16) and four 8 x 8 sector blocks
        assert stages["susceptibility"]["shape"] == [16, 16]
        assert stages["susceptibility"]["bytes"] == 8 * (2 * 256 + 4 * 64)
        for name in writes:
            assert stages[name]["shape"] == [64, 3]
            assert stages[name]["bytes"] == (out / name).stat().st_size
        assert stages["phase_scan"]["shape"] == [2, 7]
        assert stages["phase_scan"]["bytes"] == 2 * 7 * 8

    def test_check_passes(self, tmp_path):
        code, out, manifest = run_cli(tmp_path, ["--command", "check"])
        assert code == 0
        assert manifest["status"] == 0
        report = (out / "check_report.csv").read_text()
        assert report.splitlines()[-1] == "failures,0"

    def test_check_builds_each_sample_once(self, tmp_path, monkeypatch):
        # G(k) and G(-k) of each of the 100 samples come from one stacked
        # build per regime, which the block check reuses
        shapes = []
        build = model.dynamical_qb_k

        def counted(k, *args, **kwargs):
            shapes.append(np.shape(k))
            return build(k, *args, **kwargs)
        monkeypatch.setattr(model, "dynamical_qb_k", counted)
        monkeypatch.setattr(spectral, "dynamical_qb_k", counted)
        code, _, _ = run_cli(tmp_path, ["--command", "check"])
        assert code == 0
        assert shapes == [(2,)] * 200

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
        # computed once per process
        assert cli._environment() is cli._environment()
        # VmHWM of this process, which ran the command
        status = Path("/proc/self/status").read_text()
        hwm = int(status.split("VmHWM:")[1].split()[0]) / 1024.0
        assert 0.0 < manifest["peak_rss_mb"] <= hwm
        assert cli._peak_rss_mb(str(tmp_path / "no-status")) is None

    def test_commands_do_not_import_scipy(self, tmp_path):
        # only spectral.ipr_localization needs scipy, and imports it itself;
        # the quench's thread pool is plain threading, which numpy loads, not
        # concurrent.futures (about 5 ms of start-up); the manifest's scipy
        # version comes without importlib.metadata (about 20 ms)
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
            "             if m.split('.')[0] in ('scipy', 'concurrent')\n"
            "             or m.startswith('importlib.metadata')))\n"
        )
        src = str(Path(qbchain.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestInstalledVersion:
    def test_scipy_matches_metadata(self):
        assert cli._environment()["scipy"] == importlib.metadata.version("scipy")
        assert cli._installed_version("scipy") == importlib.metadata.version("scipy")

    def test_from_dist_info_name(self, tmp_path, monkeypatch):
        (tmp_path / "qbfake").mkdir()
        (tmp_path / "qbfake" / "__init__.py").write_text("")
        monkeypatch.syspath_prepend(str(tmp_path))
        assert cli._installed_version("qbfake") is None  # no dist-info
        (tmp_path / "qbfake-1.2.post3.dist-info").mkdir()
        assert cli._installed_version("qbfake") == "1.2.post3"
        (tmp_path / "qbfake-1.3.dist-info").mkdir()
        assert cli._installed_version("qbfake") is None  # ambiguous
        assert cli._installed_version("qbchain_no_such_package") is None
        assert "qbfake" not in sys.modules


# every command at small settings, both spectrum boundaries and regimes,
# both winding models and both phase-diagram regimes
SMALL_RUNS = {
    "spectrum-pbc": {"command": "spectrum", "k_points": "11",
                     "delta_steps": "5"},
    "spectrum-pbc-imag": {"command": "spectrum", "regime": "imaginary",
                          "k_points": "11", "delta_steps": "5"},
    "spectrum-obc-imag": {"command": "spectrum", "boundary": "obc",
                          "regime": "imaginary", "n_cells": "4",
                          "delta_steps": "3"},
    "winding-nssh2": {"command": "winding", "grid_points": "401"},
    "winding-nssh1": {"command": "winding", "model": "nssh1", "delta": "-0.1",
                      "grid_points": "401"},
    "phase-diagram-real": {"command": "phase-diagram", "delta_steps": "5",
                           "theta_steps": "2", "grid_points": "401"},
    "phase-diagram-imag": {"command": "phase-diagram", "regime": "imaginary",
                           "delta_steps": "9", "theta_steps": "3",
                           "grid_points": "401"},
    "quench": {"command": "quench", "n_half": "100", "n_t": "60"},
    "amplify": {"command": "amplify", "regime": "imaginary", "n_cells": "4",
                "delta_steps": "3"},
    "check": {"command": "check"},
}

# sha256 prefixes of every data file, as written by the per-row formatting
# these files had before the common table writer; spectrum.csv as written
# with one eigensolve per momentum (PBC) and the per-cell real-space build
SMALL_RUN_DIGESTS = {
    "spectrum-pbc": {"spectrum.csv": "ff13c3186b931066"},
    "spectrum-pbc-imag": {"spectrum.csv": "ee5792d23b7ad949"},
    "spectrum-obc-imag": {"spectrum.csv": "b0a148c30e1a469e"},
    "winding-nssh2": {"winding.csv": "7554060c6030e099",
                      "energy_loops.csv": "57e61391847a7b8d"},
    "winding-nssh1": {"winding.csv": "b4105cb89c464f4c",
                      "energy_loops.csv": "91d1f5132890fa51"},
    "phase-diagram-real": {"phase_diagram.csv": "fedb2bd65dd47c15"},
    "phase-diagram-imag": {"phase_diagram.csv": "75790855180d1a92"},
    "quench": {"return_rate.csv": "bf52052cd5a16b4b",
               "critical_times.csv": "38837e7464a4e9de",
               "dtop.csv": "ba5169227fc89505",
               "pgp_grid.csv": "6d59becb0fe4a948"},
    "amplify": {"chi_ac_x.csv": "ac6d75e009ccdb18",
                "chi_ac_p.csv": "ac6d75e009ccdb18",
                "chi_bd_x.csv": "5584f086a1645cca",
                "chi_bd_p.csv": "5584f086a1645cca",
                "amplification_scan.csv": "78598dcf1322daf7"},
    "check": {"check_report.csv": "4444f0848574bde3"},
}


# the stages of each small run that write no file, in order
COMPUTE_STAGES = {
    "spectrum-pbc": ["eigensolve"],
    "spectrum-pbc-imag": ["eigensolve"],
    "spectrum-obc-imag": ["eigensolve"],
    "winding-nssh2": ["winding"],
    "winding-nssh1": ["winding"],
    "phase-diagram-real": ["winding"],
    "phase-diagram-imag": ["winding"],
    "quench": ["pgp_field", "return_rate", "critical_set", "dtop"],
    "amplify": ["susceptibility", "phase_scan"],
    "check": ["checks"],
}


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    manifests = {}
    for label, cfg in SMALL_RUNS.items():
        assert cli.run(cli.validate({**cfg, "out": str(root / label)})) == 0
        manifests[label] = json.loads((root / label / "manifest.json").read_text())
    return root, manifests


class TestOutputFiles:
    @pytest.mark.parametrize("label", list(SMALL_RUNS))
    def test_rows_and_write_stages(self, small_runs, label):
        root, manifests = small_runs
        manifest = manifests[label]
        assert manifest["files"]
        stages = [s["name"] for s in manifest["stages"]]
        for entry in manifest["files"]:
            path = root / label / entry["name"]
            lines = path.read_text().splitlines()
            data = [line for line in lines if not line.startswith("#")]
            assert entry["rows"] == len(data) - 1, entry["name"]
            assert stages.count(entry["name"]) == 1, entry["name"]
            stage = manifest["stages"][stages.index(entry["name"])]
            assert stage["bytes"] == path.stat().st_size
            assert stage["shape"] == [entry["rows"], data[0].count(",") + 1]
            assert stage["wall_s"] >= 0.0
        written = {entry["name"] for entry in manifest["files"]}
        compute = [s for s in manifest["stages"] if s["name"] not in written]
        assert [s["name"] for s in compute] == COMPUTE_STAGES[label]
        for stage in compute:
            assert stage["wall_s"] >= 0.0 and stage["bytes"] > 0
            assert all(n > 0 for n in stage["shape"])

    @pytest.mark.parametrize("label", list(SMALL_RUN_DIGESTS))
    def test_digests(self, small_runs, label):
        root, manifests = small_runs
        names = [f["name"] for f in manifests[label]["files"]]
        assert sorted(names) == sorted(SMALL_RUN_DIGESTS[label])
        assert {name: hashlib.sha256((root / label / name).read_bytes())
                .hexdigest()[:16] for name in names} == SMALL_RUN_DIGESTS[label]


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
            # a per-row % writer
            t_cells = [",%.16e,%%.16e\n" % t for t in p.t_grid]
            with path.open("w") as fh:
                fh.write("k,t,phi_pgp\n")
                for k, row in zip(p.k_grid, phi):
                    kf = "%.16e" % k
                    fh.write((kf + kf.join(t_cells)) % tuple(row.tolist()))

        percent_writer(tmp_path / "ref.csv")
        # blocks of 16 momenta x 23 times; 74 momenta: a partial block
        monkeypatch.setattr(cli, "_TABLE_BLOCK", 16 * 23)
        ref = (tmp_path / "ref.csv").read_bytes()
        # one thread, two, and more CPUs than the 5 blocks
        for cpus in (1, 2, 16):
            monkeypatch.setattr(quench, "cpus_available", lambda: cpus)
            stages = []
            cli._write_table(tmp_path, [], stages, "new.csv", "k,t,phi_pgp",
                             [p.k_grid[:, None], p.t_grid, phi])
            assert (tmp_path / "new.csv").read_bytes() == ref
            assert stages[0]["bytes"] == len(ref)
            assert stages[0]["workers"] == min(cpus, 5)

    @pytest.mark.parametrize("t_grid", [
        np.linspace(0.0, 12.0, 7),
        np.array([-0.0, 1e-300, 0.5, 1e17, 2.0, -3.0, 7.0])])
    def test_pgp_grid_edge_blocks(self, tmp_path, monkeypatch, t_grid):
        # 4 blocks of 16 momenta: phi all positive; k of both signs with slow
        # cells of both signs; phi all negative; only short slow texts
        rng = np.random.default_rng(17)
        k_grid = np.linspace(-1.25, 1.9, 64)
        assert k_grid[16] < 0 < k_grid[31]
        phi = rng.uniform(-4.0, 4.0, (64, t_grid.size))
        phi[:16] = np.abs(phi[:16]) + 1e-3
        phi[16, :] = [1e-300, -1e-300, 1e17, -1e17, np.inf, -np.inf, np.nan]
        phi[17, :] = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1.7976931348623157e308,
                      9.9999999999999995e-07]
        phi[32:48] = -np.abs(phi[32:48]) - 1e-3
        phi[48:] = rng.choice([np.nan, np.inf, -np.inf], phi[48:].shape)
        expected = ("k,t,phi_pgp\n" + "".join(
            "%.16e,%.16e,%.16e\n" % (k, t, v)
            for k, row in zip(k_grid.tolist(), phi.tolist())
            for t, v in zip(t_grid.tolist(), row))).encode()
        monkeypatch.setattr(cli, "_TABLE_BLOCK", 16 * t_grid.size)
        for cpus in (1, 2):
            monkeypatch.setattr(quench, "cpus_available", lambda: cpus)
            stages = []
            cli._write_table(tmp_path, [], stages, "grid.csv", "k,t,phi_pgp",
                             [k_grid[:, None], t_grid, phi])
            assert (tmp_path / "grid.csv").read_bytes() == expected
            assert (stages[0]["bytes"], stages[0]["workers"]) == (len(expected), cpus)

    def test_chi_writer_matches_per_entry_format(self, tmp_path):
        # 101 x 12 cells: row labels up to "101C", column labels up to "12D"
        rng = np.random.default_rng(11)
        sub = rng.choice([0.5, -0.5, 3.0, np.pi, -2.0 ** -30], size=(202, 24))
        sub[:3] *= rng.standard_normal((3, 24)) * 10.0 ** rng.integers(
            -320, 300, (3, 24))
        sub[3, :16] = [0.0, -0.0, 5e-324, -2.5e-310, 2.0 ** -1030, 1e-7,
                       9.9999999999999995e-08, -1e-300, 1e17,
                       -99999999999999984.0, 1e300, 1.7976931348623157e308,
                       1e22, 1e23, -1e16, 123456.789]
        labels = {s: [f"{i // 2 + 1}{s[i % 2]}" for i in range(n)]
                  for s, n in (("BD", 202), ("AC", 24))}
        expected = "row,col,abs_value\n" + "".join(
            f"{r},{c},{'%.16e' % abs(v)}\n"
            for r, line in zip(labels["BD"], sub.tolist())
            for c, v in zip(labels["AC"], line))
        assert "101D,12C," in expected
        files, stages = [], []
        cli._write_chi(tmp_path, files, stages, "chi.csv", sub, "BD", "AC")
        assert (tmp_path / "chi.csv").read_text() == expected
        assert files == [{"name": "chi.csv", "rows": 202 * 24}]
        assert stages[0]["bytes"] == len(expected)
        assert stages[0]["shape"] == [202 * 24, 3]

    @pytest.mark.parametrize("block", [1, 7, cli._TABLE_BLOCK])
    def test_table_matches_per_row_format(self, tmp_path, monkeypatch, block):
        # float, integer, bytes and str columns, over one block or many
        monkeypatch.setattr(cli, "_TABLE_BLOCK", block)
        rng = np.random.default_rng(12)
        x = np.concatenate([_edge_values(), rng.standard_normal(50)])
        idx = np.arange(x.size) * 37 - 200
        side = rng.choice(["+", "-", "critical"], x.size)
        expected = "# n=3\nx,i,s,b\n" + "".join(
            f"{'%.16e' % v},{i},{t},{i % 2}\n"
            for v, i, t in zip(x.tolist(), idx.tolist(), side))
        files, stages = [], []
        cli._write_table(tmp_path, files, stages, "t.csv", "# n=3\nx,i,s,b",
                         [x, idx, side, (idx % 2).astype("S")])
        assert (tmp_path / "t.csv").read_text() == expected
        assert files == [{"name": "t.csv", "rows": x.size}]
        assert stages[0]["name"] == "t.csv"
        assert stages[0]["shape"] == [x.size, 4]
        assert stages[0]["bytes"] == len(expected)

    @pytest.mark.parametrize("block, blocks", [(3 * 5, 4), (cli._TABLE_BLOCK, 1)])
    def test_broadcast_table_matches_per_row_format(self, tmp_path, monkeypatch,
                                                    block, blocks):
        # a (10, 5) table: (10, 1) labels, some shorter than their S4 dtype, a
        # (5,) float column and full (10, 5) values with slow cells; blocks of
        # 3 labels (the last partial), or one block on this thread
        labels = np.array([b"a", b"bb", b"ccc", b"dddd", b"e", b"ff", b"g",
                           b"hhh", b"i", b"jj"])[:, None]
        rng = np.random.default_rng(23)
        x = rng.uniform(-2.0, 2.0, 5)
        v = rng.standard_normal((10, 5))
        v[2] = [1e-300, -np.inf, np.nan, 1e17, -5e-324]
        v[9, :2] = [0.0, -0.0]
        expected = "l,x,v\n" + "".join(
            f"{label.decode()},{'%.16e' % xv},{'%.16e' % vv}\n"
            for label, row in zip(labels[:, 0], v.tolist())
            for xv, vv in zip(x.tolist(), row))

        def no_thread(*args, **kwargs):
            raise AssertionError("a one-block table started a thread")

        monkeypatch.setattr(cli, "_TABLE_BLOCK", block)
        monkeypatch.setattr(quench, "cpus_available", lambda: 2)
        if blocks == 1:
            monkeypatch.setattr(quench.threading, "Thread", no_thread)
        files, stages = [], []
        cli._write_table(tmp_path, files, stages, "b.csv", "l,x,v", [labels, x, v])
        assert (tmp_path / "b.csv").read_text() == expected
        assert files == [{"name": "b.csv", "rows": 50}]
        assert stages[0]["shape"] == [50, 3]
        assert stages[0]["bytes"] == len(expected)
        assert stages[0]["workers"] == min(2, blocks)

    def test_empty_table_is_its_header(self, tmp_path):
        files, stages = [], []
        cli._write_table(tmp_path, files, stages, "e.csv", "a,b", [[], []])
        assert (tmp_path / "e.csv").read_text() == "a,b\n"
        assert files == [{"name": "e.csv", "rows": 0}]
        assert stages[0]["shape"] == [0, 2] and stages[0]["bytes"] == 4
