import ast
import dataclasses
import hashlib
import importlib.metadata
import inspect
import json
import os
import platform
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import qbchain
from qbchain import amplification, cli, model, quench, spectral, topology


def run_cli(tmp_path, args):
    out = tmp_path / "out"
    code = cli.main(args + ["--out", str(out)])
    manifest = None
    mpath = out / "manifest.json"
    if mpath.exists():
        manifest = json.loads(mpath.read_text())
    return code, out, manifest


# quenches whose initial couplings equal the final ones: g_k = exp(iEt)
SELF_QUENCHES = {
    "non-hermitian": {"delta_i": "0.9", "theta_i": "0.4"},  # the default final
    "hermitian": {"theta_i": "0", "theta_f": "0", "delta_i": "0.5", "delta_f": "0.5"},
}


def scaling_powers(name: str) -> tuple:
    """The power of J by which each column of the file ``name`` scales (None
    for a text column): energies as J, chi and times as 1/J."""
    if name.startswith("chi_"):
        return (None, None, -1)
    return {"spectrum.csv": (0, 0, 1, 1), "winding.csv": (0,) * 6,
            "energy_loops.csv": (0, 1, 1, 1, 1),
            "amplification_scan.csv": (0, 0, 0, -1, -1, -1, -1),
            "return_rate.csv": (-1, 0), "critical_times.csv": (0, None, 0, -1, 0),
            "dtop.csv": (-1, 0, 0, 0, 0, 0), "pgp_grid.csv": (0, -1, 0)}[name]


def unit_run(config: dict, key: str) -> dict:
    """``config`` at J = 1: a quench over t_max J_f, whose protocol runs at
    the same times J_f t."""
    unit = {**config, key: "1"}
    if key == "J_f":
        unit["t_max"] = repr(float(config.get("t_max", cli.DEFAULTS["t_max"]))
                             * float(config[key]))
    return unit


def assert_scaled(got: Path, ref: Path, J: float) -> None:
    """The run in ``got``, at J, writes what the run in ``ref`` writes at
    J = 1, each column times J to its power (``scaling_powers``): bit for
    bit at J = 2, else within 1e-12 of each scaled value (of the largest
    one in an unscaled column).  The manifests' file entries agree: the
    same rows and merged flags, and the quench's t_complete, a time."""
    files = [json.loads((d / "manifest.json").read_text())["files"] for d in (got, ref)]
    assert [f["name"] for f in files[0]] == [f["name"] for f in files[1]]
    for entry, unit in zip(*files):
        for key in ("rows", "merged", "unresolved"):
            assert entry.get(key) == unit.get(key)
        done, unit_done = entry.get("t_complete"), unit.get("t_complete")
        assert (done is None) == (unit_done is None)
        if done is not None:
            assert done * J == pytest.approx(unit_done, rel=1e-12)
        rows = [[line.split(",") for line in (d / entry["name"]).read_text().splitlines()
                 if not line.startswith("#")] for d in (got, ref)]
        assert rows[0][0] == rows[1][0]  # the header
        for col, power in enumerate(scaling_powers(entry["name"])):
            a, b = ([row[col] for row in r[1:]] for r in rows)
            if power is None:
                assert a == b
                continue
            a, b = np.array(a, dtype=float), np.array(b, dtype=float)
            if J == 2.0:
                assert np.array_equal(a, b * J**power), (entry["name"], col)
                continue
            err = np.abs(a / J**power - b)
            assert err.max(initial=0.0) <= 1e-12 * np.abs(b).max(initial=0.0)
            if power:
                assert (err <= 1e-12 * np.abs(b)).all(), (entry["name"], col)


# a command that reads each numeric key
READER = {
    "J": "winding", "theta": "winding", "delta": "winding", "delta_min": "spectrum",
    "delta_max": "spectrum", "theta_min": "phase-diagram",
    "theta_max": "phase-diagram", "J_i": "quench", "delta_i": "quench",
    "theta_i": "quench", "J_f": "quench", "delta_f": "quench", "theta_f": "quench",
    "t_max": "quench", "n_cells": "amplify", "k_points": "spectrum",
    "delta_steps": "spectrum", "theta_steps": "phase-diagram",
    "grid_points": "winding", "n_half": "quench", "n_t": "quench", "n_max": "quench",
}


class TestValidation:
    def test_defaults_fill_in(self):
        assert cli.validate({})["command"] == "check"
        cfg = cli.validate({"command": "amplify"})
        assert cfg["n_cells"] == 40 and type(cfg["n_cells"]) is int

    def test_unknown_key_lists_schema(self):
        with pytest.raises(cli.UsageError, match="valid keys"):
            cli.validate({"frobnicate": "1"})

    @pytest.mark.parametrize("key", ["format", "threads", "seed"])
    def test_removed_keys_rejected(self, key):
        with pytest.raises(cli.UsageError, match="unknown config keys"):
            cli.validate({key: "1"})

    def test_bad_number(self):
        with pytest.raises(cli.UsageError, match="^delta must be a number"):
            cli.validate({"command": "winding", "delta": "half"})

    @pytest.mark.parametrize("command, key, message", [
        ("winding", "regime", "regime must be real or imaginary, got 'x'"),
        ("spectrum", "boundary", "boundary must be pbc or obc, got 'x'")])
    def test_bad_choice_rejected(self, command, key, message):
        with pytest.raises(cli.UsageError, match=f"^{message}$"):
            cli.validate({"command": command, key: "x"})

    def test_empty_delta_range(self):
        with pytest.raises(cli.UsageError, match="delta range is empty"):
            cli.validate({"command": "spectrum", "delta_min": "1", "delta_max": "0"})

    @pytest.mark.parametrize("key, value", [
        ("delta_min", "nan"), ("delta", "inf"), ("theta", "-inf"),
        ("t_max", "NaN"), ("J_f", "infinity")])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(cli.UsageError, match=f"{key} must be finite"):
            cli.validate({"command": READER[key], key: value})

    def test_unknown_model_rejected(self):
        with pytest.raises(cli.UsageError, match=r"unknown config keys \['model'\]"):
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
            cli.validate({"command": READER[key], key: "x"})

    @pytest.mark.parametrize("key", [
        "n_cells", "k_points", "delta_steps", "theta_steps", "grid_points",
        "n_half", "n_t", "n_max"])
    def test_negative_count_rejected(self, key):
        with pytest.raises(cli.UsageError, match=f"^{key} must be >= 0, got '-1'$"):
            cli.validate({"command": READER[key], key: "-1"})

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

    def test_config_key_set_twice(self, tmp_path):
        # the last value used to win silently: delta=-0.9 here
        p = tmp_path / "run.cfg"
        p.write_text("command=winding\ndelta=0.9\n[again]\n delta = -0.9\n")
        with pytest.raises(cli.UsageError, match=f"^{re.escape(str(p))}:4: delta is "
                                                 "set twice"):
            cli.read_config(str(p))


class TestCommands:
    def test_usage_error_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("delta=0.5\n")  # check reads no key
        code, _, _ = run_cli(tmp_path, ["--config", str(cfg), "--command", "check"])
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
        # the energy loops at J = 1, times J
        ("command=winding\nJ=1e308\n", "OverflowError"),
        ("command=winding\nJ=1e308\n", "J="),
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

    def test_windings_do_not_depend_on_J(self, tmp_path):
        # nu and the winding integral are dimensionless: at J = 1e-150, 1e-7
        # and 1e150 both regimes read their J = 1 values
        for regime in ("real", "imaginary"):
            read = {}
            for J in ("1", "1e-150", "1e-7", "1e150"):
                out = tmp_path / f"{regime}-{J}"
                assert cli.run(cli.validate({"command": "winding", "regime": regime,
                                             "J": J, "out": str(out)})) == 0
                row = (out / "winding.csv").read_text().splitlines()[1].split(",")
                read[J] = np.array([float(row[2]), float(row[3])])  # nu, integral
            for J, got in read.items():
                assert np.abs(got - read["1"]).max() < 1e-12, (regime, J)

    @pytest.mark.parametrize("config, error", [
        ({"command": "amplify", "regime": "imaginary", "J": "1e160"}, None),
        ({"command": "winding", "J": "1e-160"}, None),
        # J_f t reaches 1.2e161: |g_k|^2 leaves the double range
        ({"command": "quench", "J_i": "1e160", "J_f": "1e160", "n_half": "100",
          "n_t": "60"}, "J_f"),
        # over t_max = 1.2e161: the protocol's times J_f t are those of J_f = 1
        ({"command": "quench", "J_i": "1e-160", "J_f": "1e-160", "t_max": "1.2e161",
          "n_half": "100", "n_t": "60"}, None),
    ], ids=["amplify-1e160", "winding-1e-160", "quench-1e160", "quench-1e-160"])
    def test_extreme_J_runs_or_names_J(self, tmp_path, config, error):
        # a run at an extreme J either reads as the run at J = 1 scaled
        # (``assert_scaled``) or exits 2 with a typed error that names J,
        # with no RuntimeWarning on the way
        key = "J_f" if config["command"] == "quench" else "J"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = cli.run(cli.validate({**config, "out": str(tmp_path / "x")}))
            if error is None:
                assert status == 0
                unit = unit_run(config, key)
                assert cli.run(cli.validate({**unit, "out": str(tmp_path / "unit")})) == 0
                assert_scaled(tmp_path / "x", tmp_path / "unit", float(config[key]))
                return
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert status == 2
        assert manifest["error"].startswith("DoubleOverflowError: ")
        assert error in manifest["error"]

    @pytest.mark.parametrize("label", list(SELF_QUENCHES))
    def test_self_quench_has_no_crossing(self, tmp_path, label):
        # g_k never vanishes: no critical time, t_complete +inf (null in the
        # manifest), and the count oracle reads the whole grid
        cfg = cli.validate({"command": "quench", "n_half": "100", "n_t": "60",
                            **SELF_QUENCHES[label], "out": str(tmp_path)})
        ci, cf = (model.derive_couplings(float(cfg[f"delta_{s}"]),
                                         float(cfg[f"theta_{s}"])) for s in "if")
        assert ci == cf
        ct = quench.critical_set(quench.QuenchProtocol.default(ci, cf, n_half=100,
                                                               n_t=60))
        assert (ct.entries, ct.t_complete, ct.brackets) == ([], np.inf, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(cfg) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        entries = {f["name"]: f for f in manifest["files"]}
        assert entries["critical_times.csv"]["rows"] == 0
        assert entries["critical_times.csv"]["t_complete"] is None
        assert manifest["tolerances"]["dtop_critical_count_mismatch"] == 0.0
        dtop = np.loadtxt(tmp_path / "dtop.csv", delimiter=",", skiprows=1)
        assert not np.rint(dtop[:, 1:3]).any()  # no slip on either half zone

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
        assert "unknown config keys ['model']" in capsys.readouterr().err

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
        sweep = spectral.spectrum_sweep(0.0, [0.1, 0.2], model.Regime.REAL,
                                        model.OBC(2))
        expected = [(d, i, ev.real, ev.imag)
                    for d, evs in zip(sweep.deltas, sweep.eigenvalues)
                    for i, ev in enumerate(evs)]
        parsed = [(float(d), int(i), float(re), float(im))
                  for d, i, re, im in (line.split(",") for line in lines[6:])]
        assert parsed == expected
        # every float field is '%.16e': 17 significant digits
        assert lines[6:] == ["%.16e,%d,%.16e,%.16e" % row for row in expected]

    def test_winding_imaginary_winds_nssh1(self, tmp_path):
        # regime alone picks the block: these are the nSSH1 files, and the
        # manifest records the block as a derived model
        cfg = tmp_path / "w.cfg"
        cfg.write_text("command=winding\nregime=imaginary\n")
        code, out, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 0
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
                for name in ("winding.csv", "energy_loops.csv")} == {
            "winding.csv": "4f0a074db54a40d9", "energy_loops.csv": "ad837db8a8248f13"}
        assert manifest["config"]["model"] == "nssh1"

    def test_default_obc_spectrum_records_reality_residual(self, tmp_path):
        # the real-regime OBC spectrum is exactly real; dense eigvals at the
        # defaults (N = 40, theta = 0.4) leaves it by about 1e-13
        cfg = tmp_path / "s.cfg"
        cfg.write_text("command=spectrum\nboundary=obc\n")
        code, out, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 0 and "error" not in manifest
        assert manifest["tolerances"]["obc_reality_residual"] < 1e-12
        assert hashlib.sha256((out / "spectrum.csv").read_bytes()).hexdigest()[
            :16] == "f9219322b9b48391"

    @pytest.mark.parametrize("settings, where", [
        ("n_cells=80\ntheta=1\ndelta_min=0.5\ndelta_steps=1\n",
         "delta=0.5, theta=1.0, N=80"),
        ("n_cells=40\ntheta=2\n", "delta=-0.9, theta=2.0, N=40")])
    def test_obc_spectrum_off_the_real_axis_exit_2(self, tmp_path, settings, where):
        # max|Im| / max|lambda| reads about 1e-2 at either; the first default
        # delta already fails at theta = 2
        cfg = tmp_path / "s.cfg"
        cfg.write_text("command=spectrum\nboundary=obc\n" + settings)
        code, out, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 2 and not (out / "spectrum.csv").exists()
        assert manifest["error"].startswith("ConvergenceError: real-regime OBC")
        assert where in manifest["error"]

    def test_imaginary_spectrum_records_no_reality_residual(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("command=spectrum\nboundary=obc\nregime=imaginary\n"
                       "n_cells=4\ndelta_steps=3\n")
        code, _, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 0 and "obc_reality_residual" not in manifest["tolerances"]

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
                c = model.derive_couplings(d, th)
                tag = topology.classify_phases(th, [d], model.Regime.IMAGINARY,
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
            model.derive_couplings(-0.9, 0.0),
            model.derive_couplings(0.9, 0.4), t_max=12.0, n_half=100, n_t=60)
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
        # every value is computed before the first write
        assert list(stages) == ["susceptibility", "phase_scan", *writes,
                                "amplification_scan.csv"]
        assert all(s["wall_s"] >= 0.0 for s in stages.values())
        # the four 8 x 8 sector blocks, stacked
        assert stages["susceptibility"]["shape"] == [4, 8, 8]
        assert stages["susceptibility"]["bytes"] == 8 * 4 * 64
        for name in writes:
            assert stages[name]["shape"] == [64, 3]
            assert stages[name]["bytes"] == (out / name).stat().st_size
        assert stages["phase_scan"]["shape"] == [2, 7]
        assert stages["phase_scan"]["bytes"] == 2 * 7 * 8

    @pytest.mark.parametrize("n_cells", ["0", "1"])
    def test_amplify_short_chain_exit_2(self, tmp_path, n_cells):
        status = cli.run(cli.validate({"command": "amplify", "regime": "imaginary",
                                       "n_cells": n_cells, "out": str(tmp_path)}))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert status == 2
        assert manifest["error"] == ("DomainError: need at least 2 unit cells, "
                                     f"got {n_cells}")

    @pytest.mark.parametrize("key, value, error", [
        ("n_half", "0", "k grid needs at least 2 momenta, got 0"),
        ("n_t", "1", "t grid needs at least 2 times, got 1")])
    def test_quench_short_grid_exit_2(self, tmp_path, key, value, error):
        # a grid too short to step is named as such, not as out of order
        status = cli.run(cli.validate({"command": "quench", key: value,
                                       "out": str(tmp_path)}))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert status == 2
        assert manifest["error"] == f"DomainError: {error}"
        assert manifest["files"] == [] and not list(tmp_path.glob("*.csv"))

    def test_amplify_small_J_overflow_names_J(self, tmp_path):
        # |chi| grows as 1/J: at the default n_cells the chi of J = 1 (up to
        # about 1e29), over J, leaves the double range at J = 1e-280, and not
        # at J = 1e-200
        for J, want in (("1e-280", 2), ("1e-200", 0)):
            status = cli.run(cli.validate({"command": "amplify", "regime": "imaginary",
                                           "J": J, "out": str(tmp_path / J)}))
            assert status == want
        manifest = json.loads((tmp_path / "1e-280" / "manifest.json").read_text())
        assert manifest["error"] == ("DoubleOverflowError: outputs scaled by "
                                     "J**-1 leave the double range at J=1e-280")
        # every value is scaled before the first write: the failed run
        # writes no data file
        assert manifest["files"] == []
        assert not list((tmp_path / "1e-280").glob("chi_*.csv"))

    def test_check_passes(self, tmp_path):
        code, out, manifest = run_cli(tmp_path, ["--command", "check"])
        assert code == 0
        assert manifest["status"] == 0
        report = (out / "check_report.csv").read_text()
        assert report.splitlines()[-1] == "failures,0"

    def test_check_builds_each_sample_once(self, tmp_path, monkeypatch):
        # G(k) and G(-k) of each of the 100 samples come from one stacked
        # build per regime; the block check builds its own G(k)
        shapes = []
        build = model.dynamical_qb_k

        def counted(k, *args, **kwargs):
            shapes.append(np.shape(k))
            return build(k, *args, **kwargs)
        monkeypatch.setattr(model, "dynamical_qb_k", counted)
        monkeypatch.setattr(spectral, "dynamical_qb_k", counted)
        code, _, _ = run_cli(tmp_path, ["--command", "check"])
        assert code == 0
        assert shapes == [(2,), ()] * 200

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


# small runs of each command, and for each key a command reads, a value
# away from the phase boundaries that must change what the run writes;
# written apart from the key table in cli
ORACLE_BASE = {
    "spectrum": {"delta_steps": "3"},
    "winding": {"grid_points": "401"},
    "phase-diagram": {"delta_steps": "3", "theta_steps": "2", "grid_points": "401"},
    "quench": {"n_half": "50", "n_t": "40"},
    "amplify": {"n_cells": "4", "delta_steps": "3"},
    "check": {},
}
READS = {
    "spectrum": {"J": "2", "theta": "0.2", "regime": "imaginary", "boundary": "obc",
                 "delta_min": "-0.5", "delta_max": "0.5", "delta_steps": "2",
                 "k_points": "13", "n_cells": "4"},
    "winding": {"J": "2", "delta": "-0.5", "theta": "0.2", "regime": "imaginary",
                "grid_points": "201"},
    "phase-diagram": {"regime": "imaginary", "theta_min": "0.2", "theta_max": "0.8",
                      "theta_steps": "3", "delta_min": "-0.5", "delta_max": "0.5",
                      "delta_steps": "4", "grid_points": "201"},
    # the initial state does not depend on the scale J_i
    "quench": {"regime": "real", "J_i": "1e160", "delta_i": "-0.5", "theta_i": "0.2",
               "J_f": "2", "delta_f": "0.5", "theta_f": "0.2", "t_max": "6",
               "n_half": "40", "n_t": "30", "n_max": "3"},
    "amplify": {"regime": "imaginary", "J": "2", "delta": "0.7", "theta": "0.2",
                "n_cells": "5", "delta_min": "-0.5", "delta_max": "0.5",
                "delta_steps": "2"},
    "check": {},
}
# quench and amplify each run one regime: regime may be set, to that one;
# J_i scales E^i alone, which the overlap cancels: it is only checked
EXEMPT = {("quench", "regime"), ("amplify", "regime"), ("quench", "J_i")}
# a spectrum reads the grid size of its boundary only
OTHER_SIZE = [("spectrum", "pbc", "n_cells"), ("spectrum", "obc", "k_points")]
REJECTED = [(command, key) for command in READS for key in cli.DEFAULTS
            if key != "command" and key not in READS[command]]


def _written(root, name, config):
    """The data files, ``files`` and ``tolerances`` of one run; the data
    without spectrum.csv's preamble, which echoes the configuration."""
    out = root / name
    cli.run(cli.validate({**config, "out": str(out)}))
    manifest = json.loads((out / "manifest.json").read_text())
    data = {f["name"]: [line for line in (out / f["name"]).read_bytes().splitlines()
                        if not line.startswith(b"#")] for f in manifest["files"]}
    return data, manifest["files"], manifest["tolerances"]


class TestKeyRule:
    @pytest.mark.parametrize("command, key", [
        (command, key) for command in READS for key in READS[command]])
    def test_every_key_read_changes_the_run(self, tmp_path, command, key):
        base = {"command": command, **ORACLE_BASE[command]}
        if (command, key) == ("spectrum", "n_cells"):
            base["boundary"] = "obc"  # n_cells is the OBC chain length
        ref = _written(tmp_path, "ref", base)
        got = _written(tmp_path, "got", {**base, key: READS[command][key]})
        if (command, key) in EXEMPT:
            assert got == ref
        else:
            assert got != ref

    def test_rejected_pairs(self):
        # every (command, key) pair of the 24 keys that no command reads
        assert len(REJECTED) == 103

    @pytest.mark.parametrize("command, boundary, key", [
        *((command, None, key) for command, key in REJECTED), *OTHER_SIZE])
    def test_key_not_read_exit_1(self, tmp_path, capsys, command, boundary, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"command={command}\n{key}=2\n"
                       + (f"boundary={boundary}\n" if boundary else ""))
        code, out, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 1 and manifest is None and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: unknown config keys ['{key}'] for "
                              f"command '{command}'")
        assert "valid keys" in err

    def test_phase_diagram_takes_no_J(self, tmp_path, capsys):
        # no label or winding depends on J (see test_topology)
        cfg = tmp_path / "pd.cfg"
        cfg.write_text("command=phase-diagram\nJ=2\n")
        code, _, manifest = run_cli(tmp_path, ["--config", str(cfg)])
        assert code == 1 and manifest is None
        err = capsys.readouterr().err
        assert "unknown config keys ['J'] for command 'phase-diagram'" in err
        assert "'J'" not in err.split("valid keys")[1]

    def test_amplify_defaults_to_imaginary(self, tmp_path):
        code, _, manifest = run_cli(tmp_path, ["--command", "amplify"])
        assert code == 0
        assert manifest["config"]["regime"] == "imaginary"
        assert manifest["config"]["model"] == "nssh1"

    def test_benchmark_workloads_validate(self):
        # perfbench/run.py's WORKLOADS, read without importing the module
        path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
        (node,) = [n.value for n in ast.parse(path.read_text()).body
                   if isinstance(n, ast.Assign)
                   and [getattr(t, "id", None) for t in n.targets] == ["WORKLOADS"]]
        workloads = ast.literal_eval(node)
        assert set(workloads) == {"quench", "amplify", "survey"}
        for runs in workloads.values():
            for label, config in runs:
                assert cli.validate(config)["command"] == config["command"], label

    def test_readme_and_help_list_the_key_table(self, capsys):
        table = {command: {key: str(value) for key, value in
                           cli.command_defaults(command).items()}
                 for command in cli.COMMANDS}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", readme, re.MULTILINE)
        assert {command: dict(re.findall(r"`(\w+)=([^`]+)`", keys))
                for command, keys in rows} == table
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        epilog = capsys.readouterr().out.split("Config keys and defaults")[1]
        lines = re.findall(r"^  ([\w-]+): (.*)$", epilog, re.MULTILINE)
        assert {command: dict(re.findall(r"(\w+)=(\S+)", keys))
                for command, keys in lines} == table


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
    "winding-nssh1": {"command": "winding", "regime": "imaginary", "delta": "-0.1",
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

    def test_manifests_are_strict_json(self, small_runs, tmp_path):
        # every small run and two self-quenches (t_complete +inf); NaN and
        # +-Infinity are not JSON
        def reject(name):
            raise ValueError(f"{name} in a manifest")
        root, _ = small_runs
        paths = [root / label / "manifest.json" for label in SMALL_RUNS]
        for label, config in SELF_QUENCHES.items():
            out = tmp_path / label
            assert cli.run(cli.validate({"command": "quench", "n_half": "100",
                                         "n_t": "60", **config, "out": str(out)})) == 0
            paths.append(out / "manifest.json")
        for path in paths:
            json.loads(path.read_text(), parse_constant=reject)

    def test_manifest_config_is_typed(self, small_runs):
        # numbers, not their config-file text
        root, manifests = small_runs
        assert '"n_cells": 4,' in (root / "amplify" / "manifest.json").read_text()
        assert manifests["amplify"]["config"]["J"] == 1.0
        for manifest in manifests.values():
            for key, value in manifest["config"].items():
                if key not in ("out", "model"):
                    assert type(value) is type(cli.DEFAULTS[key]), key

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


def pool_workers(blocks, cpus):
    """The threads ``_write_table`` lays out a table of ``blocks`` blocks on."""
    return 1 if blocks < cli._POOL_BLOCKS else min(cpus, blocks)


def chi_expected(stack, sector):
    """The chi file of one pair's Neumann stack, entry by entry with '%.16e':
    chi_bd's entry (r, c) is entry (r % 2, c % 2) of block r // 2 - c // 2,
    chi_ac's the transposed one of block c // 2 - r // 2, zero below 0."""
    n = len(stack) - 1
    other = "BD" if sector == "AC" else "AC"
    rows, cols = ([f"{i // 2 + 1}{s[i % 2]}" for i in range(2 * n)]
                  for s in (sector, other))
    lines = ["row,col,abs_value\n"]
    for r in range(2 * n):
        for c in range(2 * n):
            m = r // 2 - c // 2 if sector == "BD" else c // 2 - r // 2
            a, b = (r % 2, c % 2) if sector == "BD" else (c % 2, r % 2)
            v = stack[m][a][b] if m >= 0 else 0.0
            lines.append(f"{rows[r]},{cols[c]},{'%.16e' % abs(v)}\n")
    return "".join(lines)


def chi_written(tmp_path, blocks):
    """Run ``_write_chi`` on ``blocks``: the texts of its files in PAIRS
    order, its ``files`` and its stages."""
    files, stages = [], []
    cli._write_chi(tmp_path, files, stages, blocks)
    names = [f"chi_{s}_{q}.csv".lower() for s, q in amplification.PAIRS]
    assert [f["name"] for f in files] == [s["name"] for s in stages] == names
    return [(tmp_path / name).read_text() for name in names], files, stages


#: (n_cells, theta, delta - delta0) of the chi layout tests
CHI_GRID = [(n, theta, side) for n in (2, 3, 40, 80)
            for theta in (-1.0, 0.0, 0.4, 2.0) for side in (-0.25, 0.25)]


class TestChiWriter:
    @pytest.mark.parametrize("n_cells, theta, side", CHI_GRID)
    def test_text_from_blocks_matches_per_entry_format(self, tmp_path, n_cells,
                                                       theta, side):
        delta0 = topology.transition_delta(theta)
        rep = amplification.susceptibility(
            model.derive_couplings(delta0 + side, theta), n_cells)
        assert rep.blocks.shape == (4, n_cells + 1, 2, 2)
        assert not rep.blocks[:, n_cells].any()
        # |chi_P| = |chi_X| bit for bit: each P stack is its X stack in the
        # diag(1, -1) gauge, an exact sign flip
        mag = np.abs(rep.blocks).view(np.int64)
        assert np.array_equal(mag[[0, 2]], mag[[1, 3]])
        texts, files, stages = chi_written(tmp_path, rep.blocks)
        for text, (sector, _), stack, f, stage in zip(
                texts, amplification.PAIRS, rep.blocks, files, stages, strict=True):
            sub = amplification.lay_out(stack, sector)
            rows, cols = (amplification.sector_labels(s, n_cells).astype(str)
                          for s in amplification.SECTOR_AXES[sector])
            assert text == "row,col,abs_value\n" + "".join(
                f"{r},{c},{'%.16e' % abs(v)}\n"
                for r, line in zip(rows, sub.tolist()) for c, v in zip(cols, line))
            assert f["rows"] == (2 * n_cells) ** 2
            assert stage["shape"] == [(2 * n_cells) ** 2, 3]
            assert stage["bytes"] == len(text)

    def test_two_block_table_starts_no_thread(self, tmp_path, monkeypatch):
        # the theta = 0, N = 80 chi files hold 25,600 rows: two blocks each
        def no_thread(*args, **kwargs):
            raise AssertionError("a two-block table started a thread")

        monkeypatch.setattr(quench, "cpus_available", lambda: 2)
        monkeypatch.setattr(quench.threading, "Thread", no_thread)
        rep = amplification.susceptibility(model.derive_couplings(0.5, 0.0), 80)
        assert -(-160 // (cli._TABLE_BLOCK // 160)) == 2
        texts, _, stages = chi_written(tmp_path, rep.blocks)
        assert [s["workers"] for s in stages] == [1] * 4
        assert texts[0] == chi_expected(rep.blocks[0], "AC")
        assert texts[2] == chi_expected(rep.blocks[2], "BD")

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_125_block_table_keeps_the_pool(self, tmp_path, monkeypatch, cpus):
        # the default pgp_grid.csv's 125 blocks, of one leading entry (two
        # rows) each here; the rule counts blocks, not blocks per CPU
        x = np.random.default_rng(3).standard_normal((125, 3))
        expected = "a,b\n" + "".join("%.16e,%.16e\n" % (a, b)
                                      for a, *bs in x.tolist() for b in bs)
        monkeypatch.setattr(cli, "_TABLE_BLOCK", 2)
        monkeypatch.setattr(quench, "cpus_available", lambda: cpus)
        stages = []
        cli._write_table(tmp_path, [], stages, "p.csv", "a,b", [x[:, :1], x[:, 1:]])
        assert (tmp_path / "p.csv").read_text() == expected
        assert stages[0]["workers"] == min(cpus, 125)


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
            model.derive_couplings(-0.9, 0.0),
            model.derive_couplings(0.9, 0.4), n_half=37, n_t=23)
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
        # one thread, two, and more CPUs than the 5 blocks; on the pool too
        for cpus, pool_blocks in ((1, cli._POOL_BLOCKS), (2, cli._POOL_BLOCKS),
                                  (2, 0), (16, 0)):
            monkeypatch.setattr(quench, "cpus_available", lambda: cpus)
            monkeypatch.setattr(cli, "_POOL_BLOCKS", pool_blocks)
            stages = []
            cli._write_table(tmp_path, [], stages, "new.csv", "k,t,phi_pgp",
                             [p.k_grid[:, None], p.t_grid, phi])
            assert (tmp_path / "new.csv").read_bytes() == ref
            assert stages[0]["bytes"] == len(ref)
            assert stages[0]["workers"] == pool_workers(5, cpus)

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
        for cpus, pool_blocks in ((1, cli._POOL_BLOCKS), (2, cli._POOL_BLOCKS), (2, 0)):
            monkeypatch.setattr(quench, "cpus_available", lambda: cpus)
            monkeypatch.setattr(cli, "_POOL_BLOCKS", pool_blocks)
            stages = []
            cli._write_table(tmp_path, [], stages, "grid.csv", "k,t,phi_pgp",
                             [k_grid[:, None], t_grid, phi])
            assert (tmp_path / "grid.csv").read_bytes() == expected
            assert (stages[0]["bytes"], stages[0]["workers"]) == (
                len(expected), pool_workers(4, cpus))

    def test_chi_writer_matches_per_entry_format(self, tmp_path):
        # N = 101: labels up to "101D"; a random X stack per sector, with
        # values across the double range, zeros, subnormals and the largest
        # double, and each P stack its image in the diag(1, -1) gauge
        rng = np.random.default_rng(11)
        blocks = rng.choice([0.5, -0.5, 3.0, np.pi, -2.0 ** -30], size=(4, 102, 2, 2))
        blocks[:, :3] *= rng.standard_normal((4, 3, 2, 2)) * 10.0 ** rng.integers(
            -320, 300, (4, 3, 2, 2))
        blocks[:, 3:7] = np.reshape(
            [0.0, -0.0, 5e-324, -2.5e-310, 2.0 ** -1030, 1e-7,
             9.9999999999999995e-08, -1e-300, 1e17,
             -99999999999999984.0, 1e300, 1.7976931348623157e308,
             1e22, 1e23, -1e16, 123456.789], (4, 2, 2))
        blocks[:, -1] = 0.0  # the zero block
        blocks[[1, 3]] = blocks[[0, 2]] * [[1.0, -1.0], [-1.0, 1.0]]
        texts, files, stages = chi_written(tmp_path, blocks)
        assert "101D,101C," in texts[2]
        for text, (sector, _), stack, f, stage in zip(
                texts, amplification.PAIRS, blocks, files, stages, strict=True):
            assert text == chi_expected(stack, sector)
            assert f["rows"] == 202 * 202
            assert stage["shape"] == [202 * 202, 3]
            assert stage["bytes"] == len(text)

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
        # 3 labels (the last partial) on the pool, or one block on this thread
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
        monkeypatch.setattr(cli, "_POOL_BLOCKS", 0)
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


#: a small run of each command that writes an energy, a time or a chi, and
#: its scale key
UNIT_RUNS = {
    "spectrum-pbc": ({"command": "spectrum", "k_points": "13", "delta_steps": "5"},
                     "J"),
    "spectrum-obc": ({"command": "spectrum", "boundary": "obc", "n_cells": "4",
                      "delta_steps": "5"}, "J"),
    # inside the Moebius window: merged loops
    "winding": ({"command": "winding", "delta": "-0.1", "grid_points": "401"}, "J"),
    "amplify": ({"command": "amplify", "n_cells": "10"}, "J"),
    "quench": ({"command": "quench", "n_half": "100", "n_t": "60"}, "J_f"),
}


class TestUnits:
    @pytest.mark.parametrize("J", ["1e-150", "1e-7", "2", "1e150"])
    @pytest.mark.parametrize("label", list(UNIT_RUNS))
    def test_outputs_scale_with_J(self, tmp_path, label, J):
        # the run at J is the run at J = 1 with its energies times J, its chi
        # and gains over J, and the rest (nu, delta0, labels, merged) equal;
        # a quench at (J_f, t_max) is that at (1, J_f t_max), here 12
        config, key = UNIT_RUNS[label]
        config = {**config, key: J}
        if key == "J_f":
            config["t_max"] = repr(12.0 / float(J))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, cfg in (("J", config), ("unit", unit_run(config, key))):
                assert cli.run(cli.validate({**cfg, "out": str(tmp_path / name)})) == 0
        assert_scaled(tmp_path / "J", tmp_path / "unit", float(J))

    def test_unit_scale_keeps_the_bits(self):
        x = np.array([0.0, -0.0, 5e-324, -1.2345678901234567e-300, 1.7e308, np.inf,
                      np.nan])
        for power in (1, -1):
            assert cli._units(1.0)(x, power).tobytes() == x.tobytes()

    @pytest.mark.parametrize("J", [0.0, -1.0, -np.inf, np.nan])
    def test_nonpositive_scale_rejected(self, J):
        with pytest.raises(qbchain.DomainError, match="J must be positive"):
            cli._units(J)

    def test_overflow_names_the_key(self):
        scale = cli._units(1e-300, "J_f")
        assert scale(np.array([1e-10, np.inf])).tolist() == [1e-310, np.inf]
        with pytest.raises(qbchain.DoubleOverflowError,
                           match=re.escape("J_f**-1 leave the double range at "
                                           "J_f=1e-300")):
            scale(np.array([1e-10, 1e10]), -1)


class TestPhaseLabels:
    @pytest.mark.parametrize("regime", ["real", "imaginary"])
    def test_wrong_winding_exits_2(self, tmp_path, monkeypatch, regime):
        # one rule checks each label against its winding in both regimes: a
        # nu moved by 1/2 is a ResolutionError, not a written row
        def shifted(fn):
            def wrapper(*args, **kwargs):
                res = fn(*args, **kwargs)
                if isinstance(res, list):
                    return [dataclasses.replace(r, nu=r.nu + 0.5) for r in res]
                return dataclasses.replace(res, nu=res.nu + 0.5)
            return wrapper
        cfg = cli.validate({"command": "phase-diagram", "regime": regime,
                            "delta_steps": "5", "theta_steps": "2",
                            "grid_points": "401", "out": str(tmp_path / "ok")})
        assert cli.run(cfg) == 0
        monkeypatch.setattr(topology, "winding_pair", shifted(topology.winding_pair))
        monkeypatch.setattr(topology, "_windings", shifted(topology._windings))
        assert cli.run({**cfg, "out": str(tmp_path / "bad")}) == 2
        manifest = json.loads((tmp_path / "bad" / "manifest.json").read_text())
        assert manifest["error"].startswith("ResolutionError: winding nu=")
        assert "disagrees with the trivial label" in manifest["error"]
        assert manifest["files"] == []

    @pytest.mark.parametrize("config", [
        {"command": "amplify", "delta": "-1"},
        {"command": "phase-diagram", "regime": "imaginary", "theta_min": "400",
         "theta_max": "400", "theta_steps": "1", "grid_points": "401"},
    ])
    def test_ep_edge_cases_run(self, tmp_path, config):
        # delta = -1 (w_r = w_l = 0) and theta = 400 (w_l^2 past the double
        # range) run with no warning; at theta = 400 delta0 is -1, so every
        # delta of the grid is non-trivial
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(cli.validate({**config, "out": str(tmp_path)})) == 0
        if config["command"] == "phase-diagram":
            labels = [row.split(",")[-1] for row in
                      (tmp_path / "phase_diagram.csv").read_text().splitlines()[1:]]
            assert set(labels) == {"nontrivial"}

    def test_amplify_large_theta_typed(self, tmp_path):
        # chi grows as (v_crit/|v|)^m with v_crit about e^400: a typed error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = cli.run(cli.validate({"command": "amplify", "theta": "400",
                                           "out": str(tmp_path)}))
        error = json.loads((tmp_path / "manifest.json").read_text())["error"]
        assert status == 2
        assert error.startswith("SingularityError: susceptibility overflows")


#: the functions of the six modules that no command reaches: oracles of the
#: tests, and gain_metrics, whose gains no command writes
UNREACHED = {
    "model": {"fourier_project"},
    "spectral": {"ipr_localization"},
    "topology": {"_bisect"},
    "quench": {"fisher_zeros"},
    "amplification": {"gain_metrics"},
    "cli": set(),
}


def defined_functions(module) -> dict:
    """Code object -> qualified name of every function written in
    ``module``'s file: its functions and methods (properties and cached
    properties included) and the functions nested in them, lambdas too; not
    comprehensions, class bodies, or the methods that dataclasses generate."""
    found = {}

    def visit(code, qualname):
        found[code] = qualname
        for const in code.co_consts:
            if inspect.iscode(const) and not const.co_name.endswith("comp>") \
                    and const.co_name != "<genexpr>":
                visit(const, f"{qualname}.<locals>.{const.co_name}")

    def add(obj):
        obj = getattr(obj, "func", obj)  # a cached_property
        obj = getattr(obj, "fget", obj)  # a property
        obj = getattr(obj, "__func__", obj)  # a classmethod
        obj = inspect.unwrap(obj) if callable(obj) else obj
        if inspect.isfunction(obj) and obj.__code__.co_filename == module.__file__:
            visit(obj.__code__, obj.__qualname__)

    for value in vars(module).values():
        if inspect.isclass(value) and value.__module__ == module.__name__:
            for member in vars(value).values():
                add(member)
        else:
            add(value)
    return found


class TestReach:
    def test_every_function_is_reached(self, tmp_path, monkeypatch):
        # each small run, an OBC real spectrum and a quench whose pgp_grid.csv
        # takes 10 blocks, through main: every function of the six modules
        # runs, on any thread, but those of UNREACHED.  Two CPUs, so that the
        # thread pools start
        monkeypatch.setattr(quench, "cpus_available", lambda: 2)
        cli._environment.cache_clear()
        runs = {**SMALL_RUNS,
                "spectrum-obc": {"command": "spectrum", "boundary": "obc",
                                 "n_cells": "4", "delta_steps": "3"},
                "quench-pool": {"command": "quench", "n_t": "60"}}
        reached = set()

        def profile(frame, event, arg):
            if event == "call":
                reached.add(frame.f_code)
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            for label, config in runs.items():
                cfg = tmp_path / f"{label}.cfg"
                cfg.write_text("".join(f"{k}={v}\n" for k, v in config.items()))
                assert cli.main(["--config", str(cfg), "--out", str(tmp_path / label)]) == 0
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            cli._environment.cache_clear()
        for module in (model, spectral, topology, quench, amplification, cli):
            name = module.__name__.rsplit(".", 1)[1]
            missed = {qual for code, qual in defined_functions(module).items()
                      if code not in reached}
            assert missed == UNREACHED[name], name

    def test_every_unreached_function_is_tested(self):
        # what no command reaches is the subject of a test: each function of
        # UNREACHED is called as <module>.<function>(...) by a test module
        # other than this one
        called = set()
        here = Path(__file__).resolve()
        for path in here.parent.glob("test_*.py"):
            if path == here:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                        and isinstance(node.func.value, ast.Name):
                    called.add((node.func.value.id, node.func.attr))
        assert {(module, name) for module, names in UNREACHED.items()
                for name in names} - called == set()
