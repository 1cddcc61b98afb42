"""Command-line front end emitting deterministic CSV/JSON artifacts.

Runs are configured by a flat key=value file (section headers in square
brackets are allowed and ignored) plus command-line overrides.  Every run
writes a ``manifest.json`` echoing the resolved configuration, the files
produced and the residuals observed.

Exit codes: 0 success, 1 usage error, 2 computation error, 3 tolerance
failure in ``check``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import QbChainError
from . import amplification, model, quench, spectral, topology

COMMANDS = ("spectrum", "winding", "phase-diagram", "quench", "amplify", "check")

# documented defaults per configuration key (string form, as in config files)
DEFAULTS = {
    "command": "check",
    "J": "1.0",
    "theta": "0.4",
    "delta": "0.5",
    "regime": "real",
    "boundary": "pbc",
    "n_cells": "40",
    "k_points": "101",
    "delta_min": "-0.9",
    "delta_max": "0.9",
    "delta_steps": "41",
    "theta_min": "0.0",
    "theta_max": "1.0",
    "theta_steps": "11",
    "grid_points": "2001",
    "model": "nssh2",
    "J_i": "1.0",
    "delta_i": "-0.9",
    "theta_i": "0.0",
    "J_f": "1.0",
    "delta_f": "0.9",
    "theta_f": "0.4",
    "t_max": "12.0",
    "n_half": "1000",
    "n_t": "800",
    "n_max": "10",
}


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    """Scientific notation with 17 significant digits (round-trip exact)."""
    return f"{x:.16e}"


def read_config(path: str) -> dict:
    cfg = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            continue  # section headers are organizational only
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        cfg[key.strip()] = val.strip()
    return cfg


def validate(cfg: dict) -> dict:
    """Fill defaults, check keys/values, reject inconsistent combinations."""
    unknown = sorted(set(cfg) - set(DEFAULTS) - {"out"})
    if unknown:
        raise UsageError(
            f"unknown config keys {unknown}; valid keys: {sorted(DEFAULTS)} + ['out']"
        )
    full = dict(DEFAULTS)
    full.update(cfg)
    if full["command"] not in COMMANDS:
        raise UsageError(f"command must be one of {COMMANDS}, got {full['command']!r}")
    if full["regime"] not in ("real", "imaginary"):
        raise UsageError(f"regime must be real or imaginary, got {full['regime']!r}")
    if full["boundary"] not in ("pbc", "obc"):
        raise UsageError(f"boundary must be pbc or obc, got {full['boundary']!r}")
    for key in ("J", "theta", "delta", "delta_min", "delta_max", "theta_min",
                "theta_max", "J_i", "delta_i", "theta_i", "J_f", "delta_f",
                "theta_f", "t_max"):
        try:
            float(full[key])
        except ValueError:
            raise UsageError(f"{key} must be a number, got {full[key]!r}") from None
    for key in ("n_cells", "k_points", "delta_steps", "theta_steps",
                "grid_points", "n_half", "n_t", "n_max"):
        try:
            int(full[key])
        except ValueError:
            raise UsageError(f"{key} must be an integer, got {full[key]!r}") from None
    if int(full["delta_steps"]) < 1 or int(full["theta_steps"]) < 1:
        raise UsageError("delta_steps and theta_steps must be >= 1")
    if (int(full["delta_steps"]) > 1
            and float(full["delta_max"]) <= float(full["delta_min"])):
        raise UsageError("delta range is empty (delta_max <= delta_min)")
    if full["command"] == "amplify" and full["regime"] == "real":
        raise UsageError(
            "quadratures do not decouple in the real regime; "
            "amplify requires regime=imaginary"
        )
    return full


def _delta_grid(cfg: dict) -> np.ndarray:
    n = int(cfg["delta_steps"])
    if n == 1:
        return np.array([float(cfg["delta_min"])])
    return np.linspace(float(cfg["delta_min"]), float(cfg["delta_max"]), n)


def _write(outdir: Path, name: str, text: str, files: list) -> None:
    path = outdir / name
    path.write_text(text)
    rows = max(0, text.count("\n") - 1)
    files.append({"name": name, "rows": rows})


def _cmd_spectrum(cfg, outdir, files, tolerances):
    regime = model.Regime(cfg["regime"])
    if cfg["boundary"] == "pbc":
        boundary = model.PBC.uniform(int(cfg["k_points"]))
    else:
        boundary = model.OBC(int(cfg["n_cells"]))
    sweep = spectral.spectrum_sweep(float(cfg["J"]), float(cfg["theta"]),
                                    _delta_grid(cfg), regime, boundary)
    _write(outdir, "spectrum.csv", sweep.to_csv(), files)


def _cmd_winding(cfg, outdir, files, tolerances):
    c = model.derive_couplings(float(cfg["J"]), float(cfg["delta"]),
                               float(cfg["theta"]))
    grid = topology.default_bz_grid(int(cfg["grid_points"]))
    if cfg["model"] == "nssh2":
        provider = lambda k: model.bloch_nssh2(k, c)
        which = "nssh2"
    elif cfg["model"] == "nssh1":
        provider = lambda k: model.bloch_nssh1(k, c)
        which = "nssh1"
    else:
        raise UsageError(f"model must be nssh2 or nssh1, got {cfg['model']!r}")
    res = topology.winding_pair(provider, grid)
    integral = topology.winding_integral(provider, grid)
    tolerances["winding_quantization_residual"] = res.imag_residual
    tolerances["winding_integral_imag"] = abs(integral.imag)
    lines = ["nu1,nu2,nu,integral_re,integral_im,grid_size"]
    lines.append(",".join([_fmt(res.nu1), _fmt(res.nu2), _fmt(res.nu),
                           _fmt(integral.real), _fmt(integral.imag),
                           str(res.grid_size)]))
    _write(outdir, "winding.csv", "\n".join(lines) + "\n", files)
    ep, em, merged = topology.parametric_energy_loops(c, grid, which=which)
    loop = ["k,re_E_plus,im_E_plus,re_E_minus,im_E_minus"]
    for k, p, m in zip(grid, ep, em):
        loop.append(",".join([_fmt(k), _fmt(p.real), _fmt(p.imag),
                              _fmt(m.real), _fmt(m.imag)]))
    _write(outdir, "energy_loops.csv", "\n".join(loop) + "\n", files)


def _cmd_phase_diagram(cfg, outdir, files, tolerances):
    lines = ["delta,theta,nu1,nu2,nu,label"]
    thetas = np.linspace(float(cfg["theta_min"]), float(cfg["theta_max"]),
                         int(cfg["theta_steps"]))
    grid = topology.default_bz_grid(int(cfg["grid_points"]))
    for th in thetas:
        for d in _delta_grid(cfg):
            c = model.derive_couplings(float(cfg["J"]), d, th)
            if cfg["regime"] == "real":
                label = topology.classify_phase_real(c)
                provider = lambda k: model.bloch_nssh2(k, c)
            else:
                label = topology.classify_phase_imag(c, grid)
                provider = lambda k: model.bloch_nssh1(k, c)
            if label.tag is topology.Phase.CRITICAL:
                lines.append(",".join([_fmt(d), _fmt(th), "nan", "nan", "nan",
                                       label.tag.value]))
                continue
            res = topology.winding_pair(provider, grid)
            lines.append(",".join([_fmt(d), _fmt(th), _fmt(res.nu1),
                                   _fmt(res.nu2), _fmt(res.nu),
                                   label.tag.value]))
    _write(outdir, "phase_diagram.csv", "\n".join(lines) + "\n", files)


def _cmd_quench(cfg, outdir, files, tolerances):
    ci = model.derive_couplings(float(cfg["J_i"]), float(cfg["delta_i"]),
                                float(cfg["theta_i"]))
    cf = model.derive_couplings(float(cfg["J_f"]), float(cfg["delta_f"]),
                                float(cfg["theta_f"]))
    p = quench.QuenchProtocol.default(ci, cf, t_max=float(cfg["t_max"]),
                                      n_half=int(cfg["n_half"]),
                                      n_t=int(cfg["n_t"]))
    field = quench.pgp_field(p)
    lines = ["t,return_rate"]
    for t, r in zip(p.t_grid, quench.return_rate(field)):
        lines.append(f"{_fmt(t)},{'inf' if np.isinf(r) else _fmt(r)}")
    _write(outdir, "return_rate.csv", "\n".join(lines) + "\n", files)

    d = quench.dtop(field)
    lines = ["t,dtop_plus,dtop_minus,drift_plus,drift_minus"]
    for row in zip(d.t, d.dtop_plus, d.dtop_minus, d.drift_plus,
                   d.drift_minus):
        lines.append(",".join(_fmt(x) for x in row))
    windings = np.concatenate([d.dtop_plus, d.dtop_minus])
    tolerances["dtop_quantization_residual"] = float(
        np.abs(windings - np.rint(windings)).max())
    tolerances["dtop_endpoint_drift"] = float(
        max(np.abs(d.drift_plus).max(), np.abs(d.drift_minus).max()))
    _write(outdir, "dtop.csv", "\n".join(lines) + "\n", files)

    ct = quench.critical_set(p, range(int(cfg["n_max"])))
    lines = ["n,side,k_c,t_c,residual"]
    for n, side, kc, tc, resid in ct.entries:
        lines.append(f"{n},{side},{_fmt(kc)},{_fmt(tc)},{_fmt(resid)}")
    tolerances["kc_equation_residual"] = max(
        (abs(e[4]) for e in ct.entries), default=0.0)
    _write(outdir, "critical_times.csv", "\n".join(lines) + "\n", files)

    # each t is formatted once; one % fills each momentum's row of lines
    t_cells = [f",{_fmt(t)},%.16e\n" for t in p.t_grid]
    with (outdir / "pgp_grid.csv").open("w") as fh:
        fh.write("k,t,phi_pgp\n")
        for k, phi in zip(p.k_grid, field.phi_pgp):
            kf = _fmt(k)
            fh.write((kf + kf.join(t_cells)) % tuple(phi.tolist()))
    files.append({"name": "pgp_grid.csv", "rows": field.phi_pgp.size})


def _cmd_amplify(cfg, outdir, files, tolerances):
    c = model.derive_couplings(float(cfg["J"]), float(cfg["delta"]),
                               float(cfg["theta"]))
    n_cells = int(cfg["n_cells"])
    rep = amplification.susceptibility(c, n_cells)
    tolerances["susceptibility_residual"] = rep.residual
    # cell-sublattice labels, e.g. "3C", per sector; each row's "row,col,"
    # prefixes are built once and one % fills the row
    labels = {s: [f"{i // 2 + 1}{s[i % 2]}" for i in range(2 * n_cells)]
              for s in ("AC", "BD")}
    col_cells = {s: [f",{cl},%.16e\n" for cl in labels[s]] for s in labels}
    subs = [("chi_ac_x", rep.chi_ac_x, "AC", "BD"),
            ("chi_ac_p", rep.chi_ac_p, "AC", "BD"),
            ("chi_bd_x", rep.chi_bd_x, "BD", "AC"),
            ("chi_bd_p", rep.chi_bd_p, "BD", "AC")]
    for name, sub, rows, cols in subs:
        with (outdir / f"{name}.csv").open("w") as fh:
            fh.write("row,col,abs_value\n")
            for rl, mag in zip(labels[rows], np.abs(sub)):
                fh.write((rl + rl.join(col_cells[cols])) % tuple(mag.tolist()))
        files.append({"name": f"{name}.csv", "rows": sub.size})
    lines = ["delta,delta0,nu,gain_ac_x,gain_ac_p,gain_bd_x,gain_bd_p"]
    scan = amplification.amplification_phase_scan(
        float(cfg["J"]), float(cfg["theta"]), _delta_grid(cfg), n_cells)
    for d, d0, nu, gains in scan:
        lines.append(",".join([
            _fmt(d), _fmt(d0), _fmt(nu if nu is not None else float("nan")),
            _fmt(gains[("AC", "X")]), _fmt(gains[("AC", "P")]),
            _fmt(gains[("BD", "X")]), _fmt(gains[("BD", "P")]),
        ]))
    _write(outdir, "amplification_scan.csv", "\n".join(lines) + "\n", files)


def _cmd_check(cfg, outdir, files, tolerances):
    """Invariant self-test; returns the number of failed checks."""
    rng = np.random.default_rng(12345)
    failures = []

    def check(name, value, bound):
        tolerances[name] = float(value)
        if not value < bound:
            failures.append(f"{name}: {value:.3e} !< {bound:.0e}")

    worst = {"block_real": 0.0, "block_imag": 0.0, "phs1": 0.0, "pseudo": 0.0,
             "quadruple": 0.0}
    for _ in range(100):
        k = rng.uniform(-np.pi, np.pi)
        c = model.derive_couplings(1.0, rng.uniform(-0.95, 0.95),
                                   rng.uniform(0.0, 1.0))
        worst["block_real"] = max(worst["block_real"],
                                  spectral.block_diagonalize_real(k, c))
        worst["block_imag"] = max(worst["block_imag"],
                                  spectral.block_diagonalize_imag(k, c))
        for r in model.Regime:
            G = model.dynamical_qb_k(k, c, r)
            Gm = model.dynamical_qb_k(-k, c, r)
            worst["phs1"] = max(worst["phs1"], float(np.abs(
                model.TAU1 @ Gm.conj() @ model.TAU1 + G).max()))
            worst["pseudo"] = max(worst["pseudo"], float(np.abs(
                model.TAU3 @ G.conj().T @ model.TAU3 - G).max()))
            ev = np.linalg.eigvals(G)
            for target in (-ev, ev.conj()):
                d = np.abs(ev[:, None] - target[None, :]).min(axis=1).max()
                worst["quadruple"] = max(worst["quadruple"], float(d))
    check("block_real_residual", worst["block_real"], 1e-12)
    check("block_imag_residual", worst["block_imag"], 1e-12)
    check("phs1_residual", worst["phs1"], 1e-12)
    check("pseudo_hermiticity_residual", worst["pseudo"], 1e-12)
    check("eigenvalue_quadruple_residual", worst["quadruple"], 1e-9)

    worst_g = 0.0
    for _ in range(100):
        k = rng.uniform(-np.pi, np.pi)
        ci = model.derive_couplings(1.0, rng.uniform(-0.9, 0.9),
                                    rng.uniform(0.05, 1.0))
        cf = model.derive_couplings(1.0, rng.uniform(-0.9, 0.9),
                                    rng.uniform(0.05, 1.0))
        t = rng.uniform(0.0, 5.0)
        g0 = complex(quench.loschmidt_gk(k, ci, cf, t))
        for method in ("fq", "biortho"):
            worst_g = max(worst_g,
                          abs(quench.loschmidt_oracle(k, ci, cf, t, method) - g0))
    check("loschmidt_oracle_agreement", worst_g, 1e-9)

    grid = topology.default_bz_grid()
    for d, expected in ((-0.9, 0.0), (-0.1, 0.5), (0.9, 1.0)):
        c = model.derive_couplings(1.0, d, 0.4)
        res = topology.winding_pair(lambda k: model.bloch_nssh2(k, c), grid)
        check(f"winding_delta_{d}", abs(res.nu - expected), 1e-3)

    lines = ["check,value"]
    for name, val in tolerances.items():
        lines.append(f"{name},{_fmt(val)}")
    lines.append(f"failures,{len(failures)}")
    _write(outdir, "check_report.csv", "\n".join(lines) + "\n", files)
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return len(failures)


def run(cfg: dict) -> int:
    """Dispatch a validated configuration; returns the process exit code."""
    outdir = Path(cfg.get("out", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    tolerances = {}
    start = time.time()
    status = 0
    error = None
    try:
        if cfg["command"] == "spectrum":
            _cmd_spectrum(cfg, outdir, files, tolerances)
        elif cfg["command"] == "winding":
            _cmd_winding(cfg, outdir, files, tolerances)
        elif cfg["command"] == "phase-diagram":
            _cmd_phase_diagram(cfg, outdir, files, tolerances)
        elif cfg["command"] == "quench":
            _cmd_quench(cfg, outdir, files, tolerances)
        elif cfg["command"] == "amplify":
            _cmd_amplify(cfg, outdir, files, tolerances)
        elif cfg["command"] == "check":
            if _cmd_check(cfg, outdir, files, tolerances):
                status = 3
    except UsageError:
        raise
    except (QbChainError, np.linalg.LinAlgError) as exc:
        error = f"{type(exc).__name__}: {exc}"
        status = 2
    manifest = {
        "tool": "qbchain",
        "version": __version__,
        "config": cfg,
        "files": files,
        "wall_time_s": time.time() - start,
        "tolerances": tolerances,
        "status": status,
    }
    if error is not None:
        manifest["error"] = error
        print(error, file=sys.stderr)
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qbchain",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="Config keys and defaults:\n" + "\n".join(
            f"  {k} = {v}" for k, v in DEFAULTS.items()),
    )
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--command", choices=COMMANDS,
                        help="experiment family to run")
    parser.add_argument("--out", help="output directory (default: cwd)")
    args = parser.parse_args(argv)
    try:
        cfg = read_config(args.config) if args.config else {}
        for key in ("command", "out"):
            val = getattr(args, key)
            if val is not None:
                cfg[key] = str(val)
        cfg = validate(cfg)
        return run(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
