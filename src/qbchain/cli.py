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
import os
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


#: bytes per formatted value, len("-1.2345678901234567e-308")
_CELL = 24
#: 10^0 .. 10^22, each exact in double
_POW10 = np.array([float(10**s) for s in range(23)])
#: the ASCII text "0000" .. "9999" of each 4-digit group, as one uint32
_DIGITS4 = (np.arange(10000, dtype=np.uint16)[:, None]
            // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
            + ord("0")).astype(np.uint8).view(np.uint32).ravel()
#: momenta per block of pgp_grid.csv rows
_PGP_BLOCK = 16


def _two_product(a: np.ndarray, b: np.ndarray):
    """(p, e) with p + e = a * b exactly (Dekker, with Veltkamp splits)."""
    p = a * b
    ah = a * 134217729.0
    ah = ah - (ah - a)
    bh = b * 134217729.0
    bh = bh - (bh - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _off_decade(p: np.ndarray, e: np.ndarray):
    """Masks of the exact p + e below 10^16 and at or above 10^17."""
    return ((p < 1e16) | ((p == 1e16) & (e < 0.0)),
            (p > 1e17) | ((p == 1e17) & (e >= 0.0)))


def _fmt_cells(x: np.ndarray) -> np.ndarray:
    """The exact ``'%.16e'`` text of each value as a zero-padded uint8 row.

    Zeros and values whose decimal exponent E lies in [-6, 16] are
    formatted in numpy: |x| 10^(16-E) is the exact unevaluated sum p + e
    (10^s is exact in double for 0 <= s <= 22).  p >= 10^16 > 2^53 is an
    even integer, so the correctly rounded 17-digit mantissa is
    p + rint(e), ties to even as in ``dtoa``.  It never rounds up to 10^17:
    no double in the window lies within the half unit 5e-18 (relative) below
    a power of ten; the nearest lie 8e-17 below.  Other values (tiny, huge,
    non-finite) go through Python's ``'%.16e'``.  Returns an array of shape
    (x.size, 24) in which byte 0 is padding.
    """
    x = np.ravel(np.asarray(x, dtype=float))
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        est = np.floor(np.log10(a))
    zero = a == 0.0
    slow = ~zero & ~((est >= -7) & (est <= 17))
    # zeros and slow values run as 1.0 * 10^16 and are reset below
    a[zero | slow] = 1.0
    ex = np.clip(np.where(zero | slow, 0.0, est), -6, 16).astype(np.int64)
    p, e = _two_product(a, _POW10[16 - ex])
    # the float estimate of E can be one off: step it by the exact p + e
    low, high = _off_decade(p, e)
    step = np.nonzero(low | high)[0]
    if step.size:
        ex[step] += high[step].astype(np.int64) - low[step].astype(np.int64)
        out = (ex[step] < -6) | (ex[step] > 16)
        slow[step[out]] = True
        step = step[~out]
        p[step], e[step] = _two_product(a[step], _POW10[16 - ex[step]])
        low, high = _off_decade(p[step], e[step])
        slow[step[low | high]] = True
    m = p.astype(np.int64) + np.rint(e).astype(np.int64)
    m[zero | slow] = 0
    ex[zero | slow] = 0

    cells = np.zeros((x.size, _CELL), dtype=np.uint8)
    cells[np.signbit(x), 0] = ord("-")
    hi, lo = np.divmod(m, 10**8)
    lead, hi = np.divmod(hi, 10**8)
    groups = np.empty((x.size, 4), dtype=np.int64)
    groups[:, 0], groups[:, 1] = np.divmod(hi, 10**4)
    groups[:, 2], groups[:, 3] = np.divmod(lo, 10**4)
    cells[:, 1] = lead + ord("0")
    cells[:, 2] = ord(".")
    cells[:, 3:19] = _DIGITS4[groups].view(np.uint8)
    cells[:, 19] = ord("e")
    cells[:, 20] = np.where(ex < 0, ord("-"), ord("+"))
    tens, units = np.divmod(np.abs(ex), 10)
    cells[:, 21] = tens + ord("0")
    cells[:, 22] = units + ord("0")
    for i in np.nonzero(slow)[0]:
        text = b"%.16e" % x[i]
        cells[i] = 0
        cells[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return cells


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


def _write_pgp_grid(path: Path, k_grid, t_grid, phi) -> tuple[int, int]:
    """Write the k-major ``k,t,phi_pgp`` rows of phi.

    Returns the bytes written and the number of formatting threads.  Each
    k and t is formatted once.  Rows are assembled from fixed-width
    ``_fmt_cells``, _PGP_BLOCK momenta at a time on ``quench.map_chunks``'
    threads, and the padding is dropped by one mask per block; this thread
    writes the blocks in order.
    """
    w = _CELL
    k_cells = _fmt_cells(k_grid)
    template = np.zeros((min(_PGP_BLOCK, k_grid.size), t_grid.size, 3 * w + 3),
                        dtype=np.uint8)
    template[:, :, w] = template[:, :, 2 * w + 1] = ord(",")
    template[:, :, w + 1:2 * w + 1] = _fmt_cells(t_grid)
    template[:, :, -1] = ord("\n")

    def block(i):
        start = i * _PGP_BLOCK
        stop = min(start + _PGP_BLOCK, k_grid.size)
        rows = template[:stop - start].copy()
        rows[:, :, :w] = k_cells[start:stop, None]
        rows[:, :, 2 * w + 2:-1] = _fmt_cells(phi[start:stop]).reshape(
            stop - start, -1, w)
        return rows[rows != 0]

    with path.open("wb") as fh:
        written = [fh.write(b"k,t,phi_pgp\n")]
        workers = quench.map_chunks(block, -(-k_grid.size // _PGP_BLOCK),
                                    lambda text: written.append(fh.write(text)))
    return sum(written), workers


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


def _cmd_quench(cfg, outdir, files, tolerances, stages):
    ci = model.derive_couplings(float(cfg["J_i"]), float(cfg["delta_i"]),
                                float(cfg["theta_i"]))
    cf = model.derive_couplings(float(cfg["J_f"]), float(cfg["delta_f"]),
                                float(cfg["theta_f"]))
    p = quench.QuenchProtocol.default(ci, cf, t_max=float(cfg["t_max"]),
                                      n_half=int(cfg["n_half"]),
                                      n_t=int(cfg["n_t"]))

    def stage(name, t0, shape, nbytes, **extra):
        stages.append({"name": name, "wall_s": time.perf_counter() - t0,
                       "shape": list(shape), "bytes": int(nbytes), **extra})

    t0 = time.perf_counter()
    field = quench.pgp_field(p)
    held = {name: {"shape": list(a.shape), "bytes": a.nbytes} for name, a in
            (("phi_pgp", field.phi_pgp), ("log_mag2", field.log_mag2))}
    stage("pgp_field", t0, field.phi_pgp.shape,
          field.phi_pgp.nbytes + field.log_mag2.nbytes, workers=field.workers,
          arrays=held)
    t0 = time.perf_counter()
    rr = quench.return_rate(field)
    stage("return_rate", t0, rr.shape, rr.nbytes)
    lines = ["t,return_rate"]
    for t, r in zip(p.t_grid, rr):
        lines.append(f"{_fmt(t)},{'inf' if np.isinf(r) else _fmt(r)}")
    _write(outdir, "return_rate.csv", "\n".join(lines) + "\n", files)

    t0 = time.perf_counter()
    ct = quench.critical_set(p, range(int(cfg["n_max"])))
    stage("critical_set", t0, (len(ct.entries), 5), 40 * len(ct.entries))
    lines = ["n,side,k_c,t_c,residual"]
    for n, side, kc, tc, resid in ct.entries:
        lines.append(f"{n},{side},{_fmt(kc)},{_fmt(tc)},{_fmt(resid)}")
    tolerances["kc_equation_residual"] = max(
        (abs(e[4]) for e in ct.entries), default=0.0)
    _write(outdir, "critical_times.csv", "\n".join(lines) + "\n", files)
    files[-1]["t_complete"] = ct.t_complete

    t0 = time.perf_counter()
    d = quench.dtop(field, ct)
    series = (d.dtop_plus, d.dtop_minus, d.drift_plus, d.drift_minus)
    stage("dtop", t0, d.dtop_plus.shape, sum(a.nbytes for a in series))
    lines = ["t,dtop_plus,dtop_minus,drift_plus,drift_minus,resolved"]
    for ok, row in zip(d.resolved, zip(d.t, *series)):
        lines.append(",".join(_fmt(x) for x in row) + f",{int(ok)}")
    windings = np.concatenate([d.dtop_plus, d.dtop_minus])
    tolerances["dtop_quantization_residual"] = float(
        np.abs(windings - np.rint(windings)).max())
    tolerances["dtop_endpoint_drift"] = float(
        max(np.abs(d.drift_plus).max(), np.abs(d.drift_minus).max()))
    # oracle independent of the PGP grid: away from every critical time and
    # before t_complete, |DTOP_pm(t)| counts the critical times on its side
    # before t
    far = np.abs(d.t[:, None] - ct.times()[None, :]).min(
        axis=1, initial=np.inf) > 0.05
    far &= d.t < ct.t_complete
    tolerances["dtop_critical_count_mismatch"] = float(max(
        np.abs(np.abs(np.rint(w)) - np.searchsorted(ct.times(side), d.t))[far]
        .max(initial=0.0)
        for side, w in (("+", d.dtop_plus), ("-", d.dtop_minus))))
    _write(outdir, "dtop.csv", "\n".join(lines) + "\n", files)
    files[-1]["unresolved"] = int((~d.resolved).sum())

    t0 = time.perf_counter()
    nbytes, workers = _write_pgp_grid(outdir / "pgp_grid.csv", p.k_grid,
                                      p.t_grid, field.phi_pgp)
    stage("pgp_grid.csv", t0, (field.phi_pgp.size, 3), nbytes, workers=workers)
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


def _environment() -> dict:
    """Versions, BLAS, cores and thread settings behind a run's timings."""
    import importlib.metadata  # 20 ms: kept off every command's start-up

    try:  # the installed version, without importing scipy
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "cpus_available": quench.cpus_available(),
        "threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _peak_rss_mb(status: str = "/proc/self/status") -> float | None:
    """This process's peak resident set (VmHWM) in MiB, or None where the
    status file is missing.  Unlike ru_maxrss, VmHWM starts afresh at exec,
    so it holds no peak of the process that spawned this one."""
    try:
        with open(status) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def run(cfg: dict) -> int:
    """Dispatch a validated configuration; returns the process exit code."""
    outdir = Path(cfg.get("out", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    tolerances = {}
    stages = []
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
            _cmd_quench(cfg, outdir, files, tolerances, stages)
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
        "stages": stages,
        "tolerances": tolerances,
        "status": status,
        "peak_rss_mb": _peak_rss_mb(),
        "env": _environment(),
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
