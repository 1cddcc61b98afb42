"""Checks of qbchain's output files, made apart from the program.

Each ``check_*`` function reads the output directory of one command (its
``manifest.json`` gives the resolved configuration) and returns a list of
failure messages; an empty list means the outputs passed.  The references
are computed here from the model's definition (v = J(1-delta),
w_r = J(1+delta), w_l = w_r e^theta and the 2x2 block
[[0, v + w_r e^-ik], [v + w_l e^ik, 0]]) or are properties the method must
have.  No function of qbchain is called.  Tolerances and sample counts are
listed in README.md.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

RR_SAMPLES = 8          # seeded times of the return-rate check
RR_TOL = 1e-10          # absolute plus relative
PGP_SAMPLES = 8         # seeded momenta whose pgp_grid.csv rows are checked
PGP_TOL = 1e-8          # absolute, radians
GRID_TOL = 1e-12        # k and t columns against the documented grids
DTOP_INT_TOL = 1e-9     # distance of DTOP_pm from an integer
DTOP_GUARD = 0.05       # times this close to a critical time are skipped
FISHER_TOL = 1e-8       # |g_k(t)| at a listed critical (k_c, t_c)
CHI_REL_TOL = 1e-10     # theta = 0 susceptibilities against |G0^m / v|
CHI_ZERO_TOL = 1e-12    # off-pattern entries, relative to 1/|v|
NU_TOL = 1e-9           # quantized windings
CRITICAL_BAND = 1e-6    # documented distance of a "critical" row from a boundary
PBC_TOL = 1e-6          # PBC eigenvalues against {+-E, +-E*}, absolute
OBC_REL_TOL = 1e-9      # OBC closure under -lambda and conj, relative to max|lambda|


def config(outdir: Path) -> dict:
    """Resolved configuration of the run that wrote ``outdir``."""
    return json.loads((Path(outdir) / "manifest.json").read_text())["config"]


def _rows(path: Path) -> list:
    with open(path, newline="") as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _couplings(J: float, delta: float, theta: float):
    v = J * (1.0 - delta)
    w_r = J * (1.0 + delta)
    return v, w_r, w_r * math.exp(theta)


def _block(k: np.ndarray, J: float, delta: float, theta: float) -> np.ndarray:
    """2x2 two-EP block at each momentum, shape (len(k), 2, 2)."""
    v, w_r, w_l = _couplings(J, delta, theta)
    H = np.zeros(k.shape + (2, 2), dtype=complex)
    H[:, 0, 1] = v + w_r * np.exp(-1j * k)
    H[:, 1, 0] = v + w_l * np.exp(1j * k)
    return H


def _delta_grid(cfg: dict) -> np.ndarray:
    n = int(cfg["delta_steps"])
    if n == 1:
        return np.array([float(cfg["delta_min"])])
    return np.linspace(float(cfg["delta_min"]), float(cfg["delta_max"]), n)


def _phase_nu(delta: float, theta: float):
    """(distance to the nearest boundary, winding) of the real-regime chain."""
    lower = (1.0 - math.exp(theta)) / (1.0 + math.exp(theta))
    dist = min(abs(delta - lower), abs(delta))
    nu = 0.0 if delta < lower else (0.5 if delta < 0.0 else 1.0)
    return dist, nu


def _nu_label(nu: float) -> str:
    return {0.0: "trivial", 0.5: "moebius", 1.0: "nontrivial"}[nu]


# ---------------------------------------------------------------------------
# quench
# ---------------------------------------------------------------------------

def quench_grids(cfg: dict):
    """The documented momentum and time grids of ``quench``."""
    n_half = int(cfg["n_half"])
    half = (np.arange(n_half) + 0.5) * np.pi / n_half
    k = np.concatenate([-half[::-1], half])
    t = np.linspace(0.0, float(cfg["t_max"]), int(cfg["n_t"]))
    return k, t


def quench_samples(cfg: dict, seed: int):
    """Seeded (time indices, momentum indices) that the quench check samples."""
    k, t = quench_grids(cfg)
    rng = np.random.default_rng(seed)
    ti = np.sort(rng.choice(t.size, size=min(RR_SAMPLES, t.size), replace=False))
    ki = np.sort(rng.choice(k.size, size=min(PGP_SAMPLES, k.size), replace=False))
    return ti, ki


def loschmidt(cfg: dict, k: np.ndarray, t: np.ndarray):
    """(g_k(t), <chi_i|H_f|psi_i>) for momenta k and times t.

    g_k(t) = <chi_i| expm(-i H_f t) |psi_i>, with (psi_i, chi_i) the
    biorthonormal right/left eigenvectors of H_i for -E_i, E_i the principal
    root of the product of its off-diagonal entries.
    """
    k = np.asarray(k, dtype=float)
    t = np.asarray(t, dtype=float)
    Hi = _block(k, float(cfg["J_i"]), float(cfg["delta_i"]), float(cfg["theta_i"]))
    Hf = _block(k, float(cfg["J_f"]), float(cfg["delta_f"]), float(cfg["theta_f"]))
    a, b = Hi[:, 0, 1], Hi[:, 1, 0]
    E = np.sqrt(a * b)
    psi = np.stack([a, -E], axis=1)
    chi = np.stack([b, -E], axis=1) / (2.0 * E**2)[:, None]
    U = scipy.linalg.expm(-1j * Hf[:, None] * t[None, :, None, None])
    g = np.einsum("ki,ktij,kj->kt", chi, U, psi)
    energy = np.einsum("ki,kij,kj->k", chi, Hf, psi)
    return g, energy


def check_quench(outdir: Path, seed: int) -> list:
    outdir = Path(outdir)
    cfg = config(outdir)
    k, t = quench_grids(cfg)
    ti, ki = quench_samples(cfg, seed)
    fails = []

    rr_rows = _rows(outdir / "return_rate.csv")
    rr_t = np.array([float(r["t"]) for r in rr_rows])
    rr = np.array([float(r["return_rate"]) for r in rr_rows])
    if rr_t.shape != t.shape or np.abs(rr_t - t).max() > GRID_TOL:
        fails.append("return_rate.csv: t column is not the documented grid")
    else:
        g, _ = loschmidt(cfg, k, t[ti])
        ref = -np.mean(np.log(np.abs(g) ** 2), axis=0)
        err = np.abs(rr[ti] - ref)
        if not (err <= RR_TOL * (1.0 + np.abs(ref))).all():
            j = int(np.argmax(err))
            fails.append(f"return_rate.csv: t={t[ti[j]]:.6f} reads {float(rr[ti[j]])!r}, "
                         f"recomputed {float(ref[j])!r}")

    g, energy = loschmidt(cfg, k[ki], t)
    pgp_ref = np.unwrap(np.angle(g), axis=1) + energy.real[:, None] * t[None, :]
    n_t = t.size
    with open(outdir / "pgp_grid.csv") as f:
        header = next(f).strip()
        pos = 0
        for row, i in enumerate(ki):
            lines = list(itertools.islice(f, i * n_t - pos, (i + 1) * n_t - pos))
            pos = (i + 1) * n_t
            vals = np.array([[float(x) for x in ln.split(",")] for ln in lines])
            if vals.shape != (n_t, 3):
                fails.append(f"pgp_grid.csv: rows of k index {i} missing")
                continue
            if (np.abs(vals[:, 0] - k[i]).max() > GRID_TOL
                    or np.abs(vals[:, 1] - t).max() > GRID_TOL):
                fails.append(f"pgp_grid.csv: k/t columns wrong at k index {i}")
            err = np.abs(vals[:, 2] - pgp_ref[row])
            if err.max() > PGP_TOL:
                j = int(np.argmax(err))
                fails.append(f"pgp_grid.csv: k={k[i]:.6f} t={t[j]:.6f} reads "
                             f"{float(vals[j, 2])!r}, recomputed {float(pgp_ref[row, j])!r}")
        total = pos + sum(1 for _ in f)
    if header != "k,t,phi_pgp" or total != k.size * n_t:
        fails.append(f"pgp_grid.csv: {total} rows, expected {k.size * n_t}")

    crit = _rows(outdir / "critical_times.csv")
    for r in crit:
        kc, tc = float(r["k_c"]), float(r["t_c"])
        if (kc > 0) != (r["side"] == "+"):
            fails.append(f"critical_times.csv: k_c={kc} on side {r['side']}")
        gc = abs(loschmidt(cfg, np.array([kc]), np.array([tc]))[0][0, 0])
        if not gc <= FISHER_TOL:
            fails.append(f"critical_times.csv: |g_k(t)| = {gc:.3e} at "
                         f"k_c={kc}, t_c={tc}")
    tcs = {s: np.array([float(r["t_c"]) for r in crit if r["side"] == s])
           for s in "+-"}
    all_tc = np.concatenate([tcs["+"], tcs["-"], [np.inf]])

    dt_rows = _rows(outdir / "dtop.csv")
    if len(dt_rows) != t.size:
        fails.append(f"dtop.csv: {len(dt_rows)} rows, expected {t.size}")
    for r in dt_rows:
        tt = float(r["t"])
        for side, col in (("+", "dtop_plus"), ("-", "dtop_minus")):
            x = float(r[col])
            if not abs(x - round(x)) <= DTOP_INT_TOL:
                fails.append(f"dtop.csv: {col}={x!r} at t={tt:.6f} is not an integer")
            elif (np.abs(all_tc - tt).min() > DTOP_GUARD
                    and abs(round(x)) != int((tcs[side] < tt).sum())):
                fails.append(f"dtop.csv: |{col}|={abs(round(x))} at t={tt:.6f}, but "
                             f"{int((tcs[side] < tt).sum())} critical times before it")
    return fails


# ---------------------------------------------------------------------------
# amplify
# ---------------------------------------------------------------------------

def _chi(outdir: Path, name: str):
    """{(row cell, row sublattice, col cell, col sublattice): |chi|}."""
    out = {}
    for r in _rows(outdir / f"{name}.csv"):
        out[(int(r["row"][:-1]), r["row"][-1], int(r["col"][:-1]),
             r["col"][-1])] = float(r["abs_value"])
    return out


def _delta0(theta: float) -> float:
    s = math.sqrt((1.0 + math.exp(2.0 * theta)) / 2.0)
    return (1.0 - s) / (1.0 + s)


def check_amplify_scan(outdir: Path, seed: int) -> list:
    """Winding, gain and direction of the imaginary-regime scan."""
    outdir = Path(outdir)
    cfg = config(outdir)
    theta = float(cfg["theta"])
    d0 = _delta0(theta)
    deltas = _delta_grid(cfg)
    fails = []
    rows = _rows(outdir / "amplification_scan.csv")
    if len(rows) != deltas.size:
        fails.append(f"amplification_scan.csv: {len(rows)} rows, expected {deltas.size}")
    for r, d in zip(rows, deltas):
        if abs(float(r["delta"]) - d) > GRID_TOL or abs(float(r["delta0"]) - d0) > GRID_TOL:
            fails.append(f"amplification_scan.csv: delta/delta0 wrong at {r['delta']}")
        nontrivial = d > d0
        if not abs(float(r["nu"]) - float(nontrivial)) <= NU_TOL:
            fails.append(f"amplification_scan.csv: nu={r['nu']} at delta={d:.4f}, "
                         f"delta0={d0:.6f}")
        for col in ("gain_ac_x", "gain_ac_p", "gain_bd_x", "gain_bd_p"):
            if (float(r[col]) > 1.0) != nontrivial:
                fails.append(f"amplification_scan.csv: {col}={r[col]} at "
                             f"delta={d:.4f}, delta0={d0:.6f}")
    if float(cfg["delta"]) <= d0:
        return fails + [f"direction check needs delta > delta0={d0:.6f}"]
    # chi[r, c] with c right of r (upper triangle) carries signals leftward
    for name, leftward in (("chi_ac_x", True), ("chi_ac_p", True),
                           ("chi_bd_x", False), ("chi_bd_p", False)):
        chi = _chi(outdir, name)
        upper = max(v for (rc, _, cc, _), v in chi.items() if cc > rc)
        lower = max(v for (rc, _, cc, _), v in chi.items() if cc < rc)
        if (upper > lower) != leftward:
            fails.append(f"{name}.csv: max upper {upper:.3e}, max lower {lower:.3e}")
    return fails


def check_chi_closed_form(outdir: Path, seed: int) -> list:
    """theta = 0 susceptibilities against |G0^m / v|, G0 = w/v."""
    outdir = Path(outdir)
    cfg = config(outdir)
    if float(cfg["theta"]) != 0.0:
        return [f"closed form needs theta=0, got {cfg['theta']}"]
    v, w, _ = _couplings(float(cfg["J"]), float(cfg["delta"]), 0.0)
    g0 = w / v
    n = int(cfg["n_cells"])
    fails = []
    pairs = {"ac": {"A": "B", "C": "D"}, "bd": {"B": "A", "D": "C"}}
    for sector in ("ac", "bd"):
        for quad in ("x", "p"):
            name = f"chi_{sector}_{quad}"
            chi = _chi(outdir, name)
            if len(chi) != (2 * n) ** 2:
                fails.append(f"{name}.csv: {len(chi)} entries, expected {(2 * n) ** 2}")
            worst_rel = worst_zero = 0.0
            for (rc, rs, cc, cs), val in chi.items():
                m = cc - rc if sector == "ac" else rc - cc
                if m >= 0 and pairs[sector].get(rs) == cs:
                    ref = abs(g0**m / v)
                    worst_rel = max(worst_rel, abs(val - ref) / ref)
                else:
                    worst_zero = max(worst_zero, abs(val) * abs(v))
            if not worst_rel <= CHI_REL_TOL:
                fails.append(f"{name}.csv: relative error {worst_rel:.3e} "
                             "against |G0^m / v|")
            if not worst_zero <= CHI_ZERO_TOL:
                fails.append(f"{name}.csv: off-pattern entry {worst_zero:.3e} x 1/|v|")
    return fails


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

def check_phase_diagram(outdir: Path, seed: int) -> list:
    outdir = Path(outdir)
    cfg = config(outdir)
    if cfg["regime"] != "real":
        return [f"phase-diagram check covers regime=real, got {cfg['regime']}"]
    thetas = np.linspace(float(cfg["theta_min"]), float(cfg["theta_max"]),
                         int(cfg["theta_steps"]))
    grid = [(th, d) for th in thetas for d in _delta_grid(cfg)]
    rows = _rows(outdir / "phase_diagram.csv")
    fails = []
    if len(rows) != len(grid):
        fails.append(f"phase_diagram.csv: {len(rows)} rows, expected {len(grid)}")
    for r, (th, d) in zip(rows, grid):
        if abs(float(r["delta"]) - d) > GRID_TOL or abs(float(r["theta"]) - th) > GRID_TOL:
            fails.append(f"phase_diagram.csv: grid point wrong at {r['delta']},{r['theta']}")
            continue
        dist, nu = _phase_nu(d, th)
        nus = [float(r[c]) for c in ("nu1", "nu2", "nu")]
        where = f"delta={d:.4f} theta={th:.2f}"
        if dist < CRITICAL_BAND:
            if r["label"] != "critical" or not all(math.isnan(x) for x in nus):
                fails.append(f"phase_diagram.csv: {where} on a boundary, "
                             f"labelled {r['label']}")
            continue
        if r["label"] != _nu_label(nu):
            fails.append(f"phase_diagram.csv: {where} labelled {r['label']}, "
                         f"expected {_nu_label(nu)}")
        nu1, nu2, nu_row = nus
        if not (abs(nu_row - nu) <= NU_TOL
                and abs(nu1 - round(nu1)) <= NU_TOL
                and abs(nu2 - round(nu2)) <= NU_TOL
                and abs(0.5 * (nu1 + nu2) - nu_row) <= NU_TOL):
            fails.append(f"phase_diagram.csv: {where} windings {nus}, expected nu={nu}")
    return fails


def _spectrum(outdir: Path):
    """[(delta, eigenvalues)] in file order."""
    by_delta = {}
    for r in _rows(outdir / "spectrum.csv"):
        by_delta.setdefault(r["delta"], []).append(
            complex(float(r["re_lambda"]), float(r["im_lambda"])))
    return [(float(d), np.array(ev)) for d, ev in by_delta.items()]


def _nearest(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance from a point of ``a`` to its nearest point of ``b``."""
    return float(np.abs(a[:, None] - b[None, :]).min(axis=1).max())


def check_spectrum_pbc(outdir: Path, seed: int) -> list:
    """PBC eigenvalues of G equal {+-E, +-E*} (each twice) at every momentum."""
    outdir = Path(outdir)
    cfg = config(outdir)
    if cfg["regime"] != "real" or cfg["boundary"] != "pbc":
        return ["PBC spectrum check covers regime=real, boundary=pbc"]
    n_k = int(cfg["k_points"])
    k = np.linspace(-np.pi, np.pi, n_k, endpoint=False)
    deltas = _delta_grid(cfg)
    spec = _spectrum(outdir)
    fails = []
    if len(spec) != deltas.size:
        fails.append(f"spectrum.csv: {len(spec)} deltas, expected {deltas.size}")
    for (d, ev), d_ref in zip(spec, deltas):
        H = _block(k, float(cfg["J"]), d_ref, float(cfg["theta"]))
        E = np.sqrt(H[:, 0, 1] * H[:, 1, 0])
        ref = np.concatenate([E, -E, E.conj(), -E.conj()] * 2)
        if abs(d - d_ref) > GRID_TOL or ev.size != ref.size:
            fails.append(f"spectrum.csv: delta={d:.4f} has {ev.size} eigenvalues, "
                         f"expected {ref.size}")
            continue
        err = max(_nearest(ev, ref), _nearest(ref, ev))
        if not err <= PBC_TOL:
            fails.append(f"spectrum.csv: delta={d:.4f} off {{+-E, +-E*}} by {err:.3e}")
    return fails


def check_spectrum_obc(outdir: Path, seed: int) -> list:
    """OBC spectra: 8N eigenvalues per delta, closed under -lambda and conj."""
    outdir = Path(outdir)
    cfg = config(outdir)
    if cfg["boundary"] != "obc":
        return ["OBC spectrum check covers boundary=obc"]
    n = 8 * int(cfg["n_cells"])
    deltas = _delta_grid(cfg)
    spec = _spectrum(outdir)
    fails = []
    if len(spec) != deltas.size:
        fails.append(f"spectrum.csv: {len(spec)} deltas, expected {deltas.size}")
    for (d, ev), d_ref in zip(spec, deltas):
        if abs(d - d_ref) > GRID_TOL or ev.size != n:
            fails.append(f"spectrum.csv: delta={d:.4f} has {ev.size} eigenvalues, "
                         f"expected {n}")
            continue
        scale = max(1.0, float(np.abs(ev).max()))
        err = max(_nearest(ev, -ev), _nearest(ev, ev.conj()),
                  abs(ev.sum()) / n) / scale
        if not err <= OBC_REL_TOL:
            fails.append(f"spectrum.csv: delta={d:.4f} symmetry residual {err:.3e}")
    return fails


def check_winding(outdir: Path, seed: int) -> list:
    outdir = Path(outdir)
    cfg = config(outdir)
    if cfg["model"] != "nssh2":
        return [f"winding check covers model=nssh2, got {cfg['model']}"]
    dist, nu = _phase_nu(float(cfg["delta"]), float(cfg["theta"]))
    if dist < CRITICAL_BAND:
        return [f"winding check needs a point off the boundaries, got {cfg['delta']}"]
    (r,) = _rows(outdir / "winding.csv")
    if not abs(float(r["nu"]) - nu) <= NU_TOL:
        return [f"winding.csv: nu={r['nu']}, expected {nu}"]
    return []


def check_check(outdir: Path, seed: int) -> list:
    rows = {r["check"]: r["value"] for r in _rows(Path(outdir) / "check_report.csv")}
    if float(rows.get("failures", "nan")) != 0.0:
        return [f"check_report.csv: failures={rows.get('failures')}"]
    return []
