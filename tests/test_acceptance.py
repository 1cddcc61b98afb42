"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest -v`` to see the per-criterion verdicts; each test also
prints a summary line with the measured numbers.
"""

import time

import numpy as np
import pytest

from qbchain import amplification, model, quench, spectral, topology
from qbchain.model import PBC, Regime, derive_couplings

from test_amplification import reference_quadrature_n2


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_block_equivalence_real():
    rng = np.random.default_rng(11)
    start = time.time()
    worst = 0.0
    for _ in range(100):
        k = rng.uniform(-np.pi, np.pi)
        c = derive_couplings(rng.uniform(-0.95, 0.95), rng.uniform(0, 1))
        worst = max(worst, spectral.block_diagonalize(k, c, Regime.REAL))
    elapsed = time.time() - start
    report(1, worst < 1e-12 and elapsed < 1.0,
           f"max residual {worst:.2e} < 1e-12, runtime {elapsed:.2f}s < 1s")


def test_criterion_02_block_equivalence_imaginary():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        k = rng.uniform(-np.pi, np.pi)
        c = derive_couplings(rng.uniform(-0.95, 0.95), rng.uniform(0, 1))
        worst = max(worst, spectral.block_diagonalize(k, c, Regime.IMAGINARY))
    report(2, worst < 1e-12, f"max residual {worst:.2e} < 1e-12")


def test_criterion_03_phase_table():
    grid = topology.default_bz_grid(2001)
    worst_nu = 0.0
    worst_res = 0.0
    for d, expected in ((-0.9, 0.0), (-0.1, 0.5), (0.9, 1.0)):
        c = derive_couplings(d, 0.4)
        res = topology.winding_pair(lambda k: model.bloch(k, c, Regime.REAL), grid)
        worst_nu = max(worst_nu, abs(res.nu - expected))
        worst_res = max(worst_res, res.imag_residual)
    report(3, worst_nu < 1e-3 and worst_res < 1e-6,
           f"max |nu error| {worst_nu:.2e} < 1e-3, "
           f"max winding residual {worst_res:.2e} < 1e-6")


def test_criterion_04_moebius_window():
    lower = (1 - np.exp(0.4)) / (1 + np.exp(0.4))  # -0.19737...
    deltas = np.round(np.linspace(-0.9, 0.9, 41), 12)
    bz = PBC.uniform(64)
    mismatches = []
    for d in deltas:
        c = derive_couplings(d, 0.4)
        evs = np.concatenate([np.linalg.eigvals(
            model.dynamical_qb_k(k, c, Regime.REAL)) for k in bz.k_grid])
        has_imag = bool(np.any((np.abs(evs.real) < 1e-9)
                               & (np.abs(evs.imag) > 1e-6)))
        if has_imag != (lower < d < 0):
            mismatches.append(float(d))
    report(4, not mismatches,
           f"window ({lower:.4f}, 0): 41-point grid, mismatches {mismatches}")


def test_criterion_05_obc_reality_and_zero_modes():
    ok = True
    notes = []
    for d in np.round(np.linspace(-0.9, 0.9, 19), 12):
        c = derive_couplings(d, 0.4)
        evs = np.linalg.eigvals(model.realspace_dynamical(c, 20, Regime.REAL))
        if np.abs(evs.imag).max() >= 1e-6 * np.abs(evs).max():
            ok = False
            notes.append(f"Im at delta={d}")
        has_zero = np.abs(evs).min() < 1e-3
        if d > 0 and not has_zero:
            ok = False
            notes.append(f"missing zero mode at delta={d}")
        if d < -0.3 and has_zero:
            ok = False
            notes.append(f"spurious zero mode at delta={d}")
    report(5, ok, "spectra real, zero modes track delta sign"
           if ok else "; ".join(notes))


def test_criterion_06_imaginary_transition():
    deltas = np.linspace(-0.3, 0.1, 81)
    step = deltas[1] - deltas[0]
    bz = PBC.uniform(401)
    gaps = []
    for d in deltas:
        c = derive_couplings(d, 0.4)
        gaps.append(min(np.abs(np.linalg.eigvals(
            model.dynamical_qb_k(k, c, Regime.IMAGINARY))).min()
            for k in bz.k_grid))
    d_min = deltas[int(np.argmin(gaps))]
    delta0 = topology.transition_delta(0.4)
    ok = abs(d_min - delta0) <= step + 1e-12
    ok = ok and abs(delta0 + 0.1189) < 5e-5
    ok = ok and topology.transition_delta(0.0) == 0.0
    report(6, ok, f"gap minimum at delta={d_min:.4f}, "
                  f"delta0={delta0:.6f}, step {step:.4f}")


def test_criterion_07_loschmidt_oracle():
    rng = np.random.default_rng(13)
    start = time.time()
    worst_g = 0.0
    worst_id = 0.0
    for _ in range(200):
        k = rng.uniform(-np.pi, np.pi)
        ci = derive_couplings(rng.uniform(-0.9, 0.9), rng.uniform(0.05, 1))
        cf = derive_couplings(rng.uniform(-0.9, 0.9), rng.uniform(0.05, 1))
        t = rng.uniform(0, 5)
        g0 = complex(quench.loschmidt_gk(k, ci, cf, t))
        for method in ("fq", "biortho"):
            worst_g = max(worst_g,
                          abs(quench.loschmidt_oracle(k, ci, cf, t, method) - g0))
        ui, _ = quench._mode_parameter(k, ci)
        uf, _ = quench._mode_parameter(k, cf)
        rho = ui / uf
        F1, F2 = 0.5 * (1 + rho), 0.5 * (1 - rho)
        Q1, Q2 = 0.5 * (1 + 1 / rho), 0.5 * (1 - 1 / rho)
        worst_id = max(worst_id,
                       abs((Q2**2 - Q1**2) * (F2**2 - F1**2) - 1))
    elapsed = time.time() - start
    report(7, worst_g < 1e-9 and worst_id < 1e-12 and elapsed < 5.0,
           f"oracle agreement {worst_g:.2e} < 1e-9, "
           f"identity {worst_id:.2e} < 1e-12, runtime {elapsed:.2f}s < 5s")


def test_criterion_08_chiral_dtop():
    ci = derive_couplings(-0.9, 0.0)
    start = time.time()
    notes = []
    ok = True

    # chiral quench into the Moebius phase: DTOP_+ plateaus, DTOP_- flat
    cf = derive_couplings(-0.1, 0.4)
    p = quench.QuenchProtocol.default(ci, cf)
    d = quench.dtop(quench.pgp_field(p))
    ct = quench.critical_set(p)
    tcs = ct.times("+")
    max_minus = float(np.abs(d.dtop_minus).max())
    if not max_minus < 0.02:
        ok = False
        notes.append(f"max|DTOP_-|={max_minus:.4f} !< 0.02")
    plateaus = set()
    for lo, hi in zip(tcs[:2], tcs[1:3]):
        sel = (d.t > lo + 0.3) & (d.t < hi - 0.3)
        vals = d.dtop_plus[sel]
        if vals.size and np.abs(2 * vals - np.round(2 * vals.mean())).max() < 0.1:
            plateaus.add(round(2 * float(vals.mean())) / 2)
    if len(plateaus) < 2:
        ok = False
        notes.append(f"DTOP_+ plateaus {sorted(plateaus)}: need >= 2")
    else:
        notes.append(f"DTOP_+ plateaus {sorted(plateaus)}")

    # quench into the nontrivial phase: plateaus in both halves; RR cusps at t_c
    cf4 = derive_couplings(0.9, 0.4)
    p4 = quench.QuenchProtocol.default(ci, cf4)
    f4 = quench.pgp_field(p4)
    d4 = quench.dtop(f4)
    if not (np.abs(d4.dtop_plus).max() > 0.5 and np.abs(d4.dtop_minus).max() > 0.5):
        ok = False
        notes.append("double-sided quench missing plateaus in one half zone")
    rr = quench.return_rate(f4)
    ct4 = quench.critical_set(p4)
    dt = p4.t_grid[1] - p4.t_grid[0]
    curv = np.abs(np.diff(rr, 2))
    thresh = 10 * np.median(curv)
    for tc in ct4.times():
        i = int(round(tc / dt))
        if not curv[max(0, i - 2):i + 2].max() > thresh:
            ok = False
            notes.append(f"no RR cusp near t_c={tc:.3f}")
    elapsed = time.time() - start
    if elapsed >= 60:
        ok = False
        notes.append(f"runtime {elapsed:.0f}s !< 60s")
    report(8, ok, f"max|DTOP_-|={max_minus:.4f}, {'; '.join(notes)}, "
                  f"runtime {elapsed:.1f}s")


def test_criterion_09_quadrature_fixtures():
    c = derive_couplings(0.3, 0.7)
    hx, hp = model.quadrature_dynamical(c, 2)
    rx, rp = reference_quadrature_n2(c)
    ok = np.array_equal(hx, rx) and np.array_equal(hp, rp)
    report(9, ok, "quadrature generators equal the printed 8x8 matrices "
                  "elementwise")


def test_criterion_10_amplification():
    # closed form at theta=0, N=4, (v, w) = (2/3, 4/3): w/v = 2
    c = derive_couplings(1.0 / 3.0, 0.0)
    rep = amplification.susceptibility(c, 4)
    ac_ref, bd_ref = amplification.closed_form_theta0(c, 4)
    worst = max(np.abs(np.abs(amplification.lay_out(stack, s))
                       - (ac_ref if s == "AC" else bd_ref)).max()
                for (s, _), stack in zip(amplification.PAIRS, rep.blocks))
    ok = worst < 1e-10
    gains = amplification.gain_metrics(amplification.susceptibility(c, 8))
    dirs = {(g.sector, g.quadrature): g.direction for g in gains}
    ok = ok and all(d == "leftward" for (s, _), d in dirs.items() if s == "AC")
    ok = ok and all(d == "rightward" for (s, _), d in dirs.items() if s == "BD")

    delta0 = topology.transition_delta(0.4)
    deltas = np.linspace(-0.9, 0.9, 50)
    deltas = deltas[np.abs(deltas - delta0) > 1e-3]
    rows = amplification.amplification_phase_scan(0.4, deltas, 10)
    corr = all((all(v > 1.0 for v in ends)) == (abs(nu - 1.0) < 0.25)
               for _, _, nu, *ends in rows)
    ok = ok and corr
    report(10, ok, f"closed-form residual {worst:.2e} < 1e-10, "
                   f"directions AC-left/BD-right, "
                   f"gain>1 <=> nu=1 on {len(rows)}-point scan: {corr}")


def test_criterion_11_nhse():
    c = derive_couplings(0.5, 0.4)
    n = 40
    fracs = {}
    for regime in (Regime.REAL, Regime.IMAGINARY):
        G = model.realspace_dynamical(c, n, regime)
        rows = spectral.ipr_localization(G, n_cells=n)
        pos = np.array([r[2] for r in rows])
        fracs[regime] = float(np.mean((pos < 0.2 * n) | (pos > 0.8 * n)))
    ok = fracs[Regime.REAL] >= 0.9 and fracs[Regime.IMAGINARY] < 0.2
    report(11, ok, f"edge fraction real {fracs[Regime.REAL]:.3f} >= 0.9, "
                   f"imaginary {fracs[Regime.IMAGINARY]:.3f} < 0.2")
