import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from qbchain import model, quench, spectral, topology
from qbchain.exceptions import (
    BranchCutError,
    DomainError,
    DoubleOverflowError,
    ExceptionalPointError,
    ResolutionError,
)
from qbchain.model import Regime, derive_couplings


CI = derive_couplings(1, -0.9, 0.0)
CF5 = derive_couplings(1, -0.1, 0.4)   # chiral quench
CF4 = derive_couplings(1, 0.9, 0.4)    # double-sided quench
CH = derive_couplings(1, 0.9, 0.0)     # Hermitian final Hamiltonian


class TestLoschmidtAmplitude:
    def test_t_zero(self):
        ks = np.linspace(-3, 3, 17)
        assert np.abs(quench.loschmidt_gk(ks, CI, CF5, 0.0) - 1.0).max() < 1e-14

    def test_self_quench_pure_phase(self):
        # quenching onto itself: overlap 1, g = e^{iEt}
        c = derive_couplings(1, 0.5, 0.4)
        for k in (0.3, 1.7, -2.2):
            E = model.energy(k, c, Regime.REAL)
            for t in (0.5, 2.0):
                g = complex(quench.loschmidt_gk(k, c, c, t))
                assert abs(g - np.exp(1j * E * t)) < 1e-12

    def test_hermitian_quench_bounded(self):
        ci = derive_couplings(1, -0.5, 0.0)
        cf = derive_couplings(1, 0.5, 0.0)
        ks = np.linspace(-3, 3, 41)
        ts = np.linspace(0, 10, 101)
        g = quench.loschmidt_gk(ks[:, None], ci, cf, ts[None, :])
        assert np.abs(g).max() <= 1.0 + 1e-12

    def test_ep_rejected(self):
        ci = derive_couplings(1, 0.0, 0.0)  # gapless at k = pi
        with pytest.raises(ExceptionalPointError):
            quench.loschmidt_gk(np.pi, ci, CF5, 1.0)

    def test_energy_scale_invariance(self):
        # g_k(t) depends on J and t through J t only: a quench at J = 1e-8
        # over t_max = 12e8 is the J = 1 quench over t_max = 12.  The
        # exceptional-point thresholds scale with J, so it is not rejected
        J = 1e-8
        runs = []
        for scale in (1.0, J):
            ci, cf = (derive_couplings(scale, c.delta, c.theta) for c in (CI, CF5))
            p = quench.QuenchProtocol.default(ci, cf, t_max=12 / scale,
                                              n_half=100, n_t=200)
            runs.append((quench.return_rate(quench.pgp_field(p)),
                         quench.critical_set(p)))
        (rr1, ct1), (rr, ct) = runs
        assert np.abs(rr - rr1).max() < 1e-13 * rr1.max()
        assert len(ct.entries) == len(ct1.entries) == 7
        for (n, side, kc, tc, _), (n1, side1, kc1, tc1, _) in zip(ct.entries, ct1.entries):
            assert (n, side, kc) == (n1, side1, kc1)
            assert tc * J == pytest.approx(tc1, rel=1e-14)
        assert ct.t_complete * J == pytest.approx(ct1.t_complete, rel=1e-14)
        # the oracle's mode parameters, at an energy scale of 1e-16
        small = [derive_couplings(1e-16, c.delta, c.theta) for c in (CI, CF5)]
        for method in ("fq", "biortho"):
            g = quench.loschmidt_oracle(0.3, *small, 2e16, method)
            assert abs(g - quench.loschmidt_oracle(0.3, CI, CF5, 2.0, method)) < 1e-13
        # an exceptional point is still one at a small energy scale
        gapless = derive_couplings(J, 0.0, 0.0)  # at k = pi
        cf = derive_couplings(J, CF5.delta, CF5.theta)
        with pytest.raises(ExceptionalPointError):
            quench.loschmidt_gk(np.pi, gapless, cf, 1.0)
        with pytest.raises(ExceptionalPointError):
            quench.loschmidt_oracle(np.pi, gapless, cf, 1.0)

    def test_three_way_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200):
            k = rng.uniform(-np.pi, np.pi)
            ci = derive_couplings(1, rng.uniform(-0.9, 0.9), rng.uniform(0.05, 1))
            cf = derive_couplings(1, rng.uniform(-0.9, 0.9), rng.uniform(0.05, 1))
            t = rng.uniform(0, 5)
            g0 = complex(quench.loschmidt_gk(k, ci, cf, t))
            for method in ("fq", "biortho"):
                g = quench.loschmidt_oracle(k, ci, cf, t, method)
                worst = max(worst, abs(g - g0))
        assert worst < 1e-9

    @pytest.mark.parametrize("cf", [CF5, CF4, CH],
                             ids=["moebius", "nontrivial", "hermitian"])
    def test_bosonic_realspace_evolution(self, cf):
        # the paper's claim from the bosonic equations of motion: exp(-iGt) of
        # the PBC 8N x 8N dynamical matrix, projected on momentum k and
        # block-transformed, holds exp(-iH^f(k)t) as its first 2x2 block, and
        # the initial biorthogonal pair contracts it to g_k(t); the return
        # rate of those g_k at the +-k pairs is that of the PGP field
        n_cells = 12
        G = model.realspace_dynamical(cf, n_cells, model.Regime.REAL, pbc=True)
        ks = 2 * np.pi * np.arange(n_cells) / n_cells - np.pi
        Q = spectral.BLOCK_Q_REAL
        times = (0.7, 2.3, 5.1)
        pairs = ks[(ks != 0) & (ks != -np.pi)]  # 10 momenta, matched +-k
        rate = []
        for t in times:
            U = scipy.linalg.expm(-1j * t * G)
            log_mag2 = []
            for k in ks[ks != 0]:
                B = Q.T @ model.fourier_project(U, n_cells, k) @ Q
                assert max(np.abs(B[:2, 2:]).max(), np.abs(B[2:, :2]).max()) < 1e-12
                ui, _ = quench._mode_parameter(k, CI)
                psi = np.array([-ui, 1.0])            # lower-band right vector
                chi = 0.5 * np.array([-1 / ui, 1.0])  # its left partner
                assert chi @ psi == pytest.approx(1.0, abs=1e-14)
                g = chi @ B[:2, :2] @ psi
                assert abs(g - quench.loschmidt_gk(k, CI, cf, t)) < 1e-12
                if k in pairs:
                    log_mag2.append(np.log(abs(g) ** 2))
            rate.append(-np.mean(log_mag2))
        field = quench.pgp_field(quench.QuenchProtocol(CI, cf, pairs, np.array(times)))
        assert np.abs(quench.return_rate(field) - rate).max() < 1e-12

    def test_fq_identity(self):
        # (Q2^2 - Q1^2)(F2^2 - F1^2) = 1
        rng = np.random.default_rng(8)
        for _ in range(100):
            k = rng.uniform(-np.pi, np.pi)
            ci = derive_couplings(1, rng.uniform(-0.9, 0.9), rng.uniform(0.05, 1))
            cf = derive_couplings(1, rng.uniform(-0.9, 0.9), rng.uniform(0.05, 1))
            ui, _ = quench._mode_parameter(k, ci)
            uf, _ = quench._mode_parameter(k, cf)
            rho = ui / uf
            F1, F2 = 0.5 * (1 + rho), 0.5 * (1 - rho)
            Q1, Q2 = 0.5 * (1 + 1 / rho), 0.5 * (1 - 1 / rho)
            assert abs((Q2**2 - Q1**2) * (F2**2 - F1**2) - 1) < 1e-12

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            quench.loschmidt_oracle(1.0, CI, CF5, 1.0, method="magic")


class TestProtocol:
    def test_default_grids(self):
        p = quench.QuenchProtocol.default(CI, CF5)
        assert p.k_grid.size == 2000
        assert p.t_grid.size == 800
        assert p.t_grid[0] == 0.0 and p.t_grid[-1] == 12.0
        assert np.allclose(np.sort(-p.k_grid[p.k_grid < 0]),
                           p.k_grid[p.k_grid > 0])

    def test_unmatched_grid_rejected(self):
        # unmatched values, and unequal numbers of negative and positive k
        for k in ([-1.0, 0.5, 2.0], [-2.0, -1.0, 0.5, 1.0, 2.0]):
            with pytest.raises(DomainError, match="matched"):
                quench.QuenchProtocol(CI, CF5, np.array(k), np.array([0.0, 1.0]))

    def test_decreasing_t_rejected(self):
        with pytest.raises(DomainError):
            quench.QuenchProtocol(CI, CF5, np.array([-1.0, 1.0]),
                                  np.array([1.0, 0.5]))


class TestReturnRate:
    def test_zero_at_t0(self):
        p = quench.QuenchProtocol.default(CI, CF4, n_half=100, n_t=50)
        f = quench.pgp_field(p)
        rr = quench.return_rate(f)
        assert abs(rr[0]) < 1e-12
        assert f.log_mag2.shape == (50, 200)
        assert f.phi_pgp.shape == (200, 50)

    def test_cusps_at_critical_times(self):
        p = quench.QuenchProtocol.default(CI, CF4, n_half=400, n_t=400)
        rr = quench.return_rate(quench.pgp_field(p))
        ct = quench.critical_set(p, range(4))
        # second derivative spikes within one t step of each t_c
        curv = np.abs(np.diff(rr, 2))
        thresh = 10 * np.median(curv)
        dt = p.t_grid[1] - p.t_grid[0]
        for tc in ct.times():
            i = int(round(tc / dt))
            assert curv[max(0, i - 2):i + 2].max() > thresh


class TestFisherZeros:
    def test_substitution(self):
        for k in (0.7, 2.1):
            for w in quench.fisher_zeros(k, CI, CF4, range(5)):
                g = complex(quench.loschmidt_gk(k, CI, CF4, 1j * w))
                # the amplitude vanishes on the Fisher-zero line t = i omega
                assert abs(g) < 1e-10

    def test_branch_cut(self):
        # self-quench: overlap is exactly 1 -> atanh branch cut
        c = derive_couplings(1, 0.5, 0.0)
        with pytest.raises(BranchCutError):
            quench.fisher_zeros(1.0, c, c)


def reference_critical_entries(p, n_range):
    """critical_set's entries with the k_c equation rebuilt per half zone
    and order, and a hand-written bisection: the reference for the scan on
    the fields built once."""
    entries = []
    for side, ks in (("+", p.k_grid[p.k_grid > 0]), ("-", p.k_grid[p.k_grid < 0])):
        for n in n_range:
            vals = quench._kc_equation(ks, p.initial, p.final, n)
            for i in np.nonzero(np.diff(np.sign(vals)) != 0)[0]:
                a, b = ks[i], ks[i + 1]
                fa = quench._kc_equation(a, p.initial, p.final, n)
                while b - a > 1e-12:
                    m = 0.5 * (a + b)
                    fm = quench._kc_equation(m, p.initial, p.final, n)
                    if fa * fm <= 0:
                        b = m
                    else:
                        a, fa = m, fm
                kc = 0.5 * (a + b)
                _, Ef, ov = quench._overlap_fields(kc, p.initial, p.final)
                tc = quench._crossing_time(Ef, ov, n)
                if tc <= 0 or tc < p.t_grid[0] or tc > p.t_grid[-1]:
                    continue
                residual = float(quench._kc_equation(kc, p.initial, p.final, n))
                entries.append((int(n), side, float(kc), float(tc), residual))
    return sorted(entries, key=lambda e: e[3])


def reference_scalar_critical_set(p, n_range):
    """critical_set as it was before the array bisection: each bracket
    halved by the scalar topology._bisect.  Returns (entries, t_complete)."""
    _, Ef, ov = quench._overlap_fields(p.k_grid, p.initial, p.final)
    n_next = max(n_range, default=-1) + 1
    t_complete = float(quench._crossing_time(Ef, ov, n_next).min())
    entries = []
    for side, on in (("+", p.k_grid > 0), ("-", p.k_grid < 0)):
        ks = p.k_grid[on]
        for n in n_range:
            vals = quench._kc_value(Ef[on], ov[on], n)
            for i in np.nonzero(np.diff(np.sign(vals)) != 0)[0]:
                kc = topology._bisect(
                    lambda k: quench._kc_equation(k, p.initial, p.final, n),
                    ks[i], ks[i + 1])
                tc = quench._crossing_time(
                    *quench._overlap_fields(kc, p.initial, p.final)[1:], n)
                if tc <= 0 or tc < p.t_grid[0] or tc > p.t_grid[-1]:
                    continue
                residual = float(quench._kc_equation(kc, p.initial, p.final, n))
                entries.append((int(n), side, float(kc), float(tc), residual))
    entries.sort(key=lambda e: e[3])
    return entries, t_complete


def random_quenches(n, seed):
    """n (initial, final) coupling pairs; every other final delta lies within
    1e-6 .. 1e-2 of a phase boundary, near an exceptional point of H_f."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n):
        theta = rng.uniform(0.05, 1.0)
        if i % 2:
            lower = (1 - np.exp(theta)) / (1 + np.exp(theta))
            delta = (rng.choice([lower, 0.0])
                     + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-6, -2))
        else:
            delta = rng.uniform(-0.95, 0.95)
        pairs.append((derive_couplings(1, rng.uniform(-0.95, 0.95),
                                       rng.uniform(0, 0.5)),
                      derive_couplings(1, delta, theta)))
    return pairs


class TestCriticalSet:
    @pytest.mark.parametrize("ci, cf", [
        (CI, CF4), (CI, CF5), (CI, CH),
        (derive_couplings(1, 0.9, 0.0), derive_couplings(1, -0.5, 0.8)),
        (derive_couplings(1.2, 0.2, 0.1), derive_couplings(0.8, -0.7, 0.6))])
    def test_matches_per_order_scan(self, ci, cf):
        p = quench.QuenchProtocol.default(ci, cf)
        ct = quench.critical_set(p)
        assert ct.entries
        assert ct.entries == reference_critical_entries(p, range(10))

    @pytest.mark.parametrize("ci, cf", random_quenches(24, 20261019) + [
        # near an exceptional point of H_f: without the one-momentum
        # re-evaluation near zero (_KC_GUARD = 0), numpy 2.4's FMA array
        # loops put one k_c 9e-13 from the scalar bisection's
        (derive_couplings(1, -0.05436705625586025, 0.4358511987592625),
         derive_couplings(1, -8.70238058964953e-05, 0.7466969142964084))])
    def test_matches_scalar_bisection(self, ci, cf):
        p = quench.QuenchProtocol.default(ci, cf, n_half=200, n_t=50)
        ct = quench.critical_set(p)
        assert (ct.entries, ct.t_complete) == reference_scalar_critical_set(
            p, range(10))
        assert ct.brackets >= len(ct.entries)
        assert 0 <= ct.scalar_checks <= ct.halvings + ct.brackets

    def test_counts(self):
        # 20 brackets of width pi/1000 halved to 1e-12: 32 halvings each
        p = quench.QuenchProtocol.default(CI, CF4)
        ct = quench.critical_set(p)
        assert (ct.brackets, ct.halvings) == (20, 640)
        assert 0 < ct.scalar_checks < ct.halvings
        assert quench.critical_set(p, range(0)).brackets == 0

    def test_residuals_and_zeros(self):
        p = quench.QuenchProtocol.default(CI, CF4, n_half=500, n_t=200)
        ct = quench.critical_set(p, range(6))
        assert ct.entries
        for n, side, kc, tc, resid in ct.entries:
            assert (kc > 0) == (side == "+")
            assert p.t_grid[0] <= tc <= p.t_grid[-1]
            assert abs(resid) < 1e-9
            g = complex(quench.loschmidt_gk(kc, CI, CF4, tc))
            assert abs(g) < 1e-10

    def test_sorted_by_time(self):
        p = quench.QuenchProtocol.default(CI, CF4, n_half=300, n_t=200)
        ct = quench.critical_set(p, range(5))
        ts = [e[3] for e in ct.entries]
        assert ts == sorted(ts)

    def test_chiral_quench_one_side(self):
        p = quench.QuenchProtocol.default(CI, CF5, n_half=500, n_t=200)
        ct = quench.critical_set(p, range(5))
        assert ct.entries
        assert all(e[1] == "+" for e in ct.entries)

    def test_complete_before_t_complete(self):
        # three Fisher-zero orders list every crossing before t_complete and
        # none after it; ten orders reach past t_max at this grid
        p = quench.QuenchProtocol.default(CI, CF4, n_half=100, n_t=60)
        short, full = quench.critical_set(p, range(3)), quench.critical_set(p)
        assert 3.9 < short.t_complete < 4.0
        assert full.t_complete > p.t_grid[-1]
        before = [e for e in full.entries if e[3] < short.t_complete]
        assert short.entries == before
        assert len(before) == 6
        assert min(e[3] for e in full.entries if e[0] >= 3) > short.t_complete

    def test_hermitian_quench_evenly_spaced(self):
        # Hermitian final Hamiltonian: t_c = (n + 1/2) pi / E^f at fixed k_c
        ci = derive_couplings(1, -0.8, 0.0)
        cf = derive_couplings(1, 0.8, 0.0)
        p = quench.QuenchProtocol.default(ci, cf, t_max=20, n_half=400, n_t=100)
        ct = quench.critical_set(p, range(6))
        plus = ct.times("+")
        assert plus.size >= 3
        gaps = np.diff(plus)
        assert np.abs(gaps - gaps[0]).max() < 1e-8


class TestPgpAndDtop:
    def test_pgp_zero_at_t0(self):
        p = quench.QuenchProtocol.default(CI, CF5, n_half=200, n_t=60)
        f = quench.pgp_field(p)
        assert np.abs(f.phi_pgp[:, 0]).max() < 1e-12

    def test_dtop_chiral(self):
        p = quench.QuenchProtocol.default(CI, CF5, n_half=600, n_t=240)
        d = quench.dtop(quench.pgp_field(p))
        ct = quench.critical_set(p, range(3))
        tcs = ct.times("+")
        # DTOP_+ jumps by ~1 at each critical time, DTOP_- stays near 0
        mid01 = (d.t > tcs[0] + 0.3) & (d.t < tcs[1] - 0.3)
        assert np.abs(d.dtop_plus[mid01] - 1.0).max() < 0.05
        assert np.abs(d.dtop_minus).max() < 0.1
        assert abs(d.dtop_plus[0]) < 1e-8

    def test_dtop_double_sided(self):
        p = quench.QuenchProtocol.default(CI, CF4, n_half=600, n_t=240)
        d = quench.dtop(quench.pgp_field(p))
        assert np.abs(d.dtop_plus).max() > 0.5
        assert np.abs(d.dtop_minus).max() > 0.5

    def test_full_zone_is_sum(self):
        # winding over the whole zone = DTOP_+ + DTOP_- up to the two
        # boundary increments (k = 0 and zone edge), each bounded by 1/2
        p = quench.QuenchProtocol.default(CI, CF4, n_half=400, n_t=80)
        f = quench.pgp_field(p)
        d = quench.dtop(f)
        wrap = quench._wrap
        for it in range(0, p.t_grid.size, 16):
            phi = f.phi_pgp[:, it]
            full = wrap(np.diff(phi)).sum() / (2 * np.pi)
            assert abs(full - (d.dtop_plus[it] + d.dtop_minus[it])) < 0.5 + 1e-9

    @pytest.mark.parametrize("cf", [CF5, CF4, CH],
                             ids=["moebius", "nontrivial", "hermitian"])
    def test_dtop_is_integer_plus_drift(self, cf):
        p = quench.QuenchProtocol.default(CI, cf, n_half=600, n_t=240)
        f = quench.pgp_field(p)
        d = quench.dtop(f)
        for mask, dt, drift in ((p.k_grid > 0, d.dtop_plus, d.drift_plus),
                                (p.k_grid < 0, d.dtop_minus, d.drift_minus)):
            inc = quench._wrap(np.diff(f.phi_pgp[mask], axis=0))
            # compare with the raw sum only where no step needs refinement
            coarse_ok = (np.abs(inc) <= np.pi / 2).all(axis=0)
            assert coarse_ok.mean() > 0.9
            raw = inc.sum(axis=0) / (2 * np.pi)
            assert np.abs(dt + drift - raw)[coarse_ok].max() < 1e-12
            assert np.abs(dt - np.rint(dt)).max() < 1e-12
        drift = max(np.abs(d.drift_plus).max(), np.abs(d.drift_minus).max())
        if cf is CH:
            # the PGP is pinned at k = 0, pi: the drift is only the O(h^2)
            # offset of the midpoint grid ends, so the raw sum tends to DTOP
            p2 = quench.QuenchProtocol.default(CI, cf, n_half=1200, n_t=240)
            d2 = quench.dtop(quench.pgp_field(p2))
            drift2 = max(np.abs(d2.drift_plus).max(),
                         np.abs(d2.drift_minus).max())
            assert drift < 1e-4
            assert abs(drift2 / drift - 0.25) < 0.01
        else:
            assert drift > 0.04

    @pytest.mark.parametrize("cf", [CF5, CF4], ids=["moebius", "nontrivial"])
    def test_dtop_counts_critical_times(self, cf):
        # |DTOP_pm(t)| = number of critical times on that side before t
        p = quench.QuenchProtocol.default(CI, cf, n_half=600, n_t=240)
        d = quench.dtop(quench.pgp_field(p))
        ct = quench.critical_set(p)
        for side, dt in (("+", d.dtop_plus), ("-", d.dtop_minus)):
            tcs = ct.times(side)
            far = np.array([np.all(np.abs(t - tcs) > 0.05) for t in d.t])
            count = np.array([(tcs < t).sum() for t in d.t])
            assert np.abs(np.abs(dt) - count)[far].max() < 1e-12

    def test_unresolvable_slip_at_a_critical_point(self):
        # t = 10.010050 lies 6e-6 past the crossing (n=7, k_c=1.46431,
        # t_c=10.010044): no sub-grid resolves that slip
        p = quench.QuenchProtocol.default(CI, CF4, n_half=400, n_t=200)
        f = quench.pgp_field(p)
        ct = quench.critical_set(p)
        d = quench.dtop(f, ct)
        assert np.nonzero(~d.resolved)[0].tolist() == [166]
        for got, want in zip((d.dtop_plus, d.dtop_minus, d.drift_plus,
                              d.drift_minus, d.resolved, d.refined),
                             reference_dtop(p, f.phi_pgp, ct)):
            assert np.array_equal(got, want)
        assert abs(d.t[166] - 10.010050) < 1e-6
        for w in (d.dtop_plus, d.dtop_minus):
            assert np.isfinite(w).all()
            assert np.abs(w - np.rint(w)).max() < 1e-12
        # DTOP_+ already counts the crossing 6e-6 before the row
        assert np.rint(d.dtop_plus[165:168]).tolist() == [7.0, 8.0, 8.0]
        # a slip that no critical point explains still fails the series
        for critical in (None, quench.CriticalTimes([], np.inf)):
            with pytest.raises(ResolutionError, match="t=10.010050"):
                quench.dtop(f, critical)


def serial_field(p):
    """The single-pass pgp_field body that the chunked one replaced."""
    _, Ef, ov = quench._overlap_fields(p.k_grid, p.initial, p.final)
    gk, phi_dyn = quench._gk_and_dyn(Ef[:, None], ov[:, None], p.t_grid[None, :])
    phi_pgp = np.unwrap(np.angle(gk), axis=1) - phi_dyn
    return gk, phi_pgp


def reference_return_rate(gk):
    """return_rate as computed from the complex (n_k, n_t) amplitude."""
    mag2 = np.abs(gk) ** 2
    rr = np.full(mag2.shape[1], np.inf)
    ok = (mag2 > 0.0).all(axis=0)
    with np.errstate(divide="ignore"):
        rr[ok] = -np.mean(np.log(mag2[:, ok]), axis=0)
    return rr


def textbook_wrap(a):
    """Angles mapped to (-pi, pi]: the operations of topology._wrap, in a
    new array and with the remainder taken everywhere."""
    return -((-a + np.pi) % (2 * np.pi) - np.pi)


def reference_dtop(p, phi_pgp, critical=None):
    """dtop on masked copies of each half zone, as before the views."""
    crossings = critical.entries if critical is not None else []
    resolved = np.ones(p.t_grid.size, dtype=bool)
    halves = []
    refined = 0
    for side, mask in (("+", p.k_grid > 0), ("-", p.k_grid < 0)):
        ks = p.k_grid[mask]
        phi = phi_pgp[mask]
        inc = textbook_wrap(np.diff(phi, axis=0))
        total = inc.sum(axis=0)
        for i, it in zip(*np.nonzero(np.abs(inc) > np.pi / 2)):
            refined += 1
            a, b, t = ks[i], ks[i + 1], p.t_grid[it]
            npts = 8
            for _ in range(quench._MAX_REFINE):
                _, Ef, ov = quench._overlap_fields(np.linspace(a, b, npts + 1),
                                                   p.initial, p.final)
                g, phi_dyn = quench._gk_and_dyn(Ef, ov, t)
                sub_inc = textbook_wrap(np.diff(np.angle(g) - phi_dyn))
                if np.abs(sub_inc).max() <= np.pi / 2:
                    break
                npts *= 8
            else:
                lo = p.t_grid[max(it - 1, 0)]
                hi = p.t_grid[min(it + 1, p.t_grid.size - 1)]
                assert any(s == side and a <= kc <= b and lo < tc < hi
                           for _, s, kc, tc, _ in crossings)
                resolved[it] = False
            total[it] += sub_inc.sum() - inc[i, it]
        drift = (phi[-1] - phi[0]) / (2 * np.pi)
        halves.append((total / (2 * np.pi) - drift, drift))
    (dplus, drift_plus), (dminus, drift_minus) = halves
    return dplus, dminus, drift_plus, drift_minus, resolved, refined


def same_bits(a, b):
    """Equal shapes and equal 64-bit words: -0.0 differs from 0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_matches_references(p, f, gk, phi_pgp, critical=None):
    assert same_bits(f.log_mag2, np.log(np.abs(gk) ** 2).T)
    assert same_bits(f.phi_pgp, phi_pgp)
    assert np.array_equal(quench.return_rate(f), reference_return_rate(gk))
    d = quench.dtop(f, critical)
    ref = reference_dtop(p, phi_pgp, critical)
    for got, want in zip((d.dtop_plus, d.dtop_minus, d.drift_plus,
                          d.drift_minus, d.resolved, d.refined), ref):
        assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def default_field():
    p = quench.QuenchProtocol.default(CI, CF4)
    return p, quench.pgp_field(p)


class TestUnwrap:
    def test_matches_numpy_unwrap(self):
        rng = np.random.default_rng(3)
        pi = np.pi
        rows = np.angle(rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12)))
        special = np.array([
            [0.0, pi, 0.0, -pi, 0.0, pi, 2 * pi, pi, 0.0, -pi, -2 * pi, -pi],
            [0.0, 3.5, -3.0, 0.1, 7.0, -7.0, 100.0, -100.0, 0.0, 4.0, 0.5, 0.5],
            [0.0, 1.0, np.nan, 2.0, 5.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            [-0.0, -0.0, 0.5, -0.0, -0.0, 4.0, -0.0, -0.0, -0.0, 1.0, -0.0, -0.0],
            [0.0, np.inf, 0.0, -np.inf, 1.0, 2.0, 3.0, 1e300, -1e300, 0.0, 0.0, 0.0],
            [np.nextafter(pi, 0), 0.0, -np.nextafter(pi, 4), 0.0, pi, 2 * pi,
             np.nextafter(2 * pi, 0), 0.0, -pi, 0.0, 5e-324, -5e-324],
        ])
        for p in (rows, special, np.angle(np.exp(1j * np.linspace(0, 40, 800)))[None]):
            with np.errstate(invalid="ignore"):
                expected = np.unwrap(p, axis=1)
                got = quench._unwrap(p.copy())
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        p = special.copy()
        with np.errstate(invalid="ignore"):
            assert quench._unwrap(p) is p


class TestChunkedField:
    @pytest.mark.parametrize("rows, cpus, workers", [
        (8, 2, 2),      # 75 momenta: 3 chunks of pairs, 7 of unpaired rows
        (7, 1, 1),      # one thread
        (1000, 2, 2),   # one chunk of pairs, one of unpaired rows
        (30, 16, 3),    # more CPUs than chunks (one of pairs, two unpaired)
    ])
    def test_matches_serial_body(self, monkeypatch, rows, cpus, workers):
        # an odd number of momenta (k = 0 included) that no chunk size
        # divides; 12 of the 37 +-k pairs are exact negatives, bit for bit
        p = quench.QuenchProtocol(CI, CF4, np.linspace(-3.0, 3.0, 75),
                                  np.linspace(0.0, 12.0, 97))
        monkeypatch.setattr(quench, "_FIELD_ROWS", rows)
        monkeypatch.setattr(quench, "cpus_available", lambda: cpus)
        f = quench.pgp_field(p)
        gk, phi_pgp = serial_field(p)
        assert f.workers == workers
        assert f.mirrored == 12
        # 468 steps of this coarse grid's + half zone go through refinement
        assert_matches_references(p, f, gk, phi_pgp)

    def test_default_field_matches_serial_body(self, default_field):
        p, f = default_field
        gk, phi_pgp = serial_field(p)
        assert_matches_references(p, f, gk, phi_pgp)

    def test_exact_zero_matches_reference(self):
        # one g_k(t) = 0 puts -inf in log_mag2: RR = +inf at that time only
        p = quench.QuenchProtocol.default(CI, CF4, n_half=100, n_t=50)
        f = quench.pgp_field(p)
        gk, _ = serial_field(p)
        gk[17, 9] = 0.0
        f.log_mag2[9, 17] = -np.inf
        with np.errstate(all="raise"):
            rr = quench.return_rate(f)
        assert np.array_equal(rr, reference_return_rate(gk))
        assert np.isinf(rr).tolist() == [i == 9 for i in range(50)]

    def test_worker_error_reaches_caller(self, monkeypatch):
        p = quench.QuenchProtocol.default(CI, CF4, n_half=100, n_t=20)
        err = ExceptionalPointError("d.d vanishes in chunk 4")
        real = quench._gk_parts

        def failing(Ef, ov, t):
            if Ef.shape == (4, 1) and Ef[0, 0] == first_of_chunk_4:
                raise err
            return real(Ef, ov, t)

        # chunk 4 computes the +k rows 116 to 119 and builds their mirrors
        first_of_chunk_4 = quench._overlap_fields(p.k_grid, CI, CF4)[1][116]
        monkeypatch.setattr(quench, "_FIELD_ROWS", 8)
        monkeypatch.setattr(quench, "cpus_available", lambda: 2)
        monkeypatch.setattr(quench, "_gk_parts", failing)
        with pytest.raises(ExceptionalPointError) as info:
            quench.pgp_field(p)
        assert info.value is err

    def test_map_chunks_order_and_bound(self, monkeypatch):
        # more threads than cores and frequent switches: results arrive in
        # chunk order and no chunk starts 2 x workers ahead of consumption
        monkeypatch.setattr(quench, "cpus_available", lambda: 6)
        lock = threading.Lock()
        count = {"started": 0, "consumed": 0, "ahead": 0}
        seen = []

        def fn(i):
            with lock:
                count["started"] += 1
                count["ahead"] = max(count["ahead"],
                                     count["started"] - count["consumed"])
            return i, np.sin(np.arange(2000.0) + i).sum()

        def consume(out):
            with lock:
                count["consumed"] += 1
            seen.append(out[0])

        result = {}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            th = threading.Thread(target=lambda: result.setdefault(
                "workers", quench.map_chunks(fn, 400, consume)))
            th.start()
            th.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not th.is_alive()
        assert result["workers"] == 6
        assert seen == list(range(400))
        assert count["started"] == 400
        assert count["ahead"] <= 12


def mirrored_matching_serial(p):
    """pgp_field's mirrored-row count, once its field has serial_field's bits."""
    f = quench.pgp_field(p)
    gk, phi_pgp = serial_field(p)
    assert same_bits(f.phi_pgp, phi_pgp)
    with np.errstate(divide="ignore"):
        assert same_bits(f.log_mag2, np.log(np.abs(gk) ** 2).T)
    return f.mirrored


class TestMirroredRows:
    # the -k rows built from their +k mirror hold the bits that the whole
    # grid's cos and sin give, including the sign of each zero

    @pytest.mark.parametrize("ci, cf, t", [
        (CI, CF4, np.linspace(0.0, 12.0, 97)),
        (CI, CF4, np.linspace(0.5, 12.0, 97)),
        (CI, CF4, np.array([0.0, 5e-324, 1e-300, 1e-160, 1e-8, 3.0])),
        # Im g_k(0) = 0: taken as conj(C - A), one row's phi_pgp(t = 0)
        # would be -0.0 where the direct value is 0.0
        (derive_couplings(1, -0.5, 0.6), derive_couplings(1, 0.1, -0.2),
         np.linspace(0.0, 12.0, 97)),
        # a first time so small that Im g_k(t) = 0 past t = 0: 11 rows
        # would differ in the sign of phi_pgp's zero
        (CI, derive_couplings(1, -0.1, 1.0), np.array([5e-324, 1e-300, 1e-8, 1.0])),
        # a Hermitian quench: E^f and ov are real, their imaginary zeros +0.0
        # at both +-k and -0.0 in the conjugates
        (CI, CH, np.array([5e-324, 1e-300, 1e-8, 1.0])),
    ])
    def test_time_grids(self, ci, cf, t):
        k = quench.QuenchProtocol.default(ci, cf, n_half=100).k_grid
        assert mirrored_matching_serial(quench.QuenchProtocol(ci, cf, k, t)) == 100

    def test_near_pairs_are_built_directly(self):
        # +-k pairs that match within 1e-12 only: no row is mirrored
        k = quench.QuenchProtocol.default(CI, CF4, n_half=100).k_grid
        k[k > 0] += 1e-13
        p = quench.QuenchProtocol(CI, CF4, k, np.linspace(0.0, 12.0, 97))
        assert mirrored_matching_serial(p) == 0

    @pytest.mark.parametrize("ci, mirrored", [
        # both Hermitian: E^f's imaginary zero has one sign at +-k, paired
        # up to the sign of that zero
        (CI, 100),
        (derive_couplings(1, -0.5, 0.7), 100),
    ])
    def test_hermitian_final(self, ci, mirrored):
        p = quench.QuenchProtocol.default(ci, CH, n_half=100, n_t=97)
        assert mirrored_matching_serial(p) == mirrored

    def test_random_quenches(self):
        # theta_i = 0 in four quenches, theta_f = 0 in four others
        rng = np.random.default_rng(19)
        mirrored = 0
        for i in range(24):
            ci, cf = (derive_couplings(rng.uniform(0.5, 2.0), rng.uniform(-0.9, 0.9),
                                       0.0 if (i + j) % 6 == 0 else rng.uniform(-1.0, 1.0))
                      for j in (0, 3))
            p = quench.QuenchProtocol.default(ci, cf, t_max=rng.uniform(1.0, 20.0),
                                              n_half=int(rng.integers(20, 80)),
                                              n_t=int(rng.integers(20, 120)))
            mirrored += mirrored_matching_serial(p)
        assert mirrored > 0


class TestFieldMemory:
    def test_return_rate_and_dtop_allocate_little(self, default_field):
        # tracemalloc sees numpy's data buffers: return_rate makes no
        # full-size temporary, dtop one half-zone difference at a time
        p, f = default_field
        assert np.isfinite(f.log_mag2).all()
        peaks = {}
        tracemalloc.start()
        try:
            for fn in (quench.return_rate, quench.dtop):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                fn(f)
                peaks[fn.__name__] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peaks["return_rate"] < 0.01 * f.log_mag2.nbytes
        assert peaks["dtop"] < 1.25 * f.phi_pgp.nbytes

    def test_dtop_differences_in_time_blocks(self, default_field):
        # the default quench's half zones are 999 x 800 increments (6.4 MB);
        # in blocks of 64 to 127 times they stay below 2 MB
        p, f = default_field
        ct = quench.critical_set(p)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            quench.dtop(f, ct)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @pytest.mark.parametrize("cols", [2, 3, 64, 1000])
    def test_dtop_time_blocks_match_reference(self, monkeypatch, cols):
        # 97 times in blocks of 2 or 3, of 3 to 5, or in one; with refinement
        p = quench.QuenchProtocol(CI, CF4, np.linspace(-3.0, 3.0, 75),
                                  np.linspace(0.0, 12.0, 97))
        f = quench.pgp_field(p)
        monkeypatch.setattr(quench, "_DTOP_COLS", cols)
        d = quench.dtop(f)
        for got, want in zip((d.dtop_plus, d.dtop_minus, d.drift_plus,
                              d.drift_minus, d.resolved, d.refined),
                             reference_dtop(p, f.phi_pgp)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("cols", [2, 3, 64])
    @pytest.mark.parametrize("n", [1, 2, 5, 63, 64, 65, 129, 800])
    def test_column_blocks(self, monkeypatch, cols, n):
        monkeypatch.setattr(quench, "_DTOP_COLS", cols)
        blocks = quench._column_blocks(n)
        assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n))
        widths = [b.stop - b.start for b in blocks]
        if n < cols:
            assert widths == [n]
        else:
            assert cols <= min(widths) and max(widths) < 2 * cols


class TestOverflow:
    @pytest.mark.filterwarnings("error")
    def test_overflow_is_typed(self):
        # |Im E^f| t passes about 354 from t = 1667: |g_k|^2 leaves the
        # double range, and the field says so instead of holding inf and NaN
        cf = derive_couplings(1, 0.9, 3.0)
        p = quench.QuenchProtocol.default(CI, cf, t_max=5000, n_half=50, n_t=400)
        with pytest.raises(DoubleOverflowError, match=r"max\|Im E\^f\| t = 35"):
            quench.pgp_field(p)

    @pytest.mark.filterwarnings("error")
    def test_below_overflow_is_finite(self):
        cf = derive_couplings(1, 0.9, 3.0)
        p = quench.QuenchProtocol.default(CI, cf, t_max=1600, n_half=50, n_t=400)
        f = quench.pgp_field(p)
        assert np.isfinite(f.log_mag2).all() and np.isfinite(f.phi_pgp).all()
        assert np.isfinite(quench.return_rate(f)).all()
