import sys
import threading
import tracemalloc

import numpy as np
import pytest

from qbchain import model, quench
from qbchain.exceptions import (
    BranchCutError,
    DomainError,
    DoubleOverflowError,
    ExceptionalPointError,
    ResolutionError,
)
from qbchain.model import derive_couplings


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
            E = model.energy_nssh2(k, c)
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

    def test_fq_identity(self):
        # (Q2^2 - Q1^2)(F2^2 - F1^2) = 1
        rng = np.random.default_rng(8)
        for _ in range(100):
            k = rng.uniform(-np.pi, np.pi)
            ci = derive_couplings(1, rng.uniform(-0.9, 0.9), rng.uniform(0.05, 1))
            cf = derive_couplings(1, rng.uniform(-0.9, 0.9), rng.uniform(0.05, 1))
            ui, _ = quench._mode_parameter(model.hamiltonian_nssh2_k(k, ci))
            uf, _ = quench._mode_parameter(model.hamiltonian_nssh2_k(k, cf))
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


class TestCriticalSet:
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
                              d.drift_minus, d.resolved),
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


def reference_dtop(p, phi_pgp, critical=None):
    """dtop on masked copies of each half zone, as before the views."""
    crossings = critical.entries if critical is not None else []
    resolved = np.ones(p.t_grid.size, dtype=bool)
    halves = []
    for side, mask in (("+", p.k_grid > 0), ("-", p.k_grid < 0)):
        ks = p.k_grid[mask]
        phi = phi_pgp[mask]
        inc = quench._wrap(np.diff(phi, axis=0))
        total = inc.sum(axis=0)
        for i, it in zip(*np.nonzero(np.abs(inc) > np.pi / 2)):
            a, b, t = ks[i], ks[i + 1], p.t_grid[it]
            npts = 8
            for _ in range(quench._MAX_REFINE):
                _, Ef, ov = quench._overlap_fields(np.linspace(a, b, npts + 1),
                                                   p.initial, p.final)
                g, phi_dyn = quench._gk_and_dyn(Ef, ov, t)
                sub_inc = quench._wrap(np.diff(np.angle(g) - phi_dyn))
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
    return dplus, dminus, drift_plus, drift_minus, resolved


def assert_matches_references(p, f, gk, phi_pgp, critical=None):
    assert np.array_equal(f.log_mag2, np.log(np.abs(gk) ** 2).T)
    assert np.array_equal(f.phi_pgp, phi_pgp)
    assert np.array_equal(quench.return_rate(f), reference_return_rate(gk))
    d = quench.dtop(f, critical)
    ref = reference_dtop(p, phi_pgp, critical)
    for got, want in zip((d.dtop_plus, d.dtop_minus, d.drift_plus,
                          d.drift_minus, d.resolved), ref):
        assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def default_field():
    p = quench.QuenchProtocol.default(CI, CF4)
    return p, quench.pgp_field(p)


class TestChunkedField:
    @pytest.mark.parametrize("rows, cpus, workers", [
        (8, 2, 2),      # 75 momenta: ten chunks, the last of 3 rows
        (7, 1, 1),      # one thread
        (1000, 2, 1),   # a single chunk
        (30, 16, 3),    # more CPUs than chunks
    ])
    def test_matches_serial_body(self, monkeypatch, rows, cpus, workers):
        # an odd number of momenta (k = 0 included) that no chunk size divides
        p = quench.QuenchProtocol(CI, CF4, np.linspace(-3.0, 3.0, 75),
                                  np.linspace(0.0, 12.0, 97))
        monkeypatch.setattr(quench, "_FIELD_ROWS", rows)
        monkeypatch.setattr(quench, "cpus_available", lambda: cpus)
        f = quench.pgp_field(p)
        gk, phi_pgp = serial_field(p)
        assert f.workers == workers
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
        real = quench._gk_and_dyn

        def failing(Ef, ov, t):
            if Ef.shape[0] == 8 and Ef[0, 0] == first_of_chunk_4:
                raise err
            return real(Ef, ov, t)

        first_of_chunk_4 = quench._overlap_fields(p.k_grid, CI, CF4)[1][32]
        monkeypatch.setattr(quench, "_FIELD_ROWS", 8)
        monkeypatch.setattr(quench, "cpus_available", lambda: 2)
        monkeypatch.setattr(quench, "_gk_and_dyn", failing)
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
