import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import block_diag

from qbchain import model, spectral
from qbchain.exceptions import DomainError
from qbchain.model import OBC, PBC, Regime, derive_couplings


class TestBlockDiagonalization:
    def test_quadruple_symmetry(self):
        c = derive_couplings(1, 0.35, 0.75)
        ev = np.linalg.eigvals(model.dynamical_qb_k(0.4, c, Regime.REAL))
        for target in (-ev, ev.conj()):
            assert np.abs(ev[:, None] - target[None, :]).min(axis=1).max() < 1e-9

    def test_unitarity(self):
        for Q in (spectral.BLOCK_Q_REAL, spectral.BLOCK_Q_IMAG):
            assert np.abs(Q.conj().T @ Q - np.eye(8)).max() < 1e-14

    def test_residuals_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = rng.uniform(-np.pi, np.pi)
            c = derive_couplings(1, rng.uniform(-0.95, 0.95), rng.uniform(0, 1))
            assert spectral.block_diagonalize(k, c, Regime.REAL) < 1e-12
            assert spectral.block_diagonalize(k, c, Regime.IMAGINARY) < 1e-12

    @pytest.mark.parametrize("regime", list(Regime))
    def test_blocks_hold_the_four_images(self, regime):
        # real: nSSH2 copies (H, -H^dag, -H, H^dag); imaginary: nSSH1 copies
        # (H, -H, H^dag, -H^dag)
        c = derive_couplings(1, -0.3, 0.7)
        k = 1.1
        if regime is Regime.REAL:
            H = model.two_band(k, c, Regime.REAL)
            images = [H, -H.conj().T, -H, H.conj().T]
        else:
            H = model.two_band(k, c, Regime.IMAGINARY)
            images = [H, -H, H.conj().T, -H.conj().T]
        B = spectral.block_transform(k, c, regime)
        assert np.abs(B - block_diag(*images)).max() < 1e-12
        assert spectral.block_diagonalize(k, c, regime) < 1e-12

    def test_theta0_blocks_hermitian(self):
        c = derive_couplings(1, 0.3, 0)
        B = spectral.block_transform(0.9, c, Regime.REAL)
        assert spectral.block_diagonalize(0.9, c, Regime.REAL) < 1e-12
        assert np.abs(B - B.conj().T).max() < 1e-12

    def test_spectrum_union(self):
        c = derive_couplings(1, -0.3, 0.7)
        k = 1.2
        G = model.dynamical_qb_k(k, c, Regime.IMAGINARY)
        ev = np.linalg.eigvals(G)
        E = model.energy(k, c, Regime.IMAGINARY)
        blocks = np.array([E, -E, np.conj(E), -np.conj(E)])
        expect = np.concatenate([blocks, blocks])
        dist = np.abs(ev[:, None] - expect[None, :])
        assert dist.min(axis=1).max() < 1e-10
        assert dist.min(axis=0).max() < 1e-10

    def test_symmetry_commutes(self):
        sx = np.array([[0, 1], [1, 0]])
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.diag([1, -1])
        tau1t = np.kron(np.eye(2), np.kron(sx, np.eye(2)))
        U = model.TAU1 @ tau1t
        Ut = np.kron(sx, np.kron(sy, sz)) @ np.kron(sz, np.kron(sz, np.eye(2)))
        rng = np.random.default_rng(3)
        for _ in range(10):
            k = rng.uniform(-np.pi, np.pi)
            c = derive_couplings(1, rng.uniform(-0.9, 0.9), rng.uniform(0, 1))
            G = model.dynamical_qb_k(k, c, Regime.REAL)
            Gt = model.dynamical_qb_k(k, c, Regime.IMAGINARY)
            assert np.abs(U @ G - G @ U).max() < 1e-12
            assert np.abs(Ut @ Gt - Gt @ Ut).max() < 1e-12


def reference_spectrum_loop(J, theta, deltas, regime, k_grid):
    """PBC spectra with one 8x8 eigensolve per momentum, in k-major order."""
    rows = []
    for d in deltas:
        c = derive_couplings(J, d, theta)
        evs = np.concatenate([np.linalg.eigvals(model.dynamical_qb_k(k, c, regime))
                              for k in k_grid])
        rows.append(evs[np.lexsort((evs.imag, evs.real))])
    return rows


class TestSpectrumSweep:
    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("theta, n_k", [(0.4, 101), (0.0, 16), (1.0, 7)])
    def test_pbc_matches_per_momentum_loop(self, regime, theta, n_k):
        deltas = np.linspace(-0.9, 0.9, 7)
        boundary = PBC.uniform(n_k)
        sweep = spectral.spectrum_sweep(1.0, theta, deltas, regime, boundary)
        ref = reference_spectrum_loop(1.0, theta, deltas, regime, boundary.k_grid)
        assert len(sweep.eigenvalues) == len(ref)
        for evs, expected in zip(sweep.eigenvalues, ref):
            assert evs.shape == (8 * n_k,)
            assert np.array_equal(evs, expected)

    def test_moebius_window_pbc(self):
        lower = (1 - np.exp(0.4)) / (1 + np.exp(0.4))
        deltas = np.round(np.linspace(-0.9, 0.9, 41), 12)  # snap 0.0 exactly
        sweep = spectral.spectrum_sweep(1.0, 0.4, deltas, Regime.REAL,
                                        PBC.uniform(64))
        for d, evs in zip(sweep.deltas, sweep.eigenvalues):
            has_imag = any(abs(e.real) < 1e-9 and abs(e.imag) > 1e-6 for e in evs)
            assert has_imag == (lower < d < 0)

    def test_imaginary_gap_minimum(self):
        deltas = np.linspace(-0.3, 0.1, 81)
        sweep = spectral.spectrum_sweep(1.0, 0.4, deltas, Regime.IMAGINARY,
                                        PBC.uniform(401))
        gaps = [np.abs(evs).min() for evs in sweep.eigenvalues]
        d_at_min = deltas[int(np.argmin(gaps))]
        assert abs(d_at_min - (-0.11892293640549756)) <= np.diff(deltas)[0] + 1e-12

    def test_obc_zero_modes_imaginary(self):
        sweep = spectral.spectrum_sweep(1.0, 0.4, [0.5], Regime.IMAGINARY,
                                        OBC(30))
        assert min(abs(e) for e in sweep.eigenvalues[0]) < 1e-3

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            spectral.spectrum_sweep(1.0, 0.4, [], Regime.REAL, OBC(4))


def reference_ipr(A, n_cells):
    """ipr_localization as it was: a cluster was left unrotated when a
    biorthogonality test, against left eigenvectors paired by sorting a
    second eigensolve of A^T, flagged one of its members as defective."""
    A = np.asarray(A, dtype=complex)
    w, vr = np.linalg.eig(A)
    wt, vlt = np.linalg.eig(A.T)
    order = np.lexsort((w.imag, w.real))
    w, vr = w[order], vr[:, order]
    vl = vlt[:, np.lexsort((wt.imag, wt.real))].T
    dim = w.size
    scale = max(1.0, np.abs(w).max())

    def clusters(width):
        start = 0
        while start < dim:
            stop = start + 1
            while stop < dim and abs(w[stop] - w[stop - 1]) <= width * scale:
                stop += 1
            yield slice(start, stop)
            start = stop

    defective = np.zeros(dim, dtype=bool)
    for sl in clusters(1e-6):
        sm = np.linalg.svd(vl[sl] @ vr[:, sl], compute_uv=False)
        sr = np.linalg.svd(vr[:, sl], compute_uv=False)
        defective[sl] = sm.min() < 1e-10 or sr.min() < 1e-7 * sr.max()
    positions = np.tile(np.repeat(np.arange(1, n_cells + 1), 4), 2)
    for sl in clusters(1e-8):
        if sl.stop - sl.start > 1 and not defective[sl].any():
            R = vr[:, sl]
            G = R.conj().T @ R
            X = R.conj().T @ (positions[:, None] * R)
            vr[:, sl] = R @ scipy.linalg.eig(X, G)[1]
    out = []
    for i in range(dim):
        psi = vr[:, i] / np.linalg.norm(vr[:, i])
        out.append((w[i], float(np.sum(np.abs(psi) ** 4)),
                    float(np.sum(positions * np.abs(psi) ** 2))))
    return out


class TestIpr:
    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            spectral.ipr_localization(np.zeros((2, 3)))

    def test_exceptional_point_rows_finite(self):
        # v = w_r at k = pi makes the two-EP block a Jordan block
        c = derive_couplings(1, 0.0, 0.4)
        rows = spectral.ipr_localization(model.two_band(np.pi, c, Regime.REAL))
        assert len(rows) == 2
        assert np.isfinite(np.array(rows)).all()

    @pytest.mark.parametrize("eps", [1e-18, 1e-20, 1e-30, 0.0])
    def test_nearly_dependent_cluster(self, eps):
        # eigenvalues +-sqrt(eps), within one cluster, with right eigenvectors
        # parallel to rounding (exactly, at eps = 0): the cluster is rotated,
        # and both rows are the second site's
        rows = spectral.ipr_localization(np.array([[0.0, eps], [1.0, 0.0]]))
        assert [row[1:] for row in rows] == [(1.0, 2.0), (1.0, 2.0)]

    def test_real_obc_matches_biorthogonal_reference(self):
        # one eigensolve gives the former rows bit for bit on a real-regime
        # chain, whose clusters the biorthogonal test never flagged
        c = derive_couplings(1, 0.5, 0.4)
        n = 40
        G = model.realspace_dynamical(c, n, Regime.REAL)
        assert spectral.ipr_localization(G, n_cells=n) == reference_ipr(G, n)

    def test_pbc_extended(self):
        c = derive_couplings(1, 0.5, 0.4)
        n = 16
        G = model.realspace_dynamical(c, n, Regime.REAL, pbc=True)
        rows = spectral.ipr_localization(G, n_cells=n)
        iprs = [r[1] for r in rows]
        assert np.median(iprs) < 5.0 / n

    def test_nhse_real_obc(self):
        c = derive_couplings(1, 0.5, 0.4)
        n = 40
        G = model.realspace_dynamical(c, n, Regime.REAL)
        rows = spectral.ipr_localization(G, n_cells=n)
        pos = np.array([r[2] for r in rows])
        edge = np.mean((pos < 0.2 * n) | (pos > 0.8 * n))
        assert edge >= 0.9

    def test_no_nhse_imaginary_obc(self):
        c = derive_couplings(1, 0.5, 0.4)
        n = 40
        G = model.realspace_dynamical(c, n, Regime.IMAGINARY)
        rows = spectral.ipr_localization(G, n_cells=n)
        pos = np.array([r[2] for r in rows])
        edge = np.mean((pos < 0.2 * n) | (pos > 0.8 * n))
        assert edge < 0.2
