import numpy as np
import pytest
from scipy.linalg import block_diag

from qbchain import model, spectral
from qbchain.exceptions import DomainError
from qbchain.model import OBC, PBC, Regime, derive_couplings


class TestEigGeneral:
    def test_diagonal(self):
        es = spectral.eig_general(np.diag([1.0, 2.0j]))
        assert np.allclose(es.values, [2.0j, 1.0])  # lexicographic (Re, Im)
        assert np.abs(es.left @ es.right - np.eye(2)).max() < 1e-12
        assert not es.any_defective

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            spectral.eig_general(np.zeros((2, 3)))

    def test_biorthonormality_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            es = spectral.eig_general(A)
            assert np.abs(es.left @ es.right - np.eye(8)).max() < 1e-8
            res = np.abs(A @ es.right - es.right * es.values[None, :]).max()
            assert res < 1e-10 * max(1.0, es.condition.max())

    def test_hermitian_input(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        A = A + A.conj().T
        es = spectral.eig_general(A)
        assert np.abs(es.values.imag).max() < 1e-10
        assert np.abs(es.left - es.right.conj().T).max() < 1e-8

    def test_ep_flagged_defective(self):
        # v = w_r at k = pi makes the two-EP block defective (Jordan block)
        c = derive_couplings(1, 0.0, 0.4)
        es = spectral.eig_general(model.two_band(np.pi, c, Regime.REAL))
        assert es.any_defective

    def test_quadruple_symmetry(self):
        c = derive_couplings(1, 0.35, 0.75)
        es = spectral.eig_general(model.dynamical_qb_k(0.4, c, Regime.REAL))
        ev = es.values
        for target in (-ev, ev.conj()):
            assert np.abs(ev[:, None] - target[None, :]).min(axis=1).max() < 1e-9


class TestBlockDiagonalization:
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

    @pytest.mark.parametrize("regime", list(Regime))
    def test_block_check_reuses_a_built_matrix(self, regime):
        c = derive_couplings(1, 0.4, 0.3)
        k = -2.2
        G, _ = model.dynamical_qb_k(np.array([k, -k]), c, regime)
        assert (spectral.block_diagonalize(k, c, regime, G=G)
                == spectral.block_diagonalize(k, c, regime))
        # a G of the other regime is checked, not rebuilt
        other = model.dynamical_qb_k(k, c, next(r for r in Regime if r is not regime))
        assert spectral.block_diagonalize(k, c, regime, G=other) > 0.1

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


class TestIpr:
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
