import re

import numpy as np
import pytest

from qbchain import model, spectral, topology
from qbchain.exceptions import DomainError, DoubleOverflowError, ValidationError
from qbchain.model import OBC, PBC, Regime, derive_couplings


# every public function that takes a regime, called with the regime r
_C = derive_couplings(1.0, 0.5, 0.4)
REGIME_TAKERS = {
    "two_band": lambda r: model.two_band(0.3, _C, r),
    "bloch": lambda r: model.bloch(0.3, _C, r),
    "energy": lambda r: model.energy(0.3, _C, r),
    "hamiltonian_qb_k": lambda r: model.hamiltonian_qb_k(0.3, _C, r),
    "dynamical_qb_k": lambda r: model.dynamical_qb_k(0.3, _C, r),
    "realspace_hamiltonian_blocks":
        lambda r: model.realspace_hamiltonian_blocks(_C, 4, r),
    "realspace_dynamical": lambda r: model.realspace_dynamical(_C, 4, r),
    "block_transform": lambda r: spectral.block_transform(0.3, _C, r),
    "block_diagonalize": lambda r: spectral.block_diagonalize(0.3, _C, r),
    "spectrum_sweep-pbc":
        lambda r: spectral.spectrum_sweep(1.0, 0.4, [0.5], r, PBC.uniform(8)),
    "spectrum_sweep-obc": lambda r: spectral.spectrum_sweep(1.0, 0.4, [0.5], r, OBC(4)),
    "classify_phases": lambda r: topology.classify_phases(1.0, 0.4, [0.5], r),
    "parametric_energy_loops": lambda r: topology.parametric_energy_loops(_C, None, r),
}


class TestRegimeArgument:
    @pytest.mark.parametrize("name", list(REGIME_TAKERS))
    @pytest.mark.parametrize("regime", ["real", None, 1])
    def test_non_regime_rejected(self, name, regime):
        with pytest.raises(DomainError, match="regime must be a Regime"):
            REGIME_TAKERS[name](regime)


class TestCouplings:
    def test_symmetric_point(self):
        c = derive_couplings(1, 0, 0)
        assert (c.v, c.w_r, c.w_l) == (1, 1, 1)

    def test_derived_values(self):
        c = derive_couplings(1, 0.9, 0.4)
        assert c.v == pytest.approx(0.1)
        assert c.w_r == pytest.approx(1.9)
        assert c.w_l == pytest.approx(1.9 * np.exp(0.4))

    def test_negative_delta(self):
        c = derive_couplings(1, -0.9, 0)
        assert c.v == pytest.approx(1.9)
        assert c.w_r == pytest.approx(0.1)
        assert c.w_l == pytest.approx(0.1)

    def test_invariants_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            J, d, th = rng.uniform(0.1, 3), rng.uniform(-1, 1), rng.uniform(0, 1)
            c = derive_couplings(J, d, th)
            assert c.v == pytest.approx(J * (1 - d), rel=1e-15)
            assert c.w_r == pytest.approx(c.w_l * np.exp(-th), rel=1e-14)

    def test_nonpositive_J_rejected(self):
        with pytest.raises(DomainError):
            derive_couplings(0, 0.1, 0.1)
        with pytest.raises(DomainError):
            derive_couplings(-1, 0.1, 0.1)

    @pytest.mark.parametrize("J, delta, theta, name", [
        (1, 0, 800, "theta=800"),      # e^theta itself overflows
        (1, 0.5, 709.5, "theta=709.5"),  # e^theta is finite, w_l is not
        (1e308, 0.9, 0, "J=1e+308"),     # w_r = 1.9e308
    ])
    def test_overflowing_couplings_typed(self, J, delta, theta, name):
        with pytest.raises(DoubleOverflowError, match=re.escape(name)):
            derive_couplings(J, delta, theta)

    @pytest.mark.parametrize("J, theta", [(1e155, 0.4), (1.0, 400.0), (1.0, -800.0)])
    def test_finite_couplings_with_overflowing_squares_kept(self, J, theta):
        c = derive_couplings(J, 0.5, theta)
        assert np.isfinite([c.v, c.w_r, c.w_l]).all()


class TestBoundaries:
    def test_pbc_grid_validation(self):
        with pytest.raises(DomainError):
            PBC(np.array([0.0, 0.0]))
        with pytest.raises(DomainError):
            PBC(np.array([-0.5, 0.5, np.pi]))  # endpoint pi excluded
        assert PBC.uniform(8).k_grid.size == 8

    def test_obc_needs_two_cells(self):
        with pytest.raises(DomainError):
            OBC(1)
        assert OBC(2).n_cells == 2


class TestKSpace:
    def test_coupling_functions_hermitian_limit(self):
        f1, f2 = model.coupling_functions(0.0, derive_couplings(1, 0, 0))
        assert f1 == pytest.approx(2.0)
        assert f2 == pytest.approx(0.0)

    def test_coupling_functions_at_pi(self):
        c = derive_couplings(1, 0.3, 0.7)
        f1, _ = model.coupling_functions(np.pi, c)
        assert f1 == pytest.approx(c.v - 0.5 * (c.w_l + c.w_r), abs=1e-12)

    def test_nssh2_block(self):
        c = derive_couplings(1, 0.9, 0.4)
        H = model.two_band(0.0, c, Regime.REAL)
        assert H[0, 1] == pytest.approx(c.v + c.w_r)
        assert H[1, 0] == pytest.approx(c.v + c.w_l)
        assert H[0, 0] == H[1, 1] == 0
        Hh = model.two_band(1.3, derive_couplings(1, 0.2, 0), Regime.REAL)
        assert np.abs(Hh - Hh.conj().T).max() < 1e-14

    def test_bloch_nssh2_properties(self):
        c = derive_couplings(1, 0.4, 0.6)
        for k in np.linspace(-np.pi, np.pi, 17):
            b = model.bloch(k, c, Regime.REAL)
            assert np.hypot(*b.di) == pytest.approx(0.5 * (c.w_l - c.w_r))
            # d reconstructs the 2x2 block via the Pauli decomposition
            H = model.two_band(k, c, Regime.REAL)
            assert b.dx == pytest.approx((H[0, 1] + H[1, 0]) / 2, abs=1e-12)
            assert b.dy == pytest.approx(1j * (H[0, 1] - H[1, 0]) / 2, abs=1e-12)
        b0 = model.bloch(0.3, derive_couplings(1, 0.4, 0), Regime.REAL)
        assert np.allclose(b0.di, 0)

    def test_energy_nssh2(self):
        assert (model.energy(0.0, derive_couplings(1, 0, 0), Regime.REAL)
                == pytest.approx(2.0))
        # EP parameters: v = w_r at k = pi
        c = derive_couplings(1, 0.0, 0.4)
        # square root halves the precision of the radicand's rounding at pi
        assert abs(model.energy(np.pi, c, Regime.REAL)) < 1e-7
        # eigensolve oracle
        c = derive_couplings(1, -0.1, 0.4)
        E = model.energy(np.pi / 2, c, Regime.REAL)
        ev = np.linalg.eigvals(model.two_band(np.pi / 2, c, Regime.REAL))
        assert min(abs(ev - E)) < 1e-12 and min(abs(ev + E)) < 1e-12

    def test_nssh1_block(self):
        c = derive_couplings(1, 0.2, 0)
        for k in (0.0, 1.1, -2.0):
            H = model.two_band(k, c, Regime.IMAGINARY)
            assert H[0, 0] == H[1, 1] == 0
            assert np.abs(H - H.conj().T).max() < 1e-14  # Hermitian at theta=0
        c = derive_couplings(1, 0.2, 0.5)
        H = model.two_band(0.8, c, Regime.IMAGINARY)
        E = model.energy(0.8, c, Regime.IMAGINARY)
        ev = np.linalg.eigvals(H)
        assert min(abs(ev - E)) < 1e-12 and min(abs(ev + E)) < 1e-12
        b = model.bloch(0.8, c, Regime.IMAGINARY)
        assert b.dx == pytest.approx((H[0, 1] + H[1, 0]) / 2, abs=1e-12)
        assert b.dy == pytest.approx(1j * (H[0, 1] - H[1, 0]) / 2, abs=1e-12)


def reference_pq_blocks(k, c, regime):
    """P(k) and Q(k) as written out entry by entry, one copy per regime."""
    f1, f2 = model.coupling_functions(k, c)
    f1c, f2c = np.conj(f1), np.conj(f2)
    if regime is Regime.REAL:
        P = [[0, f1, 0, 0], [f1c, 0, 0, 0], [0, 0, 0, -f1], [0, 0, -f1c, 0]]
        Q = [[0, 0, 0, -f2], [0, 0, f2c, 0], [0, f2, 0, 0], [-f2c, 0, 0, 0]]
    else:  # couplings enter as iv, iw_r, iw_l
        P = [[0, 1j * f1, 0, 0], [-1j * f1c, 0, 0, 0], [0, 0, 0, -1j * f1],
             [0, 0, 1j * f1c, 0]]
        Q = [[0, 0, 0, 1j * f2], [0, 0, 1j * f2c, 0], [0, 1j * f2, 0, 0],
             [1j * f2c, 0, 0, 0]]
    return np.array(P, dtype=complex), np.array(Q, dtype=complex)


def reference_realspace_loop(c, n_cells, regime, pbc):
    """K and Delta added up cell by cell, one entry at a time."""
    z = 1.0 if regime is Regime.REAL else 1.0j
    tv, tw, g = z * c.v, z * 0.5 * (c.w_r + c.w_l), z * 0.5 * (c.w_l - c.w_r)
    n = 4 * n_cells
    K = np.zeros((n, n), dtype=complex)
    D = np.zeros((n, n), dtype=complex)

    def ix(cell, sub):
        return 4 * (cell % n_cells) + sub

    A, B, C, Dd = 0, 1, 2, 3
    for i in range(n_cells):
        K[ix(i, A), ix(i, B)] += tv
        K[ix(i, B), ix(i, A)] += np.conj(tv)
        K[ix(i, C), ix(i, Dd)] += -tv
        K[ix(i, Dd), ix(i, C)] += -np.conj(tv)
    for i in range(n_cells if pbc else n_cells - 1):
        K[ix(i + 1, A), ix(i, B)] += tw
        K[ix(i, B), ix(i + 1, A)] += np.conj(tw)
        K[ix(i + 1, C), ix(i, Dd)] += -tw
        K[ix(i, Dd), ix(i + 1, C)] += -np.conj(tw)
        D[ix(i, B), ix(i + 1, C)] += g
        D[ix(i + 1, C), ix(i, B)] += g
        D[ix(i + 1, A), ix(i, Dd)] += -np.conj(g)
        D[ix(i, Dd), ix(i + 1, A)] += -np.conj(g)
    return K, D


def bits(a):
    """The raw bits of a complex array: equal bits mean equal signed zeros."""
    return np.ascontiguousarray(a).view(np.int64)


def reference_hamiltonian_nssh2_k(k, c):
    """The real-regime two-band block as it was written for one momentum."""
    return np.array(
        [
            [0.0, c.v + c.w_r * np.exp(-1j * k)],
            [c.v + c.w_l * np.exp(1j * k), 0.0],
        ],
        dtype=complex,
    )


def reference_bloch_nssh2(k, c):
    wp = 0.5 * (c.w_l + c.w_r)
    wm = 0.5 * (c.w_l - c.w_r)
    dr = np.array([c.v + wp * np.cos(k), wp * np.sin(k)])
    di = np.array([wm * np.sin(k), -wm * np.cos(k)])
    return model.BlochVector(dr=dr, di=di)


def reference_energy_nssh2(k, c):
    k = np.asarray(k, dtype=float)
    rad = c.v**2 + c.w_r * c.w_l + c.v * (
        c.w_l * np.exp(1j * k) + c.w_r * np.exp(-1j * k)
    )
    return np.sqrt(rad)


def reference_nssh1_k(k, c):
    """The imaginary-regime two-band block as it was written for one momentum."""
    p1 = c.v + 0.5 * (1 + 1j) * (c.w_l - 1j * c.w_r) * np.exp(-1j * k)
    p2 = c.v + 0.5 * (1 - 1j) * (c.w_l + 1j * c.w_r) * np.exp(-1j * k)
    return np.array([[0.0, p1], [np.conj(p2), 0.0]], dtype=complex)


def reference_bloch_nssh1(k, c):
    wp = 0.5 * (c.w_l + c.w_r)
    wm = 0.5 * (c.w_l - c.w_r)
    dr = np.array([c.v + wp * np.cos(k), wp * np.sin(k)])
    di = np.array([wm * np.cos(k), wm * np.sin(k)])
    return model.BlochVector(dr=dr, di=di)


def reference_energy_nssh1(k, c):
    k = np.asarray(k, dtype=float)
    x = c.v**2 + c.v * (c.w_r + c.w_l) * np.cos(k) + c.w_r * c.w_l
    y = (c.w_l - c.w_r) * (c.v * np.cos(k) + 0.5 * (c.w_r + c.w_l))
    return np.sqrt(x + 1j * y)


#: per regime: the (two_band, bloch, energy) closed forms, one copy each
REFERENCE_TWO_BAND = {
    Regime.REAL: (reference_hamiltonian_nssh2_k, reference_bloch_nssh2,
                  reference_energy_nssh2),
    Regime.IMAGINARY: (reference_nssh1_k, reference_bloch_nssh1,
                       reference_energy_nssh1),
}


class TestTwoBand:
    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("delta", [0.5, -0.3])
    @pytest.mark.parametrize("theta", [0.0, 0.4, 1.0])
    def test_matches_closed_forms(self, regime, delta, theta):
        c = derive_couplings(1, delta, theta)
        ref_h, ref_b, ref_e = REFERENCE_TWO_BAND[regime]
        grid = np.linspace(-np.pi, np.pi, 9)  # holds -pi, 0 and pi
        for k in [*grid, *grid.tolist()]:  # numpy and Python floats
            assert np.array_equal(bits(model.two_band(k, c, regime)),
                                  bits(ref_h(k, c)))
            b, ref = model.bloch(k, c, regime), ref_b(k, c)
            assert np.array_equal(bits(b.dr), bits(ref.dr))
            assert np.array_equal(bits(b.di), bits(ref.di))
            assert np.array_equal(bits(model.energy(k, c, regime)), bits(ref_e(k, c)))

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("delta", [0.5, -0.3])
    @pytest.mark.parametrize("theta", [0.0, 0.4, 1.0])
    def test_momentum_array_matches_one_at_a_time(self, regime, delta, theta):
        c = derive_couplings(1, delta, theta)
        grid = np.linspace(-np.pi, np.pi, 25)  # holds -pi, 0 and pi
        H = model.two_band(grid.reshape(5, 5), c, regime)
        b = model.bloch(grid, c, regime)
        E = model.energy(grid, c, regime)
        assert H.shape == (5, 5, 2, 2) and b.dr.shape == b.di.shape == (2, 25)
        one = [(model.two_band(k, c, regime), model.bloch(k, c, regime),
                model.energy(k, c, regime)) for k in grid]
        assert np.array_equal(bits(b.dr), bits(np.stack([o[1].dr for o in one], 1)))
        assert np.array_equal(bits(b.di), bits(np.stack([o[1].di for o in one], 1)))
        assert np.array_equal(bits(E), bits(np.array([o[2] for o in one])))
        ref = np.array([o[0] for o in one]).reshape(H.shape)
        if regime is Regime.REAL:
            assert np.array_equal(bits(H), bits(ref))
        else:
            # numpy's array complex multiply may round a product differently
            # from its scalar one: allow one ulp of the largest entry per part
            ulp = np.spacing(np.abs(ref).max())
            assert np.abs(H.real - ref.real).max() <= ulp
            assert np.abs(H.imag - ref.imag).max() <= ulp


class TestNambuMatrices:
    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("delta, theta", [(0.5, 0.4), (-0.1, 0.4),
                                              (0.3, 0.0), (0.9, 1.0)])
    def test_matches_hand_written_blocks(self, regime, delta, theta):
        c = derive_couplings(1, delta, theta)
        for k in np.linspace(-np.pi, np.pi, 9, endpoint=False):
            P, Q = reference_pq_blocks(k, c, regime)
            s = 1 if regime is Regime.REAL else -1
            H = model.hamiltonian_qb_k(k, c, regime)
            assert np.array_equal(H, np.block([[P, Q], [s * Q, s * P]]))

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("theta", [0.0, 0.4])
    def test_momentum_array_matches_one_at_a_time(self, regime, theta):
        c = derive_couplings(1, 0.5, theta)
        grid = np.linspace(-np.pi, np.pi, 16, endpoint=False)  # holds k = 0
        G = model.dynamical_qb_k(grid, c, regime)
        H = model.hamiltonian_qb_k(grid.reshape(4, 4), c, regime)
        assert G.shape == (16, 8, 8) and H.shape == (4, 4, 8, 8)
        for i, k in enumerate(grid):
            assert np.array_equal(G[i], model.dynamical_qb_k(k, c, regime))
            assert np.array_equal(bits(H.reshape(16, 8, 8)[i]),
                                  bits(model.hamiltonian_qb_k(k, c, regime)))

    @pytest.mark.parametrize("regime", list(Regime))
    def test_hermiticity(self, regime):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = rng.uniform(-np.pi, np.pi)
            c = derive_couplings(1, rng.uniform(-0.95, 0.95), rng.uniform(0, 1))
            H = model.hamiltonian_qb_k(k, c, regime)
            assert np.abs(H - H.conj().T).max() < 1e-14

    def test_pairing_vanishes_at_theta0(self):
        H = model.hamiltonian_qb_k(0.7, derive_couplings(1, 0.3, 0), Regime.REAL)
        assert np.abs(H[:4, 4:]).max() < 1e-14

    def test_block_entries(self):
        c = derive_couplings(1, 0.9, 0.4)
        H = model.hamiltonian_qb_k(0.0, c, Regime.REAL)
        f1, f2 = model.coupling_functions(0.0, c)
        assert H[0, 1] == pytest.approx(f1)
        assert abs(H[0, 7]) == pytest.approx(abs(f2))

    @pytest.mark.parametrize("regime", list(Regime))
    def test_symmetries(self, regime):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k = rng.uniform(-np.pi, np.pi)
            c = derive_couplings(1, rng.uniform(-0.95, 0.95), rng.uniform(0, 1))
            G = model.dynamical_qb_k(k, c, regime)
            Gm = model.dynamical_qb_k(-k, c, regime)
            assert np.abs(model.TAU1 @ Gm.conj() @ model.TAU1 + G).max() < 1e-12
            assert np.abs(model.TAU3 @ G.conj().T @ model.TAU3 - G).max() < 1e-12

    def test_extra_phs(self):
        sx = np.array([[0, 1], [1, 0]])
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.diag([1, -1])
        tau1t = np.kron(np.eye(2), np.kron(sx, np.eye(2)))
        gam = np.kron(sx, np.kron(sy, sz))
        gamt = np.kron(sz, np.kron(sz, np.eye(2)))
        rng = np.random.default_rng(3)
        for _ in range(10):
            k = rng.uniform(-np.pi, np.pi)
            c = derive_couplings(1, rng.uniform(-0.9, 0.9), rng.uniform(0, 1))
            G = model.dynamical_qb_k(k, c, Regime.REAL)
            Gm = model.dynamical_qb_k(-k, c, Regime.REAL)
            assert np.abs(tau1t @ Gm.conj() @ tau1t + G).max() < 1e-12
            Gt = model.dynamical_qb_k(k, c, Regime.IMAGINARY)
            Gtm = model.dynamical_qb_k(-k, c, Regime.IMAGINARY)
            assert np.abs(gam @ Gtm.conj() @ gam + Gt).max() < 1e-12
            assert np.abs(gamt @ Gtm.conj() @ gamt + Gt).max() < 1e-12

    @pytest.mark.parametrize("regime", list(Regime))
    def test_eigenvalue_quadruples(self, regime):
        c = derive_couplings(1, -0.2, 0.6)
        ev = np.linalg.eigvals(model.dynamical_qb_k(0.9, c, regime))
        for target in (-ev, ev.conj()):
            assert np.abs(ev[:, None] - target[None, :]).min(axis=1).max() < 1e-9

    def test_imaginary_eigenvalues_in_moebius_window(self):
        c = derive_couplings(1, -0.1, 0.4)
        ev = np.linalg.eigvals(model.dynamical_qb_k(np.pi, c, Regime.REAL))
        assert any(abs(e.real) < 1e-9 and abs(e.imag) > 1e-6 for e in ev)


class TestRealSpace:
    @pytest.mark.parametrize("regime", list(Regime))
    def test_fourier_oracle(self, regime):
        n_cells = 8
        c = derive_couplings(1, 0.3, 0.5)
        G = model.realspace_dynamical(c, n_cells, regime, pbc=True)
        for m in range(n_cells):
            k = -np.pi + 2 * np.pi * m / n_cells
            Gk = model.fourier_project(G, n_cells, k)
            assert np.abs(Gk - model.dynamical_qb_k(k, c, regime)).max() < 1e-12

    def test_obc_real_spectrum(self):
        c = derive_couplings(1, 0.3, 0.4)
        G = model.realspace_dynamical(c, 20, Regime.REAL)
        ev = np.linalg.eigvals(G)
        assert np.abs(ev.imag).max() < 1e-6 * np.abs(ev).max()

    def test_theta0_hermitian_blocks(self):
        c = derive_couplings(1, 0.3, 0)
        K, D = model.realspace_hamiltonian_blocks(c, 6)
        assert np.abs(D).max() < 1e-14
        assert np.abs(K - K.conj().T).max() < 1e-14

    def test_build_from_blocks_validation(self):
        K = np.diag([1.0, 2.0])
        good = model.build_dynamical_from_blocks(K, np.zeros((2, 2)))
        assert np.allclose(good, np.diag([1.0, 2.0, -1.0, -2.0]))
        with pytest.raises(ValidationError):
            model.build_dynamical_from_blocks(np.array([[0, 1j], [1j, 0]]),
                                              np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            model.build_dynamical_from_blocks(
                K, np.array([[0.0, 1.0], [-1.0, 0.0]]))  # antisymmetric

    def test_blocks_match_direct_build(self):
        c = derive_couplings(1, -0.4, 0.8)
        for regime in Regime:
            K, D = model.realspace_hamiltonian_blocks(c, 5, regime)
            G = model.build_dynamical_from_blocks(K, D)
            assert np.allclose(G, model.realspace_dynamical(c, 5, regime))

    def test_boundary_is_a_keyword_flag(self):
        c = derive_couplings(1, 0.5, 0.4)
        with pytest.raises(TypeError):
            model.realspace_dynamical(c, 4, Regime.REAL, OBC(4))
        with pytest.raises(TypeError):
            model.realspace_hamiltonian_blocks(c, 4, Regime.REAL, True)
        for pbc in (False, True):
            K, D = model.realspace_hamiltonian_blocks(c, 4, Regime.REAL, pbc=pbc)
            G = model.realspace_dynamical(c, 4, Regime.REAL, pbc=pbc)
            assert np.array_equal(G, model.build_dynamical_from_blocks(K, D))
        # the wrap bond couples the last cell to the first under PBC only
        assert not model.realspace_dynamical(c, 4)[0:4, 12:16].any()
        assert model.realspace_dynamical(c, 4, pbc=True)[0:4, 12:16].any()

    def test_small_system_rejected(self):
        with pytest.raises(DomainError):
            model.realspace_dynamical(derive_couplings(1, 0, 0), 1)

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("pbc", [False, True])
    @pytest.mark.parametrize("n_cells, delta, theta", [
        (2, 0.5, 0.4), (3, -0.1, 0.4), (7, 0.3, 0.0), (5, 1.0, 0.2)])
    def test_blocks_match_cell_loop(self, regime, pbc, n_cells, delta, theta):
        c = derive_couplings(1, delta, theta)
        K, D = model.realspace_hamiltonian_blocks(c, n_cells, regime, pbc=pbc)
        K0, D0 = reference_realspace_loop(c, n_cells, regime, pbc)
        # bit for bit, signed zeros included (v = 0 at delta = 1)
        assert np.array_equal(bits(K), bits(K0))
        assert np.array_equal(bits(D), bits(D0))


class TestQuadrature:
    def test_theta0_decoupling(self):
        c = derive_couplings(1, 0.3, 0)
        hx, hp = model.quadrature_dynamical(c, 4)
        assert np.allclose(hx, hp)  # cross terms vanish

    def test_swap_relation(self):
        # swapping w_r <-> w_l flips the sign of the cross terms, i.e. maps
        # the X generator onto the P generator
        c = derive_couplings(1.3, 0.2, 0.6)
        hx, hp = model.quadrature_dynamical(c, 5)
        wm = 0.5 * (c.w_l - c.w_r)
        diff = hx - hp
        assert np.abs(np.abs(diff[np.nonzero(diff)]) - 2 * abs(wm)).max() < 1e-12

    def test_antisymmetric_pattern(self):
        # the v and w+ couplings are antisymmetric and the w- cross terms
        # symmetric: at theta = 0 (w- = 0) each generator is exactly -h^T
        for h in model.quadrature_dynamical(derive_couplings(1, -0.2, 0.0), 6):
            assert np.array_equal(h, -h.T)
        # elsewhere h + h^T holds only the w- terms: 4 per bond, each +-2 w-
        c = derive_couplings(1, -0.2, 0.9)
        wm = 0.5 * (c.w_l - c.w_r)
        for h in model.quadrature_dynamical(c, 6):
            sym = h + h.T
            assert np.count_nonzero(sym) == 4 * (6 - 1)
            assert np.array_equal(np.abs(sym[sym != 0]), np.full(20, 2 * wm))
