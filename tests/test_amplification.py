import hashlib
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

from qbchain import amplification, cli, model, topology
from qbchain.exceptions import DomainError, SingularityError
from qbchain.model import Regime, derive_couplings


def reference_quadrature_n2(c):
    """The 8x8 quadrature generators for N=2, written out entry by entry."""
    v = c.v
    wp = 0.5 * (c.w_r + c.w_l)
    wm = 0.5 * (c.w_l - c.w_r)
    hx = np.array([
        [0, v, 0, 0, 0, 0, 0, 0],
        [-v, 0, 0, 0, -wp, 0, wm, 0],
        [0, 0, 0, -v, 0, 0, 0, 0],
        [0, 0, v, 0, wm, 0, wp, 0],
        [0, wp, 0, wm, 0, v, 0, 0],
        [0, 0, 0, 0, -v, 0, 0, 0],
        [0, wm, 0, -wp, 0, 0, 0, -v],
        [0, 0, 0, 0, 0, 0, v, 0],
    ], dtype=float)
    hp = np.array([
        [0, v, 0, 0, 0, 0, 0, 0],
        [-v, 0, 0, 0, -wp, 0, -wm, 0],
        [0, 0, 0, -v, 0, 0, 0, 0],
        [0, 0, v, 0, -wm, 0, wp, 0],
        [0, wp, 0, -wm, 0, v, 0, 0],
        [0, 0, 0, 0, -v, 0, 0, 0],
        [0, -wm, 0, -wp, 0, 0, 0, -v],
        [0, 0, 0, 0, 0, 0, v, 0],
    ], dtype=float)
    return hx, hp


def reference_quadrature_loop(c, n_cells):
    """The quadrature generators set cell by cell, one entry at a time."""
    n = 4 * n_cells
    hx = np.zeros((n, n))
    hp = np.zeros((n, n))
    wp = 0.5 * (c.w_r + c.w_l)
    wm = 0.5 * (c.w_l - c.w_r)

    def ix(cell, sub):
        return 4 * cell + sub

    A, B, C, D = 0, 1, 2, 3
    for j in range(n_cells):
        for h in (hx, hp):
            h[ix(j, A), ix(j, B)] = c.v
            h[ix(j, B), ix(j, A)] = -c.v
            h[ix(j, C), ix(j, D)] = -c.v
            h[ix(j, D), ix(j, C)] = c.v
        if j > 0:
            hx[ix(j, A), ix(j - 1, B)] = wp
            hx[ix(j, A), ix(j - 1, D)] = wm
            hx[ix(j, C), ix(j - 1, D)] = -wp
            hx[ix(j, C), ix(j - 1, B)] = wm
            hp[ix(j, A), ix(j - 1, B)] = wp
            hp[ix(j, A), ix(j - 1, D)] = -wm
            hp[ix(j, C), ix(j - 1, D)] = -wp
            hp[ix(j, C), ix(j - 1, B)] = -wm
        if j < n_cells - 1:
            hx[ix(j, B), ix(j + 1, A)] = -wp
            hx[ix(j, B), ix(j + 1, C)] = wm
            hx[ix(j, D), ix(j + 1, C)] = wp
            hx[ix(j, D), ix(j + 1, A)] = wm
            hp[ix(j, B), ix(j + 1, A)] = -wp
            hp[ix(j, B), ix(j + 1, C)] = -wm
            hp[ix(j, D), ix(j + 1, C)] = wp
            hp[ix(j, D), ix(j + 1, A)] = -wm
    return hx, hp


def cell_blocks(h):
    """The cell blocks (X_diag, X_sub, Y_diag, Y_super) of ``quadrature_cells``,
    read off an N = 2 generator."""
    g = h.reshape(2, 4, 2, 4)
    return np.array([g[0, 0::2, 0, 1::2],   # X_diag: AC rows, BD columns
                     g[1, 0::2, 0, 1::2],   # X_sub: cell 2 on cell 1
                     g[0, 1::2, 0, 0::2],   # Y_diag: BD rows, AC columns
                     g[0, 1::2, 1, 0::2]])  # Y_super: cell 1 on cell 2


def laid_out(cells, n_cells):
    """The 4N x 4N generator with one generator's blocks of
    ``quadrature_cells`` on its bands, zeros elsewhere."""
    x_diag, x_sub, y_diag, y_super = cells
    g = np.zeros((n_cells, 4, n_cells, 4))
    for j in range(n_cells):
        g[j, 0::2, j, 1::2] = x_diag
        g[j, 1::2, j, 0::2] = y_diag
        if j:
            g[j, 0::2, j - 1, 1::2] = x_sub
            g[j - 1, 1::2, j, 0::2] = y_super
    return g.reshape(4 * n_cells, 4 * n_cells)


def to_quadratures(G):
    """-i T G T^dag with T = (1/sqrt 2) [[I, I], [-iI, iI]]: the generator of
    d/dt (X, P) for the Nambu dynamical matrix G of d/dt (a, a^dag) = -i G
    (a, a^dag)."""
    eye = np.eye(G.shape[0] // 2)
    T = np.block([[eye, eye], [-1j * eye, 1j * eye]]) / np.sqrt(2)
    return -1j * (T @ G @ T.conj().T)


def reference_closed_form_loop(v, w, n_cells):
    """|chi_ac| and |chi_bd| at theta = 0 and couplings (v, w), set entry by
    entry."""
    g0 = w / v
    n = 2 * n_cells
    ac = np.zeros((n, n))
    for i in range(n_cells):
        for j in range(i, n_cells):
            val = abs(g0 ** (j - i) / v)
            ac[2 * i, 2 * j] = val
            ac[2 * i + 1, 2 * j + 1] = val
    return ac, ac.T.copy()


def reference_scan(theta, deltas, n_cells):
    """The scan through dense chi: per delta, ``susceptibility`` and
    ``gain_metrics``' end_to_end."""
    delta0 = topology.transition_delta(theta)
    rows = []
    for d in np.asarray(deltas, dtype=float):
        c = derive_couplings(d, theta)
        label = topology.classify_phases(c.theta, [c.delta], Regime.IMAGINARY)[0]
        rep = amplification.susceptibility(c, n_cells)
        rows.append((float(d), float(delta0), label.nu,
                     *(g.end_to_end for g in amplification.gain_metrics(rep))))
    return rows


def sub_matrices(rep):
    """Each pair of PAIRS with its 2N x 2N sub-matrix, laid out from the
    pair's Neumann stack by ``lay_out``."""
    return [(pair, amplification.lay_out(stack, pair[0]))
            for pair, stack in zip(amplification.PAIRS, rep.blocks, strict=True)]


def dense_chi(rep):
    """The 4N x 4N (chi_x, chi_p): each sub-matrix of ``sub_matrices``
    placed at its sublattice indices (``_sector_indices``), zeros
    elsewhere."""
    n = 4 * rep.n_cells
    chi = {q: np.zeros((n, n)) for _, q in amplification.PAIRS}
    idx = dict(zip(amplification.SECTOR_AXES,
                   amplification._sector_indices(rep.n_cells)))
    for (sector, q), sub in sub_matrices(rep):
        chi[q][np.ix_(*(idx[s] for s in amplification.SECTOR_AXES[sector]))] = sub
    return chi["X"], chi["P"]


def dense_residual(rep):
    """max|chi h - I| / max(1, max|chi|) over both generators, densely."""
    worst = 0.0
    for h, chi in zip(reference_quadrature_loop(rep.params, rep.n_cells),
                      dense_chi(rep)):
        res = np.abs(chi @ h - np.eye(h.shape[0])).max()
        worst = max(worst, res / max(1.0, np.abs(chi).max()))
    return worst


def scan_grid(theta):
    """The default 41-point delta grid without points near delta0."""
    delta0 = topology.transition_delta(theta)
    deltas = np.linspace(-0.9, 0.9, 41)
    return deltas[np.abs(deltas - delta0) >= 1e-4]


class TestQuadratureGenerators:
    def test_n2_fixture_exact(self):
        # the cell blocks of each generator, read off the printed matrices,
        # which they fill with no other nonzero entry
        c = derive_couplings(0.3, 0.7)
        for cells, ref in zip(model.quadrature_cells(c), reference_quadrature_n2(c)):
            assert np.array_equal(cells, cell_blocks(ref))
            assert np.array_equal(laid_out(cells, 2), ref)

    @pytest.mark.parametrize("n_cells", [2, 3, 40])
    @pytest.mark.parametrize("delta, theta", [(0.3, 0.7), (-0.5, 0.0), (0.9, 2.0)])
    def test_matches_cell_loop(self, n_cells, delta, theta):
        # the cell blocks on the bands are the whole generator: h has no
        # other nonzero entry, as the Neumann recurrence assumes
        c = derive_couplings(delta, theta)
        for cells, ref in zip(model.quadrature_cells(c),
                              reference_quadrature_loop(c, n_cells)):
            h = laid_out(cells, n_cells)
            # bit for bit, signed zeros included (w- = 0 at theta = 0)
            assert h.shape == ref.shape
            assert np.array_equal(h.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("delta, theta", [(0.3, 0.7), (-0.5, 0.0), (0.9, 2.0)])
    def test_cells_match_cell_loop(self, delta, theta):
        # the four cell blocks of each generator, read off the N = 2 loop
        c = derive_couplings(delta, theta)
        for cells, ref in zip(model.quadrature_cells(c),
                              reference_quadrature_loop(c, 2)):
            # bit for bit, signed zeros included (w- = 0 at theta = 0)
            assert np.array_equal(cells.view(np.int64),
                                  cell_blocks(ref).view(np.int64))

    def test_nambu_rotation_decouples_imaginary(self):
        n = 6
        half = 4 * n
        # delta on both sides of delta0 = 0.141, 0, -0.119 and -0.681
        for delta, theta in [(-0.5, -1.0), (0.5, -1.0), (-0.3, 0.0), (0.3, 0.0),
                             (-0.5, 0.4), (0.5, 0.4), (-0.9, 2.0), (0.3, 2.0)]:
            c = derive_couplings(delta, theta)
            G = model.realspace_dynamical(c, n, Regime.IMAGINARY)
            M = to_quadratures(G)
            assert np.abs(M.imag).max() < 1e-12
            assert np.abs(M[:half, half:]).max() < 1e-12
            assert np.abs(M[half:, :half]).max() < 1e-12
            hx, hp = reference_quadrature_loop(c, n)
            assert np.abs(M[:half, :half].real - hx).max() < 1e-12
            assert np.abs(M[half:, half:].real - hp).max() < 1e-12

    def test_nambu_rotation_couples_real(self):
        c = derive_couplings(0.5, 0.4)
        n = 4
        G = model.realspace_dynamical(c, n, Regime.REAL)
        M = to_quadratures(G)
        half = 4 * n
        assert np.abs(M[:half, half:]).max() > 1e-3


class TestSusceptibility:
    def test_inverse_residual(self):
        c = derive_couplings(0.5, 0.4)
        rep = amplification.susceptibility(c, 8)
        chi_x, _ = dense_chi(rep)
        assert rep.residual < 1e-10 * max(1.0, np.abs(chi_x).max())
        hx, _ = reference_quadrature_loop(c, 8)
        assert np.abs(chi_x @ hx - np.eye(32)).max() < 1e-6
        assert amplification.lay_out(rep.blocks[0], "AC").shape == (16, 16)

    def test_closed_form_match(self):
        # symmetric limit with (v, w) = (2/3, 4/3): w/v = 2
        c = derive_couplings(1.0 / 3.0, 0.0)
        assert abs(c.v - 2 / 3) < 1e-15 and abs(c.w_r - 4 / 3) < 1e-15
        rep = amplification.susceptibility(c, 4)
        ac_ref, bd_ref = reference_closed_form_loop(c.v, c.w_r, 4)
        for (sector, _), sub in sub_matrices(rep):
            ref = ac_ref if sector == "AC" else bd_ref
            assert np.abs(np.abs(sub) - ref).max() < 1e-10

    @pytest.mark.parametrize("n_cells", [2, 5, 40])
    @pytest.mark.parametrize("J, delta", [(1.5, 1.0 / 3.0), (1.0, -0.6),
                                          (0.7, 0.9)])
    def test_closed_form_matches_entry_loop(self, J, delta, n_cells):
        # chi is homogeneous of degree -1 in the couplings: at the couplings
        # J (1 -+ delta) the closed form is chi in units of J, over J
        c = derive_couplings(delta, 0.0)
        rep = amplification.susceptibility(c, n_cells)
        ac_ref, bd_ref = reference_closed_form_loop(J * c.v, J * c.w_r, n_cells)
        for (sector, _), sub in sub_matrices(rep):
            ref = ac_ref if sector == "AC" else bd_ref
            nz = sub != 0.0
            assert np.array_equal(nz, ref != 0.0)
            assert np.abs(np.abs(sub[nz]) / J / ref[nz] - 1.0).max() < 1e-12

    @pytest.mark.parametrize("delta,theta,n_cells", [
        (0.5, 0.4, 8), (-0.5, 0.4, 8), (0.2, 0.0, 2), (0.8, 1.0, 40),
        (-0.9, 2.0, 40), (0.9, 0.4, 200)])
    def test_banded_residual_matches_dense(self, delta, theta, n_cells):
        rep = amplification.susceptibility(derive_couplings(delta, theta),
                                           n_cells)
        # the same products, summed in another order
        assert rep.residual < 1e-10
        assert abs(rep.residual - dense_residual(rep)) <= 1e-15

    @pytest.mark.parametrize("delta,theta", [
        (0.5, 0.4), (0.8, 1.0), (0.2, 0.0),
        (-0.5, 0.4),  # trivial: delta < delta0
    ])
    def test_matches_high_precision_inverse(self, delta, theta):
        c = derive_couplings(delta, theta)
        n_cells = 12
        rep = amplification.susceptibility(c, n_cells)
        for h, chi in zip(reference_quadrature_loop(c, n_cells), dense_chi(rep)):
            with mpmath.workdps(50):
                ref = np.array((mpmath.matrix(h.tolist()) ** -1).tolist(),
                               dtype=float)
            nz = ref != 0.0
            rel = np.abs(chi[nz] - ref[nz]) / np.abs(ref[nz])
            assert rel.max() < 1e-12
            assert np.abs(chi[~nz]).max(initial=0.0) <= 1e-12 * np.abs(chi).max()

    @pytest.mark.parametrize("delta,theta,n_cells", [
        (-0.3, 0.0, 40), (0.3, 0.0, 40),    # delta0 = 0
        (-0.5, 0.4, 40), (0.5, 0.4, 40),    # delta0 = -0.119
        (-0.7, 1.0, 40), (0.2, 1.0, 40),    # delta0 = -0.344
        (-0.9, 2.0, 40), (0.3, 2.0, 40),    # delta0 = -0.681
        (0.9, 0.4, 200),                    # max|chi| ~ 1e276
    ])
    def test_closed_form_matches_lu(self, delta, theta, n_cells):
        c = derive_couplings(delta, theta)
        rep = amplification.susceptibility(c, n_cells)
        ac, bd = amplification._sector_indices(n_cells)
        for h, chi in zip(reference_quadrature_loop(c, n_cells), dense_chi(rep)):
            ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(h),
                                        np.eye(h.shape[0]))
            big = np.abs(ref) >= 1e-12 * np.abs(ref).max()
            rel = np.abs(chi[big] - ref[big]) / np.abs(ref[big])
            assert rel.max() <= 1e-12
            assert not chi[np.ix_(ac, ac)].any()
            assert not chi[np.ix_(bd, bd)].any()

    def test_overflow_is_typed(self):
        c = derive_couplings(0.9, 0.4)
        rep = amplification.susceptibility(c, 200)  # max|chi| ~ 1e276
        assert np.isfinite(dense_chi(rep)[0]).all() and rep.residual < 1e-10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularityError, match="overflow.*n_cells=260"):
                amplification.susceptibility(c, 260)

    @pytest.mark.parametrize("delta", [-0.5, 0.5])
    @pytest.mark.parametrize("n_cells", [2, 4, 40])
    def test_corrupted_generator_rejected(self, monkeypatch, n_cells, delta):
        # every single-entry corruption of the cell blocks of h_x or h_p
        # fails the dense check max|chi h - I| <= 1e-10 max(1, max|chi|) on
        # the h laid out from them, and so must fail the banded one, in
        # susceptibility and in the scan
        c = derive_couplings(delta, 0.4)
        chis = dense_chi(amplification.susceptibility(c, n_cells))
        clean = model.quadrature_cells(c)
        for entry in range(clean.size):
            cells = clean.copy()
            cells.flat[entry] += 1e-3
            for mod in (model, amplification):
                monkeypatch.setattr(mod, "quadrature_cells",
                                    lambda c, cells=cells: cells)
            which = entry // (clean.size // 2)  # h_x's blocks, then h_p's
            h = laid_out(cells[which], n_cells)
            dense = np.abs(chis[which] @ h - np.eye(4 * n_cells)).max()
            assert dense > 1e-10 * max(1.0, np.abs(chis[which]).max())
            with pytest.raises(SingularityError):
                amplification.susceptibility(c, n_cells)
            with pytest.raises(SingularityError):
                amplification.amplification_phase_scan(0.4, [delta], n_cells)

    @pytest.mark.parametrize("n_cells", [0, 1])
    def test_short_chain_rejected(self, n_cells):
        with pytest.raises(DomainError, match="at least 2 unit cells"):
            amplification.susceptibility(derive_couplings(0.5, 0.4), n_cells)
        with pytest.raises(DomainError, match="at least 2 unit cells"):
            amplification.amplification_phase_scan(0.4, [0.5], n_cells)

    def test_singular_at_transition(self):
        delta0 = topology.transition_delta(0.4)
        with pytest.raises(SingularityError):
            amplification.susceptibility(derive_couplings(delta0, 0.4), 6)

    def test_singular_at_zero_intracell_coupling(self):
        # delta = 1: v = 0, h is exactly singular; nothing overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularityError, match="singular at v = 0"):
                amplification.susceptibility(derive_couplings(1.0, 0.4), 6)


class TestGain:
    def test_directions_nontrivial(self):
        c = derive_couplings(1.0 / 3.0, 0.0)  # (v, w) = (2/3, 4/3), w/v = 2
        gains = amplification.gain_metrics(amplification.susceptibility(c, 8))
        for g in gains:
            if g.sector == "AC":
                assert g.direction == "leftward"
            else:
                assert g.direction == "rightward"
            assert abs(g.gain_per_cell - 2.0) < 1e-6
            assert g.end_to_end > 1.0

    def test_no_gain_trivial(self):
        c = derive_couplings(-0.5, 0.4)  # delta < delta0: trivial
        gains = amplification.gain_metrics(amplification.susceptibility(c, 8))
        for g in gains:
            assert g.direction == "none"
            assert g.end_to_end < 1.0

    @pytest.mark.parametrize("delta,theta,tol", [
        (0.5, 0.4, 0.02), (0.8, 1.0, 0.02), (0.3, 2.0, 0.02),
        (0.0, 0.4, 0.02), (-0.5, 0.4, 0.02),
        (0.2, 0.0, 1e-9), (-0.3, 0.0, 1e-9),
    ])
    def test_gain_per_cell_is_topological(self, delta, theta, tol):
        # -D^-1 W is the rotation R(phi) scaled by v_crit/|v|
        c = derive_couplings(delta, theta)
        v_crit = np.sqrt(0.5 * (c.w_r**2 + c.w_l**2))  # the single EP's
        delta0 = topology.transition_delta(theta)
        gains = amplification.gain_metrics(amplification.susceptibility(c, 40))
        for g in gains:
            assert abs(g.gain_per_cell / (v_crit / abs(c.v)) - 1.0) < tol
            assert (g.direction == "none") == (delta < delta0)

    @pytest.mark.parametrize("delta,theta", [
        (0.5, 0.4), (0.8, 1.0), (-0.5, 0.4), (0.2, 0.0), (-0.3, 0.0)])
    def test_gain_matches_per_distance_loop(self, delta, theta):
        rep = amplification.susceptibility(derive_couplings(delta, theta), 20)
        cell = np.repeat(np.arange(20), 2)
        dist = cell[None, :] - cell[:, None]
        gains = amplification.gain_metrics(rep)
        for g, (pair, sub) in zip(gains, sub_matrices(rep), strict=True):
            assert (g.sector, g.quadrature) == pair
            mag = np.abs(sub)
            tri_sign = 1 if g.sector == "AC" else -1
            xs, ys = [], []
            for m in range(1, 20):
                entries = mag[dist == tri_sign * m]
                entries = entries[entries > 1e-13]
                if entries.size:
                    xs.append(m)
                    ys.append(np.log(entries).mean())
            ref = float(np.exp(np.polyfit(xs, ys, 1)[0]))
            assert abs(g.gain_per_cell / ref - 1.0) < 1e-12
            assert g.end_to_end == mag[np.abs(dist) == 19].max()

    def test_gain_memory_is_linear(self):
        # the four dense 2N x 2N sub-matrices would take 512 MB at N = 2000
        c = derive_couplings(-0.5, 0.4)
        rep = amplification.susceptibility(c, 2000)
        tracemalloc.start()
        try:
            gains = amplification.gain_metrics(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        v_crit = np.sqrt(0.5 * (c.w_r**2 + c.w_l**2))
        for g in gains:
            assert abs(g.gain_per_cell / (v_crit / abs(c.v)) - 1.0) < 0.02

    @pytest.mark.parametrize("delta", [0.5, -0.5])
    @pytest.mark.parametrize("J", [1e-150, 1e-20, 1e20, 1e40, 1e150])
    def test_gain_does_not_depend_on_J(self, tmp_path, J, delta):
        # amplify at J writes each |chi| entry and end-to-end gain of J = 1
        # over J, so every gain per cell (a ratio of entries) is that of J = 1
        names = ["amplification_scan.csv", *(f"chi_{s}_{q}.csv".lower()
                                             for s, q in amplification.PAIRS)]
        read = {}
        for scale in (1.0, J):
            out = tmp_path / str(scale)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.run(cli.validate({"command": "amplify", "J": str(scale),
                                             "delta": str(delta),
                                             "out": str(out)})) == 0
            read[scale] = [np.loadtxt(out / name, delimiter=",", skiprows=1,
                                      usecols=None if name == names[0] else 2)
                           for name in names]
        (scan, *chi), (ref_scan, *ref_chi) = read[J], read[1.0]
        assert np.array_equal(scan[:, :3], ref_scan[:, :3])  # delta, delta0, nu
        for got, ref in [(scan[:, 3:], ref_scan[:, 3:]), *zip(chi, ref_chi)]:
            nz = ref != 0.0
            assert np.array_equal(got != 0.0, nz)
            assert np.abs(got[nz] * J / ref[nz] - 1.0).max() < 1e-12

    def test_scan_topology_correspondence(self):
        delta0 = topology.transition_delta(0.4)
        deltas = np.linspace(-0.9, 0.9, 50)
        deltas = deltas[np.abs(deltas - delta0) > 1e-3]
        rows = amplification.amplification_phase_scan(0.4, deltas, 10)
        for d, d0, nu, *ends in rows:
            assert abs(d0 - delta0) < 1e-12
            assert len(ends) == len(amplification.PAIRS)
            amplifying = all(v > 1.0 for v in ends)
            assert amplifying == (abs(nu - 1.0) < 0.25)

    @pytest.mark.parametrize("n_cells", [2, 10, 40])
    @pytest.mark.parametrize("theta", [0.0, 0.4, 1.0, 2.0])
    def test_scan_matches_reference(self, theta, n_cells):
        deltas = scan_grid(theta)
        rows = amplification.amplification_phase_scan(theta, deltas, n_cells)
        assert rows == reference_scan(theta, deltas, n_cells)
        assert rows.residual == max(
            amplification.susceptibility(derive_couplings(d, theta),
                                         n_cells).residual for d in deltas)

    @pytest.mark.parametrize("theta", [0.0, 0.4])
    def test_scan_over_several_blocks(self, theta):
        # 150 deltas: several blocks of DELTA_BLOCK, the last one partial
        deltas = np.linspace(-0.9, 0.9, 150)
        assert np.abs(deltas - topology.transition_delta(theta)).min() >= 1e-4
        assert deltas.size > topology.DELTA_BLOCK and deltas.size % topology.DELTA_BLOCK
        rows = amplification.amplification_phase_scan(theta, deltas, 10)
        assert rows == reference_scan(theta, deltas, 10)
        assert rows.residual == max(
            amplification.susceptibility(derive_couplings(d, theta),
                                         10).residual for d in deltas)

    def test_scan_error_names_first_failing_delta_of_its_block(self):
        # at N = 260, delta = 0.9 and 0.85 overflow and 0.5 does not; the
        # block's first failure is named, as one delta at a time would
        for deltas, named in (([0.5, 0.9, 0.85], "0.9"), ([0.5, 0.85, 0.9], "0.85")):
            for scan in (amplification.amplification_phase_scan, reference_scan):
                with pytest.raises(SingularityError,
                                   match=f"n_cells=260, delta={named}:"):
                    scan(0.4, deltas, 260)
        amplification.amplification_phase_scan(0.4, [0.5], 260)

    def test_scan_overflow_is_typed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scan in (amplification.amplification_phase_scan, reference_scan):
                with pytest.raises(SingularityError, match="overflow.*n_cells=260"):
                    scan(0.4, [0.9], 260)

    def test_scan_memory_is_linear(self):
        # one dense 4N x 4N generator would take 512 MB at N = 2000
        tracemalloc.start()
        try:
            rows = amplification.amplification_phase_scan(0.4, [-0.5], 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.residual < 1e-10
        assert peak < 20e6

    @pytest.mark.parametrize("grid", [[], [np.nan], [0.5, np.inf], [-np.inf]])
    def test_scan_rejects_empty_or_non_finite_grid(self, grid):
        with pytest.raises(DomainError, match="non-empty and finite"):
            amplification.amplification_phase_scan(0.4, grid, 6)

    def test_scan_rejects_near_transition(self):
        delta0 = topology.transition_delta(0.4)
        with pytest.raises(DomainError):
            amplification.amplification_phase_scan(0.4, [delta0 + 5e-5], 6)


class TestNeumannStack:
    def test_sectors_are_the_stack_laid_out(self):
        rep = amplification.susceptibility(derive_couplings(0.5, 0.4), 5)
        for (sector, _), stack in zip(amplification.PAIRS, rep.blocks, strict=True):
            sub = amplification.lay_out(stack, sector)
            assert sub.shape == (10, 10)
            # chi_bd's block (i, j) is stack[i - j], chi_ac's stack[j - i]^T,
            # and every block of the other triangle is zero
            for i in range(5):
                for j in range(5):
                    block = sub[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                    if sector == "BD":
                        ref = stack[i - j] if i >= j else np.zeros((2, 2))
                    else:
                        ref = stack[j - i].T if j >= i else np.zeros((2, 2))
                    assert np.array_equal(block, ref)

    @pytest.mark.parametrize("n_cells", [2, 5, 40, 150])
    @pytest.mark.parametrize("theta", [-0.7, 0.0, 0.4, 1.0, 2.0])
    def test_p_stacks_are_the_x_stacks_in_the_gauge(self, theta, n_cells):
        # h_p is h_x conjugated by diag(1, -1): each P block is its X block
        # with the off-diagonal entries negated, of the same magnitudes
        blocks, _ = amplification._neumann_blocks(theta, scan_grid(theta).tolist(),
                                                  n_cells)
        x, p = blocks[:, [0, 2]], blocks[:, [1, 3]]
        assert np.array_equal(p, x * [[1.0, -1.0], [-1.0, 1.0]])
        assert np.array_equal(np.abs(p).view(np.int64), np.abs(x).view(np.int64))

    @pytest.mark.parametrize("delta", [-0.5, 0.5])
    def test_gauge_is_checked_against_h_p(self, monkeypatch, delta):
        # with h_x's cells standing in for h_p's, the P stacks, derived from
        # the X ones and not from h_p, fail the residual check
        cells = model.quadrature_cells
        monkeypatch.setattr(amplification, "quadrature_cells",
                            lambda c: cells(c)[[0, 0]])
        with pytest.raises(SingularityError, match="inverse residual"):
            amplification.susceptibility(derive_couplings(delta, 0.4), 5)
        with pytest.raises(SingularityError, match="inverse residual"):
            amplification.amplification_phase_scan(0.4, [delta], 5)


class TestAmplifyOutputs:
    """sha256 prefixes of the amplify data files at documented settings."""

    @staticmethod
    def _digests(out):
        return {name: hashlib.sha256((out / f"{name}.csv").read_bytes())
                .hexdigest()[:16] for name in ("amplification_scan", "chi_ac_x",
                                               "chi_ac_p", "chi_bd_x", "chi_bd_p")}

    CASES = [
        ({}, "1d1092312d08be9b", "b2a3b4d7a0c14143", "5087230ed41971b2"),
        ({"theta": "0", "delta": "0.5", "delta_min": "0.5", "delta_steps": "1",
          "n_cells": "80"},
         "66ec70bace83088b", "f67da9ad4fa0836b", "571ee1717d6db312"),
    ]

    @pytest.mark.parametrize("overrides, scan, ac, bd", CASES)
    def test_outputs_unchanged(self, tmp_path, overrides, scan, ac, bd):
        cfg = cli.validate({"command": "amplify", "regime": "imaginary",
                            "out": str(tmp_path), **overrides})
        assert cli.run(cfg) == 0
        assert self._digests(tmp_path) == {
            "amplification_scan": scan, "chi_ac_x": ac, "chi_ac_p": ac,
            "chi_bd_x": bd, "chi_bd_p": bd}
