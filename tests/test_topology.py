import json
import re
import warnings

import numpy as np
import pytest

from qbchain import cli, model, topology
from qbchain.exceptions import (DomainError, DoubleOverflowError, ResolutionError,
                                SingularityError)
from qbchain.model import Regime, derive_couplings
from qbchain.topology import Phase


def ep_nssh1(c):
    """(v_crit, k*) of the single-EP block: the intracell coupling at which
    X(k) and Y(k) vanish together, sqrt((w_r^2 + w_l^2) / 2), and the
    momentum where they do."""
    v_crit = np.sqrt(0.5 * (c.w_r**2 + c.w_l**2))
    return v_crit, float(np.arccos(-(c.w_r + c.w_l) / (2.0 * v_crit)))


class TestGridAndEps:
    def test_default_grid(self):
        g = topology.default_bz_grid()
        assert g.size == 2001
        assert g[0] == -np.pi
        assert g[-1] < np.pi  # endpoint excluded
        assert np.allclose(np.diff(g), np.diff(g)[0])

    def test_grid_too_coarse(self):
        for n in (101, 0, -5):
            with pytest.raises(DomainError):
                topology.default_bz_grid(n)

    def test_ep_locations_nssh2(self):
        c = derive_couplings(0.5, 0.4)
        ep1, ep2, degenerate = topology.ep_locations_nssh2(c)
        wm = 0.5 * (c.w_l - c.w_r)
        assert np.allclose(ep1, [wm, 0.0])
        assert np.allclose(ep2, [-wm, 0.0])
        assert not degenerate
        # d(k) visits the EPs: |d^r - EP| minimized where d^i vanishes along x
        assert topology.ep_locations_nssh2(derive_couplings(0.5, 0.0))[2]

    def test_ep_nssh1_zero_energy(self):
        # at delta0 the band energy X + iY vanishes at k*, where the
        # intracell coupling is v_crit
        c = derive_couplings(-0.11892293640549756, 0.4)
        v_crit, k_star = ep_nssh1(c)
        assert abs(c.delta - topology.transition_delta(c.theta)) < 1e-14
        assert abs(c.v - v_crit) < 1e-12
        e = model.energy(k_star, c, Regime.IMAGINARY)
        assert abs(e) ** 2 < 1e-12

    def test_delta0_theta0_is_zero(self):
        assert topology.transition_delta(0.0) == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta", [354.0, 400.0, 709.0])
    def test_delta0_at_large_theta(self, theta):
        # e^(2 theta) leaves the double range, and delta0 rounds to -1
        assert topology.transition_delta(theta) == -1.0

    def test_delta0_keeps_its_bits_on_the_default_grids(self):
        # the closed form sqrt((1 + e^(2 theta)) / 2) -> delta0, as written
        # to amplification_scan.csv before the large-theta cap
        for theta in [0.4, *np.linspace(0.0, 1.0, 11), *np.linspace(-3, 3, 13)]:
            s = np.sqrt(0.5 * (1.0 + np.exp(2.0 * theta)))
            assert topology.transition_delta(theta) == (1.0 - s) / (1.0 + s)


class TestWinding:
    def _nu(self, delta, theta=0.4, n=2001):
        c = derive_couplings(delta, theta)
        grid = topology.default_bz_grid(n)
        return topology.winding_pair(lambda k: model.bloch(k, c, Regime.REAL), grid)

    def test_fig1_values(self):
        for d, expected in ((-0.9, 0.0), (-0.1, 0.5), (0.9, 1.0)):
            res = self._nu(d)
            assert abs(res.nu - expected) < 1e-3
            assert res.imag_residual < 1e-6

    def test_grid_refinement_invariance(self):
        for d in (-0.9, -0.1, 0.9):
            assert abs(self._nu(d, n=1001).nu - self._nu(d, n=4001).nu) < 1e-9

    def test_integral_agrees_with_pair(self):
        grid = topology.default_bz_grid()
        for d, expected in ((-0.9, 0.0), (-0.1, 0.5), (0.9, 1.0)):
            c = derive_couplings(d, 0.4)
            z = topology.winding_integral(lambda k: model.bloch(k, c, Regime.REAL),
                                          grid)
            assert abs(z.real - expected) < 1e-10
            assert abs(z.imag) < 1e-10

    def test_point_in_polygon_cross_check(self):
        # nu1/nu2 equal the winding of the shifted-real-vector loops around
        # the origin; check with an even-odd ray-crossing count
        grid = topology.default_bz_grid(4001)
        for d, expected in ((-0.9, (0, 0)), (-0.1, (1, 0)), (0.9, (1, 1))):
            c = derive_couplings(d, 0.4)
            pts1, pts2 = [], []
            for k in grid:
                b = model.bloch(k, c, Regime.REAL)
                dxr, dyr = b.dr
                dxi, dyi = b.di
                pts1.append((dxr - dyi, dyr + dxi))
                pts2.append((dxr + dyi, dyr - dxi))
            for pts, exp in zip((pts1, pts2), expected):
                xs, ys = np.array(pts).T
                xs2, ys2 = np.roll(xs, -1), np.roll(ys, -1)
                crossing = (ys <= 0) != (ys2 <= 0)
                x_at = xs + (0 - ys) * (xs2 - xs) / np.where(crossing, ys2 - ys, 1.0)
                inside = int(np.sum(crossing & (x_at > 0))) % 2
                assert inside == exp % 2

    def test_integral_nonuniform_grid_rejected(self):
        grid = np.sort(np.random.default_rng(0).uniform(-np.pi, np.pi, 801))
        c = derive_couplings(0.9, 0.4)
        with pytest.raises(DomainError):
            topology.winding_integral(lambda k: model.bloch(k, c, Regime.REAL), grid)

    def test_integral_singular_at_ep(self):
        # gapless point: v = w_r (delta = 0) at theta=0 puts d.d = 0 at k = pi
        c = derive_couplings(0.0, 0.0)
        grid = topology.default_bz_grid(401)
        with pytest.raises(SingularityError):
            topology.winding_integral(lambda k: model.bloch(k, c, Regime.REAL), grid)

    @pytest.mark.parametrize("regime", list(Regime), ids=["nssh2", "nssh1"])
    def test_squares_past_double_range_typed(self, regime):
        # finite couplings whose squares overflow: a typed error, no nan
        c = derive_couplings(0.5, 400.0)
        grid = topology.default_bz_grid(401)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DoubleOverflowError, match="square outside"):
                topology.winding_integral(lambda k: model.bloch(k, c, regime), grid)
            with pytest.raises(DoubleOverflowError, match="theta=400.0"):
                topology.parametric_energy_loops(c, grid, regime)

    def test_pair_coarse_grid_near_transition(self):
        with pytest.raises((ResolutionError, DomainError)):
            c = derive_couplings(0.9, 0.4)
            topology.winding_pair(lambda k: model.bloch(k, c, Regime.REAL),
                                  np.linspace(-np.pi, np.pi, 40, endpoint=False))


#: uniform 2001-point grids that are not closed loops over the zone
OPEN_GRIDS = {
    "unit-interval": np.linspace(0.0, 1.0, 2001),
    "half-zone": np.linspace(-np.pi, 0.0, 2001, endpoint=False),
}


@pytest.mark.parametrize("grid", OPEN_GRIDS.values(), ids=OPEN_GRIDS.keys())
@pytest.mark.parametrize("call", [
    lambda c, g: topology.winding_pair(lambda k: model.bloch(k, c, Regime.REAL), g),
    lambda c, g: topology.winding_integral(lambda k: model.bloch(k, c, Regime.REAL),
                                           g),
    lambda c, g: topology.classify_phases(c.theta, [c.delta], Regime.IMAGINARY,
                                          g),
    lambda c, g: topology.parametric_energy_loops(c, g),
    lambda c, g: topology.classify_phases(c.theta, [c.delta], Regime.REAL, g),
], ids=["winding_pair", "winding_integral", "classify_phases_imag",
        "parametric_energy_loops", "classify_phases_real"])
def test_open_grid_rejected(call, grid):
    # at (delta, theta) = (0.5, 0.4) nu = 1; unchecked, the pair reads 6e-16
    # and the integral 0.0128 on [0, 1], and the integral 0.4999 on half the
    # zone
    with pytest.raises(DomainError, match="does not close a loop"):
        call(derive_couplings(0.5, 0.4), grid)


@pytest.mark.parametrize("n", [1359, 1379, 1467])
def test_closing_step_within_rounding_accepted(n):
    # at these sizes linspace's closing step exceeds its widest interior
    # step by rounding alone
    grid = np.linspace(-np.pi, np.pi, n, endpoint=False)
    assert grid[0] + 2 * np.pi - grid[-1] > np.diff(grid).max()
    assert np.array_equal(topology.default_bz_grid(n), grid)


def reference_phase_real(c):
    """The real-regime label of one coupling set from its delta thresholds,
    one comparison at a time (the former ``classify_phase_real``)."""
    lower = (1.0 - np.exp(c.theta)) / (1.0 + np.exp(c.theta))
    boundaries = (float(lower), 0.0)
    if min(abs(c.delta - lower), abs(c.delta - 0.0)) < topology.CRITICAL_BAND:
        return topology.PhaseLabel(tag=Phase.CRITICAL, boundaries=boundaries)
    if c.delta < lower:
        return topology.PhaseLabel(tag=Phase.TRIVIAL, boundaries=boundaries, nu=0.0)
    if c.delta < 0.0:
        return topology.PhaseLabel(tag=Phase.MOEBIUS, boundaries=boundaries, nu=0.5)
    return topology.PhaseLabel(tag=Phase.NONTRIVIAL, boundaries=boundaries, nu=1.0)


def imag_label(c, grid=None):
    """The imaginary-regime label of one coupling set."""
    return topology.classify_phases(c.theta, [c.delta], Regime.IMAGINARY, grid)[0]


class TestClassification:
    def test_real_phases(self):
        lower = (1 - np.exp(0.4)) / (1 + np.exp(0.4))
        for d, tag, nu in ((-0.9, Phase.TRIVIAL, 0.0),
                           (-0.1, Phase.MOEBIUS, 0.5),
                           (0.9, Phase.NONTRIVIAL, 1.0)):
            lab = topology.classify_phases(0.4, [d], Regime.REAL)[0]
            assert lab.tag is tag
            assert lab.nu == nu
            assert lab.boundaries == (lower, 0.0)
            assert lab.winding is None  # thresholds, no numerical winding

    def test_real_critical_band(self):
        lab = topology.classify_phases(0.4, [1e-9], Regime.REAL)[0]
        assert lab.tag is Phase.CRITICAL
        assert lab.nu is None

    @pytest.mark.parametrize("theta", [0.0, 0.4, 1.0, 3.0])
    def test_real_matches_one_delta_reference(self, theta):
        # more than DELTA_BLOCK deltas, with points 1e-7 and 2e-6 on either
        # side of each boundary: inside and just outside the critical band
        lower = (1.0 - np.exp(theta)) / (1.0 + np.exp(theta))
        near = [b + s for b in (lower, 0.0) for s in (-2e-6, -1e-7, 0.0, 1e-7, 2e-6)]
        deltas = np.concatenate([np.linspace(-0.95, 0.95, topology.DELTA_BLOCK + 7),
                                 near])
        labels = topology.classify_phases(theta, deltas, Regime.REAL)
        refs = [reference_phase_real(derive_couplings(d, theta)) for d in deltas]
        assert [(lab.tag, lab.nu, lab.boundaries) for lab in labels] == [
            (ref.tag, ref.nu, ref.boundaries) for ref in refs]
        assert all(lab.winding is None for lab in labels)

    @pytest.mark.parametrize("theta", [-0.4, -1.0, -2.0])
    def test_real_negative_theta_matches_winding(self, theta):
        # for theta < 0 the closed-form boundaries (-tanh(theta/2), 0) come
        # in descending order; the Moebius window is 0 < delta < -tanh(theta/2)
        b = -np.tanh(theta / 2)
        deltas = [-0.5, -0.05, 0.02, b / 2, b - 0.02, b + 0.02, 0.9]
        grid = topology.default_bz_grid()
        labels = topology.classify_phases(theta, deltas, Regime.REAL, grid)
        tags = {0.0: Phase.TRIVIAL, 0.5: Phase.MOEBIUS, 1.0: Phase.NONTRIVIAL}
        for d, lab in zip(deltas, labels):
            c = derive_couplings(d, theta)
            res = topology.winding_pair(lambda k: model.bloch(k, c, Regime.REAL), grid)
            assert abs(lab.nu - res.nu) < 1e-9, d
            assert lab.tag is tags[lab.nu], d
            assert lab.boundaries[0] < lab.boundaries[1]

    @pytest.mark.parametrize("regime", ["real", None])
    def test_unknown_regime_rejected(self, regime):
        with pytest.raises(DomainError, match="regime must be a Regime"):
            topology.classify_phases(0.4, [0.5], regime)

    @pytest.mark.parametrize("J", [1e160, 1e-160])
    def test_imag_labels_do_not_depend_on_J(self, tmp_path, J):
        # classify_phases takes no J; amplify, the one command that labels
        # imaginary phases at a J, writes the J = 1 delta0 and nu at an
        # extreme J, bit for bit
        for theta in ("0", "0.5", "1"):
            read = []
            for scale in (J, 1.0):
                out = tmp_path / f"{theta}-{scale}"
                assert cli.run(cli.validate({
                    "command": "amplify", "J": str(scale), "theta": theta,
                    "delta_steps": "40", "n_cells": "4", "out": str(out)})) == 0
                read.append((out / "amplification_scan.csv").read_text()
                            .splitlines())
            for got, ref in zip(*read, strict=True):
                assert got.split(",")[:3] == ref.split(",")[:3]  # delta, delta0, nu

    def test_imag_phases(self):
        delta0 = topology.transition_delta(0.4)
        for d in (-0.5, -0.2):
            lab = imag_label(derive_couplings(d, 0.4))
            assert lab.tag is Phase.TRIVIAL
            assert abs(lab.nu - 0.0) < 1e-6
        for d in (-0.05, 0.5):
            lab = imag_label(derive_couplings(d, 0.4))
            assert lab.tag is Phase.NONTRIVIAL
            assert abs(lab.nu - 1.0) < 1e-6
        lab = imag_label(derive_couplings(delta0 + 1e-8, 0.4))
        assert lab.tag is Phase.CRITICAL


def _near_ep_grid(c, half_width=1e-3, n_fine=2001):
    """The default grid plus fine clusters around +-k* of the single EP."""
    k_star = ep_nssh1(c)[1]
    fine = np.linspace(-half_width, half_width, n_fine)
    extra = np.concatenate([k_star + fine, -k_star + fine])
    extra = (extra + np.pi) % (2 * np.pi) - np.pi
    return np.unique(np.concatenate([topology.default_bz_grid(), extra]))


class TestArrayWinding:
    """classify_phases winds the nSSH1 bloch on the whole grid at once."""

    @staticmethod
    def _per_k(c, grid):
        return topology.winding_pair(lambda k: model.bloch(k, c, Regime.IMAGINARY),
                                     grid)

    @pytest.mark.parametrize("theta", [0.0, 0.4, 2.0])
    def test_matches_per_momentum_winding(self, theta):
        delta0 = topology.transition_delta(theta)
        for delta in (-0.9, delta0 - 1e-5, delta0 + 1e-5, 0.5):
            c = derive_couplings(delta, theta)
            # the clustered grid resolves |delta - delta0| = 1e-5 at every theta
            grid = _near_ep_grid(c)
            ref = self._per_k(c, grid)
            lab = imag_label(c, grid)
            assert lab.winding == ref
            assert lab.nu == ref.nu
            assert lab.tag is (Phase.NONTRIVIAL if delta > delta0 else Phase.TRIVIAL)
            # on the default grid both paths agree, resolved or not
            grid = topology.default_bz_grid()
            try:
                ref = self._per_k(c, grid)
            except ResolutionError:
                with pytest.raises(ResolutionError, match="grid too coarse"):
                    imag_label(c, grid)
            else:
                assert imag_label(c, grid).winding == ref

    @pytest.mark.parametrize("theta, n", [(0.0, 401), (0.4, 2001), (2.0, 2001)])
    def test_coarse_grid_near_ep_raises(self, theta, n):
        delta0 = topology.transition_delta(theta)
        c = derive_couplings(delta0 + 1e-5, theta)
        with pytest.raises(ResolutionError, match="grid too coarse"):
            imag_label(c, topology.default_bz_grid(n))

    def test_grid_size_checked(self):
        c = derive_couplings(0.5, 0.4)
        grid = np.linspace(-np.pi, np.pi, 400, endpoint=False)
        with pytest.raises(DomainError):
            imag_label(c, grid)
        with pytest.raises(DomainError):
            self._per_k(c, grid)


class TestBatchedWinding:
    """classify_phases winds DELTA_BLOCK deltas at a time."""

    @pytest.mark.parametrize("theta", [0.0, 0.4])
    def test_matches_one_delta_at_a_time(self, theta):
        delta0 = topology.transition_delta(theta)
        # three blocks, the last partial, with a delta at the transition
        deltas = np.append(np.linspace(-0.9, 0.9, 2 * topology.DELTA_BLOCK + 5),
                           delta0 + 1e-8)
        grid = topology.default_bz_grid(801)
        labels = topology.classify_phases(theta, deltas, Regime.IMAGINARY, grid)
        assert labels == [imag_label(derive_couplings(d, theta), grid)
                          for d in deltas]
        assert labels[-1].tag is Phase.CRITICAL and labels[-1].winding is None
        for d, lab in zip(deltas[::9], labels[::9]):
            c = derive_couplings(d, theta)
            assert lab.winding == topology.winding_pair(
                lambda k: model.bloch(k, c, Regime.IMAGINARY), grid)

    def test_error_names_first_failing_delta(self):
        delta0 = topology.transition_delta(0.4)
        for first, second in ((delta0 + 1e-5, delta0 - 1e-5),
                              (delta0 - 1e-5, delta0 + 1e-5)):
            with pytest.raises(ResolutionError,
                               match=re.escape(f"at delta={first};")):
                topology.classify_phases(0.4, [0.5, first, second],
                                         Regime.IMAGINARY)

    def test_empty_and_all_critical(self):
        delta0 = topology.transition_delta(0.4)
        assert topology.classify_phases(0.4, [], Regime.IMAGINARY) == []
        labels = topology.classify_phases(0.4, [delta0], Regime.IMAGINARY)
        assert [lab.tag for lab in labels] == [Phase.CRITICAL]


def reference_merged(c, grid, regime):
    """parametric_energy_loops' merged flag with its former stop rule: 80
    halvings of each bracket in place of a 1e-12 width."""
    def energy(k, c):
        return model.energy(k, c, regime)
    e = energy(grid, c)
    dd = np.append(e**2, e[0] ** 2)
    kk = np.append(grid, grid[0] + 2 * np.pi)
    for i in np.nonzero(np.diff(np.sign(dd.imag)) != 0)[0]:
        a, b = kk[i], kk[i + 1]
        fa = complex(energy(a, c)) ** 2
        for _ in range(80):
            m = 0.5 * (a + b)
            fm = complex(energy(m, c)) ** 2
            if fa.imag * fm.imag <= 0:
                b = m
            else:
                a, fa = m, fm
        z = complex(energy(0.5 * (a + b), c)) ** 2
        if abs(z.imag) < 1e-8 and z.real < -1e-12:
            return True
    return False


class TestEnergyLoops:
    @pytest.mark.parametrize("regime", list(Regime), ids=["nssh2", "nssh1"])
    def test_merged_matches_fixed_halvings(self, regime):
        grid = topology.default_bz_grid()
        flags = []
        for th in (0.0, 0.4, 1.0, 2.0):
            for d in np.linspace(-0.95, 0.95, 39):
                c = derive_couplings(d, th)
                merged = topology.parametric_energy_loops(c, grid, regime)[2]
                assert merged == reference_merged(c, grid, regime), (d, th)
                flags.append(merged)
        assert any(flags) and not all(flags)

    @pytest.mark.parametrize("regime", list(Regime), ids=["nssh2", "nssh1"])
    def test_merged_independent_of_J(self, tmp_path, regime):
        # the loops are built at J = 1: a winding at any J writes their merged
        # flag
        for d in (-0.15, -0.1, 0.05, 0.5):
            flags = []
            for J in (1.0, 1e-150, 1e-30, 1e3, 1e6, 1e150):
                out = tmp_path / f"{d}-{J}"
                assert cli.run(cli.validate({
                    "command": "winding", "regime": regime.value, "J": str(J),
                    "delta": str(d), "out": str(out)})) == 0
                files = json.loads((out / "manifest.json").read_text())["files"]
                flags.append(files[-1]["merged"])
            assert flags == flags[:1] * len(flags), d
            if regime is Regime.REAL and d in (-0.15, -0.1):
                assert flags[0]  # inside the Moebius window at theta = 0.4

    def test_moebius_merged_loop(self):
        # band exchange in the Moebius phase: the two traces form one loop
        c = derive_couplings(-0.1, 0.4)
        ep, em, merged = topology.parametric_energy_loops(c)
        assert merged
        assert np.allclose(em, -ep)

    def test_disjoint_loops_outside_moebius(self):
        for d in (-0.9, 0.9):
            c = derive_couplings(d, 0.4)
            _, _, merged = topology.parametric_energy_loops(c)
            assert not merged

    def test_hermitian_loops_real(self):
        c = derive_couplings(0.5, 0.0)
        ep, em, merged = topology.parametric_energy_loops(c)
        assert np.abs(ep.imag).max() < 1e-12
        assert not merged

    @pytest.mark.parametrize("fn, which", [
        pytest.param(fn, which, id=which if fn == "loops" else f"{fn}-{which}")
        for fn in ("loops", "two_band", "bloch", "energy")
        for which in ("bogus", "NSSH2", "", "nssh2", "real", None)])
    def test_unknown_model_rejected(self, fn, which):
        c = derive_couplings(0.5, 0.4)
        with pytest.raises(DomainError, match="nssh2 or nssh1"):
            if fn == "loops":
                topology.parametric_energy_loops(c, regime=which)
            else:
                getattr(model, fn)(0.3, c, which)

    def test_nssh1_branch(self):
        c = derive_couplings(0.5, 0.4)
        ep, _, _ = topology.parametric_energy_loops(c, regime=Regime.IMAGINARY)
        grid = topology.default_bz_grid()
        assert np.abs(ep - model.energy(grid, c, Regime.IMAGINARY)).max() < 1e-14


def reference_wrap(a):
    """topology._wrap as it was: the remainder taken at every element."""
    np.negative(a, out=a)
    a += np.pi
    np.remainder(a, 2 * np.pi, out=a)
    a -= np.pi
    return np.negative(a, out=a)


class TestHelpers:
    def test_wrap_matches_remainder_everywhere(self):
        pi = np.pi
        edges = np.array([pi, 2 * pi, 3 * pi, 0.0, 1e-20, 5e-324, 1e300, np.inf,
                          np.nextafter(pi, 0), np.nextafter(pi, 4),
                          np.nextafter(2 * pi, 0), np.nextafter(2 * pi, 7)])
        a = np.concatenate([edges, -edges, [np.nan],
                            np.random.default_rng(5).uniform(-50, 50, 10000)])
        with np.errstate(invalid="ignore"):  # inf has no remainder
            expected = reference_wrap(a.copy())
            got = topology._wrap(a.copy())
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_wrap_overwrites_its_argument(self):
        a = np.array([-7.0, -np.pi, -1.0, 0.0, -0.0, 1.0, np.pi, 3 * np.pi, 10.0])
        expected = -((-a + np.pi) % (2 * np.pi) - np.pi)  # the textbook form
        out = topology._wrap(a)
        assert out is a
        assert np.array_equal(out.view(np.int64), expected.view(np.int64))
        assert np.all((out > -np.pi) & (out <= np.pi))
        assert out[1] == np.pi and out[6] == np.pi  # -pi maps to +pi

    @pytest.mark.parametrize("f, root", [
        (lambda x: x - 0.3, 0.3),
        (lambda x: np.cos(x), np.pi / 2),
        (lambda x: 0.7 - x**3, 0.7 ** (1 / 3)),
    ])
    def test_bisect_brackets_to_width(self, f, root):
        k = topology._bisect(f, 0.0, 2.0)
        assert abs(k - root) < 1e-12
        assert isinstance(k, float)

    def test_bisect_zero_at_left_end(self):
        # f(a) = 0 counts as a sign change: every step keeps the left half
        assert abs(topology._bisect(lambda x: x, 0.0, 1.0)) < 1e-12

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_bisect_sign_test_ignores_scale(self, scale):
        # a product of two values of f would underflow to 0 (a false left
        # step) or overflow; their signs do neither
        def f(x):
            return np.float64(scale) * (x - 0.3)

        assert abs(topology._bisect(f, 0.0, 1.0) - 0.3) < 1e-12
        mid, _ = topology._bisect_all(lambda m, i: f(m), [0.0, 0.2], [1.0, 0.9])
        assert np.abs(mid - 0.3).max() < 1e-12

    def test_bisect_all_matches_scalar(self):
        # brackets of several widths (one already below 1e-12), a zero at a
        # left end, and roots at a midpoint
        fs = [lambda x: x - 0.3, np.cos, lambda x: 0.7 - x**3, lambda x: x,
              lambda x: x - 0.5, lambda x: np.sin(40 * x), lambda x: x - 1.0]
        a = [0.0, 0.0, 0.0, 0.0, 0.0, 0.05, 1.0 - 4e-13]
        b = [2.0, 2.0, 1e-3 + 0.7 ** (1 / 3), 1.0, 1.0, 0.1, 1.0 + 4e-13]
        calls = []

        def f(m, i):
            calls.append(len(i))
            return np.array([fs[j](x) for j, x in zip(i, m)])

        mid, halvings = topology._bisect_all(f, a, b)
        assert mid.tolist() == [topology._bisect(fj, aj, bj)
                                for fj, aj, bj in zip(fs, a, b)]
        assert halvings == sum(calls[1:])
        assert calls[0] == len(fs) and calls[-1] >= 1
        mid, halvings = topology._bisect_all(f, [], [])
        assert mid.size == 0 and halvings == 0
