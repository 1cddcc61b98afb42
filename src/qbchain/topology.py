"""Bloch-vector geometry, exceptional points, winding numbers, phase labels."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import (DomainError, DoubleOverflowError, ResolutionError,
                         SingularityError)
from .model import (_SQUARE_SAFE, PBC, BlochVector, CouplingSet, Regime, _is_real,
                    bloch, derive_couplings, energy)

__all__ = [
    "Phase",
    "PhaseLabel",
    "WindingResult",
    "default_bz_grid",
    "ep_locations_nssh2",
    "winding_pair",
    "winding_integral",
    "transition_delta",
    "classify_phases",
    "parametric_energy_loops",
]

CRITICAL_BAND = 1e-6
#: deltas per block of ``classify_phases``' (delta, k) arrays
DELTA_BLOCK = 32


class Phase(enum.Enum):
    TRIVIAL = "trivial"        # nu = 0
    MOEBIUS = "moebius"        # nu = 1/2 (real regime only)
    NONTRIVIAL = "nontrivial"  # nu = 1
    CRITICAL = "critical"      # at a phase boundary, invariant undefined


@dataclass(frozen=True)
class PhaseLabel:
    tag: Phase
    boundaries: tuple  # delta thresholds used for classification
    nu: float | None = None
    winding: WindingResult | None = None  # the numerical winding, where computed

    def check(self, nu: float, delta: float) -> None:
        """A ResolutionError where a winding nu lies 1/4 or more from this
        closed-form label's nu at ``delta``: the two statements of the phase
        disagree.  Both regimes' phase diagrams are checked by this rule."""
        if not abs(nu - self.nu) < 0.25:
            raise ResolutionError(
                f"winding nu={nu:.4f} disagrees with the {self.tag.value} label "
                f"of the boundaries {self.boundaries} at delta={delta}")


@dataclass(frozen=True)
class WindingResult:
    nu1: float
    nu2: float
    nu: float
    grid_size: int
    imag_residual: float


def default_bz_grid(n_points: int = 2001) -> np.ndarray:
    """Uniform Brillouin-zone grid on [-pi, pi), endpoint excluded."""
    # a negative count gives an empty grid, which _loop_grid rejects
    return _loop_grid(np.linspace(-np.pi, np.pi, max(n_points, 0), endpoint=False))


def _loop_grid(grid) -> np.ndarray:
    """``grid`` as a float array, checked to sample the Brillouin zone as a
    closed loop: a PBC grid of >= 401 points whose closing step
    k[0] + 2 pi - k[-1] is no wider than its widest interior step."""
    k = PBC(grid).k_grid
    if k.size < 401:
        raise DomainError(f"winding grids need >= 401 points, got {k.size}")
    if k[0] + 2 * np.pi - k[-1] > np.diff(k).max() + 1e-12:
        raise DomainError("momentum grid does not close a loop over the Brillouin "
                          "zone: its closing step is wider than every other step")
    return k


def ep_locations_nssh2(c: CouplingSet):
    """The two fixed exceptional points in the (d_x^r, d_y^r) plane.

    Returns (EP1, EP2, degenerate) where degenerate flags the Hermitian
    theta=0 limit in which both collapse to the origin.
    """
    wm = 0.5 * (c.w_l - c.w_r)
    ep1 = np.array([wm, 0.0])
    ep2 = -ep1
    return ep1, ep2, bool(c.theta == 0.0)


def _wrap(a: np.ndarray) -> np.ndarray:
    """Map angles to (-pi, pi] in place: overwrites the float array a, returns it.

    -(((-a + pi) mod 2 pi) - pi).  The remainder runs only where -a + pi
    lies outside [0, 2 pi): inside, it returns its argument unchanged (and
    -a + pi is never -0.0), so the bits are those of the remainder taken
    everywhere.
    """
    np.negative(a, out=a)
    a += np.pi
    np.remainder(a, 2 * np.pi, out=a, where=(a < 0) | (a >= 2 * np.pi))
    a -= np.pi
    return np.negative(a, out=a)


def _bisect(f, a: float, b: float) -> float:
    """Midpoint of f's scalar sign-change bracket [a, b], halved to width 1e-12:
    the tests' reference for ``_bisect_all`` and ``quench.critical_set``."""
    fa = f(a)
    while b - a > 1e-12:
        m = 0.5 * (a + b)
        fm = f(m)
        if np.sign(fa) * np.sign(fm) <= 0:  # a product of f's could over/underflow
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _bisect_all(f, a, b):
    """``_bisect`` on every bracket [a[i], b[i]] at once: (midpoints, halvings).

    f(m, i) returns f_i at the midpoints m of the brackets i still open (index
    arrays; i = all brackets for the left ends).  Each bracket takes the same
    halvings as ``_bisect(f_i, a[i], b[i])``, so it ends at the same midpoint
    wherever f(m, i) has the sign of the scalar f_i(m).  ``halvings`` counts
    the f_i evaluations at midpoints over all brackets.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    if not a.size:
        return a, 0
    fa = f(a, np.arange(a.size))
    halvings = 0
    open_ = np.nonzero(b - a > 1e-12)[0]
    while open_.size:
        m = 0.5 * (a[open_] + b[open_])
        fm = f(m, open_)
        left = np.sign(fa[open_]) * np.sign(fm) <= 0
        b[open_[left]] = m[left]
        right = ~left
        a[open_[right]] = m[right]
        fa[open_[right]] = fm[right]
        halvings += open_.size
        open_ = open_[b[open_] - a[open_] > 1e-12]
    return 0.5 * (a + b), halvings


def _phi_angles(bloch: BlochVector):
    """The two shifted angles phi_1, phi_2 (atan2 arguments as (y, x) pairs)."""
    dxr, dyr = bloch.dr
    dxi, dyi = bloch.di
    phi1 = np.arctan2(dyr + dxi, dxr - dyi)
    phi2 = np.arctan2(dyr - dxi, dxr + dyi)
    return phi1, phi2


def _windings(phi1: np.ndarray, phi2: np.ndarray, deltas=None) -> list:
    """Winding numbers (nu1, nu2, nu) of each row of two (rows, k) angle arrays.

    Each row is sampled on a closed momentum loop (see :func:`_loop_grid`).
    Each consecutive wrapped increment, the closing one included, must stay
    within pi/2; larger jumps mean the grid cannot distinguish a fast
    winding from an aliased one near an EP.  The error names the first such
    row, by its entry of ``deltas`` where given.
    """
    incs = [_wrap(np.diff(phi, axis=-1, append=phi[:, :1]))  # with closure step
            for phi in (phi1, phi2)]
    coarse = (np.abs(incs[0]).max(axis=-1) > np.pi / 2) | (
        np.abs(incs[1]).max(axis=-1) > np.pi / 2)
    if coarse.any():
        where = "" if deltas is None else f" at delta={deltas[np.argmax(coarse)]}"
        raise ResolutionError(
            f"wrapped angle increment exceeds pi/2{where}; grid too coarse near "
            "an exceptional point"
        )
    total = np.stack([inc.sum(axis=-1) for inc in incs]) / (2 * np.pi)
    # the closed-loop integral of each phase derivative has no imaginary part;
    # report how far each winding sits from the nearest quantized value
    residual = np.abs(total - np.rint(total)).max(axis=0)
    nu = 0.5 * (total[0] + total[1])
    return [WindingResult(nu1=float(a), nu2=float(b), nu=float(n),
                          grid_size=int(phi1.shape[-1]), imag_residual=float(r))
            for a, b, n, r in zip(total[0], total[1], nu, residual)]


def winding_pair(d_provider, grid: np.ndarray) -> WindingResult:
    """Winding numbers (nu1, nu2, nu) via wrapped angle increments over the BZ.

    ``d_provider`` maps one momentum -> BlochVector; see :func:`_windings`
    for the resolution rule.
    """
    grid = _loop_grid(grid)
    phi1 = np.empty(grid.size)
    phi2 = np.empty(grid.size)
    for i, k in enumerate(grid):
        phi1[i], phi2[i] = _phi_angles(d_provider(k))
    return _windings(phi1[None], phi2[None])[0]


def winding_integral(d_provider, grid: np.ndarray) -> complex:
    """Closed-loop winding integral with the full complex Bloch vector.

    nu = (1/2 pi) oint dk (d_x d_k d_y - d_y d_k d_x) / (d_x^2 + d_y^2);
    the real part is the invariant, the imaginary part a residual that must
    vanish over the closed loop.  Derivatives are spectral (the components
    are trigonometric polynomials), the quadrature is the periodic trapezoid
    rule, so the grid must be uniform over [-pi, pi).  A DoubleOverflowError
    where a product of two components could leave the double range.
    """
    grid = _loop_grid(grid)
    n = grid.size
    steps = np.diff(grid)
    if np.abs(steps - steps[0]).max() > 1e-10:
        raise DomainError("winding_integral requires a uniform momentum grid")
    dx = np.empty(n, dtype=complex)
    dy = np.empty(n, dtype=complex)
    for i, k in enumerate(grid):
        b = d_provider(k)
        dx[i], dy[i] = b.dx, b.dy
    m = np.fft.fftfreq(n, d=1.0 / n)  # integer mode numbers
    if n % 2 == 0:
        m[n // 2] = 0.0  # drop the unpaired Nyquist mode
    ddx = np.fft.ifft(1j * m * np.fft.fft(dx))
    ddy = np.fft.ifft(1j * m * np.fft.fft(dy))
    big = max(np.abs(z).max() for z in (dx, dy, ddx, ddy))
    if not big <= _SQUARE_SAFE:
        raise DoubleOverflowError(
            f"Bloch vector components up to {big:.3g} square outside the "
            f"double range")
    denom = dx**2 + dy**2
    # d.d is a component squared: the threshold scales with the largest one's
    if not np.abs(denom).min() > 1e-12 * big**2:
        raise SingularityError(
            "d_x^2 + d_y^2 vanishes on the grid: parameters at/near an "
            "exceptional point"
        )
    integrand = (dx * ddy - dy * ddx) / denom
    return complex(integrand.mean())


def transition_delta(theta: float) -> float:
    """delta0, where the single-EP block changes phase at ``theta``:
    (1 - s) / (1 + s) with s = sqrt((1 + e^(2 theta)) / 2)."""
    # past 2 theta = 700, s > 1e152 and delta0 rounds to -1 either way: the
    # cap keeps e^(2 theta) finite
    s = np.sqrt(0.5 * (1.0 + np.exp(min(2.0 * theta, 700.0))))
    return float((1.0 - s) / (1.0 + s))


#: per regime, the closed-form delta boundaries at couplings of theta
#: (in any order: the real pair descends for theta < 0), and the (tag, nu)
#: of the interval below each sorted boundary, then above the last
_PHASES = {
    Regime.REAL: (lambda c: ((1.0 - np.exp(c.theta)) / (1.0 + np.exp(c.theta)), 0.0),
                  ((Phase.TRIVIAL, 0.0), (Phase.MOEBIUS, 0.5),
                   (Phase.NONTRIVIAL, 1.0))),
    Regime.IMAGINARY: (lambda c: (transition_delta(c.theta),),
                       ((Phase.TRIVIAL, 0.0), (Phase.NONTRIVIAL, 1.0))),
}


def classify_phases(theta: float, deltas, regime: Regime,
                    grid: np.ndarray | None = None) -> list:
    """Phase labels of the regime's chain at each delta, theta fixed.

    Tags come from ``_PHASES``; a delta within CRITICAL_BAND of a boundary
    is CRITICAL, with no nu.  Real-regime labels are threshold-only.  In the
    imaginary regime a CouplingSet holding a column of deltas broadcasts
    through the nSSH1 ``bloch``, DELTA_BLOCK deltas at a time, and each
    (delta, k) row is wound by ``_windings`` on the closed loop ``grid``
    (the default Brillouin-zone grid if None); the label carries that
    winding and its nu, cross-checked against the closed-form tag by
    ``PhaseLabel.check``.  An error names the first delta of its block that
    fails.
    """
    grid = default_bz_grid() if grid is None else _loop_grid(grid)
    deltas = np.asarray(deltas, dtype=float)
    _is_real(regime)  # a DomainError for anything but a Regime
    bounds, intervals = _PHASES[regime]
    boundaries = tuple(sorted(float(b)
                              for b in bounds(derive_couplings(0.0, theta))))
    labels = []
    for start in range(0, deltas.size, DELTA_BLOCK):
        block = deltas[start:start + DELTA_BLOCK]
        critical = np.abs(block[:, None] - boundaries).min(axis=1) < CRITICAL_BAND
        wound = block[~critical]
        results = iter([])
        if regime is Regime.IMAGINARY and wound.size:
            rows = CouplingSet(delta=wound[:, None], theta=float(theta))
            results = iter(_windings(*_phi_angles(bloch(grid, rows, regime)), wound))
        for d, at_critical in zip(block.tolist(), critical):
            if at_critical:
                labels.append(PhaseLabel(tag=Phase.CRITICAL, boundaries=boundaries))
                continue
            tag, nu = intervals[next((i for i, b in enumerate(boundaries) if d < b),
                                     len(boundaries))]
            label = PhaseLabel(tag=tag, boundaries=boundaries, nu=nu)
            res = next(results, None)  # None in the real regime
            if res is not None:
                label.check(res.nu, d)
                label = PhaseLabel(tag=tag, boundaries=boundaries, nu=res.nu,
                                   winding=res)
            labels.append(label)
    return labels


def parametric_energy_loops(c: CouplingSet, grid: np.ndarray | None = None,
                            regime: Regime = Regime.REAL):
    """Complex-energy traces of the +/- bands of the regime's two-band block
    (nSSH2 real, nSSH1 imaginary) over the closed loop ``grid``.

    Returns (E_plus, E_minus, merged) where merged reports whether the two
    loops share a point within 1e-8 of E^2 (single bigger loop).
    """
    grid = default_bz_grid() if grid is None else _loop_grid(grid)
    e = np.asarray(energy(grid, c, regime), dtype=complex)
    e_plus, e_minus = e, -e
    # the two loops share a point exactly where E^2 = d.d crosses the
    # negative real axis: there E = i sqrt(|d.d|) and the conjugation
    # symmetry d.d(-k) = conj(d.d(k)) puts -E on the same band's trace;
    # scan for sign changes of Im(d.d) and refine the crossing by bisection
    dd = np.append(e**2, e[0] ** 2)
    kk = np.append(grid, grid[0] + 2 * np.pi)
    i = np.nonzero(np.diff(np.sign(dd.imag)) != 0)[0]
    ks, _ = _bisect_all(lambda m, _: (energy(m, c, regime) ** 2).imag, kk[i], kk[i + 1])
    z = energy(ks, c, regime) ** 2
    merged = ((np.abs(z.imag) < 1e-8) & (z.real < -1e-12)).any()
    return e_plus, e_minus, bool(merged)
