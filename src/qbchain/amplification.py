"""Imaginary-regime quadrature analysis: susceptibilities and directional gain.

In the imaginary-parameter regime the X and P quadratures decouple and evolve
under real generators h_x, h_p.  The static susceptibilities chi = h^-1
reveal sublattice-dependent chiral amplification: the A/C sublattices are
amplified towards the left of the chain and B/D towards the right, but only
in the topologically non-trivial phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, SingularityError
from .model import CouplingSet, quadrature_dynamical
from .topology import classify_phase_imag, ep_nssh1

__all__ = [
    "SusceptibilityReport",
    "GainProfile",
    "susceptibility",
    "closed_form_theta0",
    "gain_metrics",
    "amplification_phase_scan",
    "nambu_to_quadrature",
]

DIRECTION_GAIN_THRESHOLD = 1.02


@dataclass
class SusceptibilityReport:
    """Inverse quadrature generators with their sublattice sub-matrices.

    AC sub-matrices have rows (1A, 1C, 2A, 2C, ...) and columns
    (1B, 1D, 2B, 2D, ...); BD sub-matrices the reverse pairing.
    ``residual`` is max|chi h - I| / max(1, max|chi|), the larger of the
    two generators' values; ``susceptibility`` rejects any above 1e-10.
    """

    chi_x: np.ndarray
    chi_p: np.ndarray
    chi_ac_x: np.ndarray
    chi_ac_p: np.ndarray
    chi_bd_x: np.ndarray
    chi_bd_p: np.ndarray
    params: CouplingSet
    n_cells: int
    residual: float


@dataclass
class GainProfile:
    direction: str       # "leftward", "rightward" or "none"
    gain_per_cell: float
    end_to_end: float
    sector: str          # "AC" or "BD"
    quadrature: str      # "X" or "P"


def _sector_indices(n_cells: int):
    cells = 4 * np.arange(n_cells)
    ac = np.stack([cells + 0, cells + 2], axis=1).ravel()  # 1A,1C,2A,2C,...
    bd = np.stack([cells + 1, cells + 3], axis=1).ravel()  # 1B,1D,2B,2D,...
    return ac, bd


def _lower_blocks(d, w, n_cells: int) -> np.ndarray:
    """Blocks of the inverse of the block-lower-bidiagonal I(x)d + S(x)w.

    d is diagonal, so the inverse is block-lower Toeplitz: block (i, j) is
    B_(i-j), with B_0 = d^-1 and B_m = (-d^-1 w) B_(m-1).  Returns
    B_0 .. B_(N-1) and a zero block at index N for the upper triangle.
    """
    step = -w / np.diag(d)[:, None]
    blocks = np.zeros((n_cells + 1, 2, 2))
    blocks[0] = np.diag(1.0 / np.diag(d))
    for m in range(1, n_cells):
        blocks[m] = step @ blocks[m - 1]
    return blocks


def susceptibility(c: CouplingSet, n_cells: int) -> SusceptibilityReport:
    """Static susceptibilities chi_x = h_x^-1 and chi_p = h_p^-1.

    h is bipartite: its AC x AC and BD x BD blocks vanish, h[ac, bd] = X is
    block-lower bidiagonal, X = I(x)D + S(x)W with D = diag(v, -v) and
    W = [[w+, +-w-], [+-w-, -w+]], and h[bd, ac] = Y is its upper-shift
    analogue.  So chi_bd = X^-1 and chi_ac = Y^-1 in closed form: a Neumann
    series in -D^-1 W = -(v_crit/v) R(phi), a scaled rotation whose gain per
    cell v_crit/|v| exceeds 1 exactly when delta > delta0.
    """
    if c.v == 0.0:
        # X = S(x)W is then strictly block-lower: h is exactly singular
        raise SingularityError(
            f"quadrature generators singular at v = 0 (delta={c.delta}): "
            f"no intracell coupling"
        )
    hx, hp = quadrature_dynamical(c, n_cells)
    _, _, delta0 = ep_nssh1(c)
    if abs(c.delta - delta0) < 1e-8:
        raise SingularityError(
            f"quadrature generators singular at the transition: delta={c.delta} "
            f"within 1e-8 of delta0={delta0:.8f}"
        )
    ac, bd = _sector_indices(n_cells)
    # one gather index into the blocks: block distance (the zero block N
    # above the diagonal) and sublattice pair of each 2N x 2N entry
    cell = np.repeat(np.arange(n_cells), 2)
    dist = cell[:, None] - cell[None, :]
    sub = np.arange(2 * n_cells) % 2
    idx = (np.where(dist >= 0, dist, n_cells), sub[:, None], sub[None, :])
    wp = 0.5 * (c.w_r + c.w_l)
    wm = 0.5 * (c.w_l - c.w_r)
    dx = np.diag([c.v, -c.v])  # diagonal block of X; Y's is -dx
    n = 4 * n_cells
    eye = np.eye(n)
    out = []
    worst_res = 0.0
    for h, s in ((hx, 1.0), (hp, -1.0)):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            chi_bd = _lower_blocks(
                dx, np.array([[wp, s * wm], [s * wm, -wp]]), n_cells)[idx]
            # Y^T = I(x)(-dx) + S(x)W', so Y^-1 is a transposed lower inverse
            chi_ac = _lower_blocks(
                -dx, np.array([[-wp, s * wm], [s * wm, wp]]), n_cells)[idx].T
            chi = np.zeros((n, n))
            chi[np.ix_(bd, ac)] = chi_bd
            chi[np.ix_(ac, bd)] = chi_ac
            if not np.isfinite(chi).all():
                raise SingularityError(
                    f"susceptibility overflows double precision at "
                    f"n_cells={n_cells}, delta={c.delta}: |chi| grows "
                    f"geometrically with n_cells"
                )
            # the residual floor scales with |chi| for strongly amplifying
            # parameters; quality is judged relative to that scale
            scale = max(1.0, np.abs(chi).max())
            res = np.abs(chi @ h - eye).max()
        if not np.isfinite(res) or res > 1e-10 * scale:
            raise SingularityError(
                f"inverse residual {res:.3e} too large at delta={c.delta} "
                f"(transition at delta0={delta0:.6f})"
            )
        worst_res = max(worst_res, float(res / scale))
        out.append((chi, chi_ac, chi_bd))
    (chi_x, chi_ac_x, chi_bd_x), (chi_p, chi_ac_p, chi_bd_p) = out
    return SusceptibilityReport(
        chi_x=chi_x,
        chi_p=chi_p,
        chi_ac_x=chi_ac_x,
        chi_ac_p=chi_ac_p,
        chi_bd_x=chi_bd_x,
        chi_bd_p=chi_bd_p,
        params=c,
        n_cells=n_cells,
        residual=worst_res,
    )


def closed_form_theta0(c: CouplingSet, n_cells: int):
    """Analytic |chi_ac|, |chi_bd| in the symmetric limit w_r = w_l = w.

    |chi_ac| is block-upper-triangular with entry G0^m / v at block distance
    m = (column cell - row cell) >= 0, G0 = w/v; |chi_bd| is the transposed
    pattern.
    """
    if c.theta != 0.0:
        raise DomainError(f"closed form requires theta=0, got theta={c.theta}")
    if c.v == 0.0:
        raise DomainError("closed form undefined at v=0")
    g0 = c.w_r / c.v
    n = 2 * n_cells
    ac = np.zeros((n, n))
    for i in range(n_cells):
        for j in range(i, n_cells):
            val = abs(g0 ** (j - i) / c.v)
            ac[2 * i, 2 * j] = val
            ac[2 * i + 1, 2 * j + 1] = val
    return ac, ac.T.copy()


def gain_metrics(rep: SusceptibilityReport):
    """Directional gain per sector and quadrature from |chi| sub-matrices.

    The dominant triangle (upper = leftward for AC, lower = rightward for
    BD) sets the direction; the gain per cell is the least-squares slope of
    mean log-magnitude against block distance.
    """
    out = []
    subs = [
        ("AC", "X", rep.chi_ac_x),
        ("AC", "P", rep.chi_ac_p),
        ("BD", "X", rep.chi_bd_x),
        ("BD", "P", rep.chi_bd_p),
    ]
    n_cells = rep.n_cells
    # block distance between the column cell and the row cell
    cell_r = np.repeat(np.arange(n_cells), 2)
    dist = cell_r[None, :] - cell_r[:, None]  # cols minus rows
    far = np.abs(dist) == n_cells - 1
    for sector, quad, sub in subs:
        mag = np.abs(sub)
        upper = mag[dist > 0]
        lower = mag[dist < 0]
        # chi[r, c] is the response at cell r to a drive at cell c: a
        # dominant upper triangle (c > r) propagates signals leftward
        if upper.max(initial=0.0) >= lower.max(initial=0.0):
            tri_sign, direction = 1, "leftward"
        else:
            tri_sign, direction = -1, "rightward"
        # mean log-magnitude at each distance m >= 1 into that triangle
        m = tri_sign * dist
        keep = (m > 0) & (mag > 1e-13)
        counts = np.bincount(m[keep], minlength=n_cells)
        xs = np.flatnonzero(counts)
        ys = np.bincount(m[keep], weights=np.log(mag[keep]),
                         minlength=n_cells)[xs] / counts[xs]
        if len(xs) >= 2:
            slope = np.polyfit(xs, ys, 1)[0]
            gain = float(np.exp(slope))
        else:
            gain = 0.0
        if gain <= DIRECTION_GAIN_THRESHOLD:
            direction = "none"
        out.append(GainProfile(direction=direction, gain_per_cell=gain,
                               end_to_end=float(mag[far].max(initial=0.0)),
                               sector=sector, quadrature=quad))
    return out


def amplification_phase_scan(J: float, theta: float, delta_grid, n_cells: int):
    """Gain/topology table over a delta grid (imaginary regime).

    Rows: (delta, delta0, nu, {(sector, quadrature): end_to_end}).  Points
    too close to the transition are rejected up front.
    """
    from .model import derive_couplings

    rows = []
    deltas = np.asarray(delta_grid, dtype=float)
    _, _, delta0 = ep_nssh1(derive_couplings(J, 0.0, theta))
    if np.abs(deltas - delta0).min() < 1e-4:
        raise DomainError(
            f"delta grid must exclude |delta - delta0| < 1e-4 (delta0={delta0:.6f})"
        )
    for d in deltas:
        c = derive_couplings(J, d, theta)
        label = classify_phase_imag(c)
        try:
            rep = susceptibility(c, n_cells)
        except SingularityError as exc:
            raise SingularityError(f"delta={d}: {exc}") from exc
        gains = {(g.sector, g.quadrature): g.end_to_end
                 for g in gain_metrics(rep)}
        rows.append((float(d), float(delta0), label.nu, gains))
    return rows


def nambu_to_quadrature(G_nambu: np.ndarray) -> np.ndarray:
    """Rotate a Nambu-basis dynamical matrix to the quadrature basis.

    Heisenberg evolution d/dt (a, a^dag) = -i G (a, a^dag) becomes
    d/dt (X, P) = M (X, P) with M = -i T G T^dag, T = (1/sqrt 2)
    [[I, I], [-iI, iI]].  In the imaginary regime M is real and block
    diagonal, the blocks being the quadrature generators.
    """
    G = np.asarray(G_nambu, dtype=complex)
    if G.ndim != 2 or G.shape[0] != G.shape[1] or G.shape[0] % 2:
        raise DomainError(f"expected an even-dimensional square matrix, got {G.shape}")
    n = G.shape[0] // 2
    eye = np.eye(n)
    T = np.block([[eye, eye], [-1j * eye, 1j * eye]]) / np.sqrt(2)
    return -1j * (T @ G @ T.conj().T)
