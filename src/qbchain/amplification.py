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

from .exceptions import DomainError, DoubleOverflowError, SingularityError
from .model import CouplingSet, Regime, derive_couplings, quadrature_cells
from .topology import DELTA_BLOCK, classify_phases, transition_delta

__all__ = [
    "SusceptibilityReport",
    "GainProfile",
    "PhaseScan",
    "sector_labels",
    "lay_out",
    "susceptibility",
    "closed_form_theta0",
    "gain_metrics",
    "amplification_phase_scan",
    "nambu_to_quadrature",
]

DIRECTION_GAIN_THRESHOLD = 1.02


@dataclass
class SusceptibilityReport:
    """The susceptibilities chi = h^-1 of both quadratures, as Neumann blocks.

    ``blocks`` is the checked stack of ``_neumann_blocks``, shape
    (4, N + 1, 2, 2) in PAIRS order, block N the zero block; ``lay_out``
    lays a pair's stack out as its 2N x 2N sub-matrix of chi, with rows and
    columns on the sublattices of the two sectors of
    ``SECTOR_AXES[sector]``; the AC x AC and BD x BD parts of chi are zero.
    ``residual`` is max|chi h - I| / max(1, max|chi|), the larger of the two
    generators' values; ``susceptibility`` rejects any above 1e-10.
    """

    blocks: np.ndarray
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


#: the sectors on the rows and on the columns of each sector's sub-matrices
SECTOR_AXES = {"AC": ("AC", "BD"), "BD": ("BD", "AC")}


def _sector_indices(n_cells: int):
    """chi's indices of each sector's sublattices, in SECTOR_AXES order."""
    cells = 4 * np.arange(n_cells)
    ac = np.stack([cells + 0, cells + 2], axis=1).ravel()  # 1A,1C,2A,2C,...
    bd = np.stack([cells + 1, cells + 3], axis=1).ravel()  # 1B,1D,2B,2D,...
    return ac, bd


def sector_labels(sector: str, n_cells: int) -> np.ndarray:
    """Cell-sublattice labels ("1A", "1C", "2A", ...), as bytes, of
    ``sector``'s indices in ``_sector_indices``."""
    idx = dict(zip(SECTOR_AXES, _sector_indices(n_cells)))[sector]
    return np.array([f"{i // 4 + 1}{'ABCD'[i % 4]}" for i in idx], dtype="S")


#: (sector, quadrature) of each Neumann stack, gain and scan row
PAIRS = (("AC", "X"), ("AC", "P"), ("BD", "X"), ("BD", "P"))


def _neumann_blocks(theta: float, deltas: list, n_cells: int):
    """Blocks of chi_ac and chi_bd for both quadratures, checked against h.

    h is bipartite (``quadrature_cells``): its AC x AC and BD x BD blocks
    vanish, h[ac, bd] = X is block-lower bidiagonal, X = I(x)D + S(x)W with
    D = diag(v, -v) and W = [[w+, +-w-], [+-w-, -w+]], and h[bd, ac] = Y is
    its upper-shift analogue.  So chi_bd = X^-1 and chi_ac = Y^-1 =
    ((Y^T)^-1)^T, and both X and Y^T are I(x)d + S(x)w with d diagonal:
    their inverses are block-lower Toeplitz, with block B_m = (-d^-1 w)^m
    d^-1 at distance m.
    -D^-1 W = -(v_crit/v) R(phi) is a scaled rotation whose gain per cell
    v_crit/|v| exceeds 1 exactly when delta > delta0.

    h_p is h_x conjugated by G = diag(1, -1) (its w- entries change sign),
    so the recurrence runs for h_x's two stacks only, and each P stack is
    G B_m G, its X stack with the off-diagonal entries negated.

    The recurrence runs for the coupling sets of all ``deltas`` at
    ``theta`` at once.  Returns (blocks, residuals).  blocks has shape
    (len(deltas), 4, N + 1, 2, 2): per coupling set, one stack per entry of
    PAIRS, where chi_bd's block (i, j) is blocks[., BD, i - j] and chi_ac's
    is blocks[., AC, j - i]^T; blocks[., :, N] is the zero block of the
    other triangle.  residuals[i] is max|chi h - I| / max(1, max|chi|) at
    deltas[i], the larger of the two generators' values.  All four stacks
    are checked in O(N) against that coupling set's ``quadrature_cells``, a
    statement of h_x and h_p written apart from the (d, w) tables and the
    gauge below: the block of chi_bd X at distance m is
    B_m X_diag + B_(m-1) X_sub, and that of chi_ac Y is
    A_m^T Y_diag + A_(m-1)^T Y_super.  An error names the first coupling
    set of the earliest failing check.  ``n_cells < 2`` is a DomainError.
    """
    if n_cells < 2:
        raise DomainError(f"need at least 2 unit cells, got {n_cells}")
    cs = [derive_couplings(d, theta) for d in deltas]
    delta0 = transition_delta(theta)
    for c in cs:
        if c.v == 0.0:
            # X = S(x)W is then strictly block-lower: h is exactly singular
            raise SingularityError(
                f"quadrature generators singular at v = 0 (delta={c.delta}): "
                f"no intracell coupling"
            )
        if abs(c.delta - delta0) < 1e-8:
            raise SingularityError(
                f"quadrature generators singular at the transition: "
                f"delta={c.delta} within 1e-8 of delta0={delta0:.8f}"
            )
    v = np.array([c.v for c in cs])[:, None, None]
    wp = np.array([0.5 * (c.w_r + c.w_l) for c in cs])[:, None]
    wm = np.array([0.5 * (c.w_l - c.w_r) for c in cs])[:, None]
    # diagonals of d and the blocks w of h_x's Y^T (AC) and X (BD); written
    # apart from quadrature_cells, so that the residual below compares two
    # statements of h and a wrong block cannot invert itself
    d = v * [[-1.0, 1.0], [1.0, -1.0]]
    w = np.empty((len(cs), 2, 2, 2))
    w[:, :, 0, 0] = wp * [-1.0, 1.0]
    w[:, :, 1, 1] = wp * [1.0, -1.0]
    w[:, :, 0, 1] = w[:, :, 1, 0] = wm
    # per coupling set: sector (AC, BD), quadrature (X, P), block distance
    blocks = np.zeros((len(cs), 2, 2, n_cells + 1, 2, 2))
    x = blocks[:, :, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        step = -w / d[..., None]
        x[:, :, 0, [0, 1], [0, 1]] = 1.0 / d
        for m in range(1, n_cells):
            x[:, :, m] = step @ x[:, :, m - 1]
    finite = np.isfinite(x).reshape(len(cs), -1).all(axis=1)
    if not finite.all():
        c = cs[np.argmin(finite)]
        raise SingularityError(
            f"susceptibility overflows double precision at "
            f"n_cells={n_cells}, delta={c.delta}: |chi| grows geometrically "
            f"with n_cells"
        )
    blocks[:, :, 1] = x * [[1.0, -1.0], [-1.0, 1.0]]  # G B_m G
    blocks = blocks.reshape(len(cs), 4, n_cells + 1, 2, 2)
    # (X_diag, X_sub, Y_diag, Y_super) of each coupling set's h_x and h_p
    bands = np.array([quadrature_cells(c) for c in cs])
    # per coupling set and generator: the blocks A_m^T of chi_ac, which
    # multiply (Y_diag, Y_super), and B_m of chi_bd, which multiply
    # (X_diag, X_sub)
    left = np.stack([blocks[:, :2].swapaxes(-1, -2), blocks[:, 2:]], axis=2)
    prev = np.arange(n_cells) - 1  # index -1 is the zero block N
    with np.errstate(over="ignore", invalid="ignore"):
        r = (left[:, :, :, :n_cells] @ bands[:, :, [2, 0], None]
             + left[:, :, :, prev] @ bands[:, :, [3, 1], None])
        r[:, :, :, 0] -= np.eye(2)
        res = np.abs(r).max(axis=(2, 3, 4, 5))
    # the residual floor scales with |chi| for strongly amplifying
    # parameters; quality is judged relative to that scale
    scale = np.maximum(1.0, np.abs(left).max(axis=(2, 3, 4, 5)))
    bad = ~np.isfinite(res) | (res > 1e-10 * scale)
    if bad.any():
        i, q = np.unravel_index(np.argmax(bad), bad.shape)
        raise SingularityError(
            f"inverse residual {res[i, q]:.3e} too large at delta={cs[i].delta} "
            f"(transition at delta0={delta0:.6f})"
        )
    residuals = (res / scale).max(axis=1)
    return blocks, residuals


def lay_out(stack: np.ndarray, sector: str) -> np.ndarray:
    """``sector``'s 2N x 2N sub-matrix laid out from its Neumann stack.

    ``stack`` has shape (N + 1, 2, 2, ...), one pair's entry of the blocks
    of ``_neumann_blocks``: block m at cell distance m, block N the zero
    block; trailing axes (the bytes of a text, say) are carried along.
    chi_bd's block (i, j) is stack[i - j], zero above the diagonal, and
    chi_ac is the transpose of that layout.
    """
    n_cells = len(stack) - 1
    # block distance (the zero block N above the diagonal) and sublattice
    # pair of each 2N x 2N entry, as one index into the flattened blocks
    cell = np.repeat(np.arange(n_cells), 2)
    dist = cell[:, None] - cell[None, :]
    sub = np.arange(2 * n_cells) % 2
    flat = (np.where(dist >= 0, dist, n_cells) * 2 + sub[:, None]) * 2 + sub
    lower = stack.reshape(-1, *stack.shape[3:])[flat]
    return lower.swapaxes(0, 1) if sector == "AC" else lower


def susceptibility(c: CouplingSet, n_cells: int) -> SusceptibilityReport:
    """Static susceptibilities chi = h^-1 of the X and P quadratures.

    Keeps the checked blocks of ``_neumann_blocks``, from which the sector
    sub-matrices are laid out, with no linear solve and no dense 4N x 4N
    matrix.
    """
    blocks, residuals = _neumann_blocks(c.theta, [c.delta], n_cells)
    return SusceptibilityReport(blocks=blocks[0], params=c, n_cells=n_cells,
                                residual=float(residuals[0]))


def closed_form_theta0(c: CouplingSet, n_cells: int):
    """Analytic |chi_ac|, |chi_bd| in the symmetric limit w_r = w_l = w.

    |chi_ac| is block-upper-triangular with entry G0^m / v at block distance
    m = (column cell - row cell) >= 0, G0 = w/v; |chi_bd| is the transposed
    pattern.  An entry past the double range raises ``DoubleOverflowError``.
    """
    if c.theta != 0.0:
        raise DomainError(f"closed form requires theta=0, got theta={c.theta}")
    if c.v == 0.0:
        raise DomainError("closed form undefined at v=0")
    g0 = c.w_r / c.v
    cell = np.repeat(np.arange(n_cells), 2)
    m = cell[None, :] - cell[:, None]  # column cell minus row cell
    sub = np.arange(2 * n_cells) % 2
    try:
        entry = np.array([abs(g0 ** k / c.v) for k in range(n_cells)])
        finite = np.isfinite(entry).all()
    except OverflowError:  # g0 ** k itself left the double range
        finite = False
    if not finite:
        raise DoubleOverflowError(
            f"|w/v|^m / |v| leaves the double range at n_cells={n_cells} "
            f"(|w/v| = {abs(g0):.6g})")
    ac = np.where((m >= 0) & (sub[:, None] == sub[None, :]),
                  entry[np.maximum(m, 0)], 0.0)
    return ac, ac.T.copy()


def gain_metrics(rep: SusceptibilityReport):
    """Directional gain per sector and quadrature, from the Neumann stack.

    chi[r, c] is the response at cell r to a drive at cell c, so chi_ac,
    block-upper, carries signals leftward and chi_bd, block-lower,
    rightward.  The gain per cell is the least-squares slope of the mean
    log-magnitude of the block at distance m >= 1 against m, over the
    entries that are not rounding noise; end_to_end is max|B_(N-1)|.
    """
    out = []
    dist = np.arange(1, rep.n_cells)
    for (sector, quad), stack in zip(PAIRS, rep.blocks):
        mag = np.abs(stack[1:rep.n_cells]).reshape(-1, 4)
        keep = mag > 1e-13
        counts = keep.sum(axis=1)
        logs = np.log(mag, where=keep, out=np.zeros_like(mag)).sum(axis=1)
        xs = counts > 0
        if xs.sum() >= 2:
            slope = np.polyfit(dist[xs], logs[xs] / counts[xs], 1)[0]
            gain = float(np.exp(slope))
        else:
            gain = 0.0
        if gain > DIRECTION_GAIN_THRESHOLD:
            direction = "leftward" if sector == "AC" else "rightward"
        else:
            direction = "none"
        out.append(GainProfile(direction=direction, gain_per_cell=gain,
                               end_to_end=float(mag[-1].max()),
                               sector=sector, quadrature=quad))
    return out


class PhaseScan(list):
    """Rows (delta, delta0, nu, *end_to_end) of a scan, one end_to_end per
    (sector, quadrature) in PAIRS order; ``residual`` is the worst relative
    inverse residual over its delta grid."""

    def __init__(self, rows, residual: float):
        super().__init__(rows)
        self.residual = residual


def amplification_phase_scan(theta: float, delta_grid, n_cells: int):
    """Gain/topology table over a delta grid (imaginary regime).

    Returns a ``PhaseScan``.  end_to_end, the largest |chi| entry between
    the two end cells, is read from the checked Neumann blocks at distance
    N - 1, as ``gain_metrics`` reads it.  An empty or non-finite grid and
    points too close to the transition are rejected up front.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.size == 0 or not np.isfinite(deltas).all():
        raise DomainError(f"delta grid must be non-empty and finite, got {deltas}")
    delta0 = transition_delta(theta)
    if np.abs(deltas - delta0).min() < 1e-4:
        raise DomainError(
            f"delta grid must exclude |delta - delta0| < 1e-4 (delta0={delta0:.6f})"
        )
    rows = []
    worst_res = 0.0
    for start in range(0, deltas.size, DELTA_BLOCK):
        block = deltas[start:start + DELTA_BLOCK].tolist()
        labels = classify_phases(theta, block, Regime.IMAGINARY)
        blocks, res = _neumann_blocks(theta, block, n_cells)
        # the largest |chi| entry between the end cells: block N - 1
        ends = np.abs(blocks[:, :, n_cells - 1]).max(axis=(2, 3))
        rows.extend((d, delta0, label.nu, *e)
                    for d, label, e in zip(block, labels, ends.tolist()))
        worst_res = max(worst_res, *res.tolist())
    return PhaseScan(rows, worst_res)


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
