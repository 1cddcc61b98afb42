"""Imaginary-regime quadrature analysis: susceptibilities and directional gain.

In the imaginary-parameter regime the X and P quadratures decouple and evolve
under real generators h_x, h_p.  The static susceptibilities chi = h^-1
reveal sublattice-dependent chiral amplification: the A/C sublattices are
amplified towards the left of the chain and B/D towards the right, but only
in the topologically non-trivial phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DomainError, DoubleOverflowError, SingularityError
from .model import CouplingSet, Regime, derive_couplings, quadrature_cells
from .topology import DELTA_BLOCK, classify_phases, ep_nssh1

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
    """The nonzero sublattice sub-matrices of the susceptibilities chi = h^-1.

    ``blocks`` is the checked Neumann stack of ``_neumann_blocks``, shape
    (4, N + 1, 2, 2) in PAIRS order, block N the zero block.  ``sectors``,
    laid out on first read, maps each (sector, quadrature) of PAIRS, in that
    order, to its 2N x 2N sub-matrix of that quadrature's chi (``lay_out``
    of its stack), with rows and columns on the sublattices of the two
    sectors of ``SECTOR_AXES[sector]``; the AC x AC and BD x BD parts of chi
    are zero.  ``residual`` is max|chi h - I| / max(1, J max|chi|), the
    larger of the two generators' values; ``susceptibility`` rejects any
    above 1e-10.
    """

    blocks: np.ndarray
    params: CouplingSet
    n_cells: int
    residual: float

    @cached_property
    def sectors(self) -> dict:
        return {pair: lay_out(stack, pair[0]) for pair, stack in zip(PAIRS, self.blocks)}


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


#: (sector, quadrature) of each Neumann stack, and of sectors, gains and scan rows
PAIRS = (("AC", "X"), ("AC", "P"), ("BD", "X"), ("BD", "P"))


def _neumann_blocks(cs: list, n_cells: int):
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

    ``cs`` is a sequence of coupling sets; the recurrence runs for all of
    them at once.  Returns (blocks, residuals).  blocks has shape
    (len(cs), 4, N + 1, 2, 2): per coupling set, one stack per entry of
    PAIRS, where chi_bd's block (i, j) is blocks[., BD, i - j] and chi_ac's
    is blocks[., AC, j - i]^T; blocks[., :, N] is the zero block of the
    other triangle.  residuals[i] is max|chi h - I| / max(1, J max|chi|) of
    cs[i], the larger of the two generators' values.  Each is checked in
    O(N) against that coupling set's ``quadrature_cells``, a statement of h
    written apart from the (d, w) tables below: the block of chi_bd X at
    distance m is B_m X_diag + B_(m-1) X_sub, and that of chi_ac Y is
    A_m^T Y_diag + A_(m-1)^T Y_super.  An error names the first coupling
    set of the earliest failing check.  ``n_cells < 2`` is a DomainError.
    """
    if n_cells < 2:
        raise DomainError(f"need at least 2 unit cells, got {n_cells}")
    for c in cs:
        if c.v == 0.0:
            # X = S(x)W is then strictly block-lower: h is exactly singular
            raise SingularityError(
                f"quadrature generators singular at v = 0 (delta={c.delta}): "
                f"no intracell coupling"
            )
        _, _, delta0 = ep_nssh1(c)
        if abs(c.delta - delta0) < 1e-8:
            raise SingularityError(
                f"quadrature generators singular at the transition: "
                f"delta={c.delta} within 1e-8 of delta0={delta0:.8f}"
            )
    v = np.array([c.v for c in cs])[:, None, None]
    wp = np.array([0.5 * (c.w_r + c.w_l) for c in cs])[:, None]
    wm = np.array([0.5 * (c.w_l - c.w_r) for c in cs])[:, None]
    # diagonals of d and the blocks w of Y^T (AC) and X (BD), per pair;
    # written apart from quadrature_cells, so that the residual below
    # compares two statements of h and a wrong block cannot invert itself
    d = v * [[-1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, -1.0]]
    w = np.empty((len(cs), 4, 2, 2))
    w[:, :, 0, 0] = wp * [-1.0, -1.0, 1.0, 1.0]
    w[:, :, 1, 1] = wp * [1.0, 1.0, -1.0, -1.0]
    w[:, :, 0, 1] = w[:, :, 1, 0] = wm * [1.0, -1.0, 1.0, -1.0]
    blocks = np.zeros((len(cs), 4, n_cells + 1, 2, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        step = -w / d[..., None]
        blocks[:, :, 0, [0, 1], [0, 1]] = 1.0 / d
        for m in range(1, n_cells):
            blocks[:, :, m] = step @ blocks[:, :, m - 1]
    finite = np.isfinite(blocks).reshape(len(cs), -1).all(axis=1)
    if not finite.all():
        c = cs[np.argmin(finite)]
        raise SingularityError(
            f"susceptibility overflows double precision at "
            f"n_cells={n_cells}, delta={c.delta}: |chi| grows geometrically "
            f"with n_cells and as 1/J (J={c.J})"
        )
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
    # parameters; quality is judged relative to that scale, with chi in
    # units of 1/J
    J = np.array([c.J for c in cs])[:, None]
    scale = np.maximum(1.0, J * np.abs(left).max(axis=(2, 3, 4, 5)))
    bad = ~np.isfinite(res) | (res > 1e-10 * scale)
    if bad.any():
        i, q = np.unravel_index(np.argmax(bad), bad.shape)
        raise SingularityError(
            f"inverse residual {res[i, q]:.3e} too large at delta={cs[i].delta} "
            f"(transition at delta0={ep_nssh1(cs[i])[2]:.6f})"
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
    blocks, residuals = _neumann_blocks([c], n_cells)
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
    """Directional gain per sector and quadrature from |chi| sub-matrices.

    The dominant triangle (upper = leftward for AC, lower = rightward for
    BD) sets the direction; the gain per cell is the least-squares slope of
    mean log-magnitude against block distance.
    """
    out = []
    n_cells = rep.n_cells
    # block distance between the column cell and the row cell
    cell_r = np.repeat(np.arange(n_cells), 2)
    dist = cell_r[None, :] - cell_r[:, None]  # cols minus rows
    far = np.abs(dist) == n_cells - 1
    for (sector, quad), sub in rep.sectors.items():
        mag = np.abs(sub)
        upper = mag[dist > 0]
        lower = mag[dist < 0]
        # chi[r, c] is the response at cell r to a drive at cell c: a
        # dominant upper triangle (c > r) propagates signals leftward
        if upper.max(initial=0.0) >= lower.max(initial=0.0):
            tri_sign, direction = 1, "leftward"
        else:
            tri_sign, direction = -1, "rightward"
        # mean log-magnitude at each distance m >= 1 into that triangle,
        # over the entries that are not rounding noise (chi in units of 1/J)
        m = tri_sign * dist
        keep = (m > 0) & (rep.params.J * mag > 1e-13)
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


class PhaseScan(list):
    """Rows (delta, delta0, nu, *end_to_end) of a scan, one end_to_end per
    (sector, quadrature) in PAIRS order; ``residual`` is the worst relative
    inverse residual over its delta grid."""

    def __init__(self, rows, residual: float):
        super().__init__(rows)
        self.residual = residual


def amplification_phase_scan(J: float, theta: float, delta_grid, n_cells: int):
    """Gain/topology table over a delta grid (imaginary regime).

    Returns a ``PhaseScan``.  end_to_end, the largest |chi| entry between
    the two end cells, is read from the checked Neumann blocks at distance
    N - 1, with no dense chi; it equals ``gain_metrics``' value.  An empty
    or non-finite grid and points too close to the transition are rejected
    up front.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.size == 0 or not np.isfinite(deltas).all():
        raise DomainError(f"delta grid must be non-empty and finite, got {deltas}")
    _, _, delta0 = ep_nssh1(derive_couplings(J, 0.0, theta))
    if np.abs(deltas - delta0).min() < 1e-4:
        raise DomainError(
            f"delta grid must exclude |delta - delta0| < 1e-4 (delta0={delta0:.6f})"
        )
    rows = []
    worst_res = 0.0
    for start in range(0, deltas.size, DELTA_BLOCK):
        block = deltas[start:start + DELTA_BLOCK].tolist()
        labels = classify_phases(J, theta, block, Regime.IMAGINARY)
        blocks, res = _neumann_blocks(
            [derive_couplings(J, d, theta) for d in block], n_cells)
        # the largest |chi| entry between the end cells: block N - 1
        ends = np.abs(blocks[:, :, n_cells - 1]).max(axis=(2, 3))
        rows.extend((d, float(delta0), label.nu, *e)
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
