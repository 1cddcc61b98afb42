"""Model construction: couplings, Bloch data and every matrix of the chain.

The chain has four sublattices A, B, C, D per unit cell.  Two SSH-like legs
(A-B and C-D) are coupled by pairing terms whose strength is controlled by
``theta``; ``delta`` sets the intra/intercell hopping asymmetry.  All matrices
are built from a single immutable :class:`CouplingSet` so the (delta, theta)
and (v, w_r, w_l) parameterizations can never drift apart.  Every energy is
in units of the hopping scale J (J = 1): the model is homogeneous in it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError, DoubleOverflowError, ValidationError

__all__ = [
    "CouplingSet",
    "Regime",
    "PBC",
    "OBC",
    "BlochVector",
    "derive_couplings",
    "coupling_functions",
    "two_band",
    "bloch",
    "energy",
    "hamiltonian_qb_k",
    "dynamical_qb_k",
    "realspace_hamiltonian_blocks",
    "realspace_dynamical",
    "fourier_project",
    "quadrature_cells",
    "quadrature_dynamical",
    "build_dynamical_from_blocks",
    "TAU1",
    "TAU3",
]

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])

#: tau_i = sigma_i (x) I_4, acting on the 8-dim Nambu space of one momentum.
TAU1 = np.kron(_SX, np.eye(4))
TAU3 = np.kron(_SZ, np.eye(4))

#: relative bound on the non-Hermiticity of K and the asymmetry of Delta
_SYMMETRY_TOL = 1e-12

#: largest magnitude whose square, four times over, stays in the double range
_SQUARE_SAFE = 0.5 * math.sqrt(np.finfo(float).max)


class Regime(enum.Enum):
    """Whether hopping/pairing amplitudes enter as real or purely imaginary."""

    REAL = "real"
    IMAGINARY = "imaginary"


@dataclass(frozen=True)
class CouplingSet:
    """Physical parameters (delta, theta) plus derived couplings, in units of J.

    Invariants: v = 1-delta, w_r = 1+delta, w_l = w_r * exp(theta);
    a DoubleOverflowError where e^theta or a coupling is not finite.
    Construct through :func:`derive_couplings`.
    """

    delta: float
    theta: float
    v: float = field(init=False)
    w_r: float = field(init=False)
    w_l: float = field(init=False)

    def __post_init__(self):
        try:
            growth = math.exp(self.theta)
        except OverflowError:
            raise DoubleOverflowError(
                f"e^theta leaves the double range at theta={self.theta}") from None
        object.__setattr__(self, "v", 1.0 - self.delta)
        object.__setattr__(self, "w_r", 1.0 + self.delta)
        object.__setattr__(self, "w_l", self.w_r * growth)
        if not np.isfinite((self.v, self.w_r, self.w_l)).all():
            raise DoubleOverflowError(
                f"couplings v, w_r, w_l leave the double range at "
                f"delta={self.delta}, theta={self.theta}")


def derive_couplings(delta: float, theta: float) -> CouplingSet:
    """Build a coupling set from the physical parameters."""
    return CouplingSet(delta=float(delta), theta=float(theta))


@dataclass(frozen=True)
class PBC:
    """Periodic boundary, carrying the Brillouin-zone momentum grid."""

    k_grid: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k_grid, dtype=float)
        if k.ndim != 1 or k.size == 0:
            raise DomainError("PBC momentum grid must be a non-empty 1d array")
        if np.any(np.diff(k) <= 0):
            raise DomainError("PBC momentum grid must be strictly increasing")
        if k[0] < -np.pi - 1e-12 or k[-1] >= np.pi:
            raise DomainError("PBC momentum grid must lie in [-pi, pi)")
        object.__setattr__(self, "k_grid", k)

    @classmethod
    def uniform(cls, n_points: int) -> "PBC":
        return cls(np.linspace(-np.pi, np.pi, n_points, endpoint=False))


@dataclass(frozen=True)
class OBC:
    """Open boundary with a fixed number of unit cells."""

    n_cells: int

    def __post_init__(self):
        if self.n_cells < 2:
            raise DomainError(f"OBC needs at least 2 unit cells, got {self.n_cells}")


@dataclass(frozen=True)
class BlochVector:
    """Real and imaginary planar parts of the complex vector d(k)."""

    dr: np.ndarray  # (d_x^r, d_y^r)
    di: np.ndarray  # (d_x^i, d_y^i)

    @property
    def dx(self) -> complex | np.ndarray:
        return self.dr[0] + 1j * self.di[0]

    @property
    def dy(self) -> complex | np.ndarray:
        return self.dr[1] + 1j * self.di[1]


# ---------------------------------------------------------------------------
# k-space building blocks
# ---------------------------------------------------------------------------

def coupling_functions(k, c: CouplingSet):
    """The two k-dependent coefficients (f1, f2) entering every k-space matrix."""
    phase = np.exp(-1j * np.asarray(k, dtype=float))
    f1 = c.v + 0.5 * (c.w_l + c.w_r) * phase
    f2 = 0.5 * (c.w_l - c.w_r) * phase
    return f1, f2


def _is_real(regime) -> bool:
    """True for REAL (nSSH2 block), False for IMAGINARY (nSSH1), else a DomainError."""
    if regime is Regime.REAL:
        return True
    if regime is Regime.IMAGINARY:
        return False
    raise DomainError(
        f"regime must be a Regime, Regime.REAL or Regime.IMAGINARY (two-band "
        f"model nssh2 or nssh1), got {regime!r}")


def two_band(k, c: CouplingSet, regime: Regime) -> np.ndarray:
    """2x2 non-Hermitian SSH block, of shape k.shape + (2, 2).

    Real regime: the two-EP nSSH2 block; imaginary regime: the single-EP
    nSSH1 block.
    """
    H = np.zeros(np.shape(k) + (2, 2), dtype=complex)
    if _is_real(regime):
        H[..., 0, 1] = c.v + c.w_r * np.exp(-1j * k)
        H[..., 1, 0] = c.v + c.w_l * np.exp(1j * k)
    else:
        H[..., 0, 1] = c.v + 0.5 * (1 + 1j) * (c.w_l - 1j * c.w_r) * np.exp(-1j * k)
        H[..., 1, 0] = np.conj(
            c.v + 0.5 * (1 - 1j) * (c.w_l + 1j * c.w_r) * np.exp(-1j * k))
    return H


def bloch(k, c: CouplingSet, regime: Regime) -> BlochVector:
    """Planar Bloch vector of :func:`two_band`, split into real/imaginary parts.

    Components follow from decomposing the 2x2 block into Pauli matrices, so
    that (dx^2 + dy^2) reproduces the band energies exactly.  The regimes
    differ only in d^i: wm (sin k, -cos k) (nSSH2) or wm (cos k, sin k) (nSSH1).
    """
    wp = 0.5 * (c.w_l + c.w_r)
    wm = 0.5 * (c.w_l - c.w_r)
    dr = np.array([c.v + wp * np.cos(k), wp * np.sin(k)])
    if _is_real(regime):
        di = np.array([wm * np.sin(k), -wm * np.cos(k)])
    else:
        di = np.array([wm * np.cos(k), wm * np.sin(k)])
    return BlochVector(dr=dr, di=di)


def _check_squares(c: CouplingSet) -> None:
    """A DoubleOverflowError where the square of the largest coupling passes
    _SQUARE_SAFE^2: at large theta, w_l^2 leaves the double range."""
    if not np.abs((c.v, c.w_r, c.w_l)).max() <= _SQUARE_SAFE:
        raise DoubleOverflowError(
            f"squared couplings leave the double range at delta={c.delta}, "
            f"theta={c.theta}")


def energy(k, c: CouplingSet, regime: Regime):
    """Principal-branch quasiparticle energy of :func:`two_band`; the band
    pair is (+E, -E).  A DoubleOverflowError where E^2 could leave the
    double range (``_check_squares``)."""
    k = np.asarray(k, dtype=float)
    _check_squares(c)
    if _is_real(regime):
        rad = c.v**2 + c.w_r * c.w_l + c.v * (
            c.w_l * np.exp(1j * k) + c.w_r * np.exp(-1j * k)
        )
        return np.sqrt(rad)
    x = c.v**2 + c.v * (c.w_r + c.w_l) * np.cos(k) + c.w_r * c.w_l
    y = (c.w_l - c.w_r) * (c.v * np.cos(k) + 0.5 * (c.w_r + c.w_l))
    return np.sqrt(x + 1j * y)


def _pq_blocks(k, c: CouplingSet, regime: Regime):
    """Hopping block P(k) and pairing block Q(k), of shape k.shape + (4, 4).

    Both regimes share one formula: every hopping and pairing amplitude is
    z times its real coupling, with z = 1 (real regime) or i (imaginary).
    """
    z = 1.0 if _is_real(regime) else 1.0j
    f1, f2 = coupling_functions(k, c)
    t = z * f1
    P = np.zeros(np.shape(f1) + (4, 4), dtype=complex)
    Q = np.zeros_like(P)
    P[..., 0, 1] = t
    P[..., 1, 0] = np.conj(t)
    P[..., 2, 3] = -t
    P[..., 3, 2] = -np.conj(t)
    Q[..., 0, 3] = -np.conj(z) * f2
    Q[..., 1, 2] = z * np.conj(f2)
    Q[..., 2, 1] = z * f2
    Q[..., 3, 0] = -np.conj(z) * np.conj(f2)
    return P, Q


def hamiltonian_qb_k(k, c: CouplingSet, regime: Regime = Regime.REAL) -> np.ndarray:
    """Hermitian 8x8 Bogoliubov Hamiltonian in the Nambu basis.

    Basis ordering: (A_k, B_k, C_k, D_k, A_-k^dag, B_-k^dag, C_-k^dag, D_-k^dag).
    ``k`` may be an array of momenta; the result then has shape
    k.shape + (8, 8).  The hole rows carry conj(z)/z = z^2 = +-1 times the
    particle blocks.
    """
    P, Q = _pq_blocks(k, c, regime)
    s = 1.0 if _is_real(regime) else -1.0
    return np.block([[P, Q], [s * Q, s * P]])


def dynamical_qb_k(k, c: CouplingSet, regime: Regime = Regime.REAL) -> np.ndarray:
    """Non-Hermitian generator of Heisenberg evolution, tau_3 times the Hamiltonian.

    Like :func:`hamiltonian_qb_k`, takes one momentum or an array of them.
    """
    return TAU3 @ hamiltonian_qb_k(k, c, regime)


# ---------------------------------------------------------------------------
# real space
# ---------------------------------------------------------------------------

def realspace_hamiltonian_blocks(c: CouplingSet, n_cells: int, regime: Regime = Regime.REAL,
                                 *, pbc: bool = False):
    """Hopping block K (Hermitian) and pairing block Delta (symmetric), 4N x 4N.

    Mode ordering is cell-major (A, B, C, D).  Under OBC the intercell sums
    truncate at the chain ends; under PBC they wrap around.
    """
    if n_cells < 2:
        raise DomainError(f"need at least 2 unit cells, got {n_cells}")
    z = 1.0 if _is_real(regime) else 1.0j
    tv = z * c.v
    tw = z * 0.5 * (c.w_r + c.w_l)
    g = z * 0.5 * (c.w_l - c.w_r)
    n = 4 * n_cells
    K = np.zeros((n, n), dtype=complex)
    D = np.zeros((n, n), dtype=complex)

    j = np.arange(n_cells)
    o = np.arange(n_cells if pbc else n_cells - 1)  # left cell of each bond
    i = (o + 1) % n_cells  # and its right neighbour
    A, B, C, Dd = 0, 1, 2, 3
    Kv = K.reshape(n_cells, 4, n_cells, 4)  # view: Kv[cell, sub, cell', sub']
    Dv = D.reshape(n_cells, 4, n_cells, 4)
    # += onto the zeros stores a -0 amplitude as +0; no entry is set twice
    Kv[j, A, j, B] += tv
    Kv[j, B, j, A] += np.conj(tv)
    Kv[j, C, j, Dd] += -tv
    Kv[j, Dd, j, C] += -np.conj(tv)
    Kv[i, A, o, B] += tw
    Kv[o, B, i, A] += np.conj(tw)
    Kv[i, C, o, Dd] += -tw
    Kv[o, Dd, i, C] += -np.conj(tw)
    # pairing g * B_o^dag C_i^dag + H.c.
    Dv[o, B, i, C] += g
    Dv[i, C, o, B] += g
    # pairing -g * A_i D_o + H.c.  (creation part carries -conj(g))
    Dv[i, A, o, Dd] += -np.conj(g)
    Dv[o, Dd, i, A] += -np.conj(g)
    return K, D


def build_dynamical_from_blocks(K: np.ndarray, Delta: np.ndarray) -> np.ndarray:
    """Assemble the bosonic dynamical matrix [[K, Delta], [-Delta*, -K^T]].

    K must be Hermitian and Delta symmetric (bosonic statistics); violations
    are rejected.
    """
    K = np.asarray(K, dtype=complex)
    Delta = np.asarray(Delta, dtype=complex)
    if K.shape != Delta.shape or K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValidationError("K and Delta must be square matrices of equal size")
    scale = max(1.0, np.abs(K).max(), np.abs(Delta).max())
    if np.abs(K - K.conj().T).max() > _SYMMETRY_TOL * scale:
        raise ValidationError("hopping block K is not Hermitian")
    if np.abs(Delta - Delta.T).max() > _SYMMETRY_TOL * scale:
        raise ValidationError("pairing block Delta is not symmetric (Delta^T != Delta)")
    return np.block([[K, Delta], [-Delta.conj(), -K.T]])


def realspace_dynamical(c: CouplingSet, n_cells: int, regime: Regime = Regime.REAL,
                        *, pbc: bool = False) -> np.ndarray:
    """8N x 8N real-space dynamical matrix, open or (``pbc``) periodic.

    Basis: (a_1..a_4N, a_1^dag..a_4N^dag) with modes ordered cell-major as
    (1A, 1B, 1C, 1D, 2A, ...).
    """
    return build_dynamical_from_blocks(
        *realspace_hamiltonian_blocks(c, n_cells, regime, pbc=pbc))


def fourier_project(G: np.ndarray, n_cells: int, k: float) -> np.ndarray:
    """Project a PBC real-space dynamical matrix onto momentum k (8x8 block).

    Serves as the independent oracle tying real-space and k-space builders
    together: the result must equal :func:`dynamical_qb_k`.
    """
    n = 4 * n_cells
    W = np.zeros((8, 2 * n), dtype=complex)
    cells = np.arange(n_cells)
    ph = np.exp(-1j * k * (cells + 1)) / np.sqrt(n_cells)
    for s in range(4):
        W[s, 4 * cells + s] = ph
        W[4 + s, n + 4 * cells + s] = ph
    return W @ G @ W.conj().T


# ---------------------------------------------------------------------------
# quadrature basis (imaginary regime)
# ---------------------------------------------------------------------------

def quadrature_cells(c: CouplingSet) -> np.ndarray:
    """The 2x2 cell blocks of the OBC quadrature generators h_x and h_p.

    Shape (2, 4, 2, 2): per generator (h_x, h_p), the blocks (X_diag, X_sub,
    Y_diag, Y_super) of X = h[AC rows, BD columns] and Y = h[BD rows, AC
    columns], with rows (A, C) or (B, D) and columns the other pair.  X_diag
    and Y_diag couple a cell to itself, X_sub cell j + 1 to cell j and
    Y_super cell j to cell j + 1; h has no other nonzero entries.  The w-
    cross terms carry +1 in h_x and -1 in h_p.
    """
    wp = 0.5 * (c.w_r + c.w_l)
    wm = 0.5 * (c.w_l - c.w_r)
    return np.array([[[[c.v, 0.0], [0.0, -c.v]],
                      [[wp, s * wm], [s * wm, -wp]],
                      [[-c.v, 0.0], [0.0, c.v]],
                      [[-wp, s * wm], [s * wm, wp]]] for s in (1.0, -1.0)])


def quadrature_dynamical(c: CouplingSet, n_cells: int):
    """OBC generators (h_x, h_p) of the decoupled X and P quadrature dynamics.

    Only the imaginary-parameter regime decouples the quadratures; these are
    the 4N x 4N real matrices in the basis (1A, 1B, 1C, 1D, 2A, ...), with
    the cell blocks of :func:`quadrature_cells` on their bands.
    """
    if n_cells < 2:
        raise DomainError(f"need at least 2 unit cells, got {n_cells}")
    n = 4 * n_cells
    hs = np.zeros((2, n, n))
    j = np.arange(n_cells)
    i, o = j[1:], j[:-1]  # each cell but the first, and its left neighbour
    for h, (x_diag, x_sub, y_diag, y_super) in zip(hs, quadrature_cells(c)):
        g = h.reshape(n_cells, 4, n_cells, 4)  # view: g[cell, sub, cell', sub']
        x = g[:, 0::2, :, 1::2]  # AC rows, BD columns
        y = g[:, 1::2, :, 0::2]  # BD rows, AC columns
        x[j, :, j] = x_diag
        x[i, :, o] = x_sub
        y[j, :, j] = y_diag
        y[o, :, i] = y_super
    return hs[0], hs[1]
