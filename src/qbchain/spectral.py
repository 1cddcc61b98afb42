"""Block-diagonalization checks, spectra sweeps and eigenvector localization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, DomainError
from .model import (
    OBC,
    PBC,
    CouplingSet,
    Regime,
    _is_real,
    derive_couplings,
    dynamical_qb_k,
    realspace_dynamical,
    two_band,
)

__all__ = [
    "SpectrumSweep",
    "block_transform",
    "block_diagonalize",
    "spectrum_sweep",
    "ipr_localization",
]

# Unitary built from eigenvectors of the unitary symmetry of the real-regime
# dynamical matrix; maps it to four decoupled two-band blocks.
_I2 = np.eye(2)
_Z2 = np.zeros((2, 2))
BLOCK_Q_REAL = np.block(
    [
        [_I2, _Z2, _Z2, _I2],
        [_Z2, _I2, _I2, _Z2],
        [_Z2, -_I2, _I2, _Z2],
        [_I2, _Z2, _Z2, -_I2],
    ]
) / np.sqrt(2)

# Imaginary-regime analogue.  The gamma blocks are diag(i, 1) and diag(-i, 1);
# the sign flips on two columns fix the intra-eigenspace gauge so the target
# block order (H, -H, H^dag, -H^dag) comes out exactly.
_g1 = np.diag([1j, 1.0])
_g2 = np.diag([-1j, 1.0])
_Z2c = _Z2.astype(complex)
BLOCK_Q_IMAG = (
    np.block(
        [
            [_g1, _Z2c, _Z2c, _g2],
            [_Z2c, _g2, _g1, _Z2c],
            [_Z2c, -1j * _g1, 1j * _g2, _Z2c],
            [1j * _g2, _Z2c, _Z2c, -1j * _g1],
        ]
    )
    / np.sqrt(2)
) @ np.diag([1, 1, 1, -1, 1, -1, 1, 1.0])

#: per regime: the (sign, dagger) of each of the four images of the
#: two-band block H on the diagonal of Q^dag G(k) Q
_IMAGES = {
    Regime.REAL: ((1, False), (-1, True), (-1, False), (1, True)),
    Regime.IMAGINARY: ((1, False), (-1, False), (1, True), (-1, True)),
}

def block_transform(k, c: CouplingSet, regime: Regime) -> np.ndarray:
    """Q^dag G Q (block diagonal), G = dynamical_qb_k(k, c, regime)."""
    Q = BLOCK_Q_REAL if _is_real(regime) else BLOCK_Q_IMAG
    return Q.conj().T @ dynamical_qb_k(k, c, regime) @ Q


def block_diagonalize(k: float, c: CouplingSet, regime: Regime) -> float:
    """Max-abs deviation of :func:`block_transform` from its four images of H:
    nSSH2 diag(H, -H^dag, -H, H^dag) (real), nSSH1 diag(H, -H, H^dag, -H^dag)."""
    H = two_band(k, c, regime)
    target = np.zeros((8, 8), dtype=complex)
    for b, (sign, dagger) in enumerate(_IMAGES[regime]):
        s = slice(2 * b, 2 * b + 2)
        target[s, s] = sign * (H.conj().T if dagger else H)
    return float(np.abs(block_transform(k, c, regime) - target).max())


@dataclass
class SpectrumSweep:
    """Eigenvalues of the dynamical matrix over a grid of delta values."""

    deltas: np.ndarray
    eigenvalues: np.ndarray  # complex, (deltas, m): one sorted row per delta
    reality_residual: float | None = None  # real OBC: worst max|Im| / max|lambda|


def spectrum_sweep(J: float, theta: float, delta_grid, regime: Regime,
                   boundary) -> SpectrumSweep:
    """Spectrum of the dynamical matrix as a function of delta.

    PBC: eigenvalues of the 8x8 k-space matrices of the whole momentum
    grid, one stacked solve per delta.  OBC: eigenvalues of the 8N x 8N
    real-space matrix, whose real-regime spectrum is exactly real (+-sigma_i):
    a ConvergenceError where dense eigvals puts max|Im| / max|lambda| past 1e-8.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.size == 0:
        raise DomainError("delta grid must be non-empty")
    real_obc = isinstance(boundary, OBC) and _is_real(regime)
    rows, worst = [], 0.0
    for d in deltas:
        c = derive_couplings(J, d, theta)
        try:
            if isinstance(boundary, PBC):
                evs = np.linalg.eigvals(
                    dynamical_qb_k(boundary.k_grid, c, regime)).ravel()
            elif isinstance(boundary, OBC):
                G = realspace_dynamical(c, boundary.n_cells, regime)
                evs = np.linalg.eigvals(G)
            else:
                raise DomainError(f"unknown boundary {boundary!r}")
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"eigensolver failed at delta={d}: {exc}") from exc
        if real_obc:
            residual = float(np.abs(evs.imag).max() / np.abs(evs).max())
            if residual > 1e-8:  # the default sweep reads about 1e-13
                raise ConvergenceError(
                    f"real-regime OBC spectrum leaves the real axis at delta={d}, "
                    f"theta={theta}, N={boundary.n_cells}: {residual:.2e} > 1e-8")
            worst = max(worst, residual)
        evs = evs[np.lexsort((evs.imag, evs.real))]
        rows.append(evs)
    return SpectrumSweep(deltas=deltas, eigenvalues=np.array(rows),
                         reality_residual=worst if real_obc else None)


def ipr_localization(A: np.ndarray, n_cells: int | None = None):
    """Inverse participation ratio and mean position of every right eigenvector.

    For an 8N x 8N Nambu matrix pass ``n_cells``; the 8 internal components
    of each unit cell (4 particle + 4 hole) are aggregated, positions are
    unit-cell indices 1..N.  Returns a list of (eigenvalue, ipr, mean_position),
    ordered lexicographically by eigenvalue (real part, then imaginary).
    """
    import scipy.linalg  # only this generalized eigensolve needs scipy

    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError(f"matrix must be square, got shape {A.shape}")
    dim = A.shape[0]
    if n_cells is not None:
        if dim != 8 * n_cells:
            raise DomainError(f"matrix size {dim} incompatible with {n_cells} cells")
        positions = np.tile(np.repeat(np.arange(1, n_cells + 1), 4), 2)
    else:
        positions = np.arange(1, dim + 1)
    try:
        w, vr = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    vr = vr[:, order]

    # within a degenerate cluster any linear combination is an eigenvector;
    # diagonalize the position expectation there so the reported states are
    # the extremally localized representatives instead of solver-dependent
    # mixtures
    scale = max(1.0, np.abs(w).max())
    start = 0
    while start < dim:
        stop = start + 1
        while stop < dim and abs(w[stop] - w[stop - 1]) <= 1e-8 * scale:
            stop += 1
        if stop - start > 1:
            R = vr[:, start:stop]
            G = R.conj().T @ R
            X = R.conj().T @ (positions[:, None] * R)
            _, rot = scipy.linalg.eig(X, G)
            vr[:, start:stop] = R @ rot
        start = stop

    out = []
    for i in range(dim):
        psi = vr[:, i]
        psi = psi / np.linalg.norm(psi)
        weight = np.abs(psi) ** 2
        ipr = float(np.sum(np.abs(psi) ** 4))
        mean_pos = float(np.sum(positions * weight))
        out.append((w[i], ipr, mean_pos))
    return out
