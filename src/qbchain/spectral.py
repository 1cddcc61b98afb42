"""Complex eigendecompositions, block-diagonalization checks and spectra sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConvergenceError, DomainError
from .model import (
    OBC,
    PBC,
    CouplingSet,
    Regime,
    derive_couplings,
    dynamical_qb_k,
    realspace_dynamical,
    two_band,
)

__all__ = [
    "EigenSystem",
    "SpectrumSweep",
    "eig_general",
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

#: per regime: Q (Q^dag = Q.conj().T serves both: the real Q is real) and
#: the (sign, dagger) of each of the four images of the two-band block H on
#: the diagonal of Q^dag G(k) Q
_BLOCKS = {
    Regime.REAL: (BLOCK_Q_REAL, ((1, False), (-1, True), (-1, False), (1, True))),
    Regime.IMAGINARY: (BLOCK_Q_IMAG, ((1, False), (-1, False), (1, True), (-1, True))),
}

# eig_general's cluster width (relative to max(1, max|w|)) and defect bound
_CLUSTER_TOL = 1e-6
_DEFECT_TOL = 1e-10


@dataclass
class EigenSystem:
    """Eigenvalues with biorthonormal left/right eigenvector pairs.

    ``right`` holds right eigenvectors as columns, ``left`` left eigenvectors
    as rows, normalized so that left @ right = identity wherever the matrix is
    diagonalizable.  ``condition`` is the per-eigenvalue condition estimate
    1/|<l|r>| for unit-norm vectors; ``defective`` flags eigenvalues whose
    biorthogonal normalization collapsed (exceptional points).
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray
    condition: np.ndarray
    defective: np.ndarray

    @property
    def any_defective(self) -> bool:
        return bool(self.defective.any())


def eig_general(A: np.ndarray) -> EigenSystem:
    """Full eigendecomposition of a general complex matrix.

    Left eigenvectors come from an independent decomposition of the transpose
    and are biorthonormalized against the right ones per degenerate cluster.
    Eigenvalues are ordered lexicographically (real part, then imaginary).
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError(f"matrix must be square, got shape {A.shape}")
    n = A.shape[0]
    try:
        w, vr = np.linalg.eig(A)
        wt, vlt = np.linalg.eig(A.T)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc

    order = np.lexsort((w.imag, w.real))
    w = w[order]
    vr = vr[:, order]
    ordt = np.lexsort((wt.imag, wt.real))
    vl = vlt[:, ordt].T  # rows l satisfy l @ A = lambda * l

    scale = max(1.0, np.abs(w).max())
    condition = np.ones(n)
    defective = np.zeros(n, dtype=bool)

    # cluster nearly-degenerate eigenvalues and biorthonormalize jointly
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and abs(w[stop] - w[stop - 1]) <= _CLUSTER_TOL * scale:
            stop += 1
        sl = slice(start, stop)
        R = vr[:, sl]
        L = vl[sl, :]
        M = L @ R
        for i in range(start, stop):
            condition[i] = 1.0 / max(abs(vl[i] @ vr[:, i]), 1e-300)
        svals = np.linalg.svd(M, compute_uv=False)
        # a cluster is defective when its biorthogonal normalization collapses
        # or its right eigenvectors are numerically linearly dependent
        # (machine-precision perturbations split an exact EP into eigenvalues
        # ~sqrt(eps) apart with nearly parallel eigenvectors)
        sr = np.linalg.svd(R, compute_uv=False)
        if svals.min() < _DEFECT_TOL or sr.min() < 1e-7 * sr.max():
            defective[sl] = True
        else:
            vl[sl, :] = np.linalg.solve(M, L)
        start = stop
    return EigenSystem(values=w, right=vr, left=vl, condition=condition,
                       defective=defective)


def block_transform(k, c: CouplingSet, regime: Regime, *, G=None) -> np.ndarray:
    """Q^dag G Q (block diagonal), G = dynamical_qb_k(k, c, regime) unless given."""
    if G is None:
        G = dynamical_qb_k(k, c, regime)
    Q = _BLOCKS[regime][0]
    return Q.conj().T @ G @ Q


def block_diagonalize(k: float, c: CouplingSet, regime: Regime, *, G=None) -> float:
    """Max-abs deviation of :func:`block_transform` from its four images of H:
    nSSH2 diag(H, -H^dag, -H, H^dag) (real), nSSH1 diag(H, -H, H^dag, -H^dag)."""
    H = two_band(k, c, regime)
    target = np.zeros((8, 8), dtype=complex)
    for b, (sign, dagger) in enumerate(_BLOCKS[regime][1]):
        s = slice(2 * b, 2 * b + 2)
        target[s, s] = sign * (H.conj().T if dagger else H)
    return float(np.abs(block_transform(k, c, regime, G=G) - target).max())


@dataclass
class SpectrumSweep:
    """Eigenvalues of the dynamical matrix over a grid of delta values."""

    deltas: np.ndarray
    eigenvalues: list  # one complex array per delta
    metadata: dict = field(default_factory=dict)


def spectrum_sweep(J: float, theta: float, delta_grid, regime: Regime,
                   boundary) -> SpectrumSweep:
    """Spectrum of the dynamical matrix as a function of delta.

    PBC: eigenvalues of the 8x8 k-space matrices of the whole momentum
    grid, one stacked solve per delta.  OBC: eigenvalues of the 8N x 8N
    real-space matrix.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.size == 0:
        raise DomainError("delta grid must be non-empty")
    rows = []
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
        evs = evs[np.lexsort((evs.imag, evs.real))]
        rows.append(evs)
    meta = {"J": J, "theta": theta, "regime": regime.value}
    if isinstance(boundary, PBC):
        meta["boundary"] = "pbc"
        meta["k_points"] = boundary.k_grid.size
    else:
        meta["boundary"] = "obc"
        meta["n_cells"] = boundary.n_cells
    return SpectrumSweep(deltas=deltas, eigenvalues=rows, metadata=meta)


def ipr_localization(A: np.ndarray, n_cells: int | None = None):
    """Inverse participation ratio and mean position of every right eigenvector.

    For an 8N x 8N Nambu matrix pass ``n_cells``; the 8 internal components
    of each unit cell (4 particle + 4 hole) are aggregated, positions are
    unit-cell indices 1..N.  Returns a list of (eigenvalue, ipr, mean_position).
    """
    import scipy.linalg  # only this generalized eigensolve needs scipy

    es = eig_general(A)
    dim = A.shape[0]
    if n_cells is not None:
        if dim != 8 * n_cells:
            raise DomainError(f"matrix size {dim} incompatible with {n_cells} cells")
        positions = np.tile(np.repeat(np.arange(1, n_cells + 1), 4), 2)
    else:
        positions = np.arange(1, dim + 1)

    # within a degenerate cluster any linear combination is an eigenvector;
    # diagonalize the position expectation there so the reported states are
    # the extremally localized representatives instead of solver-dependent
    # left/right mixtures
    vr = es.right.copy()
    w = es.values
    scale = max(1.0, np.abs(w).max())
    start = 0
    while start < dim:
        stop = start + 1
        while stop < dim and abs(w[stop] - w[stop - 1]) <= 1e-8 * scale:
            stop += 1
        if stop - start > 1 and not es.defective[start:stop].any():
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
