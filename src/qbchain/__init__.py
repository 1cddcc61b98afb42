"""Numerical laboratory for a quadratic bosonic chain.

A Hermitian quadratic bosonic Hamiltonian on a four-sublattice chain gives
rise to non-Hermitian dynamical matrices.  With real hopping/pairing
amplitudes the dynamics decouples into four two-EP non-Hermitian SSH chains
(including a fractional Moebius phase and chiral quench dynamics); with
purely imaginary amplitudes into four single-EP chains whose non-trivial
topology drives sublattice-dependent directional amplification.
"""

__version__ = "0.1.0"

from .exceptions import (
    BranchCutError,
    ConvergenceError,
    DomainError,
    DoubleOverflowError,
    ExceptionalPointError,
    QbChainError,
    ResolutionError,
    SingularityError,
    ValidationError,
)
from .model import (
    OBC,
    PBC,
    BlochVector,
    CouplingSet,
    Regime,
    derive_couplings,
)
from .spectral import SpectrumSweep, spectrum_sweep
from .topology import Phase, PhaseLabel, WindingResult
from .quench import (
    CriticalTimes,
    DtopSeries,
    PgpField,
    QuenchProtocol,
)
from .amplification import GainProfile, SusceptibilityReport

__all__ = [
    "__version__",
    "QbChainError",
    "DomainError",
    "ValidationError",
    "ExceptionalPointError",
    "BranchCutError",
    "ResolutionError",
    "SingularityError",
    "DoubleOverflowError",
    "ConvergenceError",
    "CouplingSet",
    "Regime",
    "PBC",
    "OBC",
    "BlochVector",
    "derive_couplings",
    "SpectrumSweep",
    "spectrum_sweep",
    "Phase",
    "PhaseLabel",
    "WindingResult",
    "QuenchProtocol",
    "CriticalTimes",
    "PgpField",
    "DtopSeries",
    "SusceptibilityReport",
    "GainProfile",
]
