"""Sudden-quench engine: Loschmidt amplitude, return rate, Fisher zeros,
critical times, Pancharatnam geometric phase and DTOPs.

All quenches act on the two-band real-regime blocks.  The complex Bloch
vector is normalized with the bilinear product d.d = d_x^2 + d_y^2 (not the
Hermitian one); this is the unique convention for which a self-quench gives
g_k = exp(iEt).

The DTOP of each half zone is the winding of the Pancharatnam geometric
phase (PGP) across it, with the PGP pinned at the ends of the momentum grid
(Budich & Heyl, PRB 93, 085416 (2016)), so it is an integer.  Budich-Heyl
pin the PGP at the fixed momenta k = 0, pi, where H_i and H_f commute.  Here
the final Bloch vector has d_y = -i w_m cos k there, with
w_m = (w_l - w_r)/2 nonzero whenever theta_f != 0.  Then the PGP is not
pinned at k = 0, pi, and the raw half-zone sum of k-increments carries a
smooth endpoint term that grows with t.  ``dtop`` returns that term
separately as the drift.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    BranchCutError,
    DomainError,
    DoubleOverflowError,
    ExceptionalPointError,
    ResolutionError,
)
from .model import CouplingSet, bloch_nssh2, hamiltonian_nssh2_k
from .topology import _wrap

#: refinement rounds of ``dtop`` per flagged step (8, 64, 512 sub-steps)
_MAX_REFINE = 3
#: momenta per chunk of ``pgp_field``'s rows
_FIELD_ROWS = 32

__all__ = [
    "cpus_available",
    "map_chunks",
    "QuenchProtocol",
    "CriticalTimes",
    "PgpField",
    "DtopSeries",
    "loschmidt_gk",
    "loschmidt_oracle",
    "return_rate",
    "fisher_zeros",
    "critical_set",
    "pgp_field",
    "dtop",
]


def cpus_available() -> int:
    """Number of CPUs this process may run on: its affinity mask where the
    platform has one (Linux), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_chunks(fn, n_chunks: int, consume=None) -> int:
    """Run fn(0), ..., fn(n_chunks - 1) on a thread pool; returns its size.

    The pool has min(cpus_available(), n_chunks) threads, which overlap
    where fn spends its time in numpy calls that release the GIL.  Each
    result is passed to ``consume`` on the calling thread, in chunk order.
    No chunk is started more than 2 x (pool size) chunks ahead of the next
    one to consume, which bounds the results held at once.  An exception
    raised by fn is raised here, unchanged, when its chunk is next, and no
    further chunk is started.
    """
    workers = max(1, min(cpus_available(), n_chunks))
    slots = threading.Semaphore(2 * workers)
    done = threading.Condition()
    results = {}
    next_chunk = [0]

    def work():
        while True:
            slots.acquire()
            with done:
                i = next_chunk[0]
                if i >= n_chunks:
                    return
                next_chunk[0] = i + 1
            try:
                out = (fn(i), None)
            except BaseException as exc:  # re-raised on the calling thread
                out = (None, exc)
            with done:
                results[i] = out
                done.notify_all()

    threads = []
    try:
        for _ in range(workers):
            th = threading.Thread(target=work)
            th.start()
            threads.append(th)
        for i in range(n_chunks):
            with done:
                done.wait_for(lambda: i in results)
                out, exc = results.pop(i)
            if exc is not None:
                raise exc
            if consume is not None:
                consume(out)
            slots.release()
    finally:
        with done:
            next_chunk[0] = n_chunks  # start no further chunk
        for _ in threads:
            slots.release()
        for th in threads:
            th.join()
    return workers


def _overlap_fields(k, ci: CouplingSet, cf: CouplingSet):
    """(E^i, E^f, overlap) with bilinear-normalized Bloch vectors, vectorized in k."""
    k = np.asarray(k, dtype=float)
    bi = bloch_nssh2(k, ci)
    bf = bloch_nssh2(k, cf)
    ddi = bi.dx**2 + bi.dy**2
    ddf = bf.dx**2 + bf.dy**2
    if np.abs(ddi).min() < 1e-14 or np.abs(ddf).min() < 1e-14:
        raise ExceptionalPointError(
            "d.d vanishes: Bloch-vector normalization undefined at an "
            "exceptional point"
        )
    Ei = np.sqrt(ddi)
    Ef = np.sqrt(ddf)
    ov = (bi.dx * bf.dx + bi.dy * bf.dy) / (Ei * Ef)
    return Ei, Ef, ov


def _gk_and_dyn(Ef, ov, t):
    """g_k(t) = cos(E^f t) + i ov sin(E^f t) and the dynamical phase Re(E^f ov) t."""
    phase = Ef * t
    return np.cos(phase) + 1j * ov * np.sin(phase), np.real(Ef * ov) * t


def loschmidt_gk(k, ci: CouplingSet, cf: CouplingSet, t):
    """Loschmidt amplitude g_k(t) = cos(E^f t) + i (d^i_hat . d^f_hat) sin(E^f t)."""
    _, Ef, ov = _overlap_fields(k, ci, cf)
    t = np.asarray(t)  # complex times allowed (Fisher-zero checks)
    return _gk_and_dyn(Ef, ov, t)[0]


def _mode_parameter(H: np.ndarray):
    """(u, E) with eigenvectors (pm u, 1) of the 2x2 block and b*u = +E.

    The two principal square roots sqrt(a/b) and sqrt(ab) can land on
    inconsistent sheets for complex entries; the sign of u is fixed so the
    pair multiplies back to the principal E.
    """
    a, b = H[0, 1], H[1, 0]
    if min(abs(a), abs(b)) < 1e-14:
        raise ExceptionalPointError("2x2 block is defective (off-diagonal vanishes)")
    E = np.sqrt(a * b)
    u = np.sqrt(a / b)
    if abs(b * u - E) > abs(b * u + E):
        u = -u
    return u, E


def loschmidt_oracle(k: float, ci: CouplingSet, cf: CouplingSet, t: float,
                     method: str = "fq") -> complex:
    """Independent Loschmidt amplitudes for cross-validation.

    method="fq": assemble the Bogoliubov coefficients F_{1,2}, Q_{1,2}
    relating initial and final normal modes and evaluate
    (Q2 F2 e^{-iE^f t} + Q1 F1 e^{iE^f t}) / ((Q2^2-Q1^2)(F2^2-F1^2)).

    method="biortho": evolve the lower-band initial right eigenvector under
    the final 2x2 block through its biorthogonal eigendecomposition and
    contract with the matching left eigenvector.
    """
    ui, _ = _mode_parameter(hamiltonian_nssh2_k(k, ci))
    Hf = hamiltonian_nssh2_k(k, cf)
    uf, Ef = _mode_parameter(Hf)
    if method == "fq":
        rho = ui / uf
        F1, F2 = 0.5 * (1 + rho), 0.5 * (1 - rho)
        Q1, Q2 = 0.5 * (1 + 1 / rho), 0.5 * (1 - 1 / rho)
        den = (Q2**2 - Q1**2) * (F2**2 - F1**2)
        return complex(
            (Q2 * F2 * np.exp(-1j * Ef * t) + Q1 * F1 * np.exp(1j * Ef * t)) / den
        )
    if method == "biortho":
        psi = np.array([-ui, 1.0])           # initial -E right eigenvector
        chi = 0.5 * np.array([-1 / ui, 1.0])  # matching left eigenvector
        psf_p, psf_m = np.array([uf, 1.0]), np.array([-uf, 1.0])
        chf_p = 0.5 * np.array([1 / uf, 1.0])
        chf_m = 0.5 * np.array([-1 / uf, 1.0])
        ev = (np.exp(-1j * Ef * t) * np.outer(psf_p, chf_p)
              + np.exp(1j * Ef * t) * np.outer(psf_m, chf_m))
        return complex(chi @ ev @ psi)
    raise DomainError(f"unknown oracle method {method!r}")


@dataclass(frozen=True)
class QuenchProtocol:
    """Initial/final couplings plus momentum and time grids for one quench."""

    initial: CouplingSet
    final: CouplingSet
    k_grid: np.ndarray
    t_grid: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k_grid, dtype=float)
        t = np.asarray(self.t_grid, dtype=float)
        if k.ndim != 1 or k.size < 2 or np.any(np.diff(k) <= 0):
            raise DomainError("k grid must be strictly increasing")
        # half-zone DTOPs need matched +-k pairs
        neg, pos = np.sort(-k[k < 0]), k[k > 0]
        if neg.size != pos.size or not np.allclose(neg, pos, atol=1e-12):
            raise DomainError("k grid must contain matched +-k pairs")
        if t.ndim != 1 or t.size < 2 or t[0] < 0 or np.any(np.diff(t) <= 0):
            raise DomainError("t grid must be strictly increasing and >= 0")
        object.__setattr__(self, "k_grid", k)
        object.__setattr__(self, "t_grid", t)

    @classmethod
    def default(cls, initial: CouplingSet, final: CouplingSet,
                t_max: float = 12.0, n_half: int = 1000,
                n_t: int = 800) -> "QuenchProtocol":
        """Symmetric momentum grid of n_half midpoints per half zone."""
        half = (np.arange(n_half) + 0.5) * np.pi / n_half
        k = np.concatenate([-half[::-1], half])
        t = np.linspace(0.0, t_max, n_t)
        return cls(initial=initial, final=final, k_grid=k, t_grid=t)


@dataclass
class PgpField:
    """log |g_k(t)|^2 and the Pancharatnam geometric phase over one protocol's grid."""

    protocol: QuenchProtocol
    log_mag2: np.ndarray   # (n_t, n_k), time-major; -inf where g_k(t) = 0
    phi_pgp: np.ndarray    # (n_k, n_t)
    workers: int           # threads that built the field


def pgp_field(p: QuenchProtocol) -> PgpField:
    """Loschmidt amplitude and Pancharatnam geometric phase over the (k, t) grid.

    The total phase arg g_k(t) is unwrapped along t per momentum; the
    dynamical phase is the real part of E^f (d^i_hat . d^f_hat) t.  Of
    g_k(t) itself only log |g_k(t)|^2 is kept, stored time-major so that
    each time's row is contiguous.  Rows are built _FIELD_ROWS momenta at a
    time on ``map_chunks``' threads.  Every operation acts per element or
    per row, so the field is the same, bit for bit, for any chunking and
    any number of threads.  |g_k(t)|^2 grows like exp(2 |Im E^f| t); where
    it leaves the double range a DoubleOverflowError is raised.
    """
    _, Ef, ov = _overlap_fields(p.k_grid, p.initial, p.final)
    t = p.t_grid[None, :]
    phi_pgp = np.empty((Ef.size, t.size))
    log_mag2 = np.empty((t.size, Ef.size))
    tops = []

    def rows(i):
        s = slice(i * _FIELD_ROWS, (i + 1) * _FIELD_ROWS)
        with np.errstate(all="ignore"):  # -inf marks a zero; overflow raises below
            g, phi_dyn = _gk_and_dyn(Ef[s, None], ov[s, None], t)
            np.subtract(np.unwrap(np.angle(g), axis=1), phi_dyn, out=phi_pgp[s])
            lm = np.log(np.abs(g) ** 2)
        log_mag2[:, s] = lm.T
        return lm.max()

    workers = map_chunks(rows, -(-Ef.size // _FIELD_ROWS), tops.append)
    if not np.max(tops) < np.inf:  # +inf or NaN somewhere
        it = np.argmin((log_mag2 < np.inf).all(axis=1))
        reach = np.abs(Ef.imag).max() * p.t_grid[it]
        raise DoubleOverflowError(
            f"|g_k(t)|^2 overflows double precision from t = {p.t_grid[it]:.6g}, "
            f"where max|Im E^f| t = {reach:.1f}; |g_k|^2 grows like "
            "exp(2 |Im E^f| t) and the double range ends at exp(709.8)"
        )
    return PgpField(protocol=p, log_mag2=log_mag2, phi_pgp=phi_pgp,
                    workers=workers)


def return_rate(f: PgpField) -> np.ndarray:
    """RR(t) = -(1/N_k) sum_k log |g_k(t)|^2, as a mean of logs; +inf where G(t) = 0.

    A vanishing g_k(t) is -inf in log_mag2, so its time's mean is -inf too.
    """
    return -np.mean(f.log_mag2, axis=1)


def fisher_zeros(k: float, ci: CouplingSet, cf: CouplingSet, n_range=range(10)):
    """Complex Fisher zeros omega_n of g_k at fixed momentum."""
    _, Ef, ov = _overlap_fields(float(k), ci, cf)
    if ov.imag == 0.0 and abs(ov.real) >= 1.0:
        raise BranchCutError(
            f"atanh argument {ov.real} lies on the real branch cut |x| >= 1"
        )
    at = np.arctanh(ov)
    return [1j * np.pi * (2 * n + 1) / (2 * Ef) + at / Ef for n in n_range]


@dataclass
class CriticalTimes:
    """Solutions (n, side, k_c, t_c) of the Fisher-zero real-axis crossings.

    Every crossing before t_complete is listed: orders above the scanned
    range cross no earlier.
    """

    entries: list          # (n, side, k_c, t_c, residual)
    t_complete: float

    def times(self, side: str | None = None):
        sel = [e[3] for e in self.entries if side is None or e[1] == side]
        return np.array(sorted(sel))


def _crossing_time(Ef, ov, n):
    # real time of the order-n crossing at a momentum where the k_c equation
    # holds; it grows with n while Re E^f > 0.  The builtin abs keeps numpy's
    # scalar |E^f| for single momenta, which can differ from np.abs in the
    # last bit, so the listed times keep their digits
    return (np.pi * (n + 0.5) * Ef.real
            - np.imag(np.conj(Ef) * np.arctanh(ov))) / abs(Ef) ** 2


def _kc_equation(k, ci, cf, n):
    # real-time zero condition of g_k: from e^{2iE t} = -(1-ov)/(1+ov) the
    # time is real iff pi(n+1/2) Im E = Re(conj(E) atanh(ov)); the side label
    # then marks the half zone where g_k actually vanishes
    _, Ef, ov = _overlap_fields(k, ci, cf)
    return -np.pi * (n + 0.5) * Ef.imag + np.real(np.conj(Ef) * np.arctanh(ov))


def critical_set(p: QuenchProtocol, n_range=range(10)) -> CriticalTimes:
    """Critical momenta/times from sign changes of the k_c equation.

    Each half zone is scanned separately; brackets are refined by bisection
    to 1e-12 in k, then the closed-form t_c is evaluated.  Times outside the
    protocol's t span are discarded.  ``t_complete`` is the least crossing
    time of the first order above n_range over the k grid: a crossing of a
    higher order comes no earlier (while Re E^f > 0), so the list holds
    every crossing before it.
    """
    _, Ef, ov = _overlap_fields(p.k_grid, p.initial, p.final)
    n_next = max(n_range, default=-1) + 1
    out = CriticalTimes([], float(_crossing_time(Ef, ov, n_next).min()))
    t_lo, t_hi = p.t_grid[0], p.t_grid[-1]
    for side, ks in (("+", p.k_grid[p.k_grid > 0]), ("-", p.k_grid[p.k_grid < 0])):
        if ks.size < 2:
            continue
        for n in n_range:
            vals = _kc_equation(ks, p.initial, p.final, n)
            sign_flip = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
            for i in sign_flip:
                a, b = ks[i], ks[i + 1]
                fa = _kc_equation(a, p.initial, p.final, n)
                while b - a > 1e-12:
                    m = 0.5 * (a + b)
                    fm = _kc_equation(m, p.initial, p.final, n)
                    if fa * fm <= 0:
                        b = m
                    else:
                        a, fa = m, fm
                kc = 0.5 * (a + b)
                _, Ef, ov = _overlap_fields(kc, p.initial, p.final)
                tc = _crossing_time(Ef, ov, n)
                if tc <= 0 or tc < t_lo or tc > t_hi:
                    continue
                residual = float(_kc_equation(kc, p.initial, p.final, n))
                out.entries.append((int(n), side, float(kc), float(tc), residual))
    out.entries.sort(key=lambda e: e[3])
    return out


@dataclass
class DtopSeries:
    """Half-zone DTOPs and the endpoint drift removed from them.

    dtop_plus/dtop_minus are integer winding numbers (up to rounding);
    dtop + drift is the raw half-zone sum of wrapped k-increments of phi_pgp.
    resolved is False at the times where a phase slip at a critical point
    could not be resolved; the DTOPs there are still the integer winding of
    the finest sub-grid tried.
    """

    t: np.ndarray
    dtop_plus: np.ndarray
    dtop_minus: np.ndarray
    drift_plus: np.ndarray
    drift_minus: np.ndarray
    resolved: np.ndarray


def dtop(f: PgpField, critical: CriticalTimes | None = None) -> DtopSeries:
    """Half-zone winding of the PGP, pinned at the ends of the grid.

    For each half zone and time, the sum of wrapped k-increments of phi_pgp
    equals (phi_pgp(k_last) - phi_pgp(k_first)) + 2 pi x (number of phase
    slips).  DTOP_pm(t) is the slip count: the wrapped-increment sum divided
    by 2 pi with the endpoint term removed, so it is an integer.  The
    endpoint term is returned as drift_pm.  When H_f is Hermitian
    (theta_f = 0) the PGP is pinned at k = 0, pi and the drift is only the
    O(h^2) offset of the grid ends from those momenta.

    Steps whose wrapped increment exceeds pi/2 are refined by inserting
    intermediate momenta.  A step still unresolved after _MAX_REFINE rounds
    is a zero of g_k(t) too close to the grid to resolve.  It is accepted,
    with that time marked unresolved, when a crossing of ``critical`` on the
    same half zone lies in its grid cell: k_c within the step and t_c
    strictly between the neighbouring grid times.  Otherwise a resolution
    error is raised.
    """
    p = f.protocol
    t_grid = p.t_grid
    resolved = np.ones(t_grid.size, dtype=bool)
    crossings = critical.entries if critical is not None else []

    def phi_at(k_vals, t):
        _, Ef, ov = _overlap_fields(k_vals, p.initial, p.final)
        g, phi_dyn = _gk_and_dyn(Ef, ov, t)
        return np.angle(g) - phi_dyn

    def half(side, rows):
        ks = p.k_grid[rows]
        phi = f.phi_pgp[rows]
        inc = _wrap_in_place(np.diff(phi, axis=0))
        total = inc.sum(axis=0)
        for i, it in zip(*np.nonzero((inc > np.pi / 2) | (inc < -np.pi / 2))):
            # re-difference this step over a locally refined sub-grid
            a, b, t = ks[i], ks[i + 1], t_grid[it]
            sub_ok = False
            npts = 8
            for _ in range(_MAX_REFINE):
                sub = np.linspace(a, b, npts + 1)
                sub_inc = _wrap(np.diff(phi_at(sub, t)))
                if np.abs(sub_inc).max() <= np.pi / 2:
                    sub_ok = True
                    break
                npts *= 8
            if not sub_ok:
                lo = t_grid[max(it - 1, 0)]
                hi = t_grid[min(it + 1, t_grid.size - 1)]
                if not any(s == side and a <= kc <= b and lo < tc < hi
                           for _, s, kc, tc, _ in crossings):
                    raise ResolutionError(
                        f"phase slip at k in ({a:.6f}, {b:.6f}), t={t:.6f} "
                        "not resolved by local refinement and at no critical "
                        "point"
                    )
                resolved[it] = False
            total[it] += sub_inc.sum() - inc[i, it]
        drift = (phi[-1] - phi[0]) / (2 * np.pi)
        return total / (2 * np.pi) - drift, drift

    # the k grid is sorted with matched +-k: each half zone is a contiguous
    # block of rows (a k = 0 row may sit between them)
    n = np.count_nonzero(p.k_grid > 0)
    dplus, drift_plus = half("+", slice(p.k_grid.size - n, None))
    dminus, drift_minus = half("-", slice(0, n))
    return DtopSeries(t=t_grid.copy(), dtop_plus=dplus, dtop_minus=dminus,
                      drift_plus=drift_plus, drift_minus=drift_minus,
                      resolved=resolved)


def _wrap_in_place(a: np.ndarray) -> np.ndarray:
    """topology._wrap, overwriting a: the same operations, bit for bit."""
    np.negative(a, out=a)
    a += np.pi
    np.remainder(a, 2 * np.pi, out=a)
    a -= np.pi
    return np.negative(a, out=a)
