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

The real-regime blocks are conjugation-symmetric: E^f(-k) = conj E^f(k)
and d^i_hat . d^f_hat (-k) = conj of its value at k.  ``pgp_field`` builds
each -k row of the (k, t) field from the cos and sin of its +k row, with
the bits of the direct evaluation.  The two can differ only in the sign
of an exact zero; the field evaluates those elements directly.  Every
imaginary part at t = 0 is such a zero.
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
from .model import CouplingSet, Regime, _check_squares, bloch, two_band
from .topology import _bisect_all, _wrap

#: refinement rounds of ``dtop`` per flagged step (8, 64, 512 sub-steps)
_MAX_REFINE = 3
#: momenta per chunk of ``pgp_field``'s rows
_FIELD_ROWS = 32
#: least times per block of ``dtop``'s half-zone k-increments
_DTOP_COLS = 64
#: ``critical_set`` re-evaluates the k_c equation at one momentum where its
#: array value lies within this multiple of ``_kc_scale`` of zero
_KC_GUARD = 1e-13
#: ov = d^i_hat . d^f_hat is +-1 to rounding where |1 - ov^2| is at most
#: this: g_k = exp(+-i E^f t) never vanishes there (at every k of a
#: self-quench), so the momentum has no crossing
_OV_UNIT = 1e-13

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


def map_chunks(fn, n_chunks: int, consume) -> int:
    """Run fn(0), ..., fn(n_chunks - 1) on a thread pool; returns its size.

    The pool has min(cpus_available(), n_chunks) threads, which overlap
    where fn spends its time in numpy calls that release the GIL.  Each
    result is passed to ``consume`` on the calling thread, in chunk order.
    No chunk is started more than 2 x (pool size) chunks ahead of the next
    one to consume, which bounds the results held at once.  An exception
    raised by fn is raised here, unchanged, when its chunk is next, and no
    further chunk is started.  A pool of one thread is this thread.
    """
    workers = max(1, min(cpus_available(), n_chunks))
    if workers == 1:
        for i in range(n_chunks):
            consume(fn(i))
        return 1
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
    """(E^i, E^f, overlap) with bilinear-normalized Bloch vectors, vectorized in k.

    A DoubleOverflowError where d.d could leave the double range.
    """
    _check_squares(ci)
    _check_squares(cf)
    k = np.asarray(k, dtype=float)
    bi = bloch(k, ci, Regime.REAL)
    bf = bloch(k, cf, Regime.REAL)
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


def _unwrap(p: np.ndarray) -> np.ndarray:
    """np.unwrap(p, axis=1) in place: overwrites the float array p, returns it.

    np.unwrap corrects each increment d along a row by mod(d + pi, 2 pi) -
    pi - d (pi, not -pi, where that is -pi and d > 0) where |d| < pi fails,
    NaN included, and by 0 elsewhere, then adds the cumulative sum of the
    corrections.  Here the modulo is taken at those jumps only; the
    corrections and their sum are the same, so are the bits.
    """
    d = np.diff(p, axis=1)
    jump = ~(np.abs(d) < np.pi)
    dj = d[jump]
    fix = np.mod(dj + np.pi, 2 * np.pi) - np.pi
    fix[(fix == -np.pi) & (dj > 0)] = np.pi
    d[:] = 0.0  # d now holds the corrections
    d[jump] = fix - dj
    p[:, 1:] += np.cumsum(d, axis=1)
    return p


def _gk_parts(Ef, ov, t):
    """cos(E^f t), i ov sin(E^f t) and the dynamical phase Re(E^f ov) t.

    g_k(t) is the sum of the first two.  At -k, where E^f and ov are their
    conjugates, it is the conjugate of their difference (see ``pgp_field``).
    """
    phase = Ef * t
    return np.cos(phase), 1j * ov * np.sin(phase), np.real(Ef * ov) * t


def _gk_and_dyn(Ef, ov, t):
    """g_k(t) = cos(E^f t) + i ov sin(E^f t) and the dynamical phase Re(E^f ov) t."""
    c, a, dyn = _gk_parts(Ef, ov, t)
    return c + a, dyn


def loschmidt_gk(k, ci: CouplingSet, cf: CouplingSet, t):
    """Loschmidt amplitude g_k(t) = cos(E^f t) + i (d^i_hat . d^f_hat) sin(E^f t)."""
    _, Ef, ov = _overlap_fields(k, ci, cf)
    t = np.asarray(t)  # complex times allowed (Fisher-zero checks)
    return _gk_and_dyn(Ef, ov, t)[0]


def _mode_parameter(k: float, c: CouplingSet):
    """(u, E) with eigenvectors (pm u, 1) of the real-regime 2x2 block
    [[0, a], [b, 0]] at momentum k and b*u = +E.

    The two principal square roots sqrt(a/b) and sqrt(ab) can land on
    inconsistent sheets for complex entries; the sign of u is fixed so the
    pair multiplies back to the principal E.
    """
    H = two_band(k, c, Regime.REAL)
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
    ui, _ = _mode_parameter(k, ci)
    uf, Ef = _mode_parameter(k, cf)
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
    # (n_t, n_k), time-major; -inf where g_k(t) = 0; only return_rate reads
    # it, so a caller done with it may set it to None
    log_mag2: np.ndarray | None
    phi_pgp: np.ndarray    # (n_k, n_t)
    workers: int           # threads that built the field
    mirrored: int = 0      # -k rows built from the cos and sin of their +k row


def _bits(a: np.ndarray) -> np.ndarray:
    """The 64-bit words of each element of a 1-d float or complex array, one
    row per element: equal rows mean equal bits, -0.0 and NaN included."""
    return np.ascontiguousarray(a).view(np.int64).reshape(a.size, -1)


def _mirror_pairs(k, Ef, ov):
    """Rows (i, j) with k_i > 0 and k_j = -k_i bit for bit, and E^f and ov
    at k_j the bitwise conjugates of those at k_i up to the sign of a zero
    (``x + 0.0`` makes each -0.0 part +0.0); i ascending.  A Hermitian final
    block has real E^f and ov with an imaginary +0.0 at both +-k, whose
    conjugate is -0.0: a zero's sign reaches the field only where Im g = 0,
    and ``pgp_field`` evaluates those elements directly."""
    i = np.nonzero(k > 0)[0]
    j = np.minimum(np.searchsorted(k, -k[i]), k.size - 1)
    same = ((_bits(k[j]) == _bits(-k[i]))
            & (_bits(Ef[j] + 0.0) == _bits(np.conj(Ef[i]) + 0.0))
            & (_bits(ov[j] + 0.0) == _bits(np.conj(ov[i]) + 0.0))).all(axis=1)
    return i[same], j[same]


def pgp_field(p: QuenchProtocol) -> PgpField:
    """Loschmidt amplitude and Pancharatnam geometric phase over the (k, t) grid.

    The total phase arg g_k(t) is unwrapped along t per momentum (by
    ``_unwrap``, with the bits of ``np.unwrap``); the dynamical phase is the
    real part of E^f (d^i_hat . d^f_hat) t.  Of
    g_k(t) itself only log |g_k(t)|^2 is kept, stored time-major so that
    each time's row is contiguous.  |g_k(t)|^2 grows like exp(2 |Im E^f| t);
    where it leaves the double range a DoubleOverflowError is raised.

    In the real regime E^f(-k) = conj E^f(k) and ov(-k) = conj ov(k).  With
    C = cos(E^f t) and A = i ov sin(E^f t) at +k, g(k) = C + A and
    g(-k) = conj(C - A), and the dynamical phase is the same at +-k.  Each
    step of the two is the same IEEE operation on the same magnitudes, so
    they agree bit for bit except in the sign of an exact zero.  Only the
    imaginary part's sign can reach the field: it decides arg g where
    Re g <= 0, and in the first time column, which ``_unwrap`` leaves
    as it is.  So the cos and sin are taken at the +k row of each pair of
    ``_mirror_pairs`` and at each unpaired row, and each element of a
    mirrored row whose imaginary part is zero (every one at t = 0) is
    evaluated directly.  Chunks of _FIELD_ROWS / 2 pairs, then of
    _FIELD_ROWS unpaired rows, are built on ``map_chunks``' threads.  Every
    other operation acts per element or per row, so the field is that of
    ``_gk_and_dyn`` over the whole grid, bit for bit, for any chunking and
    any number of threads.
    """
    _, Ef, ov = _overlap_fields(p.k_grid, p.initial, p.final)
    t = p.t_grid[None, :]
    phi_pgp = np.empty((Ef.size, t.size))
    log_mag2 = np.empty((t.size, Ef.size))
    src, mir = _mirror_pairs(p.k_grid, Ef, ov)
    alone = np.setdiff1d(np.arange(Ef.size), np.concatenate([src, mir]))
    half = _FIELD_ROWS // 2
    chunks = ([(src[a:a + half], mir[a:a + half]) for a in range(0, src.size, half)]
              + [(alone[a:a + _FIELD_ROWS], mir[:0])
                 for a in range(0, alone.size, _FIELD_ROWS)])
    tops = []

    def rows(i):
        # the chunk's rows are its +k (or unpaired) rows s, then their mirrors m
        s, m = chunks[i]
        with np.errstate(all="ignore"):  # -inf marks a zero; overflow raises below
            c, a, phi_dyn = _gk_parts(Ef[s, None], ov[s, None], t)
            g = np.empty((s.size + m.size, t.size), dtype=complex)
            np.add(c, a, out=g[:s.size])
            gm = np.subtract(c[:m.size], a[:m.size], out=g[s.size:])
            np.conjugate(gm, out=gm)
            z = np.flatnonzero(gm.imag == 0)
            zm = m[z // t.size]
            gm.flat[z] = _gk_and_dyn(Ef[zm], ov[zm], t[0, z % t.size])[0]
            phi = _unwrap(np.angle(g))
            phi[:s.size] -= phi_dyn
            phi[s.size:] -= phi_dyn[:m.size]
            lm = np.log(np.abs(g) ** 2)
        out = np.concatenate([s, m])
        phi_pgp[out] = phi
        log_mag2[:, out] = lm.T
        return lm.max()

    workers = map_chunks(rows, len(chunks), tops.append)
    if not np.max(tops) < np.inf:  # +inf or NaN somewhere
        it = np.argmin((log_mag2 < np.inf).all(axis=1))
        reach = np.abs(Ef.imag).max() * p.t_grid[it]
        raise DoubleOverflowError(
            f"|g_k(t)|^2 overflows double precision from t = {p.t_grid[it]:.6g} "
            f"(in units of 1/J_f), where max|Im E^f| t = {reach:.4g}; |g_k|^2 "
            "grows like exp(2 |Im E^f| t) and the double range ends at exp(709.8)"
        )
    return PgpField(protocol=p, log_mag2=log_mag2, phi_pgp=phi_pgp,
                    workers=workers, mirrored=mir.size)


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
    brackets: int = 0      # sign changes of the k_c equation on the grid
    halvings: int = 0      # bisection steps over all brackets
    scalar_checks: int = 0  # k_c values near zero re-evaluated at one momentum

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


def _kc_value(Ef, ov, n):
    # real-time zero condition of g_k: from e^{2iE t} = -(1-ov)/(1+ov) the
    # time is real iff pi(n+1/2) Im E = Re(conj(E) atanh(ov)); the side label
    # then marks the half zone where g_k actually vanishes
    return -np.pi * (n + 0.5) * Ef.imag + np.real(np.conj(Ef) * np.arctanh(ov))


def _kc_equation(k, ci, cf, n):
    return _kc_value(*_overlap_fields(k, ci, cf)[1:], n)


def _kc_scale(k, ci, cf, Ef, ov, n):
    # first-order change of the k_c equation under a unit relative error in
    # each of d^i.d^i, d^f.d^f and d^i.d^f, each weighted by its condition
    # number: numpy rounds complex products on arrays and on scalars
    # differently, so the array and one-momentum values differ by a few ulps
    # of this (at most 2.2e-16 of it over 72 000 sampled values, random and
    # near exceptional points).  It is inf or NaN where a product vanishes
    bi, bf = bloch(k, ci, Regime.REAL), bloch(k, cf, Regime.REAL)
    xi, yi, xf, yf = bi.dx, bi.dy, bf.dx, bf.dy

    def cond(x1, y1, x2, y2):
        return (np.abs(x1 * x2) + np.abs(y1 * y2)) / np.abs(x1 * x2 + y1 * y2)

    with np.errstate(divide="ignore", invalid="ignore"):
        c_i, c_f, c_if = cond(xi, yi, xi, yi), cond(xf, yf, xf, yf), cond(xi, yi, xf, yf)
        return np.abs(Ef) * ((np.pi * (n + 0.5) + np.abs(np.arctanh(ov))) * c_f
                             + np.abs(ov) * (c_i + c_f + c_if) / np.abs(1 - ov**2))


def critical_set(p: QuenchProtocol, n_range=range(10)) -> CriticalTimes:
    """Critical momenta/times from sign changes of the k_c equation.

    Each half zone is scanned on the fields built once for the whole k grid.
    All brackets are then refined together by ``topology._bisect_all`` to
    1e-12 in k, with the halvings of the scalar ``_bisect``, and the
    closed-form t_c and the residual are evaluated at each k_c.  A k_c value
    computed on an array can differ from the one-momentum value by a few
    ulps of ``_kc_scale``; where it lies within _KC_GUARD of that of zero it
    is re-evaluated at its momentum alone, so every step takes the side the
    scalar bisection takes, and each k_c keeps its bits.  Times outside the
    protocol's t span are discarded.  ``t_complete`` is the least crossing
    time of the first order above n_range over the k grid: a crossing of a
    higher order comes no earlier (while Re E^f > 0), so the list holds
    every crossing before it.  Momenta where ov = +-1 (``_OV_UNIT``) are
    left out of both, so t_complete is +inf where every momentum is one.
    """
    _, Ef, ov = _overlap_fields(p.k_grid, p.initial, p.final)
    live = np.abs(1 - ov**2) > _OV_UNIT
    n_next = max(n_range, default=-1) + 1
    # (n, side, left end, right end) of each bracket, in scan order
    found = []
    for side, on in (("+", live & (p.k_grid > 0)), ("-", live & (p.k_grid < 0))):
        ks = p.k_grid[on]
        if ks.size < 2:
            continue
        for n in n_range:
            vals = _kc_value(Ef[on], ov[on], n)
            found += [(n, side, ks[i], ks[i + 1])
                      for i in np.nonzero(np.diff(np.sign(vals)) != 0)[0]]
    orders = np.array([b[0] for b in found], dtype=int)
    checks = 0

    def kc_values(k, i):
        nonlocal checks
        n = orders[i]
        _, Ef, ov = _overlap_fields(k, p.initial, p.final)
        vals = _kc_value(Ef, ov, n)
        # a NaN scale (or value) counts as near zero
        far = np.abs(vals) >= _KC_GUARD * _kc_scale(k, p.initial, p.final, Ef, ov, n)
        for j in np.nonzero(~far)[0]:
            vals[j] = _kc_equation(k[j], p.initial, p.final, n[j])
            checks += 1
        return vals

    kcs, halvings = _bisect_all(kc_values, [b[2] for b in found],
                                [b[3] for b in found])
    out = CriticalTimes([], float(_crossing_time(Ef[live], ov[live], n_next)
                                  .min(initial=np.inf)),
                        brackets=len(found), halvings=halvings,
                        scalar_checks=checks)
    t_lo, t_hi = p.t_grid[0], p.t_grid[-1]
    for (n, side, _, _), kc in zip(found, kcs):
        _, Ef_c, ov_c = _overlap_fields(kc, p.initial, p.final)
        tc = _crossing_time(Ef_c, ov_c, n)
        if tc <= 0 or tc < t_lo or tc > t_hi:
            continue
        residual = float(_kc_value(Ef_c, ov_c, n))
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
    the finest sub-grid tried.  refined counts the (step, time) pairs
    re-differenced over a sub-grid, resolved or not.
    """

    t: np.ndarray
    dtop_plus: np.ndarray
    dtop_minus: np.ndarray
    drift_plus: np.ndarray
    drift_minus: np.ndarray
    resolved: np.ndarray
    refined: int = 0


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
    n_refined = 0

    def phi_at(k_vals, t):
        _, Ef, ov = _overlap_fields(k_vals, p.initial, p.final)
        g, phi_dyn = _gk_and_dyn(Ef, ov, t)
        return np.angle(g) - phi_dyn

    def half(side, rows):
        ks = p.k_grid[rows]
        phi = f.phi_pgp[rows]
        total = np.empty(t_grid.size)
        for cols in _column_blocks(t_grid.size):
            inc = _wrap(np.diff(phi[:, cols], axis=0))
            total[cols] = inc.sum(axis=0)
            for i, j in zip(*np.nonzero((inc > np.pi / 2) | (inc < -np.pi / 2))):
                it = cols.start + j
                total[it] += refined(side, ks[i], ks[i + 1], it) - inc[i, j]
        drift = (phi[-1] - phi[0]) / (2 * np.pi)
        return total / (2 * np.pi) - drift, drift

    def refined(side, a, b, it):
        # the step (a, b) at time index it, re-differenced over a locally
        # refined sub-grid
        nonlocal n_refined
        n_refined += 1
        t = t_grid[it]
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
        return sub_inc.sum()

    # the k grid is sorted with matched +-k: each half zone is a contiguous
    # block of rows (a k = 0 row may sit between them)
    n = np.count_nonzero(p.k_grid > 0)
    dplus, drift_plus = half("+", slice(p.k_grid.size - n, None))
    dminus, drift_minus = half("-", slice(0, n))
    return DtopSeries(t=t_grid.copy(), dtop_plus=dplus, dtop_minus=dminus,
                      drift_plus=drift_plus, drift_minus=drift_minus,
                      resolved=resolved, refined=n_refined)


def _column_blocks(n: int):
    """Slices covering range(n) in blocks of _DTOP_COLS to 2 _DTOP_COLS - 1,
    or one block where n is smaller.  No block is one column unless n is 1:
    numpy sums the columns of a wider block row by row, as it does over the
    whole array, so the sums are the same bit for bit, but sums a single
    column pairwise."""
    edges = np.linspace(0, n, max(n // _DTOP_COLS, 1) + 1).astype(int).tolist()
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]

