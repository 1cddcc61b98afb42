"""Command-line front end emitting deterministic CSV/JSON artifacts.

Runs are configured by a flat key=value file (section headers in square
brackets are allowed and ignored) plus command-line overrides.  Every run
writes a ``manifest.json`` echoing the resolved configuration, the files
produced and the residuals observed.

Exit codes: 0 success, 1 usage error, 2 computation error, 3 tolerance
failure in ``check``.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import QbChainError
from . import amplification, model, quench, spectral, topology

# documented defaults per configuration key (string form, as in config files)
DEFAULTS = {
    "command": "check",
    "J": "1.0",
    "theta": "0.4",
    "delta": "0.5",
    "regime": "real",
    "boundary": "pbc",
    "n_cells": "40",
    "k_points": "101",
    "delta_min": "-0.9",
    "delta_max": "0.9",
    "delta_steps": "41",
    "theta_min": "0.0",
    "theta_max": "1.0",
    "theta_steps": "11",
    "grid_points": "2001",
    "model": "nssh2",
    "J_i": "1.0",
    "delta_i": "-0.9",
    "theta_i": "0.0",
    "J_f": "1.0",
    "delta_f": "0.9",
    "theta_f": "0.4",
    "t_max": "12.0",
    "n_half": "1000",
    "n_t": "800",
    "n_max": "10",
}


def _number_type(text: str):
    """int or float, the first that parses ``text``; None for neither."""
    for kind in (int, float):
        try:
            kind(text)
        except ValueError:
            continue
        return kind
    return None


#: the type of each numeric key, read off its default: "40" parses as an
#: int, "0.4" only as a float
_NUMERIC = {key: kind for key, text in DEFAULTS.items()
            if (kind := _number_type(text)) is not None}

#: the two-band model a ``winding`` run winds, by its config value
_MODELS = {"nssh2": model.Regime.REAL, "nssh1": model.Regime.IMAGINARY}


class UsageError(Exception):
    pass


#: bytes per formatted value, len("-1.2345678901234567e-308")
_CELL = 24
#: 10^0 .. 10^22, each exact in double
_POW10 = np.array([float(10**s) for s in range(23)])
#: the 4-byte words of a fast cell, as uint32: _WORDS[_HEAD + 10 s + d] is
#: "\0", the sign ("-" where s = 1, else "\0"), lead digit d and ".";
#: _WORDS[_GROUP + g] is the 4-digit group g, "0000" .. "9999";
#: _WORDS[_EXPONENT + E] is the exponent text "e-06" .. "e+16"
_WORDS = np.concatenate([
    np.array([b"\0%s%d." % (sign, d) for sign in (b"\0", b"-") for d in range(10)]),
    (np.arange(10000, dtype=np.uint16)[:, None]
     // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
     + ord("0")).astype(np.uint8).view("S4").ravel(),
    np.array([b"e%+03d" % s for s in range(-6, 17)]),
]).view(np.uint32)
_HEAD, _GROUP, _EXPONENT = 0, 20, 10020 + 6
#: the separators after a cell: "," and, after a row's last cell, "\n"
_COMMA, _NEWLINE = np.frombuffer(b",\n", dtype=np.uint8)[:, None]
#: rows per block of a table (16 momenta of the default pgp_grid.csv):
#: bounds the text held in memory
_TABLE_BLOCK = 12800


def _two_product(a: np.ndarray, b: np.ndarray):
    """(p, e) with p + e = a * b exactly (Dekker, with Veltkamp splits):
    e = (((ah bh - p) + ah bl) + al bh) + al bl, in place where it can be."""
    p = a * b
    ah = a * 134217729.0
    ah -= ah - a
    bh = b * 134217729.0
    bh -= bh - b
    al, bl = a - ah, b - bh
    e = ah * bh
    e -= p
    ah *= bl
    e += ah
    bh *= al
    e += bh
    al *= bl
    e += al
    return p, e


def _off_decade(p: np.ndarray, e: np.ndarray):
    """Masks of the exact p + e below 10^16 and at or above 10^17."""
    return ((p < 1e16) | ((p == 1e16) & (e < 0.0)),
            (p > 1e17) | ((p == 1e17) & (e >= 0.0)))


def _fmt_cells(x: np.ndarray) -> np.ndarray:
    """The exact ``'%.16e'`` text of each value as a zero-padded uint8 row.

    Zeros and values whose decimal exponent E lies in [-6, 16] are
    formatted in numpy: |x| 10^(16-E) is the exact unevaluated sum p + e
    (10^s is exact in double for 0 <= s <= 22).  p >= 10^16 > 2^53 is an
    even integer, so the correctly rounded 17-digit mantissa is
    p + rint(e), ties to even as in ``dtoa``.  It never rounds up to 10^17:
    no double in the window lies within the half unit 5e-18 (relative) below
    a power of ten; the nearest lie 8e-17 below.  Other values (tiny, huge,
    non-finite) go through Python's ``'%.16e'``.  Returns an array of shape
    (x.size, 24) of six 4-byte words, each looked up in _WORDS: a fast cell
    is "\0", its sign ("-" or "\0"), the lead digit and ".", four 4-digit
    groups and the exponent.  A slow cell starts at byte 0; zero bytes are
    padding.
    """
    x = np.ravel(np.asarray(x, dtype=float))
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        est = np.floor(np.log10(a))
    zero = a == 0.0
    slow = ~zero & ~((est >= -7) & (est <= 17))
    # zeros and slow values run as 1.0 * 10^16 and are reset below
    a[zero | slow] = 1.0
    ex = np.clip(np.where(zero | slow, 0.0, est), -6, 16).astype(np.int64)
    p, e = _two_product(a, _POW10[16 - ex])
    # the float estimate of E can be one off: step it by the exact p + e
    low, high = _off_decade(p, e)
    step = np.nonzero(low | high)[0]
    if step.size:
        ex[step] += high[step].astype(np.int64) - low[step].astype(np.int64)
        out = (ex[step] < -6) | (ex[step] > 16)
        slow[step[out]] = True
        step = step[~out]
        p[step], e[step] = _two_product(a[step], _POW10[16 - ex[step]])
        low, high = _off_decade(p[step], e[step])
        slow[step[low | high]] = True
    m = p.astype(np.int64) + np.rint(e).astype(np.int64)
    m[zero | slow] = 0
    ex[zero | slow] = 0

    # 0 <= m < 10^17: split it into the lead digit and four 4-digit groups
    # in uint64, which numpy divides by a constant faster than int64
    m = m.view(np.uint64)
    hi = m // 10**8
    lo = m - hi * 10**8
    lead = hi // 10**8
    hi -= lead * 10**8
    words = np.empty((x.size, 6), dtype=np.uint64)
    np.multiply(np.signbit(x), np.uint64(10), out=words[:, 0])
    words[:, 0] += lead
    for col, g in ((1, hi), (3, lo)):
        q = g // 10**4
        np.add(q, _GROUP, out=words[:, col])
        g -= q * 10**4
        np.add(g, _GROUP, out=words[:, col + 1])
    np.add(ex, _EXPONENT, out=words[:, 5].view(np.int64))
    cells = _WORDS.take(words.view(np.intp)).view(np.uint8)
    if slow.any():
        text = np.array([b"%.16e" % v for v in x[slow].tolist()], dtype=f"S{_CELL}")
        cells[slow] = text.view(np.uint8).reshape(-1, _CELL)
    return cells


def read_config(path: str) -> dict:
    cfg = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            continue  # section headers are organizational only
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        cfg[key.strip()] = val.strip()
    return cfg


def validate(cfg: dict) -> dict:
    """Fill defaults, check keys/values, reject inconsistent combinations."""
    unknown = sorted(set(cfg) - set(DEFAULTS) - {"out"})
    if unknown:
        raise UsageError(
            f"unknown config keys {unknown}; valid keys: {sorted(DEFAULTS)} + ['out']"
        )
    full = dict(DEFAULTS)
    full.update(cfg)
    if full["command"] not in COMMANDS:
        raise UsageError(f"command must be one of {COMMANDS}, got {full['command']!r}")
    if full["regime"] not in ("real", "imaginary"):
        raise UsageError(f"regime must be real or imaginary, got {full['regime']!r}")
    if full["boundary"] not in ("pbc", "obc"):
        raise UsageError(f"boundary must be pbc or obc, got {full['boundary']!r}")
    if full["model"] not in _MODELS:
        raise UsageError(f"model must be nssh2 or nssh1, got {full['model']!r}")
    for key, kind in _NUMERIC.items():
        try:
            value = kind(full[key])
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise UsageError(f"{key} must be {what}, got {full[key]!r}") from None
        if kind is float and not math.isfinite(value):
            raise UsageError(f"{key} must be finite, got {full[key]!r}")
        if kind is int and value < 0:
            raise UsageError(f"{key} must be >= 0, got {full[key]!r}")
    if int(full["delta_steps"]) < 1 or int(full["theta_steps"]) < 1:
        raise UsageError("delta_steps and theta_steps must be >= 1")
    if (int(full["delta_steps"]) > 1
            and float(full["delta_max"]) <= float(full["delta_min"])):
        raise UsageError("delta range is empty (delta_max <= delta_min)")
    if full["command"] == "amplify" and full["regime"] == "real":
        raise UsageError(
            "quadratures do not decouple in the real regime; "
            "amplify requires regime=imaginary"
        )
    if full["command"] == "quench" and full["regime"] == "imaginary":
        raise UsageError("quench runs the real regime only; it requires regime=real")
    return full


def _delta_grid(cfg: dict) -> np.ndarray:
    return np.linspace(float(cfg["delta_min"]), float(cfg["delta_max"]),
                       int(cfg["delta_steps"]))


def _used(cells: np.ndarray) -> np.ndarray:
    """cells without the leading and trailing columns that no cell uses (a
    view): for fast cells, byte 0 and, where no value is negative, the sign
    byte; for text, the padding right of the longest entry."""
    lo, hi = 0, cells.shape[-1]
    if not cells[..., -1].any():  # text padding, found in one pass
        used = cells.any(axis=tuple(range(cells.ndim - 1)))
        hi = 1 + max(np.flatnonzero(used), default=0)
    while lo < hi - 1 and not cells[..., lo].any():
        lo += 1
    return cells[..., lo:hi]


def _cells(col: np.ndarray) -> np.ndarray:
    """The zero-padded uint8 text of each entry of col, one row per entry, in
    C order: ``_fmt_cells`` for floats, ``astype("S")`` for anything else."""
    if col.dtype.kind == "f":
        return _used(_fmt_cells(col))
    text = np.ascontiguousarray(col.astype("S", copy=False))
    return _used(text.view(np.uint8).reshape(text.size, text.itemsize))


def _stage(stages: list, name: str, t0: float, shape, nbytes, **extra) -> None:
    """Record a manifest stage timed from ``t0`` (a ``perf_counter`` value)."""
    stages.append({"name": name, "wall_s": time.perf_counter() - t0,
                   "shape": list(shape), "bytes": int(nbytes), **extra})


def _write_table(outdir: Path, files: list, stages: list, name: str,
                 header: str, columns, t0: float | None = None) -> None:
    """Write the CSV file ``name``: ``header``, then one row per entry of the
    columns broadcast together, in C order.

    A column smaller than the table is formatted once, with its separator; a
    full-size column is formatted in each block.  A block is whole entries
    of the leading axis, _TABLE_BLOCK rows or fewer (at least one entry),
    laid out as fixed-width uint8 rows on ``quench.map_chunks``' threads.
    Each column of a block keeps only the cell bytes that some cell in it
    uses (``_used``), and ``bytearray.replace`` drops the padding left; this
    thread writes the blocks in order.  Records the file under ``files``
    with its number of data rows, and a stage timed from ``t0`` (default:
    now) with shape (rows, columns), the bytes written and the number of
    formatting ``workers``.
    """
    t0 = time.perf_counter() if t0 is None else t0
    columns = [np.asarray(col) for col in columns]
    shape = np.broadcast(*columns).shape
    n, entry = math.prod(shape), math.prod(shape[1:])
    step = max(1, _TABLE_BLOCK // max(entry, 1))  # leading entries per block
    seps = [_COMMA] * (len(columns) - 1) + [_NEWLINE]
    fixed = []  # per column: its cells and separator, or None (full size)
    for col, sep in zip(columns, seps):
        if col.shape == shape:
            fixed.append(None)
            continue
        cells = _cells(col)
        joined = np.concatenate([cells, np.broadcast_to(sep, (len(cells), 1))], 1)
        fixed.append(joined.reshape(
            (1,) * (len(shape) - col.ndim) + col.shape + joined.shape[1:]))

    def block(i):
        a, b = i * step, min(i * step + step, shape[0])
        parts = []
        for col, sep, part in zip(columns, seps, fixed):
            if part is None:
                parts += [_cells(col[a:b]).reshape(b - a, *shape[1:], -1), sep]
            else:
                parts.append(_used(part[a:b]) if len(part) > 1 else part)
        width = sum(part.shape[-1] for part in parts)
        text = bytearray((b - a) * entry * width)  # the rows, then compacted
        rows = np.frombuffer(text, dtype=np.uint8).reshape(b - a, *shape[1:], width)
        at = 0
        for part in parts:
            rows[..., at:at + part.shape[-1]] = part
            at += part.shape[-1]
        return text.replace(b"\0", b"")

    with (outdir / name).open("wb") as fh:
        written = [fh.write(header.encode() + b"\n")]
        workers = quench.map_chunks(block, -(-shape[0] // step) if n else 0,
                                    lambda text: written.append(fh.write(text)))
    files.append({"name": name, "rows": n})
    _stage(stages, name, t0, (n, len(columns)), sum(written), workers=workers)


def _write_chi(outdir: Path, files: list, stages: list, name: str,
               sub: np.ndarray, rows: str, cols: str) -> None:
    """Write the ``row,col,abs_value`` rows of |sub| as ``name``.

    ``rows`` and ``cols`` name the sectors ("AC" or "BD") whose
    cell-sublattice labels ("1A", "1C", "2A", ...) index sub's rows and
    columns.  Each distinct |value| is formatted once with ``'%.16e'``
    (``np.unique``) and gathered into the value column: a sub-matrix holds
    few distinct magnitudes.
    """
    t0 = time.perf_counter()
    uniq, inv = np.unique(np.abs(sub).ravel(), return_inverse=True)
    rl, cl = (np.array([f"{i // 2 + 1}{s[i % 2]}" for i in range(n)], dtype="S")
              for s, n in zip((rows, cols), sub.shape))
    text = np.array([b"%.16e" % u for u in uniq.tolist()])[inv]
    _write_table(outdir, files, stages, name, "row,col,abs_value",
                 [rl[:, None], cl, text.reshape(sub.shape)], t0)


def _cmd_spectrum(cfg, outdir, files, tolerances, stages):
    regime = model.Regime(cfg["regime"])
    if cfg["boundary"] == "pbc":
        boundary = model.PBC.uniform(int(cfg["k_points"]))
    else:
        boundary = model.OBC(int(cfg["n_cells"]))
    t0 = time.perf_counter()
    sweep = spectral.spectrum_sweep(float(cfg["J"]), float(cfg["theta"]),
                                    _delta_grid(cfg), regime, boundary)
    evs = sweep.eigenvalues
    _stage(stages, "eigensolve", t0, evs.shape, evs.nbytes)
    preamble = "".join(f"# {key}={val}\n"
                       for key, val in sorted(sweep.metadata.items()))
    _write_table(outdir, files, stages, "spectrum.csv",
                 preamble + "delta,index,re_lambda,im_lambda",
                 [sweep.deltas[:, None], np.arange(evs.shape[1]), evs.real,
                  evs.imag])


def _cmd_winding(cfg, outdir, files, tolerances, stages):
    c = model.derive_couplings(float(cfg["J"]), float(cfg["delta"]),
                               float(cfg["theta"]))
    grid = topology.default_bz_grid(int(cfg["grid_points"]))
    regime = _MODELS[cfg["model"]]
    provider = lambda k: model.bloch(k, c, regime)
    t0 = time.perf_counter()
    # the energy loops first: past the double range their error names J
    ep, em, merged = topology.parametric_energy_loops(c, grid, regime)
    res = topology.winding_pair(provider, grid)
    integral = topology.winding_integral(provider, grid)
    _stage(stages, "winding", t0, (grid.size, 2), ep.nbytes + em.nbytes)
    tolerances["winding_quantization_residual"] = res.imag_residual
    tolerances["winding_integral_imag"] = abs(integral.imag)
    _write_table(outdir, files, stages, "winding.csv",
                 "nu1,nu2,nu,integral_re,integral_im,grid_size",
                 [[res.nu1], [res.nu2], [res.nu], [integral.real],
                  [integral.imag], [res.grid_size]])
    _write_table(outdir, files, stages, "energy_loops.csv",
                 "k,re_E_plus,im_E_plus,re_E_minus,im_E_minus",
                 [grid, ep.real, ep.imag, em.real, em.imag])
    files[-1]["merged"] = merged  # the two loops form one (Moebius exchange)


def _cmd_phase_diagram(cfg, outdir, files, tolerances, stages):
    t0 = time.perf_counter()
    J = float(cfg["J"])
    thetas = np.linspace(float(cfg["theta_min"]), float(cfg["theta_max"]),
                         int(cfg["theta_steps"]))
    deltas = _delta_grid(cfg)
    grid = topology.default_bz_grid(int(cfg["grid_points"]))
    regime = model.Regime(cfg["regime"])
    rows, labels = [], []
    for th in thetas:
        row = topology.classify_phases(J, th, deltas, regime, grid)
        for d, label in zip(deltas, row):
            labels.append(label.tag.value)
            if label.tag is topology.Phase.CRITICAL:
                rows.append((d, th, np.nan, np.nan, np.nan))
                continue
            res = label.winding
            if res is None:  # the real-regime label comes from thresholds
                c = model.derive_couplings(J, d, th)
                res = topology.winding_pair(lambda k: model.bloch(k, c, regime), grid)
            rows.append((d, th, res.nu1, res.nu2, res.nu))
    _stage(stages, "winding", t0, (len(rows), 5), 40 * len(rows))
    _write_table(outdir, files, stages, "phase_diagram.csv",
                 "delta,theta,nu1,nu2,nu,label", [*np.array(rows).T, labels])


def _cmd_quench(cfg, outdir, files, tolerances, stages):
    ci = model.derive_couplings(float(cfg["J_i"]), float(cfg["delta_i"]),
                                float(cfg["theta_i"]))
    cf = model.derive_couplings(float(cfg["J_f"]), float(cfg["delta_f"]),
                                float(cfg["theta_f"]))
    p = quench.QuenchProtocol.default(ci, cf, t_max=float(cfg["t_max"]),
                                      n_half=int(cfg["n_half"]),
                                      n_t=int(cfg["n_t"]))

    t0 = time.perf_counter()
    field = quench.pgp_field(p)
    held = {name: {"shape": list(a.shape), "bytes": a.nbytes} for name, a in
            (("phi_pgp", field.phi_pgp), ("log_mag2", field.log_mag2))}
    _stage(stages, "pgp_field", t0, field.phi_pgp.shape,
           field.phi_pgp.nbytes + field.log_mag2.nbytes, workers=field.workers,
           mirrored=field.mirrored, arrays=held)
    t0 = time.perf_counter()
    rr = quench.return_rate(field)
    field.log_mag2 = None  # read by return_rate only: freed before the later stages
    _stage(stages, "return_rate", t0, rr.shape, rr.nbytes)
    _write_table(outdir, files, stages, "return_rate.csv", "t,return_rate",
                 [p.t_grid, rr])

    t0 = time.perf_counter()
    ct = quench.critical_set(p, range(int(cfg["n_max"])))
    _stage(stages, "critical_set", t0, (len(ct.entries), 5),
           40 * len(ct.entries), brackets=ct.brackets, halvings=ct.halvings,
           scalar_checks=ct.scalar_checks)
    tolerances["kc_equation_residual"] = max(
        (abs(e[4]) for e in ct.entries), default=0.0)
    _write_table(outdir, files, stages, "critical_times.csv",
                 "n,side,k_c,t_c,residual",
                 list(zip(*ct.entries)) or [[]] * 5)
    files[-1]["t_complete"] = ct.t_complete

    t0 = time.perf_counter()
    d = quench.dtop(field, ct)
    series = (d.dtop_plus, d.dtop_minus, d.drift_plus, d.drift_minus)
    _stage(stages, "dtop", t0, d.dtop_plus.shape, sum(a.nbytes for a in series))
    windings = np.concatenate([d.dtop_plus, d.dtop_minus])
    tolerances["dtop_quantization_residual"] = float(
        np.abs(windings - np.rint(windings)).max())
    tolerances["dtop_endpoint_drift"] = float(
        max(np.abs(d.drift_plus).max(), np.abs(d.drift_minus).max()))
    # oracle independent of the PGP grid: away from every critical time and
    # before t_complete, |DTOP_pm(t)| counts the critical times on its side
    # before t
    far = np.abs(d.t[:, None] - ct.times()[None, :]).min(
        axis=1, initial=np.inf) > 0.05
    far &= d.t < ct.t_complete
    tolerances["dtop_critical_count_mismatch"] = float(max(
        np.abs(np.abs(np.rint(w)) - np.searchsorted(ct.times(side), d.t))[far]
        .max(initial=0.0)
        for side, w in (("+", d.dtop_plus), ("-", d.dtop_minus))))
    _write_table(outdir, files, stages, "dtop.csv",
                 "t,dtop_plus,dtop_minus,drift_plus,drift_minus,resolved",
                 [d.t, *series, d.resolved.astype(int)])
    files[-1]["unresolved"] = int((~d.resolved).sum())
    files[-1]["refined"] = d.refined
    _write_table(outdir, files, stages, "pgp_grid.csv", "k,t,phi_pgp",
                 [p.k_grid[:, None], p.t_grid, field.phi_pgp])


def _cmd_amplify(cfg, outdir, files, tolerances, stages):
    c = model.derive_couplings(float(cfg["J"]), float(cfg["delta"]),
                               float(cfg["theta"]))
    n_cells = int(cfg["n_cells"])
    t0 = time.perf_counter()
    rep = amplification.susceptibility(c, n_cells)
    _stage(stages, "susceptibility", t0, rep.chi_x.shape, sum(a.nbytes for a in (
        rep.chi_x, rep.chi_p, rep.chi_ac_x, rep.chi_ac_p, rep.chi_bd_x,
        rep.chi_bd_p)))
    tolerances["susceptibility_residual"] = rep.residual
    for name, sub, rows, cols in [("chi_ac_x", rep.chi_ac_x, "AC", "BD"),
                                  ("chi_ac_p", rep.chi_ac_p, "AC", "BD"),
                                  ("chi_bd_x", rep.chi_bd_x, "BD", "AC"),
                                  ("chi_bd_p", rep.chi_bd_p, "BD", "AC")]:
        _write_chi(outdir, files, stages, f"{name}.csv", sub, rows, cols)
    t0 = time.perf_counter()
    scan = amplification.amplification_phase_scan(
        float(cfg["J"]), float(cfg["theta"]), _delta_grid(cfg), n_cells)
    _stage(stages, "phase_scan", t0, (len(scan), 7), 56 * len(scan))
    tolerances["scan_residual"] = scan.residual
    table = np.array([(d, d0, np.nan if nu is None else nu,
                       gains[("AC", "X")], gains[("AC", "P")],
                       gains[("BD", "X")], gains[("BD", "P")])
                      for d, d0, nu, gains in scan])
    _write_table(outdir, files, stages, "amplification_scan.csv",
                 "delta,delta0,nu,gain_ac_x,gain_ac_p,gain_bd_x,gain_bd_p",
                 table.T)


def _cmd_check(cfg, outdir, files, tolerances, stages):
    """Invariant self-test; returns the number of failed checks."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    failures = []

    def check(name, value, bound):
        tolerances[name] = float(value)
        if not value < bound:
            failures.append(f"{name}: {value:.3e} !< {bound:.0e}")

    block = dict.fromkeys(model.Regime, 0.0)
    worst = {"phs1": 0.0, "pseudo": 0.0, "quadruple": 0.0}
    for _ in range(100):
        k = rng.uniform(-np.pi, np.pi)
        c = model.derive_couplings(1.0, rng.uniform(-0.95, 0.95),
                                   rng.uniform(0.0, 1.0))
        for r in model.Regime:
            G, Gm = model.dynamical_qb_k(np.array([k, -k]), c, r)  # G(k), G(-k)
            block[r] = max(block[r], spectral.block_diagonalize(k, c, r, G=G))
            worst["phs1"] = max(worst["phs1"], float(np.abs(
                model.TAU1 @ Gm.conj() @ model.TAU1 + G).max()))
            worst["pseudo"] = max(worst["pseudo"], float(np.abs(
                model.TAU3 @ G.conj().T @ model.TAU3 - G).max()))
            ev = np.linalg.eigvals(G)
            for target in (-ev, ev.conj()):
                d = np.abs(ev[:, None] - target[None, :]).min(axis=1).max()
                worst["quadruple"] = max(worst["quadruple"], float(d))
    check("block_real_residual", block[model.Regime.REAL], 1e-12)
    check("block_imag_residual", block[model.Regime.IMAGINARY], 1e-12)
    check("phs1_residual", worst["phs1"], 1e-12)
    check("pseudo_hermiticity_residual", worst["pseudo"], 1e-12)
    check("eigenvalue_quadruple_residual", worst["quadruple"], 1e-9)

    worst_g = 0.0
    for _ in range(100):
        k = rng.uniform(-np.pi, np.pi)
        ci = model.derive_couplings(1.0, rng.uniform(-0.9, 0.9),
                                    rng.uniform(0.05, 1.0))
        cf = model.derive_couplings(1.0, rng.uniform(-0.9, 0.9),
                                    rng.uniform(0.05, 1.0))
        t = rng.uniform(0.0, 5.0)
        g0 = complex(quench.loschmidt_gk(k, ci, cf, t))
        for method in ("fq", "biortho"):
            worst_g = max(worst_g,
                          abs(quench.loschmidt_oracle(k, ci, cf, t, method) - g0))
    check("loschmidt_oracle_agreement", worst_g, 1e-9)

    grid = topology.default_bz_grid()
    for d, expected in ((-0.9, 0.0), (-0.1, 0.5), (0.9, 1.0)):
        c = model.derive_couplings(1.0, d, 0.4)
        res = topology.winding_pair(
            lambda k: model.bloch(k, c, model.Regime.REAL), grid)
        check(f"winding_delta_{d}", abs(res.nu - expected), 1e-3)
    _stage(stages, "checks", t0, (len(tolerances),), 8 * len(tolerances))

    _write_table(outdir, files, stages, "check_report.csv", "check,value",
                 [[*tolerances, "failures"],
                  [*(b"%.16e" % v for v in tolerances.values()),
                   b"%d" % len(failures)]])
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return len(failures)


_RUNNERS = {"spectrum": _cmd_spectrum, "winding": _cmd_winding,
            "phase-diagram": _cmd_phase_diagram, "quench": _cmd_quench,
            "amplify": _cmd_amplify, "check": _cmd_check}
COMMANDS = tuple(_RUNNERS)


def _installed_version(package: str) -> str | None:
    """The version in the name of the ``<package>-<version>.dist-info``
    directory beside the installed package, or None where there is not
    exactly one.  Imports neither the package nor ``importlib.metadata``
    (about 30 ms between them)."""
    spec = importlib.util.find_spec(package)
    if spec is None or not spec.submodule_search_locations:
        return None
    site = Path(spec.submodule_search_locations[0]).parent
    found = list(site.glob(f"{package}-*.dist-info"))
    if len(found) != 1:
        return None
    return found[0].name[len(package) + 1:-len(".dist-info")]


@functools.cache
def _environment() -> dict:
    """Versions, BLAS, cores and thread settings behind a run's timings.

    Computed once per process: BLAS reads its thread variables only when it
    is loaded.  Every caller gets the same dict, so none may change it.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": _installed_version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "cpus_available": quench.cpus_available(),
        "threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _peak_rss_mb(status: str = "/proc/self/status") -> float | None:
    """This process's peak resident set (VmHWM) in MiB, or None where the
    status file is missing.  Unlike ru_maxrss, VmHWM starts afresh at exec,
    so it holds no peak of the process that spawned this one."""
    try:
        with open(status) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def run(cfg: dict) -> int:
    """Dispatch a validated configuration; returns the process exit code."""
    outdir = Path(cfg.get("out", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    tolerances = {}
    stages = []
    start = time.time()
    status = 0
    error = None
    try:
        if _RUNNERS[cfg["command"]](cfg, outdir, files, tolerances, stages):
            status = 3  # only check returns a count, of failed checks
    except UsageError:
        raise
    except (QbChainError, np.linalg.LinAlgError, OverflowError) as exc:
        error = f"{type(exc).__name__}: {exc}"
        status = 2
    manifest = {
        "tool": "qbchain",
        "version": __version__,
        "config": cfg,
        "files": files,
        "wall_time_s": time.time() - start,
        "stages": stages,
        "tolerances": tolerances,
        "status": status,
        "peak_rss_mb": _peak_rss_mb(),
        "env": _environment(),
    }
    if error is not None:
        manifest["error"] = error
        print(error, file=sys.stderr)
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qbchain",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="Config keys and defaults:\n" + "\n".join(
            f"  {k} = {v}" for k, v in DEFAULTS.items()),
    )
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--command", choices=COMMANDS,
                        help="experiment family to run")
    parser.add_argument("--out", help="output directory (default: cwd)")
    args = parser.parse_args(argv)
    try:
        cfg = read_config(args.config) if args.config else {}
        for key in ("command", "out"):
            val = getattr(args, key)
            if val is not None:
                cfg[key] = str(val)
        cfg = validate(cfg)
        return run(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
