"""Command-line front end emitting deterministic CSV/JSON artifacts.

Runs are configured by a flat key=value file (section headers in square
brackets are allowed and ignored) plus command-line overrides.  Every run
writes a ``manifest.json`` echoing the resolved configuration, the files
produced and the residuals observed.

The library computes at the hopping scale J = 1; ``_units`` alone applies
J, where a command writes an energy, a time or a chi.

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
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import DomainError, DoubleOverflowError, QbChainError
from . import amplification, model, quench, spectral, topology

#: documented defaults per configuration key; a key's type is its default's
DEFAULTS = {
    "command": "check",
    "J": 1.0,
    "theta": 0.4,
    "delta": 0.5,
    "regime": "real",
    "boundary": "pbc",
    "n_cells": 40,
    "k_points": 101,
    "delta_min": -0.9,
    "delta_max": 0.9,
    "delta_steps": 41,
    "theta_min": 0.0,
    "theta_max": 1.0,
    "theta_steps": 11,
    "grid_points": 2001,
    "J_i": 1.0,
    "delta_i": -0.9,
    "theta_i": 0.0,
    "J_f": 1.0,
    "delta_f": 0.9,
    "theta_f": 0.4,
    "t_max": 12.0,
    "n_half": 1000,
    "n_t": 800,
    "n_max": 10,
}


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
#: blocks below which a table is laid out on the calling thread: on 2
#: cores, tables of 2 to 6 blocks took as long or longer on two threads,
#: which hand the GIL back and forth more than they overlap
_POOL_BLOCKS = 8


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
    est[zero | slow] = 0.0
    ex = np.clip(est, -6, 16, out=est).astype(np.int64)
    del est
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
    del a, low, high
    m = p.astype(np.int64)
    del p
    m += np.rint(e, out=e).astype(np.int64)
    del e
    m[zero | slow] = 0
    ex[zero | slow] = 0

    # 0 <= m < 10^17: split it into the lead digit and four 4-digit groups
    # in uint64, which numpy divides by a constant faster than int64; each
    # word is computed contiguously and assigned to its column of ``words``
    # once
    m = m.view(np.uint64)
    hi = m // 10**8
    m -= hi * 10**8
    lead = hi // 10**8
    hi -= lead * 10**8
    lead += np.signbit(x) * np.uint64(10)
    words = np.empty((x.size, 6), dtype=np.uint64)
    words[:, 0] = lead
    del lead
    for col, g in ((1, hi), (3, m)):
        q = g // 10**4
        g -= q * 10**4
        q += _GROUP
        g += _GROUP
        words[:, col] = q
        words[:, col + 1] = g
    del hi, m, q
    ex += _EXPONENT
    words[:, 5] = ex
    del ex
    cells = _WORDS.take(words.view(np.intp)).view(np.uint8)
    del words
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
        key, val = (part.strip() for part in line.split("=", 1))
        if key in cfg:
            raise UsageError(f"{path}:{ln}: {key} is set twice")
        cfg[key] = val
    return cfg


def command_defaults(command: str) -> dict:
    """The keys ``command`` reads, each with its default."""
    defaults = {key: DEFAULTS[key] for key in _RUNNERS[command][1]}
    if command in _ONE_REGIME:
        defaults["regime"] = _ONE_REGIME[command][0]
    return defaults


def validate(cfg: dict) -> dict:
    """cfg's command with the keys it reads, each parsed once into its
    default's type; a key the command does not read is a usage error."""
    command = cfg.get("command", DEFAULTS["command"])
    if command not in COMMANDS:
        raise UsageError(f"command must be one of {COMMANDS}, got {command!r}")
    defaults = command_defaults(command)
    if command == "spectrum":  # the grid size of the other boundary is not read
        del defaults[_SIZE_KEY["pbc" if cfg.get("boundary") == "obc" else "obc"]]
    unknown = sorted(set(cfg) - set(defaults) - {"command", "out"})
    if unknown:
        raise UsageError(f"unknown config keys {unknown} for command {command!r}; "
                         f"valid keys: {sorted(defaults)} + ['command', 'out']")
    full = {"command": command}
    for key, default in defaults.items():
        text, kind = cfg.get(key, default), type(default)
        try:
            full[key] = value = kind(text)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise UsageError(f"{key} must be {what}, got {text!r}") from None
        if kind is float and not math.isfinite(value):
            raise UsageError(f"{key} must be finite, got {text!r}")
        if kind is int and value < 0:
            raise UsageError(f"{key} must be >= 0, got {text!r}")
    for key, choices in ("regime", ("real", "imaginary")), ("boundary", ("pbc", "obc")):
        if full.get(key, choices[0]) not in choices:
            raise UsageError(f"{key} must be {' or '.join(choices)}, got {full[key]!r}")
    if min(full.get("delta_steps", 1), full.get("theta_steps", 1)) < 1:
        raise UsageError("delta_steps and theta_steps must be >= 1")
    if full.get("delta_steps", 1) > 1 and full["delta_max"] <= full["delta_min"]:
        raise UsageError("delta range is empty (delta_max <= delta_min)")
    if command in _ONE_REGIME and full["regime"] != _ONE_REGIME[command][0]:
        raise UsageError(_ONE_REGIME[command][1])
    if "regime" in full:  # derived, not a key: perfbench/checks.py reads it
        full["model"] = "nssh2" if full["regime"] == "real" else "nssh1"
    if "out" in cfg:
        full["out"] = cfg["out"]
    return full


def _units(J: float, key: str = "J"):
    """The scaling of real outputs from the hopping scale 1, at which the
    library computes, to ``key`` = J: scale(x) is x J (an energy, or a time
    t as J t) and scale(x, -1) is x / J (a chi, or J t back to t).  J <= 0
    is a DomainError; a finite value scaled past the double range is a
    DoubleOverflowError that names J.  At J = 1 each value keeps its bits."""
    if not J > 0:
        raise DomainError(f"{key} must be positive, got {J}")

    def scale(x, power: int = 1) -> np.ndarray:
        with np.errstate(over="ignore"):
            y = np.multiply(x, J) if power > 0 else np.divide(x, J)
        if not np.isfinite(y[np.isfinite(x)]).all():
            raise DoubleOverflowError(f"outputs scaled by {key}**{power} leave the "
                                      f"double range at {key}={J}")
        return y
    return scale


def _delta_grid(cfg: dict) -> np.ndarray:
    return np.linspace(cfg["delta_min"], cfg["delta_max"], cfg["delta_steps"])


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
    laid out as fixed-width uint8 rows.  A table of fewer than _POOL_BLOCKS
    blocks is laid out on the calling thread, a larger one on
    ``quench.map_chunks``' threads.  Each column of a block keeps
    only the cell bytes that some cell in it uses (``_used``), and
    ``bytearray.replace`` drops the padding left; this thread writes the
    blocks in order.  Records the file under ``files`` with its number of
    data rows, and a stage timed from ``t0`` (default: now) with shape
    (rows, columns), the bytes written and the number of formatting
    ``workers``.
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

    n_blocks = -(-shape[0] // step) if n else 0
    with (outdir / name).open("wb") as fh:
        written = [fh.write(header.encode() + b"\n")]
        if n_blocks < _POOL_BLOCKS:
            workers = 1
            written += [fh.write(block(i)) for i in range(n_blocks)]
        else:
            workers = quench.map_chunks(block, n_blocks,
                                        lambda text: written.append(fh.write(text)))
    files.append({"name": name, "rows": n})
    _stage(stages, name, t0, (n, len(columns)), sum(written), workers=workers)


def _write_chi(outdir: Path, files: list, stages: list, blocks: np.ndarray) -> None:
    """Write ``chi_<sector>_<quadrature>.csv`` for each pair of PAIRS, in
    that order: the ``row,col,abs_value`` rows of the pair's sub-matrix.

    ``blocks`` is ``SusceptibilityReport.blocks`` over J.  The 4(N + 1)
    magnitudes of a sector's X stack are formatted with ``'%.16e'`` and the
    text is laid out by ``amplification.lay_out``, with the row and column
    labels of ``amplification.sector_labels``.  The P stack is the X one in
    the diag(1, -1) gauge, of the same magnitudes, so the P file is a copy
    of the X file, with its own ``files`` entry and stage.
    """
    n_cells = len(blocks[0]) - 1
    # each sector's rows are the other's columns
    labels = {s: amplification.sector_labels(s, n_cells)
              for s in amplification.SECTOR_AXES}
    for sector, axes in amplification.SECTOR_AXES.items():
        rows, cols = (labels[s] for s in axes)
        mag = np.abs(blocks[amplification.PAIRS.index((sector, "X"))])
        x, p = (f"chi_{sector}_{quad}.csv".lower() for quad in ("X", "P"))
        t0 = time.perf_counter()
        text = np.array([b"%.16e" % v for v in mag.ravel().tolist()])
        _write_table(outdir, files, stages, x, "row,col,abs_value",
                     [rows[:, None], cols,
                      amplification.lay_out(text.reshape(mag.shape), sector)],
                     t0)
        t0 = time.perf_counter()
        shutil.copyfile(outdir / x, outdir / p)
        files.append({**files[-1], "name": p})
        stages.append({**stages[-1], "name": p, "wall_s": time.perf_counter() - t0})


def _cmd_spectrum(cfg, outdir, files, tolerances, stages):
    scale = _units(cfg["J"])
    regime = model.Regime(cfg["regime"])
    size = _SIZE_KEY[cfg["boundary"]]
    boundary = (model.PBC.uniform if size == "k_points" else model.OBC)(cfg[size])
    t0 = time.perf_counter()
    sweep = spectral.spectrum_sweep(cfg["theta"], _delta_grid(cfg), regime, boundary)
    evs = sweep.eigenvalues
    _stage(stages, "eigensolve", t0, evs.shape, evs.nbytes)
    if sweep.reality_residual is not None:
        tolerances["obc_reality_residual"] = sweep.reality_residual
    preamble = "".join(f"# {key}={cfg[key]}\n" for key in sorted(
        ("J", "theta", "regime", "boundary", size)))
    _write_table(outdir, files, stages, "spectrum.csv",
                 preamble + "delta,index,re_lambda,im_lambda",
                 [sweep.deltas[:, None], np.arange(evs.shape[1]), scale(evs.real),
                  scale(evs.imag)])


def _cmd_winding(cfg, outdir, files, tolerances, stages):
    scale = _units(cfg["J"])
    c = model.derive_couplings(cfg["delta"], cfg["theta"])
    grid = topology.default_bz_grid(cfg["grid_points"])
    regime = model.Regime(cfg["regime"])
    provider = lambda k: model.bloch(k, c, regime)
    t0 = time.perf_counter()
    # the energy loops first: past the double range their error names theta
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
                 [grid, *(scale(part) for part in (ep.real, ep.imag, em.real, em.imag))])
    files[-1]["merged"] = merged  # the two loops form one (Moebius exchange)


def _cmd_phase_diagram(cfg, outdir, files, tolerances, stages):
    t0 = time.perf_counter()
    thetas = np.linspace(cfg["theta_min"], cfg["theta_max"], cfg["theta_steps"])
    deltas = _delta_grid(cfg)
    grid = topology.default_bz_grid(cfg["grid_points"])
    regime = model.Regime(cfg["regime"])
    rows, labels = [], []
    for th in thetas:
        row = topology.classify_phases(th, deltas, regime, grid)
        for d, label in zip(deltas, row):
            labels.append(label.tag.value)
            if label.tag is topology.Phase.CRITICAL:
                rows.append((d, th, np.nan, np.nan, np.nan))
                continue
            res = label.winding
            if res is None:  # the real-regime label comes from thresholds
                c = model.derive_couplings(d, th)
                res = topology.winding_pair(lambda k: model.bloch(k, c, regime), grid)
                label.check(res.nu, d)
            rows.append((d, th, res.nu1, res.nu2, res.nu))
    _stage(stages, "winding", t0, (len(rows), 5), 40 * len(rows))
    _write_table(outdir, files, stages, "phase_diagram.csv",
                 "delta,theta,nu1,nu2,nu,label", [*np.array(rows).T, labels])


def _cmd_quench(cfg, outdir, files, tolerances, stages):
    _units(cfg["J_i"], "J_i")  # only checked: ov does not depend on J_i
    scale = _units(cfg["J_f"], "J_f")
    ci = model.derive_couplings(cfg["delta_i"], cfg["theta_i"])
    cf = model.derive_couplings(cfg["delta_f"], cfg["theta_f"])
    p = quench.QuenchProtocol.default(ci, cf, t_max=cfg["t_max"],
                                      n_half=cfg["n_half"], n_t=cfg["n_t"])
    t = p.t_grid  # the protocol runs at the times J_f t
    p = quench.QuenchProtocol(ci, cf, p.k_grid, scale(t))

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
                 [t, rr])

    t0 = time.perf_counter()
    ct = quench.critical_set(p, range(cfg["n_max"]))
    _stage(stages, "critical_set", t0, (len(ct.entries), 5),
           40 * len(ct.entries), brackets=ct.brackets, halvings=ct.halvings,
           scalar_checks=ct.scalar_checks)
    tolerances["kc_equation_residual"] = max(
        (abs(e[4]) for e in ct.entries), default=0.0)
    n, side, k_c, t_c, residual = list(zip(*ct.entries)) or [[]] * 5
    _write_table(outdir, files, stages, "critical_times.csv",
                 "n,side,k_c,t_c,residual", [n, side, k_c, scale(t_c, -1), residual])
    # null where no momentum crosses: +inf is not JSON
    files[-1]["t_complete"] = (float(scale(ct.t_complete, -1))
                               if ct.t_complete < np.inf else None)

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
                 [t, *series, d.resolved.astype(int)])
    files[-1]["unresolved"] = int((~d.resolved).sum())
    files[-1]["refined"] = d.refined
    _write_table(outdir, files, stages, "pgp_grid.csv", "k,t,phi_pgp",
                 [p.k_grid[:, None], t, field.phi_pgp])


def _cmd_amplify(cfg, outdir, files, tolerances, stages):
    scale = _units(cfg["J"])
    c = model.derive_couplings(cfg["delta"], cfg["theta"])
    t0 = time.perf_counter()
    rep = amplification.susceptibility(c, cfg["n_cells"])
    # the four 2N x 2N sub-matrices the blocks lay out as
    shape = (len(rep.blocks), 2 * rep.n_cells, 2 * rep.n_cells)
    _stage(stages, "susceptibility", t0, shape, math.prod(shape) * rep.blocks.itemsize)
    tolerances["susceptibility_residual"] = rep.residual
    chi = scale(rep.blocks, -1)
    t0 = time.perf_counter()
    scan = amplification.amplification_phase_scan(cfg["theta"], _delta_grid(cfg),
                                                  cfg["n_cells"])
    table = np.array(scan)
    table[:, 3:] = scale(table[:, 3:], -1)  # the gains, |chi| entries
    _stage(stages, "phase_scan", t0, table.shape, table.nbytes)
    tolerances["scan_residual"] = scan.residual
    # every value is computed and scaled before the first write, so a run
    # that fails writes no file
    _write_chi(outdir, files, stages, chi)
    gains = (f"gain_{sector}_{quad}".lower() for sector, quad in amplification.PAIRS)
    _write_table(outdir, files, stages, "amplification_scan.csv",
                 ",".join(["delta,delta0,nu", *gains]), table.T)


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
        c = model.derive_couplings(rng.uniform(-0.95, 0.95), rng.uniform(0.0, 1.0))
        for r in model.Regime:
            G, Gm = model.dynamical_qb_k(np.array([k, -k]), c, r)  # G(k), G(-k)
            block[r] = max(block[r], spectral.block_diagonalize(k, c, r))
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
        ci = model.derive_couplings(rng.uniform(-0.9, 0.9), rng.uniform(0.05, 1.0))
        cf = model.derive_couplings(rng.uniform(-0.9, 0.9), rng.uniform(0.05, 1.0))
        t = rng.uniform(0.0, 5.0)
        g0 = complex(quench.loschmidt_gk(k, ci, cf, t))
        for method in ("fq", "biortho"):
            worst_g = max(worst_g,
                          abs(quench.loschmidt_oracle(k, ci, cf, t, method) - g0))
    check("loschmidt_oracle_agreement", worst_g, 1e-9)

    grid = topology.default_bz_grid()
    for d, expected in ((-0.9, 0.0), (-0.1, 0.5), (0.9, 1.0)):
        c = model.derive_couplings(d, 0.4)
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


_DELTAS = ("delta_min", "delta_max", "delta_steps")
#: each command's runner and the keys it reads, besides ``command`` and ``out``
_RUNNERS = {
    "spectrum": (_cmd_spectrum, ("J", "theta", "regime", "boundary", *_DELTAS,
                                 "k_points", "n_cells")),
    "winding": (_cmd_winding, ("J", "delta", "theta", "regime", "grid_points")),
    "phase-diagram": (_cmd_phase_diagram, ("regime", "theta_min", "theta_max",
                                           "theta_steps", *_DELTAS, "grid_points")),
    "quench": (_cmd_quench, ("regime", "J_i", "delta_i", "theta_i", "J_f", "delta_f",
                             "theta_f", "t_max", "n_half", "n_t", "n_max")),
    "amplify": (_cmd_amplify, ("regime", "J", "delta", "theta", "n_cells", *_DELTAS)),
    "check": (_cmd_check, ()),
}
COMMANDS = tuple(_RUNNERS)
#: the grid size key of each spectrum boundary; the other one is not read
_SIZE_KEY = {"pbc": "k_points", "obc": "n_cells"}
#: the one regime each command here runs (its default) and why
_ONE_REGIME = {
    "quench": ("real", "quench runs the real regime only; it requires regime=real"),
    "amplify": ("imaginary", "quadratures do not decouple in the real regime; "
                "amplify requires regime=imaginary"),
}


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
        if _RUNNERS[cfg["command"]][0](cfg, outdir, files, tolerances, stages):
            status = 3  # only check returns a count, of failed checks
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
        epilog="Config keys and defaults by command; any other key is a usage error "
               "(spectrum reads k_points with boundary=pbc, n_cells with obc):\n"
               + "\n".join(f"  {command}: " + (" ".join(
                   f"{key}={value}" for key, value in command_defaults(command).items())
                   or "no keys") for command in COMMANDS),
    )
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--command", choices=COMMANDS,
                        help="experiment family to run")
    parser.add_argument("--out", help="output directory (default: cwd)")
    args = parser.parse_args(argv)
    try:
        cfg = read_config(args.config) if args.config else {}
        cfg.update({key: val for key in ("command", "out")
                    if (val := getattr(args, key)) is not None})
        return run(validate(cfg))
    except (UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
