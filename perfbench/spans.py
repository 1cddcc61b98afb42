"""Spans around qbchain's layers, for traced benchmark rounds only.

``Tracer.install`` replaces each traced function at every name a caller
looks it up by: the attribute of its defining module and every module that
imported it by name.  Library calls made inside a layer (LU, condition
number, eigenvalues) are caught by giving that module a proxy of ``np`` or
``scipy`` whose ``linalg`` wraps the call.  A span's self time is its
duration minus the durations of the spans it contains.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import numpy as np
import scipy.linalg

from qbchain import amplification, cli, model, quench, spectral, topology

MODULES = (model, spectral, topology, quench, amplification, cli)

# (defining module, function name, span name)
FUNCTIONS = (
    (model, "bloch_nssh1", "model.bloch"),
    (model, "bloch_nssh2", "model.bloch"),
    (model, "dynamical_qb_k", "model.dynamical_qb_k"),
    (model, "realspace_dynamical", "model.realspace_dynamical"),
    (model, "quadrature_dynamical", "model.quadrature_dynamical"),
    (spectral, "spectrum_sweep", "spectral.spectrum_sweep"),
    (topology, "winding_pair", "topology.winding_pair"),
    (topology, "classify_phase_imag", "topology.classify_phase_imag"),
    (quench, "return_rate", "quench.return_rate"),
    (quench, "pgp_field", "quench.pgp_field"),
    (quench, "dtop", "quench.dtop"),
    (quench, "critical_set", "quench.critical_set"),
    (amplification, "susceptibility", "amplification.susceptibility"),
    (amplification, "gain_metrics", "amplification.gain_metrics"),
)

# counted without a span, so their time stays in the caller's self time
COUNTED = (
    (amplification, "_lu_inverse_longdouble", "amplification.longdouble_fallback"),
)


class _Proxy:
    """Attribute access falls through to ``target`` except for ``overrides``."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.stats = {}    # span name -> [calls, self seconds]
        self._open = []    # seconds spent in child spans of each open span
        self.missing = []  # traced names the program no longer has

    def span(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        open_ = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - open_.pop()
                if open_:
                    open_[-1] += dt
        return wrapper

    def count(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, module, fname, wrapper):
        orig = getattr(module, fname, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{fname}")
            return
        wrapped = wrapper(orig)
        for m in MODULES:
            if getattr(m, fname, None) is orig:
                setattr(m, fname, wrapped)

    def install(self):
        for module, fname, name in FUNCTIONS:
            self._patch(module, fname, functools.partial(self.span, name))
        for module, fname, name in COUNTED:
            self._patch(module, fname, functools.partial(self.count, name))
        lu = (self.span("amplification.lu", scipy.linalg.lu_factor),
              self.span("amplification.lu", scipy.linalg.lu_solve))
        amplification.scipy = _Proxy(scipy, linalg=_Proxy(
            scipy.linalg, lu_factor=lu[0], lu_solve=lu[1]))
        amplification.np = _Proxy(np, linalg=_Proxy(
            np.linalg, cond=self.span("amplification.cond", np.linalg.cond)))
        small = self.span("spectral.eigvals_small", np.linalg.eigvals)
        large = self.span("spectral.eigvals_large", np.linalg.eigvals)

        def eigvals(a, *args, **kwargs):
            return (small if np.shape(a)[-1] <= 8 else large)(a, *args, **kwargs)
        spectral.np = _Proxy(np, linalg=_Proxy(np.linalg, eigvals=eigvals))

    def report(self) -> dict:
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out["spectral.eigvals.calls"] = (out["spectral.eigvals_small.calls"]
                                         + out["spectral.eigvals_large.calls"])
        return out


def output_counts(cfgs) -> dict:
    """Data files listed in each run's manifest: bytes and data rows."""
    nbytes = rows = 0
    for cfg in cfgs:
        outdir = Path(cfg["out"])
        manifest = json.loads((outdir / "manifest.json").read_text())
        for f in manifest["files"]:
            nbytes += (outdir / f["name"]).stat().st_size
            rows += f["rows"]
    return {"cli.bytes_written": nbytes, "cli.rows_written": rows}
