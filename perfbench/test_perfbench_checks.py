"""Self-tests of the benchmark's output checks.

Each check must pass on outputs that qbchain writes for a small
configuration and fail on a copy with one value corrupted.  No benchmark
workload runs here.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from qbchain import cli  # noqa: E402

SEED = 7

SMALL = {
    "quench": {"command": "quench", "n_half": "100", "n_t": "150"},
    "amplify": {"command": "amplify", "regime": "imaginary", "n_cells": "8",
                "delta_steps": "9"},
    "amplify-theta0": {"command": "amplify", "regime": "imaginary", "theta": "0",
                       "delta": "0.5", "delta_min": "0.5", "delta_steps": "1",
                       "n_cells": "6"},
    "phase-diagram": {"command": "phase-diagram", "grid_points": "401",
                      "delta_steps": "9", "theta_steps": "3"},
    "spectrum-obc": {"command": "spectrum", "boundary": "obc", "n_cells": "4",
                     "delta_steps": "5"},
    "spectrum-pbc": {"command": "spectrum", "k_points": "11", "delta_steps": "5"},
    "winding": {"command": "winding", "grid_points": "401"},
    "check": {"command": "check"},
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    base = tmp_path_factory.mktemp("outputs")
    for label, cfg in SMALL.items():
        assert cli.run(cli.validate(dict(cfg, out=str(base / label)))) == 0, label
    return base


@pytest.fixture
def outputs(pristine, tmp_path):
    shutil.copytree(pristine, tmp_path / "out")
    return tmp_path / "out"


def edit(path: Path, row: int, column: str, fn) -> None:
    """Replace one field of data row ``row`` (0-based) by ``fn(field)``."""
    lines = path.read_text().splitlines()
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    col = lines[first].split(",").index(column)
    fields = lines[first + 1 + row].split(",")
    fields[col] = fn(fields[col])
    lines[first + 1 + row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def drop(path: Path, row: int) -> None:
    lines = path.read_text().splitlines()
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    del lines[first + 1 + row]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("label", sorted(SMALL))
def test_checks_pass_on_program_outputs(pristine, label):
    assert run.CHECKS[label](pristine / label, SEED) == []


def test_return_rate_off_by_1e_6_fails(outputs):
    d = outputs / "quench"
    ti, _ = checks.quench_samples(checks.config(d), SEED)
    edit(d / "return_rate.csv", int(ti[0]), "return_rate",
         lambda x: f"{float(x) + 1e-6:.16e}")
    assert any("return_rate.csv" in m for m in checks.check_quench(d, SEED))


def test_pgp_value_off_fails(outputs):
    d = outputs / "quench"
    cfg = checks.config(d)
    _, ki = checks.quench_samples(cfg, SEED)
    edit(d / "pgp_grid.csv", int(ki[-1]) * int(cfg["n_t"]) + 5, "phi_pgp",
         lambda x: f"{float(x) + 1e-6:.16e}")
    assert any("pgp_grid.csv" in m for m in checks.check_quench(d, SEED))


def test_dtop_off_by_one_fails(outputs):
    d = outputs / "quench"
    edit(d / "dtop.csv", 0, "dtop_plus",
         lambda x: f"{float(x) + 1.0:.16e}")
    assert any("dtop.csv" in m for m in checks.check_quench(d, SEED))


def test_dtop_off_integer_fails(outputs):
    d = outputs / "quench"
    edit(d / "dtop.csv", 3, "dtop_minus", lambda x: f"{float(x) + 0.25:.16e}")
    assert any("not an integer" in m for m in checks.check_quench(d, SEED))


def test_chi_entry_off_by_1e_8_relative_fails(outputs):
    d = outputs / "amplify-theta0"
    # row 2 is (1A, 2B): |G0 / v|, a nonzero entry of the closed form
    edit(d / "chi_ac_x.csv", 2, "abs_value", lambda x: f"{float(x) * (1 + 1e-8):.16e}")
    assert any("chi_ac_x.csv" in m for m in checks.check_chi_closed_form(d, SEED))


def test_chi_nonzero_off_pattern_fails(outputs):
    d = outputs / "amplify-theta0"
    edit(d / "chi_bd_p.csv", 1, "abs_value", lambda x: "1.0000000000000000e-06")
    assert any("off-pattern" in m for m in checks.check_chi_closed_form(d, SEED))


def test_scan_winding_flipped_fails(outputs):
    d = outputs / "amplify"
    edit(d / "amplification_scan.csv", 0, "nu", lambda x: "1.0000000000000000e+00")
    assert any("nu=" in m for m in checks.check_amplify_scan(d, SEED))


def test_swapped_phase_label_fails(outputs):
    d = outputs / "phase-diagram"
    edit(d / "phase_diagram.csv", 0, "label", lambda x: "nontrivial")
    edit(d / "phase_diagram.csv", 8, "label", lambda x: "trivial")
    fails = checks.check_phase_diagram(d, SEED)
    assert len([m for m in fails if "labelled" in m]) == 2


def test_dropped_obc_eigenvalue_fails(outputs):
    d = outputs / "spectrum-obc"
    drop(d / "spectrum.csv", 10)
    assert any("eigenvalues" in m for m in checks.check_spectrum_obc(d, SEED))


def test_dropped_pbc_eigenvalue_fails(outputs):
    d = outputs / "spectrum-pbc"
    drop(d / "spectrum.csv", 10)
    assert any("eigenvalues" in m for m in checks.check_spectrum_pbc(d, SEED))


def test_failed_check_report_fails(outputs):
    d = outputs / "check"
    lines = (d / "check_report.csv").read_text().replace("failures,0", "failures,1")
    (d / "check_report.csv").write_text(lines)
    assert checks.check_check(d, SEED) != []


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer.span("inner", lambda: sum(range(200_000)))
    outer = tracer.span("outer", lambda: [inner() for _ in range(3)])
    outer()
    calls, outer_self = tracer.stats["outer"]
    inner_calls, inner_self = tracer.stats["inner"]
    assert (calls, inner_calls) == (1, 3)
    assert 0.0 <= outer_self < inner_self


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
