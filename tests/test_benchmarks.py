"""The pytest-benchmark files under ``benchmarks/`` still run.

Their names lie outside pytest's ``test_*.py`` pattern, so the suite does
not collect them; this test runs them in a subprocess with timing switched
off, so that a change to a function they call fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_files_run():
    # --benchmark-disable is an option of the pytest-benchmark plugin
    pytest.importorskip("pytest_benchmark")
    files = sorted((ROOT / "benchmarks").glob("bench_*.py"))
    assert [f.name for f in files] == ["bench_amplify.py", "bench_quench.py",
                                       "bench_spectrum.py", "bench_write.py"]
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable", *map(str, files)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout and "failed" not in proc.stdout
