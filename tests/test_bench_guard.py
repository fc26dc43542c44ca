"""The benchmark's self-test, so a change that breaks it fails here first.

`bench/run.py --self-test` runs small versions of the benchmark workloads
traced twice and checks every output against `bench/golden.json`.  A traced
run stops when a layer the workload must exercise records zero calls, so a
change that takes a traced function off the program's path, or rebinds it
where the tracer cannot see it, fails this test.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_benchmark_self_test_passes():
    proc = subprocess.run([sys.executable, str(RUN), "--self-test"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "bench: self-test passed" in proc.stdout
