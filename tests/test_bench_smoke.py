"""Every benchmark workload runs on this checkout and reads correct.

One zero-second traced run per workload makes two iterations, one plain
and one traced, so a failed operation or a name the tracer can no longer
wrap shows here, not first in a timed benchmark run. The run reads bench/
and writes only under the git-ignored .bench_out/.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["fixture", "collect_wide", "solver_dense", "recheck"])
def test_a_traced_benchmark_run_reads_correct_with_no_failures(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stdout.splitlines()[-2]
    assert result["attempted"] > 0
