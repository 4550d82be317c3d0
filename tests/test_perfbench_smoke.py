"""One pass of each perfbench workload, in a child process as
``perfbench/run.py`` starts it: the worker must exit 0 with every output
correct and no failed operation.  A task whose ``extract`` or ``check``
raises anything but ``CheckFailed`` makes the worker exit non-zero."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_one_pass_is_correct(workload, tmp_path):
    env = dict(os.environ, **bench.PINNED_ENV)
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--mode", "run", "--out-dir", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["passes"] == 1
    assert result["correct"], result["problems"]
    assert result["failed"] == 0, result["errors"]
