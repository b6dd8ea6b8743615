"""The benchmark driver's last stdout line is its machine-read result.

One untimed-length run each of the scan and paste workloads, the two that
walk character sums, from a scratch directory whose src and BENCHMARK.json
link to the repository's, so the run's records and temporary files land
outside the repository. Python writes no bytecode there either.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def assert_run_ends_with_a_correct_json_result(workload, tmp_path):
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    (tmp_path / "BENCHMARK.json").symlink_to(ROOT / "BENCHMARK.json")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0",
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert isinstance(result, dict)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "peak_rss_mb", "setup_s"}


def test_paste_run_ends_with_a_correct_json_result(tmp_path):
    assert_run_ends_with_a_correct_json_result("paste", tmp_path)


def test_scan_run_ends_with_a_correct_json_result(tmp_path):
    assert_run_ends_with_a_correct_json_result("scan", tmp_path)
