"""The benchmark driver's last stdout line is its machine-read result.

One untimed-length run each of the scan and paste workloads, the two that
walk character sums, and one traced run of scan, from a scratch directory
whose src and BENCHMARK.json link to the repository's, so the run's records
and temporary files land outside the repository. Python writes no bytecode
there either.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_result(workload, trace, tmp_path):
    """The JSON result on the last stdout line of one --seconds 0 run."""
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    (tmp_path / "BENCHMARK.json").symlink_to(ROOT / "BENCHMARK.json")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace),
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
    return result


def assert_run_ends_with_a_correct_json_result(workload, tmp_path):
    result = run_result(workload, 0, tmp_path)
    assert set(result["metrics"]) == {"wall_s", "peak_rss_mb", "setup_s"}


def test_paste_run_ends_with_a_correct_json_result(tmp_path):
    assert_run_ends_with_a_correct_json_result("paste", tmp_path)


def test_scan_run_ends_with_a_correct_json_result(tmp_path):
    assert_run_ends_with_a_correct_json_result("scan", tmp_path)


def test_traced_scan_run_reports_every_per_layer_metric(tmp_path):
    # A seam that a library change drops, renames or re-signs leaves its
    # metrics out of this line, or breaks the line altogether.
    result = run_result("scan", 1, tmp_path)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert len(per_layer) == 51
    assert set(result["metrics"]) == {metric["name"] for metric in per_layer}
    record = tmp_path / ".perfbench" / "records" / "scan-seed1-trace1.json"
    assert json.loads(record.read_text())["absent_seams"] == []
