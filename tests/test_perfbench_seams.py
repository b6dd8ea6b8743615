"""Every per-layer metric of the benchmark still has a seam that reports it.

perfbench/tracer.py wraps each function its SEAMS list names. A seam whose
function was removed or renamed is listed as absent, and one whose arguments
changed stops reporting; either way its metrics drop out of the traced
result line. Here small commands that between them reach every seam run
under the tracer in a fresh interpreter, from a scratch directory, and the
per-layer metrics they yield are compared with the benchmark's catalogue.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = [
    ["pv-scan", "3", "200", "--out", "cache.jsonl"],
    ["pv-scan", "3", "400", "--out", "cache.jsonl"],
    ["thm-a", "1019", "0.3", "0.1", "--out", "report.json"],
    ["lemma-b", "1000", "--trials", "5", "--c", "0.1"],
    ["lemma-b", "1000", "--f", "random"],
    ["counterexample", "--x-max", "300", "--out", "rows.json"],
]

# Installs the tracer after importing the cli, as perfbench/child.py does,
# and prints as its last line the absent seams, the metric names, the
# catalogue of every per-layer metric and the number of calls per seam.
TRACED_RUN = """
import collections, json, sys
sys.path.insert(0, sys.argv[1])
import tracer
from charscan import cli
t = tracer.Tracer()
t.install()
codes = []
for run, argv in enumerate(json.loads(sys.argv[2])):
    t.run = run
    codes.append(cli.main(argv))
metrics = tracer.layer_metrics(t.spans, t.absent)
catalog = [m["name"] for m in tracer.catalog() if m["name"] != tracer.OVERHEAD]
calls = collections.Counter(tracer.SEAMS[span[0]].name for span in t.spans)
print(json.dumps({"codes": codes, "absent": t.absent, "metrics": sorted(metrics),
                  "catalog": catalog, "calls": calls}))
"""


def test_traced_commands_report_every_per_layer_metric(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "perfbench"), json.dumps(COMMANDS)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(COMMANDS)
    assert result["absent"] == []
    assert result["metrics"] == sorted(result["catalog"])
    calls = result["calls"]
    # The means commands read their statistics through the public functions.
    for seam in ("sums.mean", "sums.log_mean", "sums.conv_mean"):
        assert calls.get(seam, 0) >= 1, (seam, calls)
    # Only thm-a peaks a character: once for its lhs, once for m_xi.
    assert calls.get("sums.max_partial_sum", 0) == 2, calls
