"""Exact bytes of the report commands, against tests/data/cli_golden.json.

Each case replays one command line with --out naming a scratch file and
time.time pinned, and compares the file with the pinned text byte for byte;
for pv-scan, --out names a fresh cache and stdout is compared instead.
tools/make_cli_golden.py regenerates the data; a change to any row's bytes
fails here until it does.
"""

import json
import time
from pathlib import Path

import pytest

from charscan.cli import main

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8")
)


def test_every_report_command_is_pinned():
    commands = {case["argv"][0] for case in GOLDEN["cases"]}
    assert commands == {
        "burgess-scan", "means", "lemma-b", "nonresidue", "thm-a", "pv-scan",
        "counterexample",
    }
    texts = [case["text"] for case in GOLDEN["cases"]]
    assert any('"below_min_x"' in text for text in texts)
    assert any("below_min_x\n" in text for text in texts)  # the CSV cell
    assert any('"delta_hat"' in text for text in texts)


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=[" ".join(case["argv"]) for case in GOLDEN["cases"]]
)
def test_output_bytes_are_pinned(case, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(time, "time", lambda: GOLDEN["time"])
    out = tmp_path / "out"
    assert main(case["argv"] + ["--out", str(out)]) == 0
    if case["argv"][0] == "pv-scan":
        assert capsys.readouterr().out == case["text"]
    else:
        assert out.read_bytes().decode("utf-8") == case["text"]
