"""Regenerate tests/data/cli_golden.json.

The file pins the exact bytes the report commands write: burgess-scan,
means, the lemma-b report (one row flagged below_min_x among them, and
three at x where the held and streamed halves of the expansion meet inside
or at the edge of a plan block), lemma-b --trials and nonresidue in JSON
and CSV, and two thm-a report files (one with a flag). The means and
lemma-b reports are also pinned at x = 3^10 = 59049 and 59050, and at
3 * 2^15 + 1 = 98305 and 3 * 2^16 + 1 = 196609, where the odd values held
for the doublings meet x/3 and the odd blocks meet, for a random f, the
Liouville function and the Liouville function flipped at 2. Each case runs
`charscan.cli.main` with --out naming a scratch file and with time.time
pinned to TIME, so the thm-a timestamp is fixed too; the test replays every
case and compares the file it writes with the pinned text.
Run from the repository root:

    PYTHONPATH=src python3 tools/make_cli_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from charscan import cli

TIME = 1_700_000_000.0

COMMANDS = [
    ["burgess-scan", "10007"],
    ["means", "5000", "--f", "random", "--flip", "2", "3"],
    ["lemma-b", "5000"],
    ["lemma-b", "50"],
    ["lemma-b", "131075", "--f", "random", "--seed", "5"],
    ["lemma-b", "131072", "--f", "liouville", "--flip", "2", "3"],
    ["lemma-b", "3", "--f", "random"],
    ["lemma-b", "3000", "--trials", "20", "--c", "0.1"],
    ["nonresidue", "300"],
] + [
    [command, x, *f]
    for command in ("means", "lemma-b")
    for x in ("59049", "59050", "98305", "196609")
    for f in (
        ["--f", "random", "--seed", "2"],
        ["--f", "liouville"],
        ["--f", "liouville", "--flip", "2"],
    )
]
CASES = [
    argv + ["--format", fmt] for argv in COMMANDS for fmt in ("json", "csv")
] + [["thm-a", "10007", "0.3", "0.1"], ["thm-a", "3", "0.5", "0.5"]]


def run(argv: list[str], out: Path) -> str:
    """The text `charscan argv --out out` writes there, at the pinned time."""
    quiet = io.StringIO()
    with mock.patch("time.time", return_value=TIME), contextlib.redirect_stdout(
        quiet
    ), contextlib.redirect_stderr(quiet):
        code = cli.main(argv + ["--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return out.read_bytes().decode("utf-8")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cases = [{"argv": argv, "text": run(argv, out)} for argv in CASES]
    payload = {"time": TIME, "cases": cases}
    path = Path(__file__).resolve().parent.parent / "tests" / "data"
    path.mkdir(parents=True, exist_ok=True)
    path = path / "cli_golden.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}: {len(cases)} cases")


if __name__ == "__main__":
    main()
