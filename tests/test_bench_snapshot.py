import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_snapshot.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_snapshot", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(workload, seed, trace, wall):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "environment": {"git_commit": "abc123", "cpu_count": 2},
        "digest": f"digest-{workload}-{seed}",
        "attempted": 3,
        "failed": 0,
        "fail_ratio": 0.0,
        "repetitions": [{"wall_s": wall}],
        "metrics": {"wall_s": wall, "peak_rss_mb": 40.0, "setup_s": 0.2},
    }


def test_copies_untraced_records_in_order(tmp_path, monkeypatch, capsys):
    records = tmp_path / ".perfbench" / "records"
    records.mkdir(parents=True)
    for workload, seed, trace in [("scan", 7, 0), ("inversions", 10, 0), ("inversions", 2, 0), ("means", 7, 1)]:
        path = records / f"{workload}-seed{seed}-trace{trace}.json"
        path.write_text(json.dumps(record(workload, seed, trace, 1.5)))
    (records / "means-seed7-trace1-spans.jsonl").write_text("{}\n")
    monkeypatch.chdir(tmp_path)
    assert load_tool().main(["t1"]) == 0
    payload = json.loads((tmp_path / "BENCH_t1.json").read_text())
    assert payload["tag"] == "t1"
    assert [(r["workload"], r["seed"]) for r in payload["records"]] == [
        ("inversions", 2), ("inversions", 10), ("scan", 7),
    ]
    assert payload["records"][0] == {
        "workload": "inversions",
        "seed": 2,
        "metrics": {"wall_s": 1.5, "peak_rss_mb": 40.0, "setup_s": 0.2},
        "digest": "digest-inversions-2",
        "attempted": 3,
        "failed": 0,
        "git_commit": "abc123",
    }
    assert "wrote BENCH_t1.json: 3 records" in capsys.readouterr().out


def test_no_records_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert load_tool().main(["t2"]) == 1
    assert not (tmp_path / "BENCH_t2.json").exists()
    assert "no *-trace0.json records" in capsys.readouterr().err
