import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_snapshot.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_snapshot", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git_head(root, commit, packed=False):
    """A .git whose HEAD names refs/heads/main at commit, in a ref file or in packed-refs."""
    git = root / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    if packed:
        (git / "packed-refs").write_text(f"# pack-refs with: peeled\n{commit} refs/heads/main\n")
    else:
        (git / "refs" / "heads" / "main").write_text(commit + "\n")


def source(root):
    """One src/charscan/*.py file, so the snapshot has a source to digest."""
    src = root / "src" / "charscan"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text("")


def record(workload, seed, trace, wall, commit="abc123"):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "environment": {"git_commit": commit, "cpu_count": 2},
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
    git_head(tmp_path, "abc123")
    source(tmp_path)
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
    git_head(tmp_path, "abc123")
    monkeypatch.chdir(tmp_path)
    assert load_tool().main(["t2"]) == 1
    assert not (tmp_path / "BENCH_t2.json").exists()
    assert "no *-trace0.json records" in capsys.readouterr().err


@pytest.mark.parametrize("packed", [False, True], ids=["ref-file", "packed-refs"])
def test_records_from_another_commit_are_skipped_and_named(tmp_path, monkeypatch, capsys, packed):
    records = tmp_path / ".perfbench" / "records"
    records.mkdir(parents=True)
    (records / "scan-seed1-trace0.json").write_text(json.dumps(record("scan", 1, 0, 1.1)))
    (records / "scan-seed13-trace0.json").write_text(
        json.dumps(record("scan", 13, 0, 9.9, commit="88bcad1"))
    )
    git_head(tmp_path, "abc123", packed=packed)
    source(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert load_tool().main(["t3"]) == 0
    payload = json.loads((tmp_path / "BENCH_t3.json").read_text())
    assert [(r["workload"], r["seed"], r["git_commit"]) for r in payload["records"]] == [
        ("scan", 1, "abc123"),
    ]
    err = capsys.readouterr().err
    assert "skipped scan-seed13-trace0.json, taken at 88bcad1" in err
    assert "scan-seed1-trace0.json" not in err


def test_only_stale_records_is_an_error(tmp_path, monkeypatch, capsys):
    records = tmp_path / ".perfbench" / "records"
    records.mkdir(parents=True)
    (records / "paste-seed7-trace0.json").write_text(
        json.dumps(record("paste", 7, 0, 0.07, commit="88bcad1"))
    )
    (tmp_path / ".git").mkdir()
    (tmp_path / ".git" / "HEAD").write_text("abc123\n")  # detached
    monkeypatch.chdir(tmp_path)
    assert load_tool().main(["t4"]) == 1
    assert not (tmp_path / "BENCH_t4.json").exists()
    err = capsys.readouterr().err
    assert "skipped paste-seed7-trace0.json, taken at 88bcad1" in err
    assert "no *-trace0.json records at abc123" in err


def test_records_the_source_digest_beside_the_tag(tmp_path, monkeypatch, capsys):
    records = tmp_path / ".perfbench" / "records"
    records.mkdir(parents=True)
    (records / "means-seed1-trace0.json").write_text(json.dumps(record("means", 1, 0, 0.3)))
    git_head(tmp_path, "abc123")
    src = tmp_path / "src" / "charscan"
    src.mkdir(parents=True)
    files = {"sums.py": b"S = 1\n", "arith.py": b"A = 2\n", "__init__.py": b""}
    for name, data in files.items():
        (src / name).write_bytes(data)
    (src / "notes.txt").write_text("not source")
    monkeypatch.chdir(tmp_path)
    tool = load_tool()

    def snapshot_digest(tag):
        assert tool.main([tag]) == 0
        payload = json.loads((tmp_path / f"BENCH_{tag}.json").read_text())
        assert list(payload) == ["tag", "src_sha256", "records"]
        return payload["src_sha256"]

    expected = hashlib.sha256()
    for name in sorted(files):
        expected.update(f"src/charscan/{name}\0{len(files[name])}\0".encode() + files[name])
    assert snapshot_digest("s1") == expected.hexdigest()
    (src / "notes.txt").write_text("still not source")
    assert snapshot_digest("s2") == expected.hexdigest()
    # Moving a byte from one file to the next changes the digest.
    (src / "arith.py").write_bytes(b"A = 2")
    (src / "sums.py").write_bytes(b"\nS = 1\n")
    assert snapshot_digest("s3") != expected.hexdigest()
    # With no source file there is nothing to name: no snapshot, exit 1.
    for path in src.glob("*.py"):
        path.unlink()
    assert tool.main(["s4"]) == 1
    assert not (tmp_path / "BENCH_s4.json").exists()
    assert "no *.py source files in src/charscan" in capsys.readouterr().err
