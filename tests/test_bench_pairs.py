"""The claim rule of tools/bench_pairs.py, on synthetic runs (no benchmark subprocess), and the
snapshot of a working tree that the change side runs from."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
PARENT = [1.0 + 0.01 * i for i in range(10)]  # median 1.045, IQR 0.045


def runs(values, failed=0, attempted=10):
    return [{"metrics": {"wall_s": {"value": v}}, "failed": failed, "attempted": attempted} for v in values]


def row(parent, change):
    """(wins, gain, bound) columns of the wall_s line."""
    lines = bench_pairs.summarise(SPEC, runs(parent), runs(change))
    fields = next(line for line in lines if line.startswith("wall_s")).split()
    return fields[5], fields[6], fields[7]


def test_nine_of_ten_wins_beyond_the_iqr_is_a_gain():
    assert row(PARENT, [0.8] * 9 + [2.0]) == ("9/10", "yes", "ok")


def test_eight_of_ten_wins_is_no_gain():
    assert row(PARENT, [0.8] * 8 + [2.0, 2.0]) == ("8/10", "no", "ok")


def test_a_gap_inside_the_parents_iqr_is_no_gain():
    parent = [1.0 + 0.1 * i for i in range(10)]  # IQR 0.45
    change = [v - 0.01 for v in parent[:9]] + [5.0]
    # the IQR is also wider than the bound (0.25 * 1.45), so the bound is unresolved
    assert row(parent, change) == ("9/10", "no", "unresolved")


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    parent = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0]  # median 2.0, IQR 1.5 > 0.5
    assert row(parent, list(parent)) == ("0/10", "no", "unresolved")
    # every pair is a win, but one run of the change ties the best run of the parent
    assert row(parent, [0.9] * 9 + [1.0]) == ("10/10", "no", "unresolved")
    assert row(parent, [0.9] * 10) == ("10/10", "no", "ok")
    assert row(parent, [2.6] * 10) == ("3/10", "no", "WORSE")  # beyond the bound outranks the spread


def test_a_median_thirty_percent_worse_breaks_the_bound():
    assert row(PARENT, [1.3 * v for v in PARENT]) == ("0/10", "no", "WORSE")


def test_failed_and_attempted_sum_over_runs():
    parent = runs(PARENT, failed=0, attempted=7)
    change = [dict(r, failed=i % 2) for i, r in enumerate(runs(PARENT, attempted=7))]
    lines = bench_pairs.summarise(SPEC, parent, change)
    assert lines[-2:] == ["parent failed/attempted = 0/70", "change failed/attempted = 5/70"]


def test_all_runs_every_workload_from_one_export(monkeypatch, tmp_path, capsys):
    exports, snapshots, calls = [], [], []
    parent, change = tmp_path / "parent", tmp_path / "change"

    def export_tree(rev):
        exports.append(rev)
        return parent

    def snapshot_tree(root):
        snapshots.append(root)
        return change

    def run_once(tree, workload, seed):
        assert tree in (parent, change) and tree != bench_pairs.ROOT
        calls.append((tree == parent, workload, seed))
        value = 1.0 if tree == parent else 0.5  # the change side is faster everywhere
        names = ("setup_s", "wall_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb")
        metrics = {m: {"value": value} for m in names}
        return {"metrics": metrics, "failed": 0, "attempted": 4}

    monkeypatch.setattr(bench_pairs, "export_tree", export_tree)
    monkeypatch.setattr(bench_pairs, "snapshot_tree", snapshot_tree)
    monkeypatch.setattr(bench_pairs, "compile_tree", lambda tree: None)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "all", "--pairs", "2", "--seed", "7"]) == 0
    assert exports == ["HEAD"] and snapshots == [bench_pairs.ROOT]
    # pair 0 runs the parent first, pair 1 the change first, in every workload
    expected = []
    for i, first_is_parent in ((0, True), (1, False)):
        for w in bench_pairs.WORKLOADS:
            expected += [(first_is_parent, w, 7 + i), (not first_is_parent, w, 7 + i)]
    assert calls == expected
    out = capsys.readouterr().out.splitlines()
    headers = [line for line in out if line.startswith("workload ")]
    assert headers == [f"workload {w}, parent HEAD, 2 pairs from seed 7" for w in bench_pairs.WORKLOADS]
    walls = [line.split() for line in out if line.startswith("wall_s")]
    assert len(walls) == 4 and all(f[5] == "2/2" for f in walls)


def test_json_holds_the_printed_summary_of_every_workload(monkeypatch, tmp_path, capsys):
    export, snapshot = tmp_path / "export", tmp_path / "snapshot"  # both removed by main on exit
    export.mkdir()
    snapshot.mkdir()

    def run_once(tree, workload, seed):
        assert tree in (export, snapshot)
        value = 1.0 if tree == export else 0.5 + 0.01 * seed
        names = ("setup_s", "wall_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb")
        return {"metrics": {m: {"value": value} for m in names}, "failed": seed % 2, "attempted": 4}

    monkeypatch.setattr(bench_pairs, "export_tree", lambda rev: export)
    monkeypatch.setattr(bench_pairs, "snapshot_tree", lambda root: snapshot)
    monkeypatch.setattr(bench_pairs, "compile_tree", lambda tree: None)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    path = tmp_path / "bench.json"
    argv = ["--parent", "HEAD", "--workload", "points", "--pairs", "3", "--seed", "1", "--json", str(path)]
    assert bench_pairs.main(argv) == 0
    obj = json.loads(path.read_text())
    assert (obj["parent"], obj["pairs"], obj["seed"], list(obj["workloads"])) == ("HEAD", 3, 1, ["points"])
    points = obj["workloads"]["points"]
    assert points["metrics"]["wall_s"] == {
        "parent_median": 1.0,
        "change_median": 0.52,
        "parent_iqr": 0.0,
        "wins": 3,
        "pairs": 3,
        "gain": True,
        "bound": "ok",
    }
    assert points["parent"] == {"failed": 2, "attempted": 12}
    assert points["change"] == {"failed": 2, "attempted": 12}
    printed = [line.split() for line in capsys.readouterr().out.splitlines() if line.startswith("wall_s")]
    assert printed == [["wall_s", "1", "0.52", "0.520", "0", "3/3", "yes", "ok"]]
    assert not export.exists() and not snapshot.exists()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_snapshot_holds_tracked_and_untracked_files_but_not_ignored_ones(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    files = {".gitignore": "ignored.txt\n", "src/tracked.py": "x = 1\n", "gone.py": "", "ignored.txt": ""}
    for name, text in files.items():
        (repo / name).write_text(text)
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", ".gitignore", "src/tracked.py", "gone.py"], cwd=repo, check=True)
    (repo / "gone.py").unlink()  # deleted after staging: listed by git, skipped by the snapshot
    (repo / "src" / "untracked.py").write_text("y = 2\n")
    tree = bench_pairs.snapshot_tree(repo)
    try:
        found = sorted(str(p.relative_to(tree)) for p in tree.rglob("*") if p.is_file())
        assert found == [".gitignore", "src/tracked.py", "src/untracked.py"]
        assert (tree / "src" / "untracked.py").read_text() == "y = 2\n"
    finally:
        shutil.rmtree(tree)
