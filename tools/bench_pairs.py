"""Alternating parent/change runs of benchmark workloads, summarised per metric.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload catalog --pairs 10 --seed 100
    python3 tools/bench_pairs.py --parent HEAD~1 --workload all --pairs 5 --seed 100 --json BENCH.json

Both sides run from temporary directories (honouring TMPDIR), removed on
exit, so neither runs where it was developed: the parent side is REV,
exported with ``git archive``; the change side is a snapshot of the working
tree that holds this script, its tracked files plus the untracked ones git
does not ignore.  An export, unlike a ``git worktree``, leaves no
administrative entry under ``.git`` when a run is killed.  Both trees are
byte-compiled first.  Pair i runs
``perfbench/run.py --workload W --seed S+i --trace 0`` once in each tree, the
parent first on even i, and reads the JSON object on the last line of each
run's output.  With ``--workload all`` each pair runs the four workloads in
turn, all from the same two trees, and one table is printed per workload.

For every end-to-end metric of BENCHMARK.json it prints both medians, the
parent's interquartile range, the change's wins out of the pairs run (ties
count for neither side), whether a gain may be claimed (wins in at least nine
tenths of the pairs and a median gap wider than the parent's IQR), and
whether the change's median stays within the metric's regression bound:
``WORSE`` beyond it, ``unresolved`` when the parent's IQR is wider than the
bound and some run of the change reads no better than some run of the
parent, ``ok`` otherwise.  It also prints failed/attempted operations for
each side.  Nothing under ``perfbench/`` is imported or modified.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export_tree(rev: str) -> Path:
    """REV's committed files in a new temporary directory."""
    tree = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    git = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", str(tree)], stdin=git.stdout)
    git.stdout.close()
    if git.wait() != 0 or tar.returncode != 0:
        shutil.rmtree(tree, ignore_errors=True)
        raise SystemExit(f"error: could not export {rev!r}")
    return tree


def snapshot_tree(root: Path) -> Path:
    """The working tree at root, its tracked files and the untracked ones git does not
    ignore (paths deleted since the last commit are skipped), in a new temporary directory."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root,
        capture_output=True,
        check=True,
    ).stdout
    tree = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    for name in filter(None, listed.decode().split("\0")):
        src = root / name
        if src.is_file():
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, tree / name)
    return tree


def compile_tree(tree: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=tree, check=True)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"error: run in {tree} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def summary(spec: dict, parent: list[dict], change: list[dict]) -> dict:
    """Per end-to-end metric: both medians, the parent's IQR, the change's wins, the
    claim and bound verdicts; then failed/attempted operations for each side."""
    pairs = len(parent)
    metrics = {}
    for m in spec["end_to_end"]:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pm, cm = statistics.median(p), statistics.median(c)
        q1, _, q3 = statistics.quantiles(p, n=4, method="inclusive")
        wins = sum(1 for a, b in zip(p, c) if sign * (a - b) > 0)
        gain = wins >= 0.9 * pairs and sign * (pm - cm) > q3 - q1
        bound = m["bound"] * abs(pm)
        if sign * (cm - pm) > bound:
            verdict = "WORSE"
        elif q3 - q1 > bound and max(sign * x for x in c) >= min(sign * x for x in p):
            verdict = "unresolved"  # the spread hides the bound, and the runs overlap
        else:
            verdict = "ok"
        metrics[name] = {
            "parent_median": pm,
            "change_median": cm,
            "parent_iqr": q3 - q1,
            "wins": wins,
            "pairs": pairs,
            "gain": gain,
            "bound": verdict,
        }
    sides = {
        label: {"failed": sum(r["failed"] for r in runs), "attempted": sum(r["attempted"] for r in runs)}
        for label, runs in (("parent", parent), ("change", change))
    }
    return {"metrics": metrics, **sides}


def summarise(spec: dict, parent: list[dict], change: list[dict]) -> list[str]:
    """The summary as the printed table."""
    s = summary(spec, parent, change)
    out = [
        f"{'metric':<12} {'parent':>10} {'change':>10} {'ratio':>7} {'parent IQR':>10} "
        f"{'wins':>6} {'gain':>5} {'bound':>10}"
    ]
    for name, r in s["metrics"].items():
        pm, cm = r["parent_median"], r["change_median"]
        out.append(
            f"{name:<12} {pm:>10.4g} {cm:>10.4g} {cm / pm:>7.3f} {r['parent_iqr']:>10.3g} "
            f"{r['wins']:>3}/{r['pairs']:<2} {'yes' if r['gain'] else 'no':>5} {r['bound']:>10}"
        )
    for label in ("parent", "change"):
        out.append(f"{label} failed/attempted = {s[label]['failed']}/{s[label]['attempted']}")
    return out


WORKLOADS = ("catalog", "series", "points", "window")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--json", metavar="PATH", help="also write the summary of every workload to PATH as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {w: ([], []) for w in workloads}  # workload -> (parent runs, change runs)
    trees: list[Path] = []  # the parent's export, then the change's snapshot
    try:
        trees.append(export_tree(args.parent))
        trees.append(snapshot_tree(ROOT))
        for t in trees:
            compile_tree(t)
        for i in range(args.pairs):
            seed = args.seed + i
            for w in workloads:
                order = list(zip(trees, runs[w]))
                if i % 2:
                    order.reverse()
                for t, results in order:
                    results.append(run_once(t, w, seed))
            print(f"pair {i + 1}/{args.pairs} seed {seed} done", file=sys.stderr, flush=True)
    finally:
        for t in trees:
            shutil.rmtree(t, ignore_errors=True)
    for w in workloads:
        print(f"workload {w}, parent {args.parent}, {args.pairs} pairs from seed {args.seed}")
        print("\n".join(summarise(spec, *runs[w])))
    if args.json:
        obj = {"parent": args.parent, "pairs": args.pairs, "seed": args.seed}
        obj["workloads"] = {w: summary(spec, *runs[w]) for w in workloads}
        Path(args.json).write_text(json.dumps(obj, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
