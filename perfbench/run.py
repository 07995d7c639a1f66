"""arithfn benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; arithfn is imported from ``src/``.
Each run measures set-up in fresh interpreters, generates the workload's
inputs from the seed, then repeats timed passes for ``--seconds`` and checks
every pass's outputs.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are
the ``end_to_end`` ones of BENCHMARK.json with ``--trace 0`` and the
``per_layer`` ones with ``--trace 1``.  The environment, pass times, failures
and (traced) spans go to ``perfbench/out/``.  The exit code is 0 when every
check held, 1 when one failed and 2 when the run could not start.

``--workload all`` runs the four workloads one after another, each in its own
process, and prints every metric by name and unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
MIN_PASSES = 3
UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}  # raw times are in seconds

# Times one set-up in a fresh interpreter: import arithfn from the given
# source directory, then the workload's own set-up statements.
_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import arithfn
{code}
t1 = time.perf_counter()
if not arithfn.__file__.startswith(sys.argv[1]):
    sys.exit("arithfn imported from " + arithfn.__file__)
print(t1 - t0)
"""


def _import_arithfn() -> None:
    if not (SRC / "arithfn" / "__init__.py").is_file():
        raise SystemExit(f"error: no arithfn sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import arithfn

    if not arithfn.__file__.startswith(str(SRC)):
        raise SystemExit(f"error: arithfn was imported from {arithfn.__file__}, not {SRC}")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, trace: int, seconds: float, sizes) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "sizes": asdict(sizes),
    }


def setup_seconds(code: str) -> list[float]:
    """Set-up times of fresh interpreters.

    The caller has imported arithfn already, so bytecode caches exist and
    the first child is timed like the rest.
    """
    child = _SETUP_CHILD.format(code=code)
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", child, str(SRC)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_pass(workload, tracer, keep_results: bool = False):
    """One timed pass, then its checks; results are dropped unless kept."""
    # The benchmark's modules import arithfn, so they load after _import_arithfn.
    from workloads import PassLog

    gc.collect()
    log = PassLog(tracer)
    t0 = time.perf_counter()
    with tracer.span(f"pass.{workload.name}"):
        workload.run_pass(log)
    log.wall_s = time.perf_counter() - t0
    log.failures = workload.failures(log)
    log.attempted = len(log.results)
    if not keep_results:
        log.results = []
    return log


def end_to_end(logs, setup: list[float]) -> dict[str, float]:
    # Every pass repeats the same operations, so an operation's latency is
    # its median over the passes; the quantiles are taken over operations.
    per_op = [statistics.median(times) for times in zip(*(log.latency_s for log in logs))]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(log.wall_s for log in logs),
        "op_p50_ms": statistics.median(per_op),
        "op_p99_ms": statistics.quantiles(per_op, n=100, method="inclusive")[98],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, sizes) -> dict:
    """Run one workload; returns the raw metrics, the pass logs and the spans."""
    from probes import run_probes
    from tracing import NullTracer, Tracer, layer_self_seconds, tagged_medians
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, sizes)
    setup = [] if trace else setup_seconds(workload.setup_code())
    untraced = NullTracer()
    start = time.perf_counter()
    if not trace:
        logs = []
        while len(logs) < MIN_PASSES or time.perf_counter() - start < seconds:
            logs.append(run_pass(workload, untraced))
        return {"metrics": end_to_end(logs, setup), "logs": logs, "spans": []}

    # Traced: for half the time, alternate untraced and traced passes of this
    # workload, so the difference of their medians is the tracing overhead.
    # Then one traced pass of every other workload and the probes, so that
    # each traced run reports every per-layer metric in about the time of an
    # untraced run.
    tracer = Tracer()
    plain, traced = [], []
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds / 2:
        plain.append(run_pass(workload, untraced))
        traced.append(run_pass(workload, tracer, keep_results=True))
        if len(traced) > 1:
            traced[-2].results = []
    workloads = {name: workload}
    last = {name: traced[-1]}
    for other, cls in WORKLOADS.items():
        if other != name:
            workloads[other] = cls(seed, sizes)
            last[other] = run_pass(workloads[other], tracer, keep_results=True)
    counts = run_probes(tracer, sizes, seed, workloads, last)
    metrics = dict(counts)
    overhead = statistics.median(log.wall_s for log in traced) - statistics.median(log.wall_s for log in plain)
    metrics["trace.overhead_s"] = overhead
    metrics.update(tagged_medians(tracer.spans))
    return {
        "metrics": metrics,
        "logs": plain + traced + [last[w] for w in last if w != name],
        "spans": tracer.spans,
        "layer_self_s": layer_self_seconds(tracer.spans),
    }


def report(spec: dict, raw: dict, trace: bool) -> tuple[dict, list[str]]:
    """The result object of the contract: declared metrics only, with units."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, missing = {}, []
    for m in declared:
        value = raw["metrics"].get(m["name"])
        if value is None:
            missing.append(m["name"])
            continue
        value *= UNIT_SCALE.get(m["unit"], 1)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    logs = raw["logs"]
    attempted = sum(log.attempted for log in logs)
    failed = sum(len(log.failures) for log in logs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, missing


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(args, spec: dict, sizes=None) -> int:
    from workloads import FULL

    sizes = sizes or FULL
    trace = bool(args.trace)
    raw = measure(args.workload, args.seed, args.seconds, trace, sizes)
    result, missing = report(spec, raw, trace)
    if missing:
        print(f"error: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed, args.trace, args.seconds, sizes)
    failures = [msg for log in raw["logs"] for msg in log.failures.values()]
    OUT.mkdir(exist_ok=True)
    record = {
        "env": env,
        "result": result,
        "pass_wall_s": [log.wall_s for log in raw["logs"]],
        "failures": failures[:50],
    }
    if trace:
        from tracing import spans_to_json

        record["layer_self_s"] = raw["layer_self_s"]
        record["spans"] = spans_to_json(raw["spans"])
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    print("env " + json.dumps(env))
    for msg in failures[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"{args.workload} fail_ratio = {result['failed']}/{result['attempted']} = {ratio:.6g}")
    print(f"{args.workload} passes = {len(raw['logs'])}, record in {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one at a time."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("env ")))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("catalog", "series", "points", "window", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    _import_arithfn()
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
