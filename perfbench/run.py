"""qnl benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload mems-hierarchy --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program under test is ``src/qnl`` of
that checkout, imported in-process. Set-up is timed in several fresh
processes and reported as their median. With ``--trace 0`` the last stdout
line carries the end-to-end metrics, with ``--trace 1`` the per-layer ones;
``perfbench/_out/`` receives the full record (machine facts, tail percentile,
X-state share, per-span-kind ledger) and the traced spans.
"""

from __future__ import annotations

import os

# Pinned before anything loads numpy, here and in every child process.
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROCESSES = 5  # plus the measuring process's own set-up
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "units/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _child(args: list[str], timeout: float) -> dict:
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], capture_output=True,
                              text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _lscpu_caches() -> dict:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    return {k.strip(): v.strip() for k, _, v in
            (line.partition(":") for line in out.splitlines()) if "cache" in k}


def _src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def machine_facts() -> dict:
    import numpy as np
    from workloads import largest_stacks

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
        "caches": _lscpu_caches(),
        "dense_scan_largest_stacks": largest_stacks(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "qnl", "cli.py")):
        print(f"no qnl sources under {SRC}: run from the root of a qnl checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](work)
        warm = workload.warmup(args.seed)
        warm.prepare()
        warm_path = os.path.join(work, "warmup-argv.json")
        with open(warm_path, "w", encoding="utf-8") as fh:
            json.dump(warm.argv, fh)
        common = ["--src", SRC, "--warmup", warm_path]

        setups = [_child(common + ["--setup-only"], 60.0) for _ in range(SETUP_PROCESSES)]
        budget = DEADLINE_S - (time.perf_counter() - started)
        res = _child(common + [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", work, "--out-dir", OUT,
            "--refs", os.path.join(HERE, "reference", f"{args.workload}.json"),
        ], budget)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups.append({k: res[k] for k in ("setup_s", "raw_setup_s", "wall_setup_s")})
    res["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    res["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    res["setup_samples"] = setups
    res["error_rate"] = res["failed"] / res["attempted"]

    failed, attempted = res["failed"], res["attempted"]
    problems = list(res["errors"])
    if args.workload == "general-thresholds" and res["x_share_ops"] != 0.0:
        problems.append("general-thresholds must have no X-state inputs")
    if args.trace:
        tr = res["trace"]
        failed += tr["failed"]
        attempted += tr["ops"]
        problems += tr["errors"]
        import spans

        if not spans.covers(tr["reported_self_s"], tr["wall_s"]):
            problems.append("the reported self times do not add up to the traced wall time")
        metrics = tr["metrics"]
        units = spans.UNITS
    else:
        metrics = {name: res[name] for name, _ in END_TO_END}
        units = dict(END_TO_END)
    correct = failed == 0 and not problems

    facts = machine_facts()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "unit": workload.unit, "correct": correct,
        "problems": problems[:20], "facts": facts, "result": res,
    }
    os.makedirs(OUT, exist_ok=True)
    record_path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {res['attempted']} ops in {res['cycles']} "
          f"cycles, {res['units']} {workload.unit}, closed loop, 1 caller, 1 thread")
    if res["cycles"] < res["planned_cycles"]:
        print(f"  stopped by the wall-clock safety stop after {res['cycles']} of "
              f"{res['planned_cycles']} cycles: the metrics cover fewer ops than planned")
    raw, wall = res["raw"], res["wall"]
    res["wall_setup_s"] = statistics.median(s["wall_setup_s"] for s in setups)
    print("  CPU time scaled to the reference machine speed [unscaled CPU time, wall time]")
    print(f"  setup_s           {res['setup_s']:.4f} s  [{res['raw_setup_s']:.4f}, "
          f"{res['wall_setup_s']:.4f}]  (median of {len(setups)} fresh processes)")
    print(f"  throughput_per_s  {res['throughput_per_s']:.4f}  [{res['raw_throughput_per_s']:.4f}, "
          f"{res['units'] / res['wall_busy_s']:.4f}]  {workload.unit}/s")
    print(f"  latency_p50_ms    {res['latency_p50_ms']:.4f} ms  [{raw['latency_p50_ms']:.4f}, "
          f"{wall['latency_p50_ms']:.4f}]")
    print(f"  latency_tail_ms   {res['latency_tail_ms']:.4f} ms  [{raw['latency_tail_ms']:.4f}, "
          f"{wall['latency_tail_ms']:.4f}]  (p{res['tail_percentile']:.2f}, {res['samples']} samples, "
          f"{res['tail_beyond']} beyond)")
    print(f"  peak_rss_mb       {res['peak_rss_mb']:.1f} MB")
    print(f"  error_rate        {res['error_rate']:.4f} ratio  ({res['failed']} of {res['attempted']} ops failed)")
    print(f"  x_state_share     {res['x_share_ops']:.3f} of ops, {res['x_share_units']:.3f} of {workload.unit}")
    if args.trace:
        tr = res["trace"]
        print(f"  trace: {tr['ops']} ops replayed, {tr['spans']} spans, traced {tr['wall_s']:.3f} s "
              f"= reported self times {tr['reported_self_s']:.3f} s, untraced {tr['untraced_s']:.3f} s")
    for problem in problems[:10]:
        print(f"  FAILED: {problem}")
    print(f"  machine: nproc {facts['nproc']}, Python {facts['python']}, numpy {facts['numpy']}, "
          f"click {facts['click']}, BLAS {facts['blas']['name']} {facts['blas']['version']}, "
          f"threads pinned to 1, commit {facts['commit'] or 'unknown'}, "
          f"src sha256 {facts['src_sha256'][:12]}")
    print(f"  record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
