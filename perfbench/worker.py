"""One measuring process: set-up, the closed loop, the gate, the trace.

Run by ``run.py`` with the BLAS/OpenMP thread variables pinned to 1. The
first thing it times is the set-up a user pays in a fresh process (importing
``qnl`` and ``qnl.cli`` and one warm-up op), so nothing else may import numpy
before that. ``--setup-only`` stops there; otherwise the worker runs the
workload's ops one after another (one caller, closed loop) for the given
number of seconds, judges each output and prints one JSON result line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time


# A run stops early, at a cycle boundary, once its wall time reaches this
# multiple of --seconds (a safety stop; it then holds fewer ops than planned).
MAX_WALL_FACTOR = 3.0


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    """Invoke the click entry point in-process; returns (exit code, stdout)."""
    import click

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            main.main(args=argv, prog_name="qnl", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception as exc:  # counted as a failed op, never fatal
            print(f"op {argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return code, buf.getvalue()


def setup(src: str, warmup_argv: list[str]):
    """Import qnl from the checkout and run one warm-up op.

    Returns the click entry point and the CPU and wall seconds it took.
    """
    t0, c0 = time.perf_counter(), time.process_time()
    sys.path.insert(0, src)
    import qnl  # noqa: F401
    import qnl.cli

    if not os.path.realpath(qnl.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"qnl was imported from {qnl.__file__}, not from {src}")
    code, _ = run_cli(qnl.cli.main, warmup_argv)
    cpu, wall = time.process_time() - c0, time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"warm-up op failed with exit code {code}")
    return qnl.cli.main, cpu, wall


class Loop:
    """Runs ops in order and records latency, units, bytes and gate verdicts."""

    def __init__(self, main, refs: list) -> None:
        self.main = main
        self.refs = refs
        self.latency: list[float] = []  # CPU seconds per op
        self.wall: list[float] = []  # wall seconds per op
        self.cal: list[float] = []  # calibration unit before op 0 and after each op
        self.units = 0
        self.bytes_out = 0
        self.failed = 0
        self.errors: list[str] = []
        self.outputs: list[str] = []  # digest of each op's output
        self.x_ops = 0
        self.x_units = 0

    def run_op(self, op, expect_digest: str | None = None, on_root=None) -> None:
        import calibrate
        import gate
        from qnl.cli import parse_state_spec

        op.prepare()
        if on_root is None:
            t0, c0 = time.perf_counter(), calibrate.cpu_seconds()
            code, stdout = run_cli(self.main, op.argv)
            self.latency.append(calibrate.cpu_seconds() - c0)
            self.wall.append(time.perf_counter() - t0)
            self.cal.append(calibrate.unit())
        else:
            code, stdout = on_root(lambda: run_cli(self.main, op.argv))
        output = stdout.encode()
        if op.out is not None and code == 0:
            with open(op.out, "rb") as fh:
                output = fh.read()
            self.bytes_out += len(stdout.encode())
        self.bytes_out += len(output)
        errors = [] if code == 0 else [f"exit code {code}"]
        if code == 0 and expect_digest is not None:
            # Traced replay: the wrappers are live, so call nothing of qnl here.
            if gate.digest(output) != expect_digest:
                errors = ["traced output differs from the untraced output"]
        elif code == 0:
            rho = parse_state_spec(op.spec) if op.spec else None
            ref = self.refs[op.index] if op.index < len(self.refs) else None
            errors = gate.check(op, output, rho, ref)
            if self._x_form(op, rho, output):
                self.x_ops += 1
                self.x_units += op.units
        self.outputs.append(gate.digest(output))
        if errors:
            self.failed += 1
            self.errors += [f"op {op.index} ({' '.join(op.argv[:1])}): {e}" for e in errors[:3]]
        else:
            self.units += op.units

    @staticmethod
    def _x_form(op, rho, output: bytes) -> bool:
        from workloads import is_x_form

        if op.kind == "werner-map":
            return True  # the map evaluates Werner states only
        if op.kind == "sample-mems":
            from qnl.states import MemsWeights, mems

            rows = output.decode().split("\n")[1:-1]
            for line in rows:
                w = [float(v) for v in line.split(",")[:4]]
                if not is_x_form(mems(MemsWeights(*(x / sum(w) for x in w))).mat):
                    return False
            return True
        return is_x_form(rho.mat)


def _summary(lat: list[float]) -> dict:
    """Median and the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(lat)
    n = len(ordered)
    out = {"samples": n, "latency_p50_ms": statistics.median(ordered) * 1e3}
    if n > 10:
        out["latency_tail_ms"] = ordered[n - 11] * 1e3
        out["tail_percentile"] = 100.0 * (n - 10) / n
        out["tail_beyond"] = 10
    else:
        out["latency_tail_ms"] = ordered[-1] * 1e3
        out["tail_percentile"] = 100.0
        out["tail_beyond"] = 0
    return out


def measure(args, main, workload, refs) -> dict:
    import calibrate

    seconds = args.seconds / 2 if args.trace else args.seconds
    planned = workload.cycles_for(seconds)
    loop = Loop(main, refs)
    loop.cal.append(calibrate.unit())
    t0 = time.perf_counter()
    cycles = 0
    # The op count is fixed by --seconds; the wall clock only stops a run of
    # a program that is several times slower than the seed commit.
    while cycles < planned and time.perf_counter() - t0 < MAX_WALL_FACTOR * seconds:
        for op in workload.cycle(args.seed, cycles):
            loop.run_op(op)
        cycles += 1
    busy = sum(loop.latency)
    scaled = calibrate.scale(loop.latency, loop.cal)
    result = {
        "attempted": len(loop.latency),
        "failed": loop.failed,
        "errors": loop.errors[:20],
        "cycles": cycles,
        "planned_cycles": planned,
        "units": loop.units,
        "busy_s": busy,
        "throughput_per_s": loop.units / sum(scaled),
        "raw_throughput_per_s": loop.units / busy,
        "calibration_median_s": statistics.median(loop.cal),
        "latency_s": loop.latency,
        "wall_s": loop.wall,
        "calibration_s": loop.cal,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "x_share_ops": loop.x_ops / len(loop.latency),
        "x_share_units": loop.x_units / max(loop.units, 1),
        "bytes_out": loop.bytes_out,
    }
    result.update(_summary(scaled))
    result["raw"] = _summary(loop.latency)
    result["wall"] = _summary(loop.wall)
    result["wall_busy_s"] = sum(loop.wall)
    if args.trace:
        result["trace"] = traced_replay(args, main, workload, loop, cycles, sum(loop.wall))
    return result


def traced_replay(args, main, workload, untraced: Loop, cycles: int, busy_wall: float) -> dict:
    """Replay the same ops with every wrapper installed; per-layer metrics."""
    import spans

    tracer = spans.Tracer()
    loop = Loop(main, [])

    def root(call):
        idx = tracer.open(spans.ROOT)
        try:
            return call()
        finally:
            tracer.close(idx)

    with spans.installed(tracer):
        k = 0
        for c in range(cycles):
            for op in workload.cycle(args.seed, c):
                loop.run_op(op, expect_digest=untraced.outputs[k], on_root=root)
                k += 1
    arr = tracer.arrays()
    roots = arr["parent"] < 0
    wall = float((arr["end"][roots] - arr["start"][roots]).sum())
    n_ops = int(roots.sum())
    metrics = spans.layer_metrics(arr, n_ops)
    reported = spans.reported_self_s(metrics) * n_ops
    metrics["cli.bytes_out"] = loop.bytes_out / n_ops
    metrics["trace.wall_s"] = wall / n_ops
    metrics["trace.overhead_s"] = (wall - busy_wall) / n_ops
    tracer.save(os.path.join(args.out_dir, f"spans-{args.workload}.npz"))
    return {
        "metrics": metrics,
        "failed": loop.failed,
        "errors": loop.errors[:20],
        "ops": n_ops,
        "spans": len(tracer),
        "reported_self_s": reported,
        "wall_s": wall,
        "untraced_s": busy_wall,
        "ledger": spans.ledger(arr),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--warmup", required=True, help="JSON file with the warm-up argv")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work-dir")
    ap.add_argument("--out-dir")
    ap.add_argument("--refs")
    args = ap.parse_args()
    with open(args.warmup, encoding="utf-8") as fh:
        warmup_argv = json.load(fh)

    main_cmd, setup_cpu, setup_wall = setup(args.src, warmup_argv)
    import calibrate

    result = {
        "setup_s": setup_cpu * calibrate.REF_S / calibrate.median_unit(),
        "raw_setup_s": setup_cpu,
        "wall_setup_s": setup_wall,
    }
    if not args.setup_only:
        import gate
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.work_dir)
        refs = []
        if args.refs and os.path.exists(args.refs):
            refs = gate.read_refs(args.refs, args.seed)
        result.update(measure(args, main_cmd, workload, refs))
        result["reference_ops"] = len(refs)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
