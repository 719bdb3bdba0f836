"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record.py --seeds 0-10 --seconds 24

Runs every op of a ``--seconds`` run of each workload (a traced run replays
the first half of them) for each seed on the checkout's ``src/``, checks
every output with the reference-free gate, and writes
``perfbench/reference/<workload>.json``: the SHA-256 of each CSV or stdout,
or for ``thresholds`` the printed q values and ``hierarchy_ok``. Record at
the commit whose outputs are the reference, never at a commit under test.
"""

from __future__ import annotations

import os

os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
from worker import run_cli, setup  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(name: str, seeds: list[int], seconds: float, main, work: str) -> dict:
    from qnl.cli import parse_state_spec

    workload = WORKLOADS[name](work)
    n_ops = workload.cycles_for(seconds) * workload.cycle_len
    out = {}
    for seed in seeds:
        refs = []
        for index in range(n_ops):
            op = workload.op(seed, index)
            op.prepare()
            code, stdout = run_cli(main, op.argv)
            if code != 0:
                raise SystemExit(f"{name} seed {seed} op {index} exited with {code}")
            output = stdout.encode()
            if op.out is not None:
                with open(op.out, "rb") as fh:
                    output = fh.read()
            rho = parse_state_spec(op.spec) if op.spec else None
            errors = gate.check(op, output, rho, None)
            if errors:
                raise SystemExit(f"{name} seed {seed} op {index}: {errors}")
            if op.kind == "thresholds":
                doc = json.loads(stdout)
                refs.append([doc[k] for k in gate.Q_KEYS] + [doc["hierarchy_ok"]])
            else:
                refs.append(gate.digest(output))
        out[str(seed)] = refs
        print(f"{name} seed {seed}: {len(refs)} ops", flush=True)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="0-10", help="inclusive range, e.g. 0-10")
    ap.add_argument("--seconds", type=float, default=24.0,
                    help="the run length whose ops are recorded (run_seconds)")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    work = os.path.join(run.OUT, f"record-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        main_cmd = setup(run.SRC, ["measures", "--state", "bell:singlet"])[0]
        facts = {"commit": run._commit(), "src_sha256": run._src_digest()}
        os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
        for name in args.workload or sorted(WORKLOADS):
            seeds = record(name, _seeds(args.seeds), args.seconds, main_cmd, work)
            gate.write_refs(os.path.join(HERE, "reference", f"{name}.json"),
                            dict(facts, workload=name, seconds=args.seconds), seeds)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
