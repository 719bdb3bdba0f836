"""Correctness gate: every op's output is judged, and a failure counts as a
failed op in ``error_rate``.

With a reference recorded from the seed commit for (workload seed, op index):
the SHA-256 of the CSV or stdout must match for ``sample-mems``, ``scan`` and
``werner-map``; for ``thresholds`` every q_X must lie within 2*tol of the
reference (None matching None) and ``hierarchy_ok`` must be unchanged.

Without a reference the gate needs none: each reported threshold is checked
to be alive at q_X - 2*tol and dead at q_X + 2*tol with ``thresholds.scan``
(0 means dead at q = 0, None alive at q = 1 - tol), and scan and map rows are
spot-checked against the library called directly.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

Q_KEYS = ("q_G", "q_B", "q_F", "q_C")
SPOT_ROWS = 8


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_refs(path: str, header: dict, seeds: dict[str, list]) -> None:
    """Write a reference file: a header line, then one JSON line per seed.

    A run parses the lines one at a time and keeps only its own seed's, so
    its peak RSS does not depend on how many seeds the file holds.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for seed, refs in seeds.items():
            fh.write(json.dumps({"seed": int(seed), "refs": refs}, separators=(",", ":")) + "\n")


def read_refs(path: str, seed: int) -> list:
    """The references of one seed; empty if the file has none for it."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            if doc.get("seed") == seed:
                return doc["refs"]
    return []


def _margins(rho, channel: str, qs: list[float]) -> dict[float, np.ndarray]:
    """Alive margins (GISIN, BELL, FIDELITY, CONCURRENCE) at each q."""
    from qnl.measures import GISIN_BOUND
    from qnl.thresholds import scan

    grid = sorted(set(qs))
    table = scan(rho, channel, np.array(grid))
    _, c, f, b = table.T
    margins = np.stack([f - GISIN_BOUND, b - 2.0, f - 2.0 / 3.0, c]).T
    return dict(zip(grid, margins))


def check_bracket(rho, channel: str, q_values: list, tol: float) -> list[str]:
    """Each condition alive just below its threshold and dead just above it."""
    probes = []
    for q in q_values:
        if q is None:
            probes.append((1.0 - tol, True))
        elif q == 0.0:
            probes.append((0.0, False))
        else:
            probes.append((max(0.0, q - 2 * tol), True))
            probes.append((min(1.0, q + 2 * tol), False))
    at = _margins(rho, channel, [p for p, _ in probes])
    errors = []
    pos = 0
    for row, (key, q) in enumerate(zip(Q_KEYS, q_values)):
        for _ in range(1 if q is None or q == 0.0 else 2):
            point, alive = probes[pos]
            pos += 1
            margin = at[point][row]
            if (margin > 0.0) != alive:
                state = "alive" if alive else "dead"
                errors.append(f"{key}={q}: expected {state} at q={point!r}, margin {margin:.3e}")
    return errors


def _hierarchy_ok(q_values: list) -> bool:
    from qnl.thresholds import ThresholdSet, hierarchy_check

    return hierarchy_check(ThresholdSet(*q_values))


def check_thresholds(text: str, rho, channel: str, tol: float, ref) -> list[str]:
    try:
        doc = json.loads(text)
        q_values = [doc[k] for k in Q_KEYS]
        ok = doc["hierarchy_ok"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable thresholds output: {exc}"]
    if ref is not None:
        errors = []
        for key, q, r in zip(Q_KEYS, q_values, ref[:4]):
            if (q is None) != (r is None) or (q is not None and abs(q - r) > 2 * tol):
                errors.append(f"{key}={q} but the reference is {r}")
        if ok != ref[4]:
            errors.append(f"hierarchy_ok={ok} but the reference is {ref[4]}")
        return errors
    errors = check_bracket(rho, channel, q_values, tol)
    if ok != _hierarchy_ok(q_values):
        errors.append(f"hierarchy_ok={ok} disagrees with the reported thresholds")
    return errors


def _cell(text: str):
    return None if text == "" else float(text)


def check_mems_csv(text: str, n: int, channel: str, tol: float) -> list[str]:
    from qnl.measures import GISIN_BOUND, fidelity
    from qnl.states import MemsWeights, mems

    lines = text.split("\n")
    if lines[0] != "p1,p2,p3,p4,q_G,q_B,q_F,q_C,gap_GB,gap_BF,gap_FC" or lines[-1] != "":
        return ["malformed sample-mems CSV"]
    rows = lines[1:-1]
    if len(rows) != n:
        return [f"{len(rows)} CSV rows, expected {n}"]
    errors = []
    for line in rows:
        cells = [_cell(v) for v in line.split(",")]
        w = np.array(cells[:4])
        rho = mems(MemsWeights(*(w / w.sum())))
        if not fidelity(rho) > GISIN_BOUND:
            errors.append(f"state {line[:40]} is not above the Gisin bound")
        q = cells[4:8]
        errors += check_bracket(rho, channel, q, tol)
        for gap, later, earlier in zip(cells[8:], q[1:], q[:-1]):
            want = None if later is None or earlier is None else later - earlier
            if (gap is None) != (want is None) or (gap is not None and abs(gap - want) > 1e-11):
                errors.append(f"gap {gap} does not match thresholds {earlier}, {later}")
    return errors


def check_scan_csv(text: str, rho, channel: str, steps: int, seed: int) -> list[str]:
    from qnl.channels import FAMILIES, apply_channel
    from qnl.measures import classify

    lines = text.split("\n")
    if lines[0] != "q,concurrence,fidelity,bell" or len(lines) != steps + 2 or lines[-1] != "":
        return ["malformed scan CSV"]
    grid = np.linspace(0.0, 1.0, steps)
    errors = []
    picks = np.random.default_rng(seed).choice(steps, size=min(SPOT_ROWS, steps), replace=False)
    for i in sorted(int(k) for k in picks) + [0, steps - 1]:
        q, c, f, b = (float(v) for v in lines[i + 1].split(","))
        if q != float(format(grid[i], ".12g")):
            errors.append(f"row {i}: q={q}, expected {grid[i]!r}")
            continue
        report = classify(apply_channel(rho, FAMILIES[channel](grid[i])))
        for name, got, want in (("concurrence", c, report.concurrence),
                                ("fidelity", f, report.fidelity),
                                ("bell", b, report.bell)):
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
                errors.append(f"row {i}: {name}={got}, library gives {want}")
    return errors


def check_werner_map(text: str, grid: int, seed: int) -> list[str]:
    from qnl.thresholds import werner_region

    lines = text.split("\n")
    if lines[0] != "p,q,region" or len(lines) != grid * grid + 2 or lines[-1] != "":
        return ["malformed werner-map CSV"]
    axis = np.linspace(0.0, 1.0, grid)
    errors = []
    picks = np.random.default_rng(seed).choice(grid * grid, size=SPOT_ROWS, replace=False)
    for k in sorted(int(v) for v in picks):
        i, j = divmod(k, grid)
        want = f"{axis[i]:.12g},{axis[j]:.12g},{werner_region(axis[i], axis[j])}"
        if lines[k + 1] != want:
            errors.append(f"map row {k}: {lines[k + 1]!r}, expected {want!r}")
    return errors


def check(op, output: bytes, rho, ref) -> list[str]:
    """Judge one op's output (CSV file bytes, or stdout for scan/thresholds)."""
    if op.kind == "thresholds":
        return check_thresholds(output.decode(), rho, op.channel, op.params["tol"], ref)
    if ref is not None:
        got = digest(output)
        return [] if got == ref else [f"SHA-256 {got[:16]}... differs from the reference {ref[:16]}..."]
    text = output.decode()
    if op.kind == "sample-mems":
        return check_mems_csv(text, op.params["n"], op.channel, op.params["tol"])
    if op.kind == "scan":
        return check_scan_csv(text, rho, op.channel, op.params["steps"], op.index)
    return check_werner_map(text, op.params["grid"], op.index)
