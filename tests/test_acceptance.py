"""Acceptance suite: one test per numbered criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

The Bell oracle for damped Werner states is 2 sqrt(2) p sqrt(1-q): the
singular values of the correlation matrix T are (p sqrt(1-q), p sqrt(1-q),
p (1-q)), and a direct CHSH maximisation over measurement directions
agrees (tests/test_werner_analytic.py::TestBellFormulaDiagnostic). The
two-branch expression ``thresholds.bell_ad`` is defective and is not
used as a reference here.
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import ginibre_density_stack, partial_transpose_b
from oracles import concurrence_unclamped
from qnl.channels import FAMILIES, apply_channel, evolve_grid
from qnl.cli import main as cli_main
from qnl.measures import (
    GISIN_BOUND,
    classify,
    concurrence,
    fidelity,
    wootters_roots_stack,
    correlation_singvals_stack,
)
from qnl.sampling import SamplerConfig, hierarchy_experiment
from qnl.states import DensityMatrix, bell_singlet, werner
from qnl.thresholds import concurrence_ad, fidelity_ad, threshold_set

AD = "amplitude-damping"


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def bisect_increasing(margin, tol=1e-9):
    """Root of an increasing margin over p in [0, 1]."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def bisect_decreasing(curve, level, tol=1e-12):
    """Crossing of a decreasing curve over q in [0, 1] through a level."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if curve(mid) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bell_exact(p, q):
    """Bell parameter of the damped Werner state, 2 sqrt(2) p sqrt(1-q)."""
    return 2 * math.sqrt(2) * p * np.sqrt(1 - q)


def test_criterion_1_werner_noiseless_triple():
    start = time.perf_counter()
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 11):
        rho = werner(p)
        targets = (max(0.0, (3 * p - 1) / 2), (1 + p) / 2, 2 * math.sqrt(2) * p)
        got = (concurrence(rho), fidelity(rho), classify(rho).bell)
        worst = max(worst, max(abs(g - t) for g, t in zip(got, targets)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(1, ok, f"noiseless Werner triple, max deviation {worst:.2e} "
                  f"(tol 1e-10), {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_2_werner_noiseless_thresholds():
    start = time.perf_counter()
    roots = {
        "entanglement": bisect_increasing(lambda p: concurrence_unclamped(werner(p))),
        "teleportation": bisect_increasing(lambda p: fidelity(werner(p)) - 2 / 3),
        "bell": bisect_increasing(lambda p: classify(werner(p)).bell - 2),
        "gisin": bisect_increasing(lambda p: fidelity(werner(p)) - GISIN_BOUND),
    }
    targets = {
        "entanglement": 1 / 3,
        "teleportation": 1 / 3,
        "bell": 1 / math.sqrt(2),
        "gisin": 2 * GISIN_BOUND - 1,
    }
    worst = max(abs(roots[k] - targets[k]) for k in roots)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    report(2, ok, "noiseless p-thresholds "
                  + ", ".join(f"{k}={roots[k]:.7f}" for k in roots)
                  + f"; max deviation {worst:.2e} (tol 1e-6), {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 1.0


def test_criterion_3_closed_form_vs_pipeline_grid():
    start = time.perf_counter()
    ps = np.linspace(0.0, 1.0, 51)
    qs = np.linspace(0.0, 1.0, 51)
    worst_c = worst_f = worst_b = 0.0
    for p in ps:
        evolved = evolve_grid(werner(p).mat, AD, qs)
        roots = wootters_roots_stack(evolved)
        c_num = np.maximum(0.0, roots[:, 0] - roots[:, 1:].sum(axis=1))
        sv = correlation_singvals_stack(evolved)
        f_num = 0.5 * (1 + sv.sum(axis=1) / 3)
        b_num = 2 * np.sqrt(sv[:, 0] ** 2 + sv[:, 1] ** 2)
        worst_b = max(worst_b, float(np.max(np.abs(b_num - bell_exact(p, qs)))))
        for j, q in enumerate(qs):
            worst_c = max(worst_c, abs(c_num[j] - concurrence_ad(p, q)))
            worst_f = max(worst_f, abs(f_num[j] - fidelity_ad(p, q)))
    elapsed = time.perf_counter() - start
    ok = worst_c <= 1e-10 and worst_f <= 1e-10 and worst_b <= 1e-10
    report(
        3,
        ok,
        f"51x51 closed form vs pipeline: C dev {worst_c:.2e}, F dev {worst_f:.2e}, "
        f"B dev {worst_b:.2e} against 2*sqrt(2)*p*sqrt(1-q) at every grid point "
        f"(all tol 1e-10); {elapsed:.2f}s",
    )
    assert elapsed < 10.0
    assert worst_c <= 1e-10
    assert worst_f <= 1e-10
    assert worst_b <= 1e-10


def test_criterion_4_bell_state_threshold_set():
    start = time.perf_counter()
    ts = threshold_set(bell_singlet(), AD, tol=1e-9)
    elapsed = time.perf_counter() - start

    # 2 sqrt(2) sqrt(1-q) = 2 at p = 1 gives q_B = 1/2 exactly.
    target_b = bisect_decreasing(lambda q: bell_exact(1.0, q), 2.0)
    target_f = 2 * math.sqrt(2) - 2
    target_g = bisect_decreasing(lambda q: fidelity_ad(1.0, q), GISIN_BOUND)

    ok_b = abs(ts.q_b - target_b) <= 1e-6
    ok_f = abs(ts.q_f - target_f) <= 1e-6
    ok_g = abs(ts.q_g - target_g) <= 1e-4
    ok_c = ts.q_c is None
    ok = ok_b and ok_f and ok_g and ok_c and elapsed < 1.0
    report(
        4,
        ok,
        f"Bell-state thresholds q_G={ts.q_g:.6f} (target {target_g:.6f}, "
        f"{'ok' if ok_g else 'off'}), q_B={ts.q_b:.6f} (target {target_b:.6f}, "
        f"{'ok' if ok_b else 'off'}), q_F={ts.q_f:.6f} (target {target_f:.6f}, "
        f"{'ok' if ok_f else 'off'}), q_C={'absent' if ok_c else ts.q_c}; "
        f"{elapsed:.2f}s. q_B is where 2*sqrt(2)*sqrt(1-q) crosses 2.",
    )
    assert elapsed < 1.0
    assert ok_g, f"q_G {ts.q_g} vs {target_g}"
    assert ok_f, f"q_F {ts.q_f} vs {target_f}"
    assert ok_c
    assert ok_b, f"q_B {ts.q_b} vs {target_b}"


def _run_gap_experiment(n_states: int, channel: str, seed: int):
    """One seeded experiment: (all its checks hold, summary, seconds)."""
    start = time.perf_counter()
    cfg = SamplerConfig(n_states=n_states, seed=seed, channel=channel, tol=1e-6)
    result = hierarchy_experiment(cfg)
    elapsed = time.perf_counter() - start
    gaps = result.gaps
    present = gaps[~np.isnan(gaps)].tolist()
    absent = int(np.isnan(gaps).sum())
    min_gap = min(present)
    ok = len(result) == n_states and gaps.shape == (n_states, 3) and min_gap >= -1e-6
    detail = (
        f"{n_states} seeded MEMS above the Gisin bound, {channel}: "
        f"{len(present)} present gaps all >= -1e-6 (min {min_gap:.3e}), "
        f"{absent} absent (entanglement surviving all noise), {elapsed:.1f}s"
    )
    return ok, detail, elapsed


def test_criterion_5_hierarchy_experiment_amplitude_damping():
    ok, detail, elapsed = _run_gap_experiment(10_000, AD, seed=20250101)
    report(5, ok and elapsed < 300.0, f"{detail}; runtime target < 5 min")
    assert ok, detail
    assert elapsed < 300.0


def test_criterion_6_hierarchy_other_channels():
    runs = [
        _run_gap_experiment(2_000, "phase-damping", seed=20250102),
        _run_gap_experiment(2_000, "depolarizing", seed=20250103),
    ]
    total = sum(elapsed for _, _, elapsed in runs)
    ok = all(run_ok for run_ok, _, _ in runs)
    report(6, ok and total < 120.0, "; ".join(detail for _, detail, _ in runs)
           + f"; {total:.1f}s in total, runtime target < 2 min")
    for run_ok, detail, _ in runs:
        assert run_ok, detail
    assert total < 120.0


def test_criterion_7_physics_invariant_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20250104)

    sweep_states = ginibre_density_stack(100, rng)
    q_grid = np.linspace(0.0, 1.0, 101)
    worst_trace = 0.0
    worst_eig = 0.0
    for family in sorted(FAMILIES):
        for mat in sweep_states:
            out = evolve_grid(mat, family, q_grid)
            worst_trace = max(
                worst_trace, float(np.max(np.abs(np.trace(out, axis1=1, axis2=2) - 1)))
            )
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(out)[:, 0].min()))
    assert worst_trace <= 1e-12
    assert worst_eig >= -1e-10

    worst_id = 0.0
    for family in sorted(FAMILIES):
        for mat in sweep_states[:20]:
            out = apply_channel(DensityMatrix(mat), FAMILIES[family](0.0))
            worst_id = max(worst_id, float(np.max(np.abs(out.mat - mat))))
    assert worst_id <= 1e-14

    worst_comp = 0.0
    for mat in sweep_states[:20]:
        rho = DensityMatrix(mat)
        for q1, q2 in ((0.15, 0.3), (0.6, 0.6), (0.95, 0.1)):
            twice = apply_channel(apply_channel(rho, FAMILIES[AD](q1)), FAMILIES[AD](q2))
            merged = apply_channel(rho, FAMILIES[AD](1 - (1 - q1) * (1 - q2)))
            worst_comp = max(worst_comp, float(np.max(np.abs(twice.mat - merged.mat))))
    assert worst_comp <= 1e-10

    big = ginibre_density_stack(10_000, rng)
    roots = wootters_roots_stack(big)
    entangled = (roots[:, 0] - roots[:, 1:].sum(axis=1)) > 1e-9
    npt = np.linalg.eigvalsh(partial_transpose_b(big))[:, 0] < -1e-9
    agreement = bool(np.array_equal(entangled, npt))
    assert agreement

    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    report(
        7,
        ok,
        f"trace dev {worst_trace:.1e}, min eigenvalue {worst_eig:.1e}, q=0 "
        f"identity dev {worst_id:.1e}, composition dev {worst_comp:.1e}, "
        f"concurrence/negativity agreement on 10000 states: {agreement}; "
        f"{elapsed:.1f}s (< 60s)",
    )
    assert elapsed < 60.0


def test_criterion_8_cli_determinism(tmp_path):
    runner = CliRunner()
    paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
    for path in paths:
        result = runner.invoke(
            cli_main, ["sample-mems", "--n", "100", "--seed", "7", "--out", str(path)]
        )
        assert result.exit_code == 0, result.output
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    report(8, identical, "sample-mems --n 100 --seed 7 run twice: "
                         + ("byte-identical CSVs" if identical else "outputs differ"))
    assert identical
