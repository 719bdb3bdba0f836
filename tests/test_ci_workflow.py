"""The CI workflow parses, every step does something, and it runs the tier-1 command.

It installs the test extra of ``pyproject.toml``, so the extra is the one list
of test dependencies, and it names the ``pyyaml`` this test needs. Its
benchmark correctness gate runs every workload that ``BENCHMARK.json`` names,
at a seed with recorded references and at one without, and one step runs the
benchmark's self-tests, which fail if a name that ``perfbench/spans.py``
traces is removed from ``src/``. The report-only LAPACK count perturbs
``np.linalg`` through ``conftest.lapack_perturbed``, which is checked here too,
and the report-only kernel matrix names every SHA-256 pin of tier 1 and no
kernel that needs AVX-512.

A workflow file that does not parse never runs, so CI cannot report it; this
test reports it instead.
"""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import ginibre_density_stack, lapack_perturbed

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]


def workflow_steps() -> list[dict]:
    """Every step of every job of the workflow, in order."""
    workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text())
    return [step for job in workflow["jobs"].values() for step in job["steps"]]


def test_workflow_runs_the_tier_one_command():
    steps = workflow_steps()
    assert steps and all("run" in step or "uses" in step for step in steps)
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())[1]
    assert any(command in step.get("run", "") for step in steps if step.get("name") == "Tier-1 tests")


def test_workflow_installs_the_test_extra():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert "pyyaml" in project["optional-dependencies"]["test"]
    steps = workflow_steps()
    install = [step["run"] for step in steps if step.get("name") == "Install dependencies"]
    assert install and all('".[test]"' in run for run in install)


def test_gate_runs_every_benchmark_workload():
    names = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    steps = workflow_steps()
    gate = [step["run"] for step in steps if step.get("name") == "Benchmark correctness gate"]
    assert len(gate) == 1
    loop = re.search(r"for workload in ([^;]+); do", gate[0])
    assert loop and set(loop[1].split()) == names
    assert '--workload "$workload"' in gate[0] and "\"correct\": true" in gate[0]


def test_gate_runs_a_seed_without_references():
    # At a seed with recorded references the gate only compares digests and
    # thresholds; at one without, it calls the library (check_bracket,
    # check_mems_csv, check_scan_csv, check_werner_map), so CI runs both.
    steps = workflow_steps()
    gate = [step["run"] for step in steps if step.get("name") == "Benchmark correctness gate"]
    loop = re.search(r"for seed in ([^;]+); do", gate[0])
    assert loop and '--seed "$seed"' in gate[0]
    recorded = set()
    for path in sorted((ROOT / "perfbench/reference").glob("*.json")):
        for line in path.read_text().splitlines():
            doc = json.loads(line)
            if "seed" in doc:
                recorded.add(doc["seed"])
    assert recorded and {int(seed) for seed in loop[1].split()} - recorded


def test_workflow_runs_the_benchmark_self_tests():
    command = "python3 perfbench/selftest.py"
    assert len([step for step in workflow_steps() if command in step.get("run", "")]) == 1


def test_kernel_matrix_runs_every_pin_on_kernels_any_avx2_cpu_has():
    matrix = [step["run"] for step in workflow_steps() if step.get("name") == "Byte pins per CPU kernel"]
    assert len(matrix) == 1
    # SkylakeX stops a CPU without AVX-512 on an illegal instruction.
    assert "SkylakeX" not in matrix[0]
    loop = re.search(r"for kernel in \(([^)]+)\):", matrix[0])
    assert loop and re.findall(r'"(\w+)"', loop[1]) == ["Haswell", "Sandybridge", "Nehalem"]
    named = re.findall(r'"tests/test_cli\.py::(\w+)::(\w+)"', matrix[0])
    pins = [(cls.name, fn.name) for cls in ast.parse((ROOT / "tests/test_cli.py").read_text()).body
            if isinstance(cls, ast.ClassDef) for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and "sha256" in ast.unparse(fn)]
    assert pins and sorted(named) == sorted(pins)


def test_lapack_perturbation_is_seeded_bounded_and_undone():
    mats = ginibre_density_stack(50, np.random.default_rng(7))
    calls = {"svd": lambda: np.linalg.svd(mats, compute_uv=False),
             "svd_uv": lambda: np.linalg.svd(mats).S,
             "eigh": lambda: np.linalg.eigh(mats).eigenvalues,
             "eigvalsh": lambda: np.linalg.eigvalsh(mats),
             "det": lambda: np.linalg.det(mats)}
    exact = {name: call() for name, call in calls.items()}
    runs = []
    for _ in range(2):
        with lapack_perturbed(16, seed=3):
            runs.append({name: call() for name, call in calls.items()})
    for name, want in exact.items():
        got = runs[0][name]
        assert np.array_equal(got, runs[1][name]), name
        assert not np.array_equal(got, want), name
        assert np.all(np.abs(got - want) <= 17 * np.finfo(float).eps * np.abs(want)), name
        assert np.array_equal(calls[name](), want), name
