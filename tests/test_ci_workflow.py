"""The CI workflow parses, every step does something, and it runs the tier-1 command.

A workflow file that does not parse never runs, so CI cannot report it; this
test reports it instead.
"""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]


def test_workflow_runs_the_tier_one_command():
    workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    assert steps and all("run" in step or "uses" in step for step in steps)
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())[1]
    assert any(command in step.get("run", "") for step in steps if step.get("name") == "Tier-1 tests")
