"""The benchmark gate's reference-free path, on real CLI output.

Without a recorded reference, ``perfbench/gate.py`` judges an op by calling the
library: ``check_scan_csv`` recomputes spot rows as
``classify(apply_channel(rho, FAMILIES[channel](q)))``, ``check_werner_map``
recomputes spot cells with ``werner_region``, and ``check_thresholds`` and
``check_mems_csv`` probe each threshold with ``scan``. Here the CLI's output of
each kind goes to the gate, so a library change that the gate misreads fails
in tier 1, not in a benchmark run. gate.py is loaded from its path and read,
not changed.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import ginibre, write_state
from qnl.channels import FAMILIES
from qnl.cli import main, parse_state_spec

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCAN_STEPS = 101
TOL = 1e-9


def load_gate():
    spec = importlib.util.spec_from_file_location("perfbench_gate", BENCH / "gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


gate = load_gate()


def run_cli(args) -> str:
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.output


@pytest.fixture
def ginibre_spec(tmp_path):
    path = tmp_path / "state.json"
    write_state(ginibre(np.random.default_rng(27), 4), path)
    return f"file:{path}"


def scan_csv(spec: str, channel: str) -> str:
    return run_cli(["scan", "--state", spec, "--channel", channel, "--steps", str(SCAN_STEPS)])


@pytest.mark.parametrize("channel", sorted(FAMILIES))
def test_scan_csv_passes(ginibre_spec, channel):
    text = scan_csv(ginibre_spec, channel)
    rho = parse_state_spec(ginibre_spec)
    for seed in range(3):
        assert gate.check_scan_csv(text, rho, channel, SCAN_STEPS, seed) == []


def test_scan_csv_with_a_flipped_digit_is_refused(ginibre_spec):
    channel = "depolarizing"
    lines = scan_csv(ginibre_spec, channel).split("\n")
    # Row q = 0 is checked at every seed; flip the third digit after the point
    # of its fidelity, well beyond the gate's relative tolerance of 1e-9.
    cells = lines[1].split(",")
    digits = list(cells[2])
    at = digits.index(".") + 3
    digits[at] = str((int(digits[at]) + 1) % 10)
    cells[2] = "".join(digits)
    lines[1] = ",".join(cells)
    errors = gate.check_scan_csv("\n".join(lines), parse_state_spec(ginibre_spec), channel,
                                 SCAN_STEPS, 0)
    assert len(errors) == 1 and errors[0].startswith("row 0: fidelity=")


@pytest.mark.parametrize("channel", sorted(FAMILIES))
def test_thresholds_pass_without_a_reference(ginibre_spec, channel):
    text = run_cli(["thresholds", "--state", ginibre_spec, "--channel", channel,
                    "--tol", repr(TOL)])
    assert gate.check_thresholds(text, parse_state_spec(ginibre_spec), channel, TOL, None) == []


def test_werner_map_passes(tmp_path):
    out = tmp_path / "map.csv"
    run_cli(["werner-map", "--grid", "21", "--out", str(out)])
    text = out.read_text()
    for seed in range(3):
        assert gate.check_werner_map(text, 21, seed) == []


@pytest.mark.parametrize("channel", sorted(FAMILIES))
def test_mems_csv_passes(tmp_path, channel):
    out = tmp_path / "mems.csv"
    run_cli(["sample-mems", "--n", "5", "--seed", "11", "--channel", channel,
             "--tol", "1e-06", "--out", str(out)])
    assert gate.check_mems_csv(out.read_text(), 5, channel, 1e-6) == []
