"""A seeded fuzz of every CLI command: hostile input ends in exit 0, 2 or 3, never a traceback.

Each example runs one command through click's ``CliRunner`` with numbers that
are NaN, infinite, out of range, subnormal or malformed; ``file:`` states with
bad JSON, wrong shapes, NaN entries and integers no float holds; bad options;
and ``--out`` paths that are missing or a directory, all under ``tmp_path``.
Sizes stay small (``sample-mems --n`` <= 5, ``scan --steps`` <= 50,
``werner-map --grid`` <= 5), and a size above the row bound is refused before
anything is allocated.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from qnl.channels import FAMILIES
from qnl.cli import MAX_GRID, main

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)

HOSTILE_NUMBERS = [
    "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "5e-324", "-5e-324", "1e-310",
    "0", "-0", "1", "1.0000000000000002", "0.9999999999999999", "2", "-1",
    "", " ", "abc", "1e", "1..2", "0x1p-3", "1_0", "\u00bd",
]
# Hostile numbers, numbers in [0, 1] (so that some runs get past the checks) and any float.
NUMBERS = st.one_of(st.sampled_from(HOSTILE_NUMBERS), st.floats(0.0, 1.0).map(repr),
                    st.floats().map(repr))

FILE_DOCS = st.sampled_from([
    "", "{", "[]", "null", "\"re\"", "{\"re\": 1}", "{\"re\": [[1]], \"im\": [[0]]}",
    json.dumps({"re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()}),
    json.dumps({"re": np.eye(4).tolist(), "im": np.zeros((4, 5)).tolist()}),
    json.dumps({"re": [[[0.25]] * 4] * 4, "im": np.zeros((4, 4)).tolist()}),
    json.dumps({"re": [["a"] * 4] * 4, "im": np.zeros((4, 4)).tolist()}),
    json.dumps({"re": (np.eye(4) / 4).tolist()}),
    "{\"re\": [[NaN, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]],"
    " \"im\": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, Infinity]]}",
    "{\"re\": [[1e400, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],"
    " \"im\": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}",
    json.dumps({"re": (np.eye(4) / 4).tolist(), "im": [[10**400] + [0] * 3] + [[0] * 4] * 3}),
    json.dumps({"re": np.diag([1.0, 5e-324, 0.0, 0.0]).tolist(), "im": np.zeros((4, 4)).tolist()}),
    json.dumps({"re": np.diag([2.0, -1.0, 0.0, 0.0]).tolist(), "im": np.zeros((4, 4)).tolist()}),
    json.dumps({"re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}),
    json.dumps({"re": np.full((4, 4), 0.25).tolist(), "im": np.zeros((4, 4)).tolist()}),
])

CHANNELS = st.sampled_from(sorted(FAMILIES) + ["bit-flip", ""])
TOLS = NUMBERS | st.sampled_from(["1e-3", "1e-6", "1e-9", "1e-17", "0.01"])
SIZE_ABOVE_THE_BOUND = str(MAX_GRID + 1)


@st.composite
def state_specs(draw):
    kind = draw(st.sampled_from(["bell", "werner", "mems", "file", "malformed"]))
    if kind == "bell":
        return draw(st.sampled_from(["bell:singlet", "bell:triplet", "bell:", "bell"]))
    if kind == "werner":
        return "werner:p=" + draw(NUMBERS)
    if kind == "mems":
        if draw(st.booleans()):
            return "mems:p1=0.6,p2=0.2,p3=0.15,p4=0.05"
        weights = [f"p{i}={draw(NUMBERS)}" for i in range(1, 5)]
        return "mems:" + ",".join(draw(st.permutations(weights))[:draw(st.integers(3, 4))])
    if kind == "file":
        return ("file", draw(FILE_DOCS))
    return draw(st.text(max_size=12))


@st.composite
def commands(draw, command):
    """The arguments of one run of ``command``; a ``file:`` state or an ``--out`` path is
    returned as a tag that the test resolves under ``tmp_path``."""
    if command in ("measures", "scan", "thresholds"):
        args = [command, "--state", draw(state_specs())]
    else:
        args = [command, "--out", draw(st.sampled_from(["out", "missing", "directory"]))]
    if command == "scan":
        args += ["--channel", draw(CHANNELS), "--qmin", draw(NUMBERS), "--qmax", draw(NUMBERS),
                 "--steps", draw(st.integers(-3, 50).map(str) | st.sampled_from(
                     ["abc", "2.5", "nan", "", SIZE_ABOVE_THE_BOUND, "1" + "0" * 30]))]
    elif command == "thresholds":
        args += ["--channel", draw(CHANNELS), "--tol", draw(TOLS)]
    elif command == "sample-mems":
        args += ["--n", draw(st.integers(-2, 5).map(str) | st.sampled_from(
                     ["abc", "1.5", "", SIZE_ABOVE_THE_BOUND])),
                 "--seed", draw(st.integers(-2, 3).map(str) | st.sampled_from(
                     ["abc", "nan", "1e3", str(2**64), str(2**200)])),
                 "--channel", draw(CHANNELS), "--tol", draw(TOLS)]
    elif command == "werner-map":
        args += ["--grid", draw(st.integers(-2, 5).map(str) | st.sampled_from(
                     ["abc", "2.5", "", SIZE_ABOVE_THE_BOUND]))]
    # Options in any order, some of them left out; never a size, whose default is larger.
    flags = [args[i:i + 2] for i in range(1, len(args), 2)]
    kept = [pair for pair in draw(st.permutations(flags))
            if pair[0] in ("--state", "--out", "--steps", "--n", "--grid") or draw(st.booleans())]
    return [command] + [item for pair in kept for item in pair]


def resolve(args: list, tmp_path) -> list[str]:
    """The arguments with a ``file:`` state written under tmp_path and ``--out`` tags made paths."""
    resolved = []
    for arg in args:
        if isinstance(arg, tuple):
            path = tmp_path / "state.json"
            path.write_text(arg[1])
            arg = f"file:{path}"
        elif resolved and resolved[-1] == "--out":
            arg = str({"out": tmp_path / "out.csv", "missing": tmp_path / "missing" / "out.csv",
                       "directory": tmp_path}[arg])
        resolved.append(arg)
    return resolved


@pytest.mark.parametrize("command", ["measures", "scan", "thresholds", "sample-mems", "werner-map"])
def test_hostile_input_exits_0_2_or_3(command, tmp_path):
    runner = CliRunner()

    @FUZZ
    @given(args=commands(command))
    def run(args):
        args = resolve(args, tmp_path)
        result = runner.invoke(main, args)
        assert result.exit_code in (0, 2, 3), (args, result.output, result.exception)
        assert "Traceback" not in result.output, args

    run()
