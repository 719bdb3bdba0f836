import contextlib
import errno
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import qnl
from conftest import write_state
from qnl.cli import MAX_GRID, MAX_MAP_AXIS, main
from qnl.states import werner
from qnl.thresholds import concurrence_ad, fidelity_ad


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.output


# The commands that write a CSV to --out, without it.
FILE_COMMANDS = [["sample-mems", "--n", "3", "--seed", "7"], ["werner-map", "--grid", "11"]]


def fail_allocation(*args, **kwargs):
    raise AssertionError("a grid was allocated")


def cli_env(env=None):
    """The environment of a child ``python -m qnl.cli`` that imports this qnl."""
    src = str(Path(qnl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **(env or {}), "PYTHONPATH": path}


def run_cli_process(args, timeout, env=None):
    """Run ``python -m qnl.cli`` in a child process, so that a hang fails the test."""
    return subprocess.run([sys.executable, "-m", "qnl.cli", *args], capture_output=True,
                          text=True, env=cli_env(env), timeout=timeout)


class TestMeasuresCommand:
    def test_bell_singlet(self, runner):
        doc = json.loads(run_ok(runner, ["measures", "--state", "bell:singlet"]))
        assert doc["concurrence"] == pytest.approx(1.0, abs=1e-9)
        assert doc["bell"] == pytest.approx(2.8284271, abs=1e-6)
        assert doc["n_value"] == pytest.approx(3.0, abs=1e-9)
        assert doc["class"] == "BEYOND_GISIN"

    def test_werner_half(self, runner):
        doc = json.loads(run_ok(runner, ["measures", "--state", "werner:p=0.5"]))
        assert doc["fidelity"] == pytest.approx(0.75, abs=1e-12)
        assert doc["class"] == "TELEPORT_NOT_BELL"

    def test_mems_spec(self, runner):
        doc = json.loads(
            run_ok(runner, ["measures", "--state", "mems:p1=1,p2=0,p3=0,p4=0"])
        )
        assert doc["concurrence"] == pytest.approx(1.0, abs=1e-9)

    def test_file_spec(self, runner, tmp_path):
        path = tmp_path / "w.json"
        write_state(werner(0.5).mat, path)
        doc = json.loads(run_ok(runner, ["measures", "--state", f"file:{path}"]))
        assert doc["fidelity"] == pytest.approx(0.75, abs=1e-12)

    # SHA-256 of the stdout on the spec of each state family: the JSON goes
    # through classify, so a refactor of the scalar path must keep these bytes.
    @pytest.mark.parametrize(
        "spec, digest",
        [("bell:singlet", "5285922b8779ef265c8f29ef7254b2a8dc1a42c8d6bca8b839a59af191f67140"),
         ("werner:p=0.8", "e5118990630977a3bd4f4def135bf2d7f75311b2390ac5b6793a6f9a1e4961b3"),
         ("mems:p1=0.6,p2=0.2,p3=0.15,p4=0.05",
          "4fdf0f49f78269bc97039c27d868606fece9840b4f4529291b51f1048c3e3430")],
    )
    def test_golden_stdout(self, runner, spec, digest):
        out = run_ok(runner, ["measures", "--state", spec])
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "spec",
        ["werner:p=2", "bell:triplet", "nonsense", "werner:x=1",
         "mems:p1=1", "file:/does/not/exist.json", "mems:p1=0.5,p2=0.5,p3=0.5,p4=0.5"],
    )
    def test_bad_specs_exit_2(self, runner, spec):
        result = runner.invoke(main, ["measures", "--state", spec])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "spec, message",
        [("mems:p1=0.9,p1=0.6,p2=0.2,p3=0.15,p4=0.05", "mems spec names 'p1' twice"),
         ("mems:p1=0.6,p2=0.2,p3=0.15,p4=0.05,", "mems spec item '' is not 'key=value'"),
         ("mems:p1=0.6,p2,p3=0.15,p4=0.05", "mems spec item 'p2' is not 'key=value'")],
    )
    def test_malformed_mems_items_exit_2(self, runner, spec, message):
        result = runner.invoke(main, ["measures", "--state", spec])
        assert result.exit_code == 2
        assert message in result.output


class TestScanCommand:
    def test_header_and_first_row(self, runner):
        out = run_ok(
            runner,
            ["scan", "--state", "bell:singlet", "--channel", "amplitude-damping",
             "--qmin", "0", "--qmax", "1", "--steps", "101"],
        )
        lines = out.strip().split("\n")
        assert lines[0] == "q,concurrence,fidelity,bell"
        assert len(lines) == 102
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0, abs=1e-9)
        assert first[3].startswith("2.8284271")

    def test_werner_rows_match_closed_forms(self, runner):
        out = run_ok(runner, ["scan", "--state", "werner:p=0.8", "--steps", "11"])
        for line in out.strip().split("\n")[1:]:
            q, c, f, _ = map(float, line.split(","))
            assert c == pytest.approx(concurrence_ad(0.8, q), abs=1e-10)
            assert f == pytest.approx(fidelity_ad(0.8, q), abs=1e-10)

    # SHA-256 of the scan stdout: printed curves are byte-reproducible, so a
    # faster evolution or formatting must keep these bytes. C is computed only
    # at the rows whose det(rho^{T_B}) is below SEPARABLE_DET: 6301 of the
    # Werner state's 10007 (the rest are separable and print C = 0), and every
    # row of the file state, which stays entangled. Of those, LAPACK's Wootters
    # roots read only the rows whose printed C the Jacobi kernel cannot certify.
    def test_golden_stdout_werner(self, runner, concurrence_stacks, wootters_stacks):
        out = run_ok(runner, ["scan", "--state", "werner:p=0.9", "--channel", "depolarizing",
                              "--steps", "10007"])
        digest = "489108ca48c026c754af3c6d5cb147a25cc7aeacd220e023e09a8863c5153eed"
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert sum(len(stack) for stack in concurrence_stacks) == 6301
        assert sum(len(stack) for stack in wootters_stacks) == 639

    def test_golden_stdout_non_x_file_state(self, runner, tmp_path, concurrence_stacks,
                                            wootters_stacks):
        # 0.8 |psi><psi| + 0.05 I, entangled and not an X-state.
        psi = np.array([0.64, 0.48j, 0.36, 0.48])
        path = tmp_path / "state.json"
        write_state(0.8 * np.outer(psi, psi.conj()) + 0.05 * np.eye(4), path)
        out = run_ok(runner, ["scan", "--state", f"file:{path}", "--channel",
                              "amplitude-damping", "--steps", "4005"])
        digest = "01528d534d7fd8c1eaca43bb74c44309f94ccf1b9557582eed96873ae3ff4be4"
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert sum(len(stack) for stack in concurrence_stacks) == 4005
        assert sum(len(stack) for stack in wootters_stacks) == 730

    def test_golden_stdout_exponent_q(self, runner):
        # Every q after the first is below 1e-4, so each prints in exponent
        # notation through Python's %, spliced between the C, F and B cells.
        out = run_ok(runner, ["scan", "--state", "werner:p=0.9", "--qmin", "0", "--qmax", "1e-5",
                              "--steps", "5000"])
        digest = "9301d3e136471357f014b78e6b6600559ec19de1808142bfea8c17ef1afc1cbe"
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert out.split("\n")[2].startswith("2.00040008002e-09,")

    def test_golden_stdout_small_table(self, runner):
        # A 21-row scan: one block of 84 cells, far below a full block.
        out = run_ok(runner, ["scan", "--state", "mems:p1=0.6,p2=0.2,p3=0.15,p4=0.05",
                              "--channel", "phase-damping", "--steps", "21"])
        digest = "a6a15e4a97368f3e4347893703eb4155166f3c6fb47042b30aeef58905ff1310"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_steps_one_rejected(self, runner):
        result = runner.invoke(main, ["scan", "--state", "bell:singlet", "--steps", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("steps", ["10000000000000", "99999999999999999999999"])
    def test_absurd_steps_rejected_before_allocating(self, runner, monkeypatch, steps):
        monkeypatch.setattr(np, "linspace", fail_allocation)
        result = runner.invoke(main, ["scan", "--state", "bell:singlet", "--steps", steps])
        assert result.exit_code == 2
        assert f"[2, {MAX_GRID}]" in result.output

    def test_bad_range_rejected(self, runner):
        result = runner.invoke(
            main, ["scan", "--state", "bell:singlet", "--qmin", "0.8", "--qmax", "0.2"]
        )
        assert result.exit_code == 2

    def test_collapsed_grid_is_a_usage_error(self, runner):
        # qmax is the float after qmin: qmin < qmax, but five steps repeat floats.
        result = runner.invoke(main, ["scan", "--state", "bell:singlet", "--qmin", "0.5",
                                      "--qmax", "0.5000000000000001", "--steps", "5"])
        assert result.exit_code == 2
        assert "strictly increasing" in result.output
        assert "numerical failure" not in result.output


class TestThresholdsCommand:
    def test_bell_singlet(self, runner):
        doc = json.loads(run_ok(runner, ["thresholds", "--state", "bell:singlet"]))
        assert doc["q_F"] == pytest.approx(2 * math.sqrt(2) - 2, abs=1e-6)
        assert doc["q_B"] == pytest.approx(0.5, abs=1e-6)
        assert doc["q_C"] is None
        assert doc["hierarchy_ok"] is True

    def test_maximally_mixed_from_file(self, runner, tmp_path):
        path = tmp_path / "mixed.json"
        write_state(np.eye(4) / 4, path)
        doc = json.loads(run_ok(runner, ["thresholds", "--state", f"file:{path}"]))
        assert doc["q_G"] == doc["q_B"] == doc["q_F"] == doc["q_C"] == 0.0
        assert doc["hierarchy_ok"] is True

    def test_bad_tol(self, runner):
        result = runner.invoke(
            main, ["thresholds", "--state", "bell:singlet", "--tol", "0.5"]
        )
        assert result.exit_code == 2

    def test_tol_below_float_spacing_returns(self, runner):
        # Brackets narrow to adjacent floats long before 1e-16; the locator
        # must stop there instead of bisecting the same bracket forever.
        spec = ["thresholds", "--state", "werner:p=0.9"]
        result = run_cli_process([*spec, "--tol", "1e-16"], timeout=60)
        assert result.returncode == 0, result.stderr
        tiny = json.loads(result.stdout)
        ref = json.loads(run_ok(runner, [*spec, "--tol", "1e-12"]))
        for key in ("q_G", "q_B", "q_F"):
            assert tiny[key] == pytest.approx(ref[key], abs=1e-11)
        assert tiny["q_C"] is ref["q_C"] is None

    # The same for threshold_set, on those states under each channel.
    @pytest.mark.parametrize(
        "spec, channel, digest",
        [("bell:singlet", "amplitude-damping",
          "a7bb869b3adfe95668e9e6c3e85ab75b2077fe0d404f1b64333af4f4ca695718"),
         ("bell:singlet", "phase-damping",
          "accf29497b7aa69494ec3321acd8c1ff963208a57fa2d1b844a7dda5b7c03844"),
         ("bell:singlet", "depolarizing",
          "ab0034bcf6ccae0fccf61596ca967ecf102f26031db2f56429d20986d12aa7dd"),
         ("werner:p=0.8", "amplitude-damping",
          "ca01b99b49915999970f70811d157c9c201113abeb8c670e02a706f5dad25f4d"),
         ("werner:p=0.8", "phase-damping",
          "4a2fa2fe9ea73fb1c4f74d5886cc6d0f7e3b290ebff6680f57d1e751430c74b6"),
         ("werner:p=0.8", "depolarizing",
          "dd1c70ff3bcdeda7af8b661f53ada9eb4d6cbba8e9cfa8fdfe829b0a989dffc8"),
         ("mems:p1=0.6,p2=0.2,p3=0.15,p4=0.05", "amplitude-damping",
          "a657857373384c979e941055dfc22a12059fc48b60b6b83d804b362937940edf"),
         ("mems:p1=0.6,p2=0.2,p3=0.15,p4=0.05", "phase-damping",
          "393ab2703aa428307785288796a9032d4465b608adb066b2c56cca04f9d006ff"),
         ("mems:p1=0.6,p2=0.2,p3=0.15,p4=0.05", "depolarizing",
          "625e4b440fbd9e2de366e433919cef4f89f94591a58f512420e2c04dc8b0b982")],
    )
    def test_golden_stdout(self, runner, spec, channel, digest):
        out = run_ok(runner, ["thresholds", "--state", spec, "--channel", channel])
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSampleMemsCommand:
    def test_small_run(self, runner, tmp_path):
        out_path = tmp_path / "records.csv"
        output = run_ok(
            runner, ["sample-mems", "--n", "25", "--seed", "7", "--out", str(out_path)]
        )
        assert "25 records" in output
        lines = out_path.read_text().split("\n")
        assert lines[0] == "p1,p2,p3,p4,q_G,q_B,q_F,q_C,gap_GB,gap_BF,gap_FC"
        rows = [line for line in lines[1:] if line]
        assert len(rows) == 25
        for row in rows:
            cells = row.split(",")
            for cell in cells[8:]:
                if cell:
                    assert float(cell) >= -1e-6

    def test_deterministic_bytes(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_ok(runner, ["sample-mems", "--n", "10", "--seed", "3", "--out", str(a)])
        run_ok(runner, ["sample-mems", "--n", "10", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_n_zero_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main, ["sample-mems", "--n", "0", "--out", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == 2

    def test_n_above_the_row_bound_rejected_before_drawing(self, runner, monkeypatch, tmp_path):
        monkeypatch.setattr(qnl.sampling, "_accepted_weights", fail_allocation)
        out_path = tmp_path / "x.csv"
        result = runner.invoke(
            main, ["sample-mems", "--n", str(MAX_GRID + 1), "--out", str(out_path)]
        )
        assert result.exit_code == 2
        assert f"[1, {MAX_GRID}]" in result.output
        assert not out_path.exists()

    def test_reports_the_locator_self_check(self, runner, tmp_path):
        out_path = tmp_path / "x.csv"
        output = run_ok(runner, ["sample-mems", "--n", "4", "--seed", "1", "--out", str(out_path)])
        assert output == (f"wrote 4 records to {out_path}; "
                          "locator self-check: 4 of 4 ordered q_G <= q_B <= q_F <= q_C\n")

    def test_negative_seed_rejected(self, runner, tmp_path):
        out_path = tmp_path / "x.csv"
        result = runner.invoke(
            main, ["sample-mems", "--n", "2", "--seed", "-1", "--out", str(out_path)]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert not out_path.exists()

    @pytest.mark.parametrize("parent", ["missing", "a-file"])
    def test_unwritable_out_exits_2_before_the_experiment(self, runner, monkeypatch, tmp_path,
                                                          parent):
        monkeypatch.setattr(qnl.sampling, "hierarchy_experiment", fail_allocation)
        (tmp_path / "a-file").write_text("")
        out_path = tmp_path / parent / "x.csv"
        result = runner.invoke(main, ["sample-mems", "--n", "100000", "--out", str(out_path)])
        assert result.exit_code == 2
        assert "cannot write" in result.output
        assert not out_path.exists()

    def test_tol_below_float_spacing_returns(self, tmp_path):
        out_path = tmp_path / "x.csv"
        result = run_cli_process(
            ["sample-mems", "--n", "5", "--seed", "1", "--tol", "1e-17", "--out", str(out_path)],
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert len(out_path.read_text().splitlines()) == 6

    # SHA-256 of `sample-mems --n 1000 --seed 7` per channel: the experiment's
    # output is byte-reproducible, so any refactor must keep these bytes.
    @pytest.mark.parametrize(
        "channel, digest",
        [("amplitude-damping", "e89240114c6f8965fc8a3fdead618dc21fe7a6c194f20ac1468fd1e727a09d35"),
         ("phase-damping", "0bb74fdf7e0c10abb62e35b1b90e8a7243ed77412c99ad200971fcc6dbabab5d"),
         ("depolarizing", "38ddd5f0eb50262e0869cb875a5694ca1fae49487d2af78f9a477d45d101c6b3")],
    )
    def test_golden_csv(self, runner, tmp_path, channel, digest):
        out_path = tmp_path / "records.csv"
        run_ok(runner, ["sample-mems", "--n", "1000", "--seed", "7", "--channel", channel,
                        "--out", str(out_path)])
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    # The same at --n 10000, which x_thresholds locates in three blocks of states.
    @pytest.mark.parametrize(
        "channel, digest",
        [("amplitude-damping", "857e68ced5de550aff3daff049d62dd3cba4b4c70528d8f8dacd069febcd3d33"),
         ("phase-damping", "e2b7d7ad46a76e225b13865afad415cf6c2ab8a2ebd4906db8d4abce8b8227f4"),
         ("depolarizing", "568c8c3f04ea90a539a120c32e44a0211655b4af2e893c7e5d4eadb09efa0838")],
    )
    def test_golden_csv_of_three_blocks(self, runner, tmp_path, channel, digest):
        out_path = tmp_path / "records.csv"
        run_ok(runner, ["sample-mems", "--n", "10000", "--seed", "7", "--channel", channel,
                        "--out", str(out_path)])
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    # The same at --n 30, the benchmark's op: one block of 330 cells.
    @pytest.mark.parametrize(
        "channel, digest",
        [("amplitude-damping", "1c93fd701a65dd9d0253e6a9113531d133c37b7f37d5ee0b276c3ec3a7e8ed1a"),
         ("phase-damping", "36306394328eacb0cfd6a809de1b09ee3dafa6fb7eb7c9d52f6ab50449090262"),
         ("depolarizing", "875d812119251a99a5a542aeebde91e77fb5618db7ce543915685a47d1328693")],
    )
    def test_golden_csv_of_thirty_states(self, runner, tmp_path, channel, digest):
        out_path = tmp_path / "records.csv"
        run_ok(runner, ["sample-mems", "--n", "30", "--seed", "7", "--channel", channel,
                        "--out", str(out_path)])
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


class TestWernerMapCommand:
    # SHA-256 of the map CSV: the labels and their formatting are
    # byte-reproducible, so a faster evaluation must keep these bytes.
    @pytest.mark.parametrize(
        "grid, digest",
        [("101", "42dff4108e358c381b5050a897fd7b05f29908274c9b9e8af60eb868add2e5d1"),
         ("201", "1fda0eb5ff37d195941c0dcaca9c2da35c3e62e4a9ec4c689c9effc863145d1f")],
    )
    def test_golden_csv(self, runner, tmp_path, grid, digest):
        out_path = tmp_path / "map.csv"
        run_ok(runner, ["werner-map", "--grid", grid, "--out", str(out_path)])
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    def test_lattice(self, runner, tmp_path):
        out_path = tmp_path / "map.csv"
        run_ok(runner, ["werner-map", "--grid", "11", "--out", str(out_path)])
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "p,q,region"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 121
        assert all(r[2] in {"R1", "R2", "R3", "R4", "R5"} for r in rows)
        table = {(r[0], r[1]): r[2] for r in rows}
        assert table[("0.2", "0.5")] == "R1"
        assert table[("1", "0.5")] == "R3"

    @pytest.mark.parametrize("grid", ["10000000000000", "99999999999999999999999"])
    def test_absurd_grid_rejected_before_allocating(self, runner, monkeypatch, tmp_path, grid):
        monkeypatch.setattr(np, "linspace", fail_allocation)
        result = runner.invoke(
            main, ["werner-map", "--grid", grid, "--out", str(tmp_path / "m.csv")]
        )
        assert result.exit_code == 2
        assert f"[2, {MAX_MAP_AXIS}]" in result.output
        assert not (tmp_path / "m.csv").exists()

    def test_grid_above_the_row_bound_rejected(self, runner, tmp_path):
        # 1001^2 rows exceed MAX_GRID; the largest map has 1000^2.
        result = runner.invoke(
            main, ["werner-map", "--grid", str(MAX_MAP_AXIS + 1), "--out", str(tmp_path / "m.csv")]
        )
        assert MAX_MAP_AXIS == 1000
        assert result.exit_code == 2
        assert not (tmp_path / "m.csv").exists()

    def test_grid_one_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main, ["werner-map", "--grid", "1", "--out", str(tmp_path / "m.csv")]
        )
        assert result.exit_code == 2


class TestFailureExits:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("command", ["measures", "thresholds"])
    def test_non_finite_file_state_exits_2(self, runner, tmp_path, command, bad):
        doc = {"re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}
        doc["re"][0][1] = doc["re"][1][0] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, [command, "--state", f"file:{path}"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "finite" in result.output

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_imaginary_part_exits_2(self, runner, tmp_path, bad):
        # 1j * inf makes a NaN real part; that raised numpy's RuntimeWarning first.
        doc = {"re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}
        doc["im"][3][3] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["measures", "--state", f"file:{path}"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "finite" in result.output

    def test_deeply_nested_file_state_exits_2(self, runner, tmp_path):
        # Deeper than the JSON parser's recursion limit: a message, not a traceback.
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        result = runner.invoke(main, ["measures", "--state", f"file:{path}"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "invalid state spec" in result.output

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("command", ["measures", "thresholds", "scan"])
    def test_integer_too_large_for_a_float_exits_2(self, runner, tmp_path, command, part):
        # json reads 10^400 as a Python int, which no float holds.
        doc = {"re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}
        doc[part][0][1] = 10**400
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, [command, "--state", f"file:{path}"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "invalid state spec" in errors[0]
        assert "Traceback" not in result.output

    def test_nan_mems_weight_exits_2(self, runner):
        result = runner.invoke(
            main, ["measures", "--state", "mems:p1=nan,p2=0.5,p3=0.3,p4=0.2"]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("tol", ["nan", "0", "0.01"])
    @pytest.mark.parametrize("command", ["thresholds", "sample-mems"])
    def test_bad_tol_exits_2(self, runner, tmp_path, command, tol):
        out_path = tmp_path / "records.csv"
        rest = (["--state", "bell:singlet"] if command == "thresholds"
                else ["--n", "1", "--out", str(out_path)])
        result = runner.invoke(main, [command, "--tol", tol, *rest])
        assert result.exit_code == 2
        assert not out_path.exists()

    def test_rejection_stall_exits_3_without_csv(self, runner, tmp_path, monkeypatch):
        import qnl.sampling

        monkeypatch.setattr(qnl.sampling, "MAX_DRAWS", 0)
        out_path = tmp_path / "records.csv"
        result = runner.invoke(main, ["sample-mems", "--n", "1", "--out", str(out_path)])
        assert result.exit_code == 3
        assert "numerical failure" in result.stderr
        assert result.stdout == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("args", FILE_COMMANDS, ids=lambda args: args[0])
    def test_failed_write_leaves_no_file(self, runner, monkeypatch, tmp_path, args):
        # The first write keeps its first bytes, as a disk that fills up does, then fails.
        kept = []

        def filling_open(*open_args, **kwargs):
            fh = open(*open_args, **kwargs)
            write = fh.write

            def fail(text):
                write(text[:5])
                fh.flush()
                kept.append(os.path.getsize(open_args[0]))
                raise OSError(errno.ENOSPC, "No space left on device")

            fh.write = fail
            return fh

        monkeypatch.setattr(qnl.cli, "open", filling_open, raising=False)
        out_path = tmp_path / "out.csv"
        result = runner.invoke(main, [*args, "--out", str(out_path)])
        assert result.exit_code == 2
        assert "cannot write" in result.output
        assert kept == [5]
        assert not out_path.exists()

    def test_failed_write_through_a_link_removes_its_target(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)

        def write(fh):
            fh.write("p,q,r")
            fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

        with pytest.raises(click.UsageError, match="cannot write"):
            qnl.cli._write_out(str(link), write)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert not target.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_stdout_device_on_a_pipe_as_out(self):
        # /dev/stdout on a pipe resolves to no file, so --out is opened as given.
        result = run_cli_process(["werner-map", "--grid", "3", "--out", "/dev/stdout"], timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("p,q,region\n0,0,R1\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("args", FILE_COMMANDS, ids=lambda args: args[0])
    def test_full_device_as_out_exits_2_and_stays(self, runner, monkeypatch, args):
        def forbidden(path, *rest, **kwargs):
            raise AssertionError(f"removed {path}")

        monkeypatch.setattr(os, "remove", forbidden)
        monkeypatch.setattr(os, "unlink", forbidden)
        before = os.stat("/dev/full")
        result = runner.invoke(main, [*args, "--out", "/dev/full"])
        assert result.exit_code == 2, result.output
        assert "cannot write" in result.output
        after = os.stat("/dev/full")
        assert (after.st_mode, after.st_rdev, after.st_ino) == (
            before.st_mode, before.st_rdev, before.st_ino)


@pytest.mark.parametrize("args", [
    ["scan", "--state", "werner:p=0.8", "--steps", "11"],
    ["thresholds", "--state", "werner:p=0.8", "--tol", "1e-3"],
])
def test_in_process_run_frees_the_redirected_stdout(args):
    # A program that runs a command in-process into a redirected stdout keeps
    # no reference to that stream once it drops its own.
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        main.main(args, standalone_mode=False)
    assert buffer.getvalue()
    freed = weakref.ref(buffer)
    del buffer
    gc.collect()
    assert freed() is None


def test_ascii_stdout_takes_a_non_ascii_path(tmp_path):
    # On a stdout opened as ASCII, output goes through the UTF-8 text stream
    # that click.echo would pick, so a non-ASCII --out path is echoed, not an error.
    out = tmp_path / "\u00e9.csv"
    result = run_cli_process(["werner-map", "--grid", "2", "--out", str(out)], timeout=60,
                             env={"PYTHONIOENCODING": "ascii"})
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"wrote 4 rows to {out}\n"


class _FullStream(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


STDOUT_COMMANDS = [
    ["measures", "--state", "bell:singlet"],
    ["thresholds", "--state", "bell:singlet"],
    ["scan", "--state", "bell:singlet", "--steps", "100000"],
]


@pytest.mark.parametrize("args", STDOUT_COMMANDS)
def test_failed_stdout_write_exits_2_with_one_line(args, capsys):
    with contextlib.redirect_stdout(_FullStream()), pytest.raises(SystemExit) as exit_info:
        main.main(args, standalone_mode=False)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == "cannot write to stdout: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("args", STDOUT_COMMANDS)
def test_stdout_on_a_full_device_exits_2_with_one_line(args):
    with open("/dev/full", "w") as full:
        result = subprocess.run([sys.executable, "-m", "qnl.cli", *args], stdout=full,
                                stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=120)
    assert result.returncode == 2
    assert result.stderr == "cannot write to stdout: [Errno 28] No space left on device\n"


def test_closed_pipe_exits_2_with_one_line():
    # The pipe has no reader from the start: no "Exception ignored" from the last flush.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "qnl.cli", *STDOUT_COMMANDS[2]], stdout=write_end,
                                stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=120)
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr == "cannot write to stdout: [Errno 32] Broken pipe\n"
